"""Grid scaling report, outside the gated workloads.

    python3 bench/scaling.py

Runs the grid-partition scenario of workload seed 0 on k x k grids, k in
SIZES, and prints for each k the events scheduled and the simulated seconds
per second at the reference host speed (see hostspeed.py), the median over
REPEAT passes.  It tracks how run time grows with mesh size: events grow
about linearly with routers, wall time faster.  The report is also written
to bench/out/scaling.json.
"""
from __future__ import annotations

import json
import sys

import checkout

checkout.use_source()

from harness import reference_rate, run_pass  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from workloads import GRID_DURATION_S, RunSpec, check_grid, grid_partition_doc  # noqa: E402

from run import OUT  # noqa: E402

SIZES = (3, 5, 7)
REPEAT = 3
SEED = 0


def main() -> int:
    clock = HostClock()
    rows = []
    print(f"{'grid':>6} {'routers':>8} {'events':>9} {'sim_s_per_wall_s':>17}")
    for k in SIZES:
        spec = RunSpec(f"grid{k}x{k}/{SEED}", grid_partition_doc(SEED, k), SEED, check_grid)
        passes = [run_pass([spec], None, clock) for _ in range(REPEAT)]
        row = {
            "k": k,
            "routers": k * k,
            "simulated_s": GRID_DURATION_S,
            "events": passes[0].events,
            "sim_s_per_wall_s": reference_rate(passes),
        }
        rows.append(row)
        print(f"{k:>4}x{k:<1} {k * k:>8} {row['events']:>9} {row['sim_s_per_wall_s']:>17.3f}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
