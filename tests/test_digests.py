"""Behaviour lock: shipped and benchmark scenarios keep byte-identical outputs.

Each run's ndjson log and summary row must hash to the sha256 digests that
``bench/golden.json`` records under the same label.  The chain scenarios run
six routers; the grid-partition and flows-mesh runs, generated by
``bench/workloads.py``, lock what only a larger mesh reaches: remote edges
confirmed across a 25-router partition and heal, and many flows over a cut
link.  A change that only makes the simulator faster or smaller must leave
the digests untouched, and also the number of events each run schedules
and of records it logs; one that alters the logs on purpose regenerates
``bench/golden.json`` and says so.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation

from support import builtin_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workloads import flows_mesh_doc, grid_partition_doc  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())
GENERATED = {"grid-partition": grid_partition_doc, "flows-mesh": flows_mesh_doc}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Events scheduled and log records written by each run.  A speed-up keeps
# both; a change that removes events on purpose updates its count here and
# says why.
WORK = {
    "merge/0": (5_770, 243),
    "partition/7": (11_835, 1_030),
    "grid-partition/0": (85_902, 3_036),
    "flows-mesh/0": (69_322, 20_202),
}


@pytest.mark.parametrize(
    "name, seed", [("merge", 0), ("partition", 7), ("grid-partition", 0), ("flows-mesh", 0)]
)
def test_log_and_summary_digests(name, seed):
    label = f"{name}/{seed}"
    if name in GENERATED:
        scenario = scenario_from_mapping(GENERATED[name](seed), source=label)
    else:
        scenario = builtin_scenario(name)
    sim = Simulation(scenario, seed)
    result = sim.run()
    assert sha256(result.log.to_ndjson()) == GOLDEN[label]["log"]
    assert sha256(result.summary.as_csv_line()) == GOLDEN[label]["summary"]
    assert (sim.engine._seq, len(result.log.records)) == WORK[label]
