"""Record the log and summary digests that benchmark runs compare against.

    python3 bench/golden.py

Runs one pass of every workload for each workload seed in GOLDEN_SEEDS, checks
its outputs, and writes bench/golden.json: for each run label, the sha256 of
its ndjson log and of its summary row.  A benchmark run reports any drift
from these digests as its own signal, apart from failed checks.  Regenerate
the file only in a change that alters the logs on purpose, and say so.
"""
from __future__ import annotations

import json
import sys

import checkout

checkout.use_source()

from harness import run_pass  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

from run import GOLDEN  # noqa: E402

GOLDEN_SEEDS = range(20)


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    checks = Checks()
    for workload, make in WORKLOADS.items():
        for seed in GOLDEN_SEEDS:
            digests.update(run_pass(make(seed), checks).digests)
            print(f"{workload}/{seed}: {checks.attempted} checks so far", flush=True)
    if checks.failures:
        print("\n".join(checks.failures[:10]), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
