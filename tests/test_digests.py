"""Behaviour lock: shipped and benchmark scenarios keep byte-identical outputs.

Each run's ndjson log and summary row must hash to the sha256 digests that
``bench/golden.json`` records under the same label.  The chain scenarios run
six routers; the grid-partition and flows-mesh runs, generated by
``bench/workloads.py``, lock what only a larger mesh reaches: remote edges
confirmed across a 25-router partition and heal, and many flows over a cut
link.  A change that only makes the simulator faster or smaller must leave
the digests untouched, and also the number of events each run schedules
and of records it logs; one that alters the logs on purpose regenerates
``bench/golden.json`` and says so.  The flows-mesh run also pins the data
plane's work (fresh walks completed and rule-expiry tests) and its
sampling work (allocations computed and sample data built), and the
grid-partition run the message path's (flow rules built, flood links
rebuilt and flood copies handled); a change that moves any of these
updates the counts and says why.  A
6 x 6 grid-partition run, whose mesh is deeper (diameter 10 against 8) than
any benchmark run, is pinned here as well, outside the benchmark's goldens.
"""
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from meshsdn import traffic
from meshsdn.olsr import OlsrDaemon
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.switch import FlowRule
from meshsdn.traffic import FluidTraffic

from support import builtin_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workloads import flows_mesh_doc, grid_partition_doc  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())
# Runs pinned here alone: grid-partition/0 at k = 6.
GOLDEN["grid-partition-6x6/0"] = {
    "log": "21273e0e92e5a4e93ad76ca43a631f0e92f74567b6aeae13577f6403084ac655",
    "summary": "56cbdbaa1221a31a72743b5d10be2ae8b5a575afe467114413d53026fc0ee04b",
}
GENERATED = {
    "grid-partition": grid_partition_doc,
    "grid-partition-6x6": lambda seed: grid_partition_doc(seed, k=6),
    "flows-mesh": flows_mesh_doc,
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Events scheduled and log records written by each run.  A speed-up keeps
# both; a change that removes events on purpose updates its count here and
# says why.  The grid and flows-mesh counts leave out the flood copies
# that are dead on send (``NodeRuntime._olsr_flood``); merge/0 and
# partition/7 have none.
WORK = {
    "merge/0": (5_770, 243),
    "partition/7": (11_835, 1_030),
    "grid-partition/0": (77_954, 3_036),
    "grid-partition-6x6/0": (139_987, 5_218),
    "flows-mesh/0": (65_027, 20_202),
}
# Data-plane work of the flows-mesh run, counted the same way: how many
# walks the fluid model completes afresh and keeps (``FluidTraffic._kept_until``,
# once per kept walk), and how often any rule is asked whether it has expired
# (``FlowRule.expired``).
DATA_PLANE_WORK = {"flows-mesh/0": (897, 14_073)}
# Sample work of the flows-mesh run: how many allocations are computed
# (``traffic.max_min_allocate``, once per change of the active flows' paths),
# and how many sample data dicts are built (``traffic._sample_data``, once per
# change of a flow's rate).
SAMPLE_WORK = {"flows-mesh/0": (82, 982)}
# Message-path work of the grid-partition run: how many flow rules are built
# (``FlowRule.__init__``; each router builds its emergency drop rule once),
# how often a daemon rebuilds the links it floods over
# (``OlsrDaemon._rebuild_sym_links``, once per change of its symmetric
# neighbours), and how many flood copies reach a daemon
# (``OlsrDaemon.handle_flood``; a copy its receiver would drop is not
# sent).
MESSAGE_PATH_WORK = {"grid-partition/0": (71, 104, 22_282)}


def run(name: str, seed: int):
    label = f"{name}/{seed}"
    if name in GENERATED:
        scenario = scenario_from_mapping(GENERATED[name](seed), source=label)
    else:
        scenario = builtin_scenario(name)
    sim = Simulation(scenario, seed)
    return sim, sim.run()


@pytest.mark.parametrize(
    "name, seed",
    [
        ("merge", 0),
        ("partition", 7),
        ("grid-partition", 0),
        ("grid-partition-6x6", 0),
        ("flows-mesh", 0),
    ],
)
def test_log_and_summary_digests(name, seed, monkeypatch):
    label = f"{name}/{seed}"
    calls = dict.fromkeys(
        (
            "_kept_until",
            "expired",
            "__init__",
            "_rebuild_sym_links",
            "handle_flood",
            "max_min_allocate",
            "_sample_data",
        ),
        0,
    )

    def counted(fn):
        def call(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return call

    if label in DATA_PLANE_WORK:
        monkeypatch.setattr(FluidTraffic, "_kept_until", counted(FluidTraffic._kept_until))
        monkeypatch.setattr(FlowRule, "expired", counted(FlowRule.expired))
    if label in SAMPLE_WORK:
        monkeypatch.setattr(traffic, "max_min_allocate", counted(traffic.max_min_allocate))
        monkeypatch.setattr(traffic, "_sample_data", counted(traffic._sample_data))
    if label in MESSAGE_PATH_WORK:
        monkeypatch.setattr(FlowRule, "__init__", counted(FlowRule.__init__))
        monkeypatch.setattr(
            OlsrDaemon, "_rebuild_sym_links", counted(OlsrDaemon._rebuild_sym_links)
        )
        monkeypatch.setattr(OlsrDaemon, "handle_flood", counted(OlsrDaemon.handle_flood))
    sim, result = run(name, seed)
    assert sha256(result.log.to_ndjson()) == GOLDEN[label]["log"]
    assert sha256(result.summary.as_csv_line()) == GOLDEN[label]["summary"]
    assert (sim.engine._seq, len(result.log.records)) == WORK[label]
    if label in DATA_PLANE_WORK:
        assert (calls["_kept_until"], calls["expired"]) == DATA_PLANE_WORK[label]
    if label in SAMPLE_WORK:
        assert (calls["max_min_allocate"], calls["_sample_data"]) == SAMPLE_WORK[label]
    if label in MESSAGE_PATH_WORK:
        assert (
            calls["__init__"], calls["_rebuild_sym_links"], calls["handle_flood"]
        ) == MESSAGE_PATH_WORK[label]


def test_logs_do_not_depend_on_the_string_hash_seed():
    # Route computation walks sets of node ids, whose order follows the
    # string hash seed of the process; no such order may reach a log, nor
    # the work the first-hop tree does.  Each process also prints how many
    # searches and repairs of the tree moved nodes, and how many they moved.
    code = textwrap.dedent(
        """
        import test_digests as t
        from meshsdn.routing import FirstHopTree

        moved = [0, 0]

        def counted(fn):
            def call(*args):
                nodes = fn(*args)
                moved[0] += bool(nodes)
                moved[1] += len(nodes)
                return nodes

            return call

        for attr in ("rebuild", "add_edge", "remove_edge"):
            setattr(FirstHopTree, attr, counted(getattr(FirstHopTree, attr)))
        for name in ("merge", "grid-partition"):
            print(t.sha256(t.run(name, 0)[1].log.to_ndjson()))
        print(*moved)
        """
    )
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join([tests, *sys.path])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout.split()
        for hash_seed in ("0", "1")
    ]
    assert outputs[0][:2] == [GOLDEN["merge/0"]["log"], GOLDEN["grid-partition/0"]["log"]]
    assert outputs[0] == outputs[1]
