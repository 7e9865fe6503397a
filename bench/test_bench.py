"""The benchmark's own tests: workload intent, counters and tracing.

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from meshsdn import engine, simulation
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation

import harness
from hostspeed import HostClock
import workloads
from tracing import SPAN_TARGETS, Tracer

BENCH = Path(__file__).resolve().parent


def build(doc: dict, seed: int = 0) -> Simulation:
    return Simulation(scenario_from_mapping(doc, source=doc["name"]), seed)


def run_traced(doc: dict, seed: int):
    with Tracer() as tracer:
        sim = build(doc, seed)
        result = sim.run()
    return tracer, sim, result


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("make", [workloads.grid_partition_doc, workloads.flows_mesh_doc])
def test_same_seed_gives_same_mapping(make):
    for seed in range(5):
        assert make(seed) == make(seed)
        scenario_from_mapping(make(seed))  # valid input for the simulator
    assert len({json.dumps(make(seed), sort_keys=True) for seed in range(5)}) > 1


@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("seed", range(4))
def test_grid_cut_splits_controllers(k, seed):
    sim = build(workloads.grid_partition_doc(seed, k))
    cut, far = workloads.grid_cut(seed, k)
    assert len(cut) == k
    for a, b in cut:
        sim.topo.set_link_state(a, b, False)
    side1 = sim.topo.component_of("ctrl1")
    side2 = sim.topo.component_of("ctrl2")
    assert "ctrl2" not in side1
    assert side1 | side2 == set(sim.topo.nodes)
    assert sorted(n for n in side2 if n in sim.wmrs) == far


@pytest.mark.parametrize("seed", range(8))
def test_flows_mesh_cut_keeps_grid_connected(seed):
    doc = workloads.flows_mesh_doc(seed)
    sim = build(doc)
    [event] = doc["events"]
    assert event["action"] == "link-down"
    sim.topo.set_link_state(*event["link"], False)
    assert sim.topo.component_of("r0_0") == set(sim.topo.nodes)


def test_workloads_pass_their_checks():
    checks = workloads.Checks()
    for seed in (0, 1):
        harness.run_pass(workloads.flows_mesh(seed), checks)
    harness.run_pass(workloads.chain_seeds(0)[:2], checks)
    assert checks.attempted > 500
    assert checks.failures == []


# -- deterministic counters -----------------------------------------------------


@pytest.mark.parametrize(
    "name, scheduled, records, samples",
    [("merge", 5_770, 243, 0), ("partition", 11_886, 1_051, 850)],
)
def test_counters_reproduce_baseline(name, scheduled, records, samples):
    tracer, sim, result = run_traced(workloads.builtin_doc(name), 0)
    counters = harness.log_counters(sim, result)
    assert sum(tracer.scheduled.values()) == scheduled == sim.engine._seq
    assert sum(tracer.fired.values()) + tracer.cancelled <= scheduled
    assert len(result.log.records) == records
    assert counters["records.ThroughputSample"] == samples
    assert sum(v for k, v in counters.items() if k.startswith("bytes.")) == len(
        result.log.to_ndjson().encode()
    )


COUNTERS_SCRIPT = """
import json, checkout
checkout.use_source()
import harness, workloads
from tracing import Tracer
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
with Tracer() as tracer:
    sim = Simulation(scenario_from_mapping(workloads.builtin_doc("partition")), 0)
    result = sim.run()
print(json.dumps({
    "scheduled": tracer.scheduled, "fired": tracer.fired, "cancelled": tracer.cancelled,
    "delivered": tracer.delivered, "log": harness.log_counters(sim, result),
}, sort_keys=True))
"""


def test_counters_identical_across_processes():
    outputs = [
        subprocess.run(
            [sys.executable, "-c", COUNTERS_SCRIPT],
            cwd=BENCH,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["delivered"]["flood"] > 0


# -- tracing ----------------------------------------------------------------------


def test_tracer_restores_entry_points():
    originals = [vars(owner)[attr] for owner, attr, _ in SPAN_TARGETS]
    cancel = vars(engine.Event)["cancel"]
    on_packet = vars(simulation.WmrRuntime)["on_packet"]
    with Tracer():
        assert vars(engine.Simulator)["schedule"] is not originals[1]
    assert [vars(owner)[attr] for owner, attr, _ in SPAN_TARGETS] == originals
    assert vars(engine.Event)["cancel"] is cancel
    assert vars(simulation.WmrRuntime)["on_packet"] is on_packet


def test_traced_run_keeps_log_and_nests_spans():
    doc = workloads.builtin_doc("partition")
    plain = build(doc, 3).run().log.to_ndjson()
    tracer, _, result = run_traced(doc, 3)
    assert result.log.to_ndjson() == plain
    spans = tracer.aggregate()
    for name in ("engine.run_until", "olsr.flood", "olsr.recompute", "switch.match", "traffic.tick"):
        assert spans[name]["calls"] > 0, name
        assert 0 <= spans[name]["self_s"] <= spans[name]["s"] + 1e-9, name
    # Every instant under run_until belongs to the engine or a layer span.
    assert spans["simulation.run"]["s"] >= spans["engine.run_until"]["s"]


def test_blackholed_flow_is_reported():
    """A flow whose rule points at a Down link reads 0 bps for the rest of the
    run although the grid around the cut stays connected."""
    doc = workloads._grid_base("blackhole", 4, 150.0, [(0, 0), (3, 3)])
    doc["flows"] = [{"id": "f", "src": "h0_0", "dst": "h3_3", "start_s": 40.0}]
    doc["events"] = [{"at_s": 80.0, "action": "link-down", "link": ["r0_1", "r0_2"]}]
    sim = build(doc)
    result = sim.run()
    late = [r for r in result.log.records if r.kind == "ThroughputSample" and r.time > 80e6]
    assert len(late) == 700 and all(r.data["bps"] == 0.0 for r in late)
    assert harness.log_counters(sim, result)["blackholed_samples"] >= 700


def test_benchmark_json_lists_every_layer_metric():
    import run

    produced = {*run.layer_values(Tracer(), Counter()), "trace.overhead_s"}
    assert set(run.metric_units(trace=True)) == produced
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_calibrated_run_keeps_log():
    specs = workloads.chain_seeds(0)[::8]  # merge/0 and partition/0
    plain = harness.run_pass(specs, None)
    calibrated = harness.run_pass(specs, None, HostClock())
    assert calibrated.digests == plain.digests
    assert calibrated.run_units > 0 and calibrated.sim_s == plain.sim_s


def test_calibrated_run_feeds_observers():
    doc = workloads.builtin_doc("partition")
    plain = build(doc).run()
    calibrated = harness._run_calibrated(build(doc), HostClock(), harness.PassResult())
    assert calibrated.online is not None and calibrated.online.samples
    assert vars(calibrated.online) == vars(plain.online)
    assert calibrated.summary == plain.summary
