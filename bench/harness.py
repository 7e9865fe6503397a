"""Running workload passes, and the counters read back from their logs.

Import this only after :func:`checkout.use_source` has put the checkout's
``src`` on the path.
"""
from __future__ import annotations

import gc
import hashlib
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from meshsdn import scenario as scenario_mod
from meshsdn.engine import to_us
from meshsdn.simulation import Simulation

from hostspeed import REFERENCE_S, HostClock, units
from workloads import Checks, RunSpec

DROP_REASONS = ("hop-limit", "no-route", "no-rule", "bad-local", "rule-drop", "buffer-timeout")

# With a HostClock, a run advances the engine SLICE_S of simulated time per
# call and reads the host speed again after each CHUNK_S of wall time.
SLICE_S = 0.1
CHUNK_S = 0.02


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    run_s: float = 0.0  # wall seconds spent running simulations
    run_units: float = 0.0  # the same time in calibration units
    sim_s: float = 0.0  # simulated seconds
    events: int = 0
    log_bytes: int = 0
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)

    @property
    def sim_s_per_wall_s(self) -> float:
        return self.sim_s / self.run_s


def reference_rate(passes: list[PassResult]) -> float:
    """Simulated seconds per second at the reference host speed: the median
    pass cost in calibration units, converted at REFERENCE_S per unit."""
    return passes[0].sim_s / (statistics.median(p.run_units for p in passes) * REFERENCE_S)


def run_pass(
    specs: list[RunSpec],
    checks: Checks | None,
    clock: HostClock | None = None,
    count_logs: bool = False,
) -> PassResult:
    """Parse, build and run every spec once; only running is timed.

    With a ``clock``, each run still goes through one ``Simulation.run``
    call, but the engine advances slice by slice and the host speed is
    read around every chunk of slices (see :func:`_run_calibrated`).

    With ``checks`` each run's outputs go through its workload's oracles.
    Each simulation is dropped before the next is built, so peak memory is
    that of the largest run, not of the pass.
    """
    out = PassResult()
    parsed: dict[int, object] = {}
    for spec in specs:
        scenario = parsed.get(id(spec.doc))
        if scenario is None:
            scenario = parsed[id(spec.doc)] = scenario_mod.scenario_from_mapping(
                spec.doc, source=spec.label
            )
        sim = Simulation(scenario, spec.sim_seed)
        if clock is None:
            start = perf_counter()
            result = sim.run()
            out.run_s += perf_counter() - start
        else:
            result = _run_calibrated(sim, clock, out)
        out.sim_s += scenario.duration_s
        out.events += sim.engine._seq
        text = result.log.to_ndjson()
        out.log_bytes += len(text.encode())
        out.digests[spec.label] = {
            "log": sha256(text),
            "summary": sha256(result.summary.as_csv_line()),
        }
        if checks is not None:
            spec.check(sim, result, checks, spec.label)
        if count_logs:
            out.counters.update(log_counters(sim, result))
        del sim, result, text
        # Runtimes hold reference cycles; free them now so that one run's
        # garbage neither adds to the next run's peak memory nor to its time.
        gc.collect()
    return out


def _run_calibrated(sim, clock: HostClock, out: PassResult):
    """``sim.run()`` timed in chunks against the host speed.

    The engine's ``run_until`` is replaced on this instance only by one that
    advances SLICE_S of simulated time per call of the original, which gives
    the same log as one call.  After each CHUNK_S of wall time, and when the
    run returns, the chunk is closed and the host speed read again; the
    calibrations themselves are not timed.  Everything ``run`` does besides
    the engine (log observers, the summary) is timed with the chunk it
    falls in.
    """
    engine = sim.engine
    advance = engine.run_until
    step = to_us(SLICE_S)
    before = clock.calibrate()
    start = perf_counter()

    def close_chunk() -> None:
        nonlocal before, start
        chunk = perf_counter() - start
        after = clock.calibrate()
        out.run_s += chunk
        out.run_units += units(chunk, before, after)
        before = after
        start = perf_counter()

    def run_until(end: int) -> None:
        for bound in range(engine.now() + step, end, step):
            advance(bound)
            if perf_counter() - start >= CHUNK_S:
                close_chunk()
        advance(end)

    engine.run_until = run_until
    result = sim.run()
    close_chunk()
    return result


def log_counters(sim, result) -> Counter:
    """Counters that a finished run's log and scenario alone determine."""
    c: Counter = Counter()
    last_master: dict[str, str] = {}
    for record in result.log.records:
        kind, data = record.kind, record.data
        c[f"records.{kind}"] += 1
        c[f"bytes.{kind}"] += len(record.to_json().encode()) + 1
        if kind == "PacketDrop":
            c[f"drops.{data['reason']}"] += 1
        elif kind == "RuleEvent" and data["event"] != "install":
            removed = data["removed"]
            c["rules_removed"] += removed if isinstance(removed, int) else len(removed)
        elif kind == "EftmTransition":
            c["transitions"] += 1
            if data["to"] == "emergency":
                c["emergency_entries"] += 1
            elif data["to"] == "connected":
                previous = last_master.get(data["node"])
                if previous is not None and previous != data["master"]:
                    c["handovers"] += 1
                last_master[data["node"]] = data["master"]
        elif kind == "ControllerAction" and data["action"].startswith("install"):
            c["flowmods"] += 1
        elif kind == "ThroughputSample":
            c["samples"] += 1
    c["blackholed_samples"] = blackholed_samples(sim, result)
    return c


def blackholed_samples(sim, result) -> int:
    """0 bps samples taken while the flow's endpoints were connected.

    Link state is replayed from the log's LinkEvent records, starting from
    the scenario's initial states, and connectivity is plain BFS over Up
    links: the same oracle the acceptance tests use.
    """
    topo = sim.topo
    up = {link_id: True for link_id in topo.links}
    for spec in sim.scenario.links:
        up[topo.link_between(spec.a, spec.b).id] = spec.initial_up
    endpoints = {}
    for flow in sim.scenario.flows:
        owner = topo.owner_of(flow.dst)
        endpoints[flow.id] = (flow.src, owner.id if owner is not None else None)

    components: dict[str, int] | None = None
    count = 0
    for record in result.log.records:
        if record.kind == "LinkEvent":
            up[record.data["link"]] = record.data["up"]
            components = None
        elif record.kind == "ThroughputSample" and record.data["bps"] == 0.0:
            src, dst = endpoints[record.data["flow"]]
            if dst is None:
                continue
            if components is None:
                components = _components(topo, up)
            if components[src] == components[dst]:
                count += 1
    return count


def _components(topo, up: dict[str, bool]) -> dict[str, int]:
    label: dict[str, int] = {}
    for comp, start in enumerate(topo.nodes):
        if start in label:
            continue
        label[start] = comp
        stack = [start]
        while stack:
            node = stack.pop()
            for link in topo.links_of(node):
                if up[link.id]:
                    peer = link.other(node)
                    if peer not in label:
                        label[peer] = comp
                        stack.append(peer)
    return label
