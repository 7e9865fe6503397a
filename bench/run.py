"""meshsdn benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload chain-seeds --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it times set-up
in fresh interpreters, then repeats untraced passes of the workload for
``--seconds`` and reports medians, timed against the host's current speed
(see hostspeed.py).  With ``--trace 1`` it alternates an
untraced and a traced pass and reports the per-layer metrics, including
the tracing overhead.  Both modes check every output.  Human-readable lines
come first; the last line of standard output is one JSON object.

See bench/README.md for why each workload exists and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import marshal
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checkout

checkout.use_source()

from meshsdn.metrics import KINDS  # noqa: E402
from meshsdn.traffic import FluidTraffic  # noqa: E402

from harness import DROP_REASONS, PassResult, reference_rate, run_pass  # noqa: E402
from hostspeed import REFERENCE_S, HostClock, units  # noqa: E402
from tracing import EVENT_SPANS, LAYERS, PAYLOADS, Tracer, span_layer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 7

CALIBRATIONS = 5


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, as BENCHMARK.json
    lists them."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- end-to-end ---------------------------------------------------------------


def setup_probes(specs, clock: HostClock) -> list[dict]:
    """Set-up of fresh interpreters (import, parse and build), each timed in
    wall seconds and in calibration units.  The host speed is read here
    just before each probe starts and by the probe just after its set-up."""
    docs: list[dict] = []
    index: dict[int, int] = {}
    runs = []
    for spec in specs:
        if id(spec.doc) not in index:
            index[id(spec.doc)] = len(docs)
            docs.append(spec.doc)
        runs.append((index[id(spec.doc)], spec.sim_seed, spec.label))
    payload = marshal.dumps((tuple(docs), runs))
    times = []
    for _ in range(SETUP_PROBES):
        before = statistics.median(clock.calibrate() for _ in range(CALIBRATIONS))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            input=payload,
            capture_output=True,
            check=True,
            timeout=120,
        )
        probe = json.loads(proc.stdout.decode().splitlines()[-1])
        probe["setup_units"] = units(probe["setup_s"], before, probe["calibration_s"])
        times.append(probe)
    return times


def measure(specs, seconds: float, checks: Checks, clock: HostClock) -> list[PassResult]:
    """Untraced passes until ``seconds`` have gone by.  The first pass runs
    every oracle; each later pass must reproduce its logs byte for byte."""
    passes: list[PassResult] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        result = run_pass(specs, checks if not passes else None, clock)
        if passes:
            checks.expect(
                result.digests == passes[0].digests,
                f"pass {len(passes)}: logs differ from the first pass",
            )
        passes.append(result)
    return passes


def end_to_end(args, specs, checks: Checks) -> tuple[dict, list[PassResult]]:
    clock = HostClock()
    probes = setup_probes(specs, clock)
    passes = measure(specs, args.seconds, checks, clock)
    rates = [p.sim_s_per_wall_s for p in passes]
    setup = [p["setup_s"] for p in probes]
    values = {
        "sim_s_per_wall_s": reference_rate(passes),
        "setup_s": statistics.median(p["setup_units"] for p in probes) * REFERENCE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "log_bytes": passes[0].log_bytes,
    }
    print(
        f"passes: {len(passes)}, wall-clock sim_s_per_wall_s per pass "
        + " ".join(f"{r:.2f}" for r in rates)
        + f" (median {statistics.median(rates):.2f})"
    )
    print(
        f"setup probes: {len(setup)}, wall-clock seconds "
        + " ".join(f"{s:.4f}" for s in setup)
        + f" (median {statistics.median(setup):.4f})"
    )
    return values, passes


# -- per-layer ----------------------------------------------------------------


def layer_values(tracer: Tracer, counters: Counter) -> dict[str, float]:
    spans = tracer.aggregate()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def incl(name: str) -> float:
        return spans.get(name, {}).get("s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    layer_self = Counter()
    for name, row in spans.items():
        layer_self[span_layer(name)] += row["self_s"]
    scheduled = sum(tracer.scheduled.values())
    fired = Counter()
    for kind, n in tracer.fired.items():
        fired[kind if kind in EVENT_SPANS else "other"] += n

    v: dict[str, float] = {
        "engine.scheduled": scheduled,
        **{f"engine.fired.{kind}": fired[kind] for kind in [*EVENT_SPANS, "other"]},
        "engine.cancelled_ratio": ratio(tracer.cancelled, scheduled),
        "engine.queue_peak": tracer.queue_peak,
        "engine.self_s": layer_self["engine"],
        **{f"transport.delivered.{p}": tracer.delivered[p] for p in PAYLOADS},
        "transport.lost_in_flight": fired["deliver"] - sum(tracer.delivered.values()),
        "transport.self_s": layer_self["simulation"],
        "olsr.flood.calls": calls("olsr.flood"),
        "olsr.flood.self_s": self_s("olsr.flood"),
        "olsr.flood.duplicate_ratio": ratio(tracer.flood_duplicates, calls("olsr.flood")),
        "olsr.recompute.calls": calls("olsr.recompute"),
        "olsr.recompute.s": incl("olsr.recompute"),
        "olsr.recompute.changed_ratio": ratio(
            tracer.recompute_changed, calls("olsr.recompute")
        ),
        "olsr.lookup.calls": calls("olsr.lookup"),
        "olsr.lookup.s": incl("olsr.lookup"),
        "olsr.hello.s": incl("olsr.hello"),
        "olsr.snapshot.s": incl("olsr.snapshot"),
        "switch.match.calls": calls("switch.match"),
        "switch.match.s": incl("switch.match"),
        "switch.match.hit_ratio": ratio(tracer.match_hits, calls("switch.match")),
        "switch.install.calls": calls("switch.install"),
        "switch.install.s": incl("switch.install"),
        "switch.flush.calls": calls("switch.flush"),
        "switch.rules_removed": counters["rules_removed"],
        "switch.packet_in": tracer.originated["PacketInMsg"],
        **{f"switch.drops.{r}": counters[f"drops.{r}"] for r in DROP_REASONS},
        "traffic.tick.self_s": self_s("traffic.tick"),
        "traffic.maxmin.calls": calls("traffic.maxmin"),
        "traffic.maxmin.s": incl("traffic.maxmin"),
        "traffic.samples": counters["samples"],
        "traffic.blackholed_s": counters["blackholed_samples"] * FluidTraffic.SAMPLE_INTERVAL_S,
        "topology.owner_of.calls": calls("topology.owner_of"),
        "topology.owner_of.s": incl("topology.owner_of"),
        "topology.link_between.s": incl("topology.link_between"),
        "eftm.poll.s": incl("eftm.poll"),
        "eftm.discover.s": incl("eftm.discover"),
        "eftm.probes": tracer.originated["ProbeRequest"],
        "eftm.keepalives": tracer.originated["KeepaliveRequest"],
        "eftm.transitions": counters["transitions"],
        "eftm.handovers": counters["handovers"],
        "eftm.emergency_entries": counters["emergency_entries"],
        "controller.packet_in.calls": calls("controller.packet_in"),
        "controller.packet_in.s": incl("controller.packet_in"),
        "controller.refresh.s": incl("controller.refresh"),
        "controller.flowmods": counters["flowmods"],
        **{f"metrics.records.{k}": counters[f"records.{k}"] for k in KINDS},
        **{f"metrics.bytes.{k}": counters[f"bytes.{k}"] for k in KINDS},
        "metrics.append.s": incl("metrics.append"),
        "metrics.ndjson.s": incl("metrics.ndjson"),
        "metrics.derive.s": incl("metrics.derive"),
        "scenario.parse.s": incl("scenario.parse"),
        "simulation.build.s": incl("simulation.build"),
        **{f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.spans": tracer.span_count(),
    }
    return v


def per_layer(args, specs, checks: Checks) -> tuple[dict, list[PassResult]]:
    """Alternate untraced and traced passes until ``--seconds`` have gone by.

    Every value is the lower median over the traced passes, a measured
    value rather than a mean of two; counts repeat exactly.
    The overhead is the traced minus the untraced time inside
    Simulation.run.
    """
    OUT.mkdir(exist_ok=True)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    samples: list[dict[str, float]] = []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        plain.append(run_pass(specs, checks if not plain else None))
        with Tracer() as tracer:
            result = run_pass(specs, None, count_logs=True)
        checks.expect(
            result.digests == plain[0].digests, "traced pass: logs differ from untraced"
        )
        traced.append(result)
        samples.append(layer_values(tracer, result.counters))
    tracer.write(OUT / f"{args.workload}.spans.csv.gz")
    values = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_s"] = statistics.median(p.run_s for p in traced) - statistics.median(
        p.run_s for p in plain
    )
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    total = sum(values[f"layer.{layer}.self_s"] for layer in LAYERS)
    print("layer self time (share of traced time):")
    for layer in sorted(LAYERS, key=lambda la: -values[f"layer.{la}.self_s"]):
        share = values[f"layer.{layer}.self_s"] / total
        print(f"  {layer:<11} {values[f'layer.{layer}.self_s']:8.3f} s  {share:6.1%}")
    return values, plain


# -- drift --------------------------------------------------------------------


def report_drift(digests: dict[str, dict[str, str]]) -> dict:
    """Compare log and summary digests with those recorded in golden.json.

    Drift is its own signal: a change that alters the log format on purpose
    shows here without counting as a failed check.
    """
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    compared = [label for label in digests if label in golden]
    drifted = sorted(label for label in compared if digests[label] != golden[label])
    print(
        f"drift: {len(drifted)} of {len(compared)} runs differ from bench/golden.json"
        f" ({len(digests) - len(compared)} runs have no recorded digest)"
        + (f"; first: {drifted[0]}" if drifted else "")
    )
    return {"compared": len(compared), "drifted": drifted}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    specs = WORKLOADS[args.workload](args.seed)
    checks = Checks()
    metrics = metric_units(bool(args.trace))
    if args.trace:
        values, passes = per_layer(args, specs, checks)
    else:
        values, passes = end_to_end(args, specs, checks)
    drift = report_drift(passes[0].digests)

    for name, unit in metrics.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    failed_share = checks.failed / checks.attempted
    print(f"failed_share = {failed_share:.6g} ({checks.failed} of {checks.attempted} checks)")
    for failure in checks.failures[:10]:
        print(f"FAILED: {failure}")

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": values,
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "drift": drift,
        "digests": passes[0].digests,
    }
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"{args.workload}-{args.seed}-{suffix}.json").write_text(json.dumps(report, indent=1))

    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
