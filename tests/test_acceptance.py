"""Acceptance gate: the headline behaviours, one verdict line per criterion.

Each test prints ``[PASS]``/``[FAIL] <criterion>: <measured detail>`` so a
plain ``pytest -v`` run doubles as the results table.  Expensive batches
(20 seeds per shipped scenario, 200 random meshes) are module-scoped and
shared between the criteria that read them.
"""
import random
import statistics

import pytest

from meshsdn.engine import to_seconds, to_us
from meshsdn.simulation import Simulation, run_scenario

from support import builtin_scenario, expected_master, random_mesh_doc
from meshsdn.scenario import scenario_from_mapping

SEEDS = range(20)
GRAPH_SEEDS = range(1000, 1200)

MERGE_RUN_BAND = (9.0, 19.5)  # (hellos-1)*5*0.9 .. 3*5*1.1 + 2 s flood + 1 s ping
MERGE_MEAN_BAND = (10.0, 17.0)
MERGE_SELECTION_MEAN_BAND = (1.4, 2.6)
MERGE_SELECTION_MAX = 3.25  # poll period + connection setup allowance
PARTITION_SELECTION_MEAN_BAND = (4.0, 7.0)
PARTITION_SELECTION_MAX = 8.25  # detection 3 + poll 3 + probe timeout 2 + setup


def verdict(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def merge_batch():
    scenario = builtin_scenario("merge")
    return [run_scenario(scenario, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def partition_batch():
    scenario = builtin_scenario("partition")
    return [run_scenario(scenario, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def mesh_verdicts():
    """Final protocol state vs. the BFS oracle on 200 random meshes.

    Each graph is evaluated right after its run and reduced to counts plus
    failure descriptions, so the batch stays cheap to keep around.
    """
    out = []
    for seed in GRAPH_SEEDS:
        doc = random_mesh_doc(random.Random(seed))
        sim = Simulation(
            scenario_from_mapping(doc, source=f"mesh{seed}"), seed=seed
        )
        sim.run()
        out.append(
            {
                "masters": _check_masters(sim, seed),
                "routes": _check_routes(sim, seed),
            }
        )
    return out


def _check_masters(sim, seed):
    checks, failures = 0, []
    for wmr_id, runtime in sim.wmrs.items():
        checks += 1
        want = expected_master(sim, wmr_id)
        sel = runtime.selector
        if want is None:
            ok = sel.mode == "emergency" and sel.master is None
        else:
            ok = sel.mode == "connected" and sel.master == want
        if not ok:
            failures.append(
                f"mesh{seed}/{wmr_id}: mode={sel.mode} master={sel.master} expected={want}"
            )
    return checks, failures


def _bfs_distances(sim, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for neighbor, _ in sim.topo.up_neighbors(current):
                if neighbor not in dist:
                    dist[neighbor] = dist[current] + 1
                    nxt.append(neighbor)
        frontier = nxt
    return dist


def _check_routes(sim, seed):
    checks, failures = 0, []
    wmr_ids = sorted(sim.wmrs)
    for src in wmr_ids:
        dist = _bfs_distances(sim, src)
        table = sim.wmrs[src].daemon.routing_table
        for dst in wmr_ids:
            if dst == src:
                continue
            checks += 1
            addr = sim.wmrs[dst].node.mesh_address
            entry = table.lookup(addr)
            where = f"mesh{seed}/{src}->{dst}"
            if dst not in dist:
                if entry is not None:
                    failures.append(f"{where}: stale route {entry.next_hop}")
                continue
            if entry is None:
                failures.append(f"{where}: unreachable, oracle distance {dist[dst]}")
                continue
            if entry.hop_count != dist[dst]:
                failures.append(
                    f"{where}: {entry.hop_count} hops, oracle {dist[dst]}"
                )
                continue
            hops, current = set(), src
            while current != dst:
                step = sim.wmrs[current].daemon.routing_table.lookup(addr)
                if step is None or step.next_hop is None or step.next_hop in hops:
                    failures.append(f"{where}: next-hop walk broke at {current}")
                    break
                hops.add(current)
                current = step.next_hop
    return checks, failures


def seconds(values_us):
    return [to_seconds(v) for v in values_us]


def test_merge_connectivity_time(merge_batch, capsys):
    values = [r.connectivity_us for r in merge_batch]
    ok = all(v is not None for v in values)
    detail = "a run never regained connectivity"
    if ok:
        runs = seconds(values)
        mean = statistics.mean(runs)
        ok = (
            MERGE_MEAN_BAND[0] <= mean <= MERGE_MEAN_BAND[1]
            and all(MERGE_RUN_BAND[0] <= run <= MERGE_RUN_BAND[1] for run in runs)
        )
        detail = (
            f"mean {mean:.3f} s over {len(runs)} seeds (band {MERGE_MEAN_BAND}),"
            f" runs span [{min(runs):.3f}, {max(runs):.3f}] within {MERGE_RUN_BAND}"
        )
    verdict(capsys, ok, "merge connectivity time", detail)


def test_merge_selection_delay(merge_batch, capsys):
    values = [r.selection_us for r in merge_batch]
    ok = all(v is not None for v in values)
    detail = "a router never completed its handover"
    if ok:
        runs = seconds(values)
        mean = statistics.mean(runs)
        ok = (
            MERGE_SELECTION_MEAN_BAND[0] <= mean <= MERGE_SELECTION_MEAN_BAND[1]
            and max(runs) <= MERGE_SELECTION_MAX
        )
        detail = (
            f"mean {mean:.3f} s from connectivity completion"
            f" (band {MERGE_SELECTION_MEAN_BAND}), max {max(runs):.3f}"
            f" <= {MERGE_SELECTION_MAX}"
        )
    verdict(capsys, ok, "merge master selection delay", detail)


def test_partition_selection_delay(partition_batch, capsys):
    values = [r.selection_us for r in partition_batch]
    ok = all(v is not None for v in values)
    detail = "a router never completed its handover"
    if ok:
        runs = seconds(values)
        mean = statistics.mean(runs)
        ok = (
            PARTITION_SELECTION_MEAN_BAND[0] <= mean <= PARTITION_SELECTION_MEAN_BAND[1]
            and max(runs) <= PARTITION_SELECTION_MAX
        )
        detail = (
            f"mean {mean:.3f} s after the cut (band {PARTITION_SELECTION_MEAN_BAND}),"
            f" max {max(runs):.3f} <= {PARTITION_SELECTION_MAX}"
        )
    verdict(capsys, ok, "partition master selection delay", detail)


def test_partition_throughput_recovery(partition_batch, capsys):
    gaps, slacks = [], []
    ok, detail = True, ""
    for result in partition_batch:
        rec = result.recovery
        if rec is None or rec.dip_at is None or rec.recovery_after_event is None:
            ok, detail = False, f"seed {result.summary.seed}: flow never dipped or never recovered"
            break
        if rec.steady_bps != 10_000_000.0:
            ok, detail = False, f"seed {result.summary.seed}: steady state {rec.steady_bps} bps"
            break
        bound = result.selection_us + to_us(2.0)  # selection + recovery ramp + 1 s
        if rec.recovery_after_event > bound:
            ok, detail = (
                False,
                f"seed {result.summary.seed}: gap {to_seconds(rec.recovery_after_event):.3f} s"
                f" exceeds selection + 2 s",
            )
            break
        gaps.append(to_seconds(rec.recovery_after_event))
        slacks.append(to_seconds(bound - rec.recovery_after_event))
    if ok:
        detail = (
            f"every seed dipped to 0 and regained >=90% of the 10 Mbit/s steady"
            f" state within selection + 2 s; gaps mean {statistics.mean(gaps):.3f} s,"
            f" tightest slack {min(slacks):.3f} s"
        )
    verdict(capsys, ok, "partition throughput recovery", detail)


def test_single_master_invariant(merge_batch, partition_batch, capsys):
    transitions, violations = 0, []
    for result in [*merge_batch, *partition_batch]:
        established = {}
        for record in result.log.records:
            if record.kind != "EftmTransition":
                continue
            transitions += 1
            node = record.data["node"]
            if record.data["to"] == "connected":
                if established.get(node) is not None:
                    violations.append(
                        f"{result.summary.scenario} seed {result.summary.seed}: {node} connected to"
                        f" {record.data['master']} while holding {established[node]}"
                    )
                established[node] = record.data["master"]
            else:
                established[node] = None
    ok = not violations
    detail = (
        f"{transitions} transitions across {len(merge_batch) + len(partition_batch)}"
        f" runs, zero overlapping connections"
        if ok
        else violations[0]
    )
    verdict(capsys, ok, "single-master invariant", detail)


def test_master_matches_reachability_oracle(mesh_verdicts, capsys):
    checks = sum(v["masters"][0] for v in mesh_verdicts)
    failures = [f for v in mesh_verdicts for f in v["masters"][1]]
    ok = not failures
    detail = (
        f"{checks} router states across {len(mesh_verdicts)} random meshes match"
        f" the reachability oracle (emergency exactly when no controller reachable)"
        if ok
        else f"{len(failures)} mismatches, first: {failures[0]}"
    )
    verdict(capsys, ok, "selection optimality on random meshes", detail)


def test_routing_matches_bfs_oracle(mesh_verdicts, capsys):
    checks = sum(v["routes"][0] for v in mesh_verdicts)
    failures = [f for v in mesh_verdicts for f in v["routes"][1]]
    ok = not failures
    detail = (
        f"{checks} (router, destination) pairs agree with BFS distances,"
        f" all next-hop chains loop-free, no stale cross-partition routes"
        if ok
        else f"{len(failures)} mismatches, first: {failures[0]}"
    )
    verdict(capsys, ok, "routing equivalence on random meshes", detail)


def test_handover_preserves_flow_table(capsys):
    from ipaddress import IPv4Network

    from meshsdn import control_plane as cp
    from meshsdn.switch import FlowRule, ForwardTo
    from test_eftm import connected_bench

    bench = connected_bench(controllers=("10.0.255.2/32",))
    tagged = [
        FlowRule(
            priority=100 + i,
            dst_prefix=IPv4Network(f"192.168.{i}.0/24"),
            action=ForwardTo("wmr2"),
            origin="controller:10.0.255.2",
        )
        for i in range(5)
    ]
    for rule in tagged:
        bench.switch.install_rule(rule)
    before = dict(bench.switch.table.rules)

    bench.daemon.hna.append(("new", "10.0.255.1/32"))
    bench.sim.run_until(to_us(3.0))
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    assert bench.take(cp.DisconnectNotice)  # old master told first
    after_disconnect = dict(bench.switch.table.rules)

    [(addr2, connect)] = bench.take(cp.ConnectRequest)
    bench.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token))
    after_connect = dict(bench.switch.table.rules)

    identical = (
        after_disconnect == before
        and after_connect == before
        and all(after_connect[r.key] is r for r in tagged)
    )
    verdict(
        capsys,
        identical and bench.selector.master is not None,
        "handover preserves flow table",
        "5 tagged rules unchanged through disconnect and reconnect,"
        " before the new master's flush arrives",
    )


def test_repeat_runs_are_identical(capsys):
    checked = []
    ok, detail = True, ""
    for name, seed in [("merge", 0), ("partition", 7)]:
        scenario = builtin_scenario(name)
        first = run_scenario(scenario, seed)
        second = run_scenario(scenario, seed)
        if first.log.to_ndjson() != second.log.to_ndjson():
            ok, detail = False, f"{name} seed {seed}: logs differ"
            break
        if first.summary != second.summary:
            ok, detail = False, f"{name} seed {seed}: summary rows differ"
            break
        checked.append(f"{name}/{seed} ({len(first.log.records)} records)")
    if ok:
        detail = "byte-identical logs and equal summaries for " + ", ".join(checked)
    verdict(capsys, ok, "determinism", detail)
