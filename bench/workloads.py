"""Benchmark workloads: scenario generators, passes and output checks.

Every generator is a pure function of the workload seed and returns a plain
scenario mapping, which goes through ``scenario_from_mapping`` exactly like
a YAML file would.  The simulator only ever sees the generated scenario and
a simulator seed derived from the workload seed.

A workload is a list of :class:`RunSpec`.  One *pass* runs each of them once:
parse, build a ``Simulation``, run it, then check its outputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

# Read by path, not through the package, so that generating inputs does not
# import meshsdn: the set-up timing starts with that import.
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "meshsdn" / "scenarios"

CONTROLLER_RANGE = "10.0.255.0/24"

# chain-seeds: simulator seeds per workload seed, for each shipped scenario.
CHAIN_SEEDS_PER_RUN = 8

GRID_K = 5
GRID_PING_AT_S = 30.0
GRID_FLOW_AT_S = 40.0
GRID_CUT_AT_S = 60.0
GRID_RESTORE_AT_S = 90.0
GRID_DURATION_S = 120.0

FLOWS_K = 4
# flows-mesh: scenarios per workload seed.  One alone varies too much in
# work from seed to seed (which flows cross the cut link, for one).
FLOWS_SEEDS_PER_RUN = 2
FLOWS_COUNT = 40
FLOWS_PINGS = 4
FLOWS_WINDOW_S = (30.0, 120.0)
FLOW_LENGTH_S = 45.0
FLOWS_DURATION_S = 150.0
FLOW_DEMANDS_MBPS = (1.0, 2.0, 5.0, None)  # None: uncapped

# Per-run bounds of tests/test_acceptance.py.  The acceptance gate also has
# batch-mean bands; a benchmark pass checks each run on its own.
MERGE_RUN_BAND_S = (9.0, 19.5)
MERGE_SELECTION_MAX_S = 3.25
PARTITION_SELECTION_MAX_S = 8.25
PARTITION_STEADY_BPS = 10_000_000.0
PARTITION_RECOVERY_SLACK_S = 2.0


# -- generators ---------------------------------------------------------------


def router_id(i: int, j: int) -> str:
    return f"r{i}_{j}"


def grid_links(k: int) -> list[tuple[str, str]]:
    """4-neighbour links of a k x k grid, row by row."""
    links = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                links.append((router_id(i, j), router_id(i, j + 1)))
            if i + 1 < k:
                links.append((router_id(i, j), router_id(i + 1, j)))
    return links


def _grid_base(name: str, k: int, duration_s: float, hosted: list[tuple[int, int]]) -> dict:
    """k x k routers, controllers at opposite corners, hosts on ``hosted``."""
    wmrs = []
    hosts = []
    for i in range(k):
        for j in range(k):
            n = i * k + j
            wmr: dict = {"id": router_id(i, j), "mesh_addr": f"10.0.{n // 250}.{n % 250 + 1}"}
            if (i, j) in hosted:
                wmr["access"] = [{"subnet": f"192.168.{n}.0/24", "addr": f"192.168.{n}.1"}]
                hosts.append(
                    {"id": f"h{i}_{j}", "addr": f"192.168.{n}.10", "attach": router_id(i, j)}
                )
            wmrs.append(wmr)
    return {
        "name": name,
        "duration_s": duration_s,
        "control_subnet": "10.0.0.0/16",
        "eftm": {"controller_range": CONTROLLER_RANGE},
        "wmrs": wmrs,
        "controllers": [
            {"id": "ctrl1", "addr": "10.0.255.1", "attach": router_id(0, 0)},
            {"id": "ctrl2", "addr": "10.0.255.2", "attach": router_id(k - 1, k - 1)},
        ],
        "hosts": hosts,
        "links": [{"a": a, "b": b} for a, b in grid_links(k)],
    }


def grid_cut(seed: int, k: int) -> tuple[list[tuple[str, str]], list[str]]:
    """The k links across the middle of the grid, and the routers on the far
    side of them from ctrl1.  The seed picks the cut's orientation and which
    of the two middle lines it follows."""
    rng = random.Random(f"grid-partition/{seed}")
    vertical = rng.random() < 0.5
    line = rng.choice((k // 2 - 1, k // 2))
    cut, far = [], []
    for a in range(k):
        if vertical:
            cut.append((router_id(a, line), router_id(a, line + 1)))
        else:
            cut.append((router_id(line, a), router_id(line + 1, a)))
        for b in range(line + 1, k):
            far.append(router_id(a, b) if vertical else router_id(b, a))
    return cut, sorted(far)


def grid_partition_doc(seed: int, k: int = GRID_K) -> dict:
    """A k x k grid that splits across the middle at 60 s and heals at 90 s.

    The benchmark runs it at k = 5: a 7 x 7 pass takes about 12 s, too few
    passes per run for a steady median.

    Controllers sit at opposite corners, each corner has a host, and the hosts
    run a ping and a bulk flow between them.  The cut leaves one controller
    on each side, so every router beyond it must re-home.
    """
    last = k - 1
    doc = _grid_base("grid-partition", k, GRID_DURATION_S, [(0, 0), (last, last)])
    cut, far = grid_cut(seed, k)
    src, dst = "h0_0", f"h{last}_{last}"
    doc["pings"] = [
        {"id": "ping1", "src": src, "dst": dst, "interval_s": 1.0, "start_s": GRID_PING_AT_S}
    ]
    doc["flows"] = [{"id": "flow1", "src": src, "dst": dst, "start_s": GRID_FLOW_AT_S}]
    doc["events"] = [
        *({"at_s": GRID_CUT_AT_S, "action": "link-down", "link": [a, b]} for a, b in cut),
        *({"at_s": GRID_RESTORE_AT_S, "action": "link-up", "link": [a, b]} for a, b in cut),
    ]
    doc["measure"] = {"kind": "partition", "event_at_s": GRID_CUT_AT_S, "wmrs": far}
    return doc


def flows_mesh_doc(seed: int) -> dict:
    """A 4 x 4 grid with a host on every router and 40 seeded bulk flows.

    The seed picks each flow's endpoints, start time and demand cap, and the
    mesh link that is cut mid-run; a grid stays connected after losing any
    one link.  A few pings run at 2 Hz.  So that every seed asks for about
    the same work, the seed does not change the multiset of path lengths,
    of demand caps or of flow durations, only who gets which.
    """
    k = FLOWS_K
    rng = random.Random(f"flows-mesh/{seed}")
    cells = [(i, j) for i in range(k) for j in range(k)]
    doc = _grid_base("flows-mesh", k, FLOWS_DURATION_S, cells)
    lo, hi = FLOWS_WINDOW_S
    demands = [FLOW_DEMANDS_MBPS[n % len(FLOW_DEMANDS_MBPS)] for n in range(FLOWS_COUNT)]
    rng.shuffle(demands)
    flows = []
    for n, demand in enumerate(demands):
        distance = 1 + n % (2 * k - 2)
        src = rng.choice([c for c in cells if _cells_at(c, distance, k)])
        dst = rng.choice(_cells_at(src, distance, k))
        start = round(rng.uniform(lo, hi - FLOW_LENGTH_S), 1)
        flow = {
            "id": f"flow{n}",
            "src": f"h{src[0]}_{src[1]}",
            "dst": f"h{dst[0]}_{dst[1]}",
            "start_s": start,
            "stop_s": round(start + FLOW_LENGTH_S, 1),
        }
        if demand is not None:
            flow["demand_mbps"] = demand
        flows.append(flow)
    doc["flows"] = flows
    hosts = [h["id"] for h in doc["hosts"]]
    doc["pings"] = [
        {"id": f"ping{n}", "src": src, "dst": dst, "interval_s": 0.5, "start_s": lo}
        for n, (src, dst) in enumerate(rng.sample(hosts, 2) for _ in range(FLOWS_PINGS))
    ]
    a, b = rng.choice(grid_links(k))
    doc["events"] = [
        {"at_s": round(rng.uniform(60.0, 90.0), 1), "action": "link-down", "link": [a, b]}
    ]
    return doc


def _cells_at(cell: tuple[int, int], distance: int, k: int) -> list[tuple[int, int]]:
    """Grid cells exactly ``distance`` hops from ``cell``."""
    i, j = cell
    return [(a, b) for a in range(k) for b in range(k) if abs(a - i) + abs(b - j) == distance]


def builtin_doc(name: str) -> dict:
    return yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())


# -- checks -------------------------------------------------------------------


class Checks:
    """Counts correctness checks and keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def expected_master(sim, wmr_id: str):
    """Lowest-address controller physically reachable from ``wmr_id``."""
    component = sim.topo.component_of(wmr_id)
    reachable = [c.node.mesh_address for c in sim.controllers.values() if c.node.id in component]
    return min(reachable) if reachable else None


def bfs_distances(sim, start: str) -> dict[str, int]:
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


def check_masters(sim, checks: Checks, where: str) -> None:
    for wmr_id, runtime in sim.wmrs.items():
        want = expected_master(sim, wmr_id)
        sel = runtime.selector
        if want is None:
            ok = sel.mode == "emergency" and sel.master is None
        else:
            ok = sel.mode == "connected" and sel.master == want
        checks.expect(ok, f"{where}/{wmr_id}: mode={sel.mode} master={sel.master} expected={want}")


def check_routes(sim, checks: Checks, where: str) -> None:
    """Every router's route to every other router matches BFS hop counts,
    and following next hops reaches the destination without a loop."""
    wmr_ids = sorted(sim.wmrs)
    for src in wmr_ids:
        dist = bfs_distances(sim, src)
        table = sim.wmrs[src].daemon.routing_table
        for dst in wmr_ids:
            if dst == src:
                continue
            addr = sim.wmrs[dst].node.mesh_address
            entry = table.lookup(addr)
            pair = f"{where}/{src}->{dst}"
            if dst not in dist:
                checks.expect(entry is None, f"{pair}: stale route")
                continue
            if entry is None or entry.hop_count != dist[dst]:
                checks.expect(False, f"{pair}: route {entry}, oracle distance {dist[dst]}")
                continue
            seen, current = set(), src
            while current != dst:
                step = sim.wmrs[current].daemon.routing_table.lookup(addr)
                if step is None or step.next_hop is None or step.next_hop in seen:
                    break
                seen.add(current)
                current = step.next_hop
            checks.expect(current == dst, f"{pair}: next-hop walk broke at {current}")


def check_single_master(result, checks: Checks, where: str) -> None:
    established: dict[str, str | None] = {}
    ok = True
    for record in result.log.records:
        if record.kind != "EftmTransition":
            continue
        node = record.data["node"]
        if record.data["to"] == "connected":
            ok = ok and established.get(node) is None
            established[node] = record.data["master"]
        else:
            established[node] = None
    checks.expect(ok, f"{where}: a router connected while holding a master")


def _at_most(value_us, max_s: float) -> bool:
    # No lower bound: in merge runs a router can finish re-homing before the
    # probe's first round trip, the reference instant, so the delay can be
    # negative; the acceptance gate bounds it from above only.
    return value_us is not None and value_us <= max_s * 1e6


def check_merge(sim, result, checks: Checks, where: str) -> None:
    lo, hi = MERGE_RUN_BAND_S
    checks.expect(
        result.connectivity_us is not None and lo * 1e6 <= result.connectivity_us <= hi * 1e6,
        f"{where}: connectivity {result.connectivity_us} us outside {MERGE_RUN_BAND_S} s",
    )
    checks.expect(
        _at_most(result.selection_us, MERGE_SELECTION_MAX_S),
        f"{where}: selection {result.selection_us} us above {MERGE_SELECTION_MAX_S} s",
    )
    check_single_master(result, checks, where)


def check_partition(sim, result, checks: Checks, where: str) -> None:
    checks.expect(
        _at_most(result.selection_us, PARTITION_SELECTION_MAX_S),
        f"{where}: selection {result.selection_us} us above {PARTITION_SELECTION_MAX_S} s",
    )
    rec = result.recovery
    ok = (
        rec is not None
        and rec.dip_at is not None
        and rec.recovery_after_event is not None
        and rec.steady_bps == PARTITION_STEADY_BPS
        and result.selection_us is not None
        and rec.recovery_after_event <= result.selection_us + PARTITION_RECOVERY_SLACK_S * 1e6
    )
    checks.expect(ok, f"{where}: throughput recovery {rec}")
    check_single_master(result, checks, where)


def check_grid(sim, result, checks: Checks, where: str) -> None:
    checks.expect(
        _at_most(result.selection_us, PARTITION_SELECTION_MAX_S),
        f"{where}: selection {result.selection_us} us above {PARTITION_SELECTION_MAX_S} s",
    )
    check_masters(sim, checks, where)
    check_routes(sim, checks, where)


def check_flows(sim, result, checks: Checks, where: str) -> None:
    check_masters(sim, checks, where)
    check_routes(sim, checks, where)
    demands = {f.id: f.demand_mbps for f in sim.scenario.flows}
    over = [
        r
        for r in result.log.records
        if r.kind == "ThroughputSample"
        and demands[r.data["flow"]] is not None
        and r.data["bps"] > demands[r.data["flow"]] * 1e6
    ]
    checks.expect(not over, f"{where}: {len(over)} samples above demand, first {over[:1]}")


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    label: str
    doc: dict
    sim_seed: int
    check: Callable


def chain_seeds(seed: int) -> list[RunSpec]:
    """The shipped merge and partition scenarios over a block of seeds."""
    docs = {"merge": builtin_doc("merge"), "partition": builtin_doc("partition")}
    checks = {"merge": check_merge, "partition": check_partition}
    base = seed * CHAIN_SEEDS_PER_RUN
    return [
        RunSpec(f"{name}/{s}", docs[name], s, checks[name])
        for name in ("merge", "partition")
        for s in range(base, base + CHAIN_SEEDS_PER_RUN)
    ]


def grid_partition(seed: int) -> list[RunSpec]:
    return [RunSpec(f"grid-partition/{seed}", grid_partition_doc(seed), seed, check_grid)]


def flows_mesh(seed: int) -> list[RunSpec]:
    base = seed * FLOWS_SEEDS_PER_RUN
    return [
        RunSpec(f"flows-mesh/{s}", flows_mesh_doc(s), s, check_flows)
        for s in range(base, base + FLOWS_SEEDS_PER_RUN)
    ]


WORKLOADS: dict[str, Callable[[int], list[RunSpec]]] = {
    "chain-seeds": chain_seeds,
    "grid-partition": grid_partition,
    "flows-mesh": flows_mesh,
}
