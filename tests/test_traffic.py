"""Max-min allocation, ping bookkeeping, the fluid-flow ramp, and reused
walks checked against walks from scratch."""
import math
from ipaddress import IPv4Address, IPv4Network
from itertools import pairwise

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshsdn import control_plane as cp
from meshsdn import traffic
from meshsdn.engine import Simulator, to_us
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.switch import (
    ORIGIN_EFTM,
    DeliverLocal,
    DropAction,
    FlowRule,
    FlowSwitch,
    ForwardTo,
    Packet,
    SwitchConfig,
)
from meshsdn.topology import Link, Node, Topology
from meshsdn.traffic import FlowSpec, FluidTraffic, PingManager, PingSpec, max_min_allocate

from support import StubHost


def link(lid_a, lid_b, capacity_bps):
    return Link(lid_a, lid_b, capacity_bps=capacity_bps, delay_us=1000)


def test_two_greedy_flows_split_a_link_evenly():
    shared = link("a", "b", 10_000_000)
    rates = max_min_allocate(
        {"f1": math.inf, "f2": math.inf}, {"f1": [shared], "f2": [shared]}
    )
    assert rates == {"f1": 5_000_000.0, "f2": 5_000_000.0}


def test_demand_limited_flow_frees_capacity():
    shared = link("a", "b", 10_000_000)
    rates = max_min_allocate(
        {"f1": 2_000_000.0, "f2": math.inf}, {"f1": [shared], "f2": [shared]}
    )
    assert rates == {"f1": 2_000_000.0, "f2": 8_000_000.0}


def test_crossing_flow_shares_both_links():
    l1 = link("a", "b", 10_000_000)
    l2 = link("b", "c", 10_000_000)
    rates = max_min_allocate(
        {"f1": math.inf, "f2": math.inf, "f3": math.inf},
        {"f1": [l1], "f2": [l2], "f3": [l1, l2]},
    )
    assert rates == {"f1": 5_000_000.0, "f2": 5_000_000.0, "f3": 5_000_000.0}


def test_frozen_demand_leaves_residual_for_greedy_flow():
    wide = link("a", "b", 30_000_000)
    rates = max_min_allocate(
        {"f1": 5_000_000.0, "f2": math.inf}, {"f1": [wide], "f2": [wide]}
    )
    assert rates == {"f1": 5_000_000.0, "f2": 25_000_000.0}


def test_bottleneck_then_residual_on_second_link():
    narrow = link("a", "b", 10_000_000)
    wide = link("b", "c", 30_000_000)
    rates = max_min_allocate(
        {"f1": math.inf, "f2": math.inf}, {"f1": [narrow, wide], "f2": [wide]}
    )
    assert rates == {"f1": 10_000_000.0, "f2": 20_000_000.0}


def test_flow_without_links_is_rejected():
    with pytest.raises(ValueError, match="crosses no links"):
        max_min_allocate({"f1": math.inf}, {"f1": []})


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_allocation_is_max_min_fair(data):
    n_links = data.draw(st.integers(1, 4))
    links = [
        link(f"n{i}", f"n{i + 1}", data.draw(st.integers(1, 40)) * 1_000_000)
        for i in range(n_links)
    ]
    n_flows = data.draw(st.integers(1, 5))
    demands = {}
    flow_links = {}
    for i in range(n_flows):
        fid = f"f{i}"
        demands[fid] = data.draw(
            st.one_of(st.just(math.inf), st.integers(1, 50).map(lambda m: m * 1_000_000.0))
        )
        chosen = data.draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=n_links, unique_by=id)
        )
        flow_links[fid] = chosen
    rates = max_min_allocate(demands, flow_links)

    loads = {}
    for fid, rate in rates.items():
        assert 0.0 <= rate <= demands[fid]
        for lk in flow_links[fid]:
            loads[lk.id] = loads.get(lk.id, 0.0) + rate
    caps = {lk.id: lk.capacity_bps for lk in links}
    for lid, load in loads.items():
        assert load <= caps[lid] + 1e-6
    # Max-min certificate: every flow short of its demand crosses a saturated
    # link on which no other flow gets a larger rate.
    for fid, rate in rates.items():
        if rate >= demands[fid]:
            continue
        bottlenecked = False
        for lk in flow_links[fid]:
            saturated = loads[lk.id] >= caps[lk.id] - 1e-6
            dominant = all(
                rates[other] <= rate + 1e-6
                for other in rates
                if lk in flow_links[other]
            )
            if saturated and dominant:
                bottlenecked = True
        assert bottlenecked


def full_scan_allocate(demands, flow_links):
    """The allocation as first written: every round rescans each link's
    flows against the list of active ones.  The reference for the kept
    per-link counts of :func:`max_min_allocate`."""
    rates = {}
    active = sorted(demands)
    link_flows = {}
    link_caps = {}
    for flow in active:
        for lk in flow_links[flow]:
            link_flows.setdefault(lk.id, []).append(flow)
            link_caps[lk.id] = float(lk.capacity_bps)
    while active:
        shares = {}
        for lid in sorted(link_flows):
            unfrozen = [f for f in link_flows[lid] if f in active]
            if not unfrozen:
                continue
            residual = link_caps[lid] - sum(rates[f] for f in link_flows[lid] if f not in active)
            shares[lid] = max(residual, 0.0) / len(unfrozen)
        bottleneck = min(shares.values())
        limited = [f for f in active if demands[f] <= bottleneck]
        if limited:
            for flow in limited:
                rates[flow] = demands[flow]
                active.remove(flow)
            continue
        saturated = {lid for lid, s in shares.items() if s == bottleneck}
        for flow in list(active):
            if any(lk.id in saturated for lk in flow_links[flow]):
                rates[flow] = bottleneck
                active.remove(flow)
    return rates


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_allocation_equals_full_scan_bit_for_bit(data):
    # Odd capacities and fractional demands make the order of each float sum
    # matter; a path may cross one link twice.
    links = [
        link(f"n{i}", f"n{i + 1}", data.draw(st.integers(1, 10**9)))
        for i in range(data.draw(st.integers(1, 6)))
    ]
    demands = {}
    flow_links = {}
    for i in range(data.draw(st.integers(1, 8))):
        fid = f"f{i}"
        demands[fid] = data.draw(
            st.one_of(st.just(math.inf), st.floats(0.0, 1e9, allow_nan=False))
        )
        flow_links[fid] = data.draw(st.lists(st.sampled_from(links), min_size=1, max_size=5))
    rates = max_min_allocate(demands, flow_links)
    expected = full_scan_allocate(demands, flow_links)
    assert list(rates.items()) == list(expected.items())
    assert [math.copysign(1.0, r) for r in rates.values()] == [
        math.copysign(1.0, r) for r in expected.values()
    ]


def test_ping_round_trip_and_cadence():
    sim = Simulator()
    sent = []
    results = []

    def originate(host, dst, payload):
        # Model a 3 ms round trip per probe.
        sent.append((sim.now(), payload))
        sim.schedule(
            3000,
            lambda: manager.on_reply(
                cp.PingReply(payload.probe_id, payload.seq, payload.sent_at)
            ),
        )

    manager = PingManager(
        sim,
        originate=originate,
        log=lambda k, d: results.append(d) if k == "PingResult" else None,
    )
    manager.add_probe(PingSpec("p1", "h1", IPv4Address("10.0.255.1"), interval_s=1.0, start_s=0.5))
    sim.run_until(to_us(2.6))
    assert [(t, p.seq) for t, p in sent] == [
        (to_us(0.5), 0),
        (to_us(1.5), 1),
        (to_us(2.5), 2),
    ]
    assert [(r["seq"], r["rtt_us"]) for r in results] == [(0, 3000), (1, 3000), (2, 3000)]


def ramp_scenario_doc():
    return {
        "name": "ramp",
        "duration_s": 20.0,
        "olsr": {"jitter": 0.0, "randomize_phase": False},
        "eftm": {"randomize_phase": False},
        "wmrs": [
            {"id": "wmr1", "mesh_addr": "10.0.0.1", "access": [{"subnet": "192.168.1.0/24", "addr": "192.168.1.1"}]},
            {"id": "wmr2", "mesh_addr": "10.0.0.2", "access": [{"subnet": "192.168.2.0/24", "addr": "192.168.2.1"}]},
        ],
        "controllers": [{"id": "ctrl1", "addr": "10.0.255.1", "attach": "wmr1"}],
        "hosts": [
            {"id": "h1", "addr": "192.168.1.10", "attach": "wmr1"},
            {"id": "h2", "addr": "192.168.2.10", "attach": "wmr2"},
        ],
        "links": [{"a": "wmr1", "b": "wmr2"}],
        "flows": [{"id": "flow1", "src": "h1", "dst": "h2", "start_s": 15.0}],
    }


def test_flow_ramps_linearly_after_rules_install():
    scenario = scenario_from_mapping(ramp_scenario_doc(), source="ramp")
    sim = Simulation(scenario, seed=0)
    result = sim.run()
    samples = [
        (r.time, r.data["bps"])
        for r in result.log.records
        if r.kind == "ThroughputSample" and r.data["flow"] == "flow1"
    ]
    by_time = dict(samples)
    # First sample at flow start dead-ends on empty tables and reads zero;
    # that very walk raises the packet-in that installs the path.
    assert by_time[to_us(15.0)] == 0.0
    # One sample interval later the path exists but the ramp starts at zero.
    assert by_time[to_us(15.1)] == 0.0
    # Linear climb: each 100 ms adds a tenth of the 10 Mbit/s link.
    for step in range(1, 11):
        assert by_time[to_us(15.1 + step * 0.1)] == pytest.approx(
            1_000_000.0 * step
        )
    # Past the 1 s recovery window the flow holds the full link.
    assert by_time[to_us(18.0)] == 10_000_000.0
    assert max(bps for _, bps in samples) == 10_000_000.0


def test_allocation_is_reused_until_a_demand_or_path_changes(monkeypatch):
    # h1 - w1 - w2 - w3 - h2, plus a wider shortcut w1 - w3.
    sim = Simulator()
    topo = Topology()
    mesh = IPv4Network("10.0.0.0/16")
    for i in (1, 2, 3):
        topo.add_node(Node(f"w{i}", "wmr", [IPv4Address(f"10.0.0.{i}")]))
    src, dst = IPv4Address("192.168.1.10"), IPv4Address("192.168.3.10")
    topo.add_node(Node("h1", "host", [src]))
    topo.add_node(Node("h2", "host", [dst]))
    access1, w12, w23, w13, access3 = (
        Link("h1", "w1", 100_000_000, 500),
        Link("w1", "w2", 10_000_000, 1000),
        Link("w2", "w3", 10_000_000, 1000),
        Link("w1", "w3", 20_000_000, 1000),
        Link("w3", "h2", 100_000_000, 500),
    )
    for lk in (access1, w12, w23, w13, access3):
        topo.add_link(lk)
    switches = {
        w: FlowSwitch(w, mesh, SwitchConfig(), sim, lambda k, d: None, StubHost())
        for w in ("w1", "w2", "w3")
    }

    def install(wmr, action, priority=100):
        switches[wmr].install_rule(FlowRule(priority, IPv4Network("192.168.3.0/24"), action, "t"))

    install("w1", ForwardTo("w2"))
    install("w2", ForwardTo("w3"))
    install("w3", DeliverLocal())

    calls = []

    def counting_allocate(demands, flow_links):
        calls.append((demands, flow_links))
        return max_min_allocate(demands, flow_links)

    monkeypatch.setattr(traffic, "max_min_allocate", counting_allocate)
    samples = []
    fluid = FluidTraffic(
        sim,
        topo,
        switches,
        log=lambda kind, data: samples.append((sim.now(), data["flow"], data["bps"])),
    )
    fluid.add_flow(FlowSpec("greedy", "h1", dst, loss_recovery_s=0.0))
    fluid.add_flow(FlowSpec("capped", "h1", dst, demand_mbps=2.0, loss_recovery_s=0.0))

    def tick_at(t):
        sim.run_until(to_us(t))
        return {flow: bps for at, flow, bps in samples if at == to_us(t)}

    def direct(path, *flow_ids):
        demands = {"capped": 2e6, "greedy": math.inf}
        return max_min_allocate({f: demands[f] for f in flow_ids}, {f: path for f in flow_ids})

    long_path, short_path = [access1, w12, w23, access3], [access1, w13, access3]
    # The first tick sees only the flow started first; both run from 0.1 s.
    tick_at(0.0)
    assert tick_at(0.1) == direct(long_path, "capped", "greedy") == {"capped": 2e6, "greedy": 8e6}
    assert len(calls) == 2
    assert tick_at(0.2) == direct(long_path, "capped", "greedy")
    assert len(calls) == 2  # unchanged inputs: the last shares are reused

    # Stopping a flow takes its demand out, and restarting it puts it back.
    fluid.stop_flow("capped")
    assert tick_at(0.3) == direct(long_path, "greedy") == {"greedy": 10e6}
    assert len(calls) == 3
    fluid.start_flow("capped")
    assert tick_at(0.4) == direct(long_path, "capped", "greedy") and len(calls) == 4
    assert tick_at(0.5) == direct(long_path, "capped", "greedy") and len(calls) == 4

    install("w1", ForwardTo("w3"), priority=200)
    assert tick_at(0.6) == direct(short_path, "capped", "greedy") == {"capped": 2e6, "greedy": 18e6}
    assert len(calls) == 5
    assert calls[-1] == (
        {"capped": 2e6, "greedy": math.inf},
        {"capped": short_path, "greedy": short_path},
    )
    assert tick_at(0.7) == direct(short_path, "capped", "greedy") and len(calls) == 5


# -- reused walks against walks from scratch ----------------------------------

# Routers w1..w4 joined by every link but w1-w4; h1 hangs off w1, h3 off w2
# and h2 off w4.  STRAY lies in h2's subnet but nobody owns it.
MESH = IPv4Network("10.0.0.0/16")
DST, STRAY = IPv4Address("192.168.4.10"), IPv4Address("192.168.4.99")
WALK_HOSTS = {"h1": ("192.168.1.10", "w1"), "h3": ("192.168.2.10", "w2"), "h2": ("192.168.4.10", "w4")}
WALK_LINKS = [("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w1", "w3"), ("w2", "w4")]
WALK_FLOWS = [  # id, src, dst, demand_mbps
    ("f1", "h1", DST, None), ("f2", "h3", DST, 2.0), ("f3", "h1", STRAY, None)
]
WMRS = ["w1", "w2", "w3", "w4"]
WALK_PATHS = [["w1", "w2", "w4"], ["w1", "w3", "w4"], ["w1", "w2", "w3", "w4"], ["w2", "w4"], ["w2", "w1", "w3", "w4"]]


class WalkFromScratch(FluidTraffic):
    """Walks every flow from scratch on every sample: the reference that the
    reused walks must agree with."""

    def _trace(self, state, now):
        access = state.access
        if not access.up:
            return None
        links = [access]
        packet = state.packet
        current = state.router
        for _ in range(len(self.topo.nodes) + 1):
            flow_switch = self._switches[current]
            rule = flow_switch.table.match(packet, now)
            if rule is None:
                flow_switch.forward(Packet(packet.src, packet.dst, "data", flow_id=packet.flow_id))
                return None
            action = rule.action
            if isinstance(action, ForwardTo):
                nxt = action.next_hop
            elif isinstance(action, DeliverLocal) and state.owner is not None:
                if state.owner == current:
                    return links
                nxt = state.owner
            else:
                return None
            try:
                hop = self.topo.link_between(current, nxt)
            except KeyError:
                return None
            if not hop.up:
                return None
            links.append(hop)
            if isinstance(action, DeliverLocal):
                return links
            current = nxt
        return None


class RecordingHost(StubHost):
    """A connected router that logs what its switch hands it."""

    master = IPv4Address("10.0.255.1")

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def send_to_neighbor(self, neighbor, packet):
        self.log("sent", {"node": self.node_id, "to": neighbor, "flow": packet.flow_id})

    def deliver_local(self, packet):
        self.log("delivered", {"node": self.node_id, "flow": packet.flow_id})

    def raise_packet_in(self, packet):
        self.log("packet-in", {"node": self.node_id, "flow": packet.flow_id})


class WalkWorld:
    """Four switches and three flows sampled by one fluid model, driven by
    steps; everything observable is kept for comparison."""

    def __init__(self, traffic_cls, sweep_interval_s=0.55):
        self.sim = Simulator()
        self.topo = Topology()
        self.records = []
        self.walks = []
        self.rules = []  # every rule ever installed, in install order
        for i, wmr in enumerate(WMRS, start=1):
            self.topo.add_node(Node(wmr, "wmr", [IPv4Address(f"10.0.0.{i}")]))
        for host, (addr, wmr) in WALK_HOSTS.items():
            self.topo.add_node(Node(host, "host", [IPv4Address(addr)]))
            self.topo.add_link(Link(host, wmr, 100_000_000, 500))
        for a, b in WALK_LINKS:
            self.topo.add_link(Link(a, b, 10_000_000, 1000))
        cfg = SwitchConfig(sweep_interval_s=sweep_interval_s)
        self.switches = {
            w: FlowSwitch(w, MESH, cfg, self.sim, self.log, RecordingHost(w, self.log)) for w in WMRS
        }
        for switch in self.switches.values():
            switch.start()
        self.fluid = traffic_cls(self.sim, self.topo, self.switches, self.log)
        trace = self.fluid._trace

        def recording_trace(state, now):
            links = trace(state, now)
            ids = None if links is None else [lk.id for lk in links]
            self.walks.append((now, state.packet.flow_id, ids))
            return links

        self.fluid._trace = recording_trace
        for flow_id, src, dst, demand in WALK_FLOWS:
            spec = FlowSpec(flow_id, src, dst, demand_mbps=demand, loss_recovery_s=0.3)
            self.fluid.add_flow(spec)

    def log(self, kind, data):
        self.records.append((self.sim.now(), kind, data))

    def install(self, node, **args):
        rule = FlowRule(**args)
        self.rules.append(rule)
        self.switches[node].install_rule(rule)

    def apply(self, step):
        op, *args = step
        if op == "install":
            node, rule_args = args
            self.install(node, **rule_args)
        elif op == "path":
            nodes, rule_args = args
            for here, nxt in pairwise(nodes):
                self.install(here, action=ForwardTo(nxt), **rule_args)
            self.install(nodes[-1], action=DeliverLocal(), **rule_args)
        elif op == "flush":
            node, origin_filter = args
            self.switches[node].flush_rules(origin_filter)
        elif op == "sweep":
            (node,) = args
            self.switches[node].table.remove_expired(self.sim.now())
        elif op == "link":
            a, b, up = args
            self.topo.set_link_state(a, b, up)
        elif op == "stop":
            self.fluid.stop_flow(*args)
        elif op == "start":
            self.fluid.start_flow(*args)
        elif op == "wait":
            (steps,) = args
            self.sim.run_until(self.sim.now() + steps * to_us(0.05))

    def observed(self):
        return (
            self.walks,
            [rule.last_hit for rule in self.rules],
            self.records,
            {w: switch.table.dump() for w, switch in self.switches.items()},
        )

    def path(self, *nodes):
        return [self.topo.link_between(a, b).id for a, b in pairwise(nodes)]


def run_both(steps, **world_args):
    """Apply each step to a reusing world and to one that walks from
    scratch, and require the same observations after every step."""
    reused = WalkWorld(FluidTraffic, **world_args)
    scratch = WalkWorld(WalkFromScratch, **world_args)
    for step in steps:
        reused.apply(step)
        scratch.apply(step)
        assert reused.observed() == scratch.observed(), step
    return reused


walk_rule_args = st.fixed_dictionaries(
    {
        "priority": st.sampled_from([100, 200]),
        "dst_prefix": st.sampled_from(
            [IPv4Network(p) for p in ("192.168.4.10/32", "192.168.4.0/24", "192.168.0.0/16")]
        ),
        "origin": st.sampled_from(["controller:10.0.255.1", ORIGIN_EFTM]),
        "idle_timeout_us": st.sampled_from([0, to_us(0.15), to_us(0.4)]),
        "hard_timeout_us": st.sampled_from([0, to_us(0.25), to_us(0.7)]),
    }
)
walk_actions = st.sampled_from([*(ForwardTo(w) for w in WMRS), DeliverLocal(), DropAction()])
path_rule_args = st.fixed_dictionaries(
    {
        "priority": st.just(100),
        "dst_prefix": st.sampled_from([IPv4Network("192.168.4.0/24"), IPv4Network("192.168.0.0/16")]),
        "origin": st.sampled_from(["controller:10.0.255.1", ORIGIN_EFTM]),
        # Samples come every 0.1 s, so only an idle timeout shorter than that
        # can expire a rule that a walk keeps using.
        "idle_timeout_us": st.sampled_from([0, 0, to_us(0.08), to_us(0.4)]),
        "hard_timeout_us": st.sampled_from([0, 0, to_us(0.25), to_us(0.7)]),
    }
)
path_steps = st.tuples(st.just("path"), st.sampled_from(WALK_PATHS), path_rule_args)
link_steps = st.builds(
    lambda ends, up: ("link", *ends, up),
    st.sampled_from([*WALK_LINKS, ("h1", "w1")]),
    st.booleans(),
)
walk_steps = st.one_of(
    path_steps,
    st.tuples(
        st.just("install"),
        st.sampled_from(WMRS),
        st.builds(lambda args, action: {**args, "action": action}, walk_rule_args, walk_actions),
    ),
    st.tuples(st.just("flush"), st.sampled_from(WMRS), st.sampled_from(["controller:*", ORIGIN_EFTM])),
    st.tuples(st.just("sweep"), st.sampled_from(WMRS)),
    link_steps,
    link_steps,
    st.tuples(st.sampled_from(["stop", "start"]), st.sampled_from([f[0] for f in WALK_FLOWS])),
)


def path_rule(priority=100, hard_timeout_us=0, idle_timeout_us=0, dst="192.168.4.0/24"):
    return {
        "priority": priority,
        "dst_prefix": IPv4Network(dst),
        "origin": "controller:10.0.255.1",
        "idle_timeout_us": idle_timeout_us,
        "hard_timeout_us": hard_timeout_us,
    }


# Fixed examples with long runs of clean samples: f1 over w1-w2-w4 and f2
# over w2-w4 reach h2 from the first sample, whose 0.05 s wait lets f3 start
# before it is stopped (its stray address is dropped at w4, so it never
# keeps a walk).  Sweeps find nothing to expire and change no table.
STEADY_PATHS = (
    ("path", ["w1", "w2", "w4"], path_rule()),
    ("path", ["w2", "w4"], path_rule()),
)
SHORT_PATH_EXAMPLES = {
    # Every sample from 0.1 s is clean, and the ramps finish at 0.3 s.
    "ramp finishes under clean samples": [
        (("sweep", "w1"), 1),
        (("stop", "f3"), 4),
        (("sweep", "w2"), 4),
        (("sweep", "w3"), 4),
    ],
    # f2 stops and starts again while f1 keeps its walk.
    "flow stops and starts amid steady ones": [
        (("sweep", "w1"), 1),
        (("stop", "f3"), 4),
        (("sweep", "w2"), 4),
        (("stop", "f2"), 3),
        (("sweep", "w3"), 4),
        (("start", "f2"), 4),
        (("sweep", "w4"), 4),
        (("sweep", "w1"), 4),
    ],
}


@settings(max_examples=150, deadline=None)
@given(
    path_steps,
    path_steps,
    st.lists(st.tuples(walk_steps, st.integers(0, 4)), min_size=5, max_size=40),
)
@example(*STEADY_PATHS, SHORT_PATH_EXAMPLES["ramp finishes under clean samples"])
@example(*STEADY_PATHS, SHORT_PATH_EXAMPLES["flow stops and starts amid steady ones"])
def test_reused_walks_equal_walks_from_scratch(first, second, steps):
    # Two paths up front, so that most samples find one to reuse, and up to
    # four half-sample waits after each step, so that samples see each change.
    waited = [s for step, n in steps for s in (step, ("wait", n)) if s != ("wait", 0)]
    run_both([first, second, *waited])


def install_step(node, action, **rule_args):
    return ("install", node, {**path_rule(**rule_args), "action": action})


def flow_walks(world, flow_id):
    return [(now, links) for now, flow, links in world.walks if flow == flow_id]


def test_mid_path_hard_timeout_ends_reuse_before_any_sweep():
    # At w2 a priority-200 rule to w4 with a 0.25 s hard timeout shadows a
    # rule to w3.  Sweeps come only every 10 s, so after 0.25 s the expired
    # rule still sits in the table and only its expiry can end the reuse.
    steps = [
        install_step("w1", ForwardTo("w2")),
        install_step("w2", ForwardTo("w4"), priority=200, hard_timeout_us=to_us(0.25)),
        install_step("w2", ForwardTo("w3")),
        install_step("w3", ForwardTo("w4")),
        install_step("w4", DeliverLocal()),
        ("wait", 8),
    ]
    world = run_both(steps, sweep_interval_s=10.0)
    short, long = world.path("h1", "w1", "w2", "w4", "h2"), world.path("h1", "w1", "w2", "w3", "w4", "h2")
    assert flow_walks(world, "f1") == [
        (0, short),
        (to_us(0.1), short),
        (to_us(0.2), short),
        (to_us(0.3), long),
        (to_us(0.4), long),
    ]
    shadowing = world.rules[1]
    assert shadowing.last_hit == to_us(0.2)  # never touched once expired
    assert shadowing in world.switches["w2"].table.rules.values()


def test_link_down_on_path_ends_reuse_and_link_up_restores_it():
    steps = [
        ("path", ["w1", "w2", "w4"], path_rule()),
        ("wait", 5),
        ("link", "w2", "w4", False),
        ("wait", 2),
        ("link", "w2", "w4", True),
        ("wait", 2),
    ]
    world = run_both(steps)
    path = world.path("h1", "w1", "w2", "w4", "h2")
    assert flow_walks(world, "f1") == [
        (0, path),
        (to_us(0.1), path),
        (to_us(0.2), path),
        (to_us(0.3), None),
        (to_us(0.4), path),
    ]
    # The walk stopped at a down link, not at a miss: nothing was raised.
    assert not [r for r in world.records if r[1] == "packet-in" and r[2]["flow"] == "f1"]
    samples = [(t, d["bps"]) for t, kind, d in world.records if kind == "ThroughputSample" and d["flow"] == "f1"]
    assert samples[-2:] == [(to_us(0.3), 0.0), (to_us(0.4), 0.0)]  # the ramp starts over


def test_change_in_a_table_no_walk_visits_walks_afresh_once():
    # Only f1 reaches h2 (f2 misses at w2, and f3's stray address matches no
    # rule).  An install at w2 ends the clean samples once: the next sample
    # drops f1's kept walk and walks afresh, which finds the same path and
    # raises no packet-in; the samples after it are clean again.
    steps = [("path", ["w1", "w3", "w4"], path_rule(dst="192.168.4.10/32")), ("wait", 5)]
    world = run_both(steps, sweep_interval_s=10.0)
    fresh = []
    kept_until = world.fluid._kept_until

    def counted(rules, now):
        fresh.append(now)
        return kept_until(rules, now)

    world.fluid._kept_until = counted
    links, rules, _ = walk = world.fluid._flows["f1"].walk
    world.install("w2", action=DropAction(), **path_rule(dst="192.168.9.0/24"))
    world.apply(("wait", 6))
    assert fresh == [to_us(0.3)]
    rewalked = world.fluid._flows["f1"].walk
    assert rewalked is not walk and rewalked[:2] == (links, rules)
    path = world.path("h1", "w1", "w3", "w4", "h2")
    assert flow_walks(world, "f1") == [(to_us(0.1) * i, path) for i in range(6)]
    assert not [r for r in world.records if r[1] == "packet-in" and r[2]["flow"] == "f1"]


def test_flow_restarted_after_its_rules_idle_out_walks_afresh():
    # f1 alone touches its /32 rules, which idle out 0.4 s after the last
    # sample that used them.  Sweeps come only every 10 s, so no table
    # changes while f1 is stopped: the sample after its restart is clean,
    # and only a fresh walk finds the rules expired and raises a packet-in.
    path_args = path_rule(dst="192.168.4.10/32", idle_timeout_us=to_us(0.4))
    steps = [
        ("path", ["w1", "w3", "w4"], path_args),
        ("wait", 3),
        ("stop", "f1"),
        ("wait", 12),
        ("start", "f1"),
        ("wait", 2),
    ]
    world = run_both(steps, sweep_interval_s=10.0)
    path = world.path("h1", "w1", "w3", "w4", "h2")
    assert flow_walks(world, "f1") == [(0, path), (to_us(0.1), path), (to_us(0.8), None)]
    packet_ins = [(t, r["node"]) for t, kind, r in world.records if kind == "packet-in" and r["flow"] == "f1"]
    assert packet_ins == [(to_us(0.8), "w1")]


def test_idle_timeout_within_a_sample_interval_ends_reuse():
    # w3's rule idles out 0.08 s after each sample touches it, before the
    # next sample: no sample after the first may trust the kept walk, so each
    # one finds the rule expired and raises a packet-in at w3.
    steps = [
        install_step("w1", ForwardTo("w3"), dst="192.168.4.10/32"),
        install_step("w3", ForwardTo("w4"), dst="192.168.4.10/32", idle_timeout_us=to_us(0.08)),
        install_step("w4", DeliverLocal(), dst="192.168.4.10/32"),
        ("wait", 5),
    ]
    world = run_both(steps, sweep_interval_s=10.0)
    path = world.path("h1", "w1", "w3", "w4", "h2")
    assert flow_walks(world, "f1") == [(0, path), (to_us(0.1), None), (to_us(0.2), None)]
    packet_ins = [(t, r["node"]) for t, kind, r in world.records if kind == "packet-in" and r["flow"] == "f1"]
    assert packet_ins == [(to_us(0.1), "w3"), (to_us(0.2), "w3")]
