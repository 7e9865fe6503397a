"""Max-min allocation, ping bookkeeping, and the fluid-flow ramp."""
import math
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsdn import control_plane as cp
from meshsdn import traffic
from meshsdn.engine import Simulator, to_us
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.switch import DeliverLocal, FlowRule, FlowSwitch, ForwardTo, SwitchConfig
from meshsdn.topology import Interface, Link, Node, Topology
from meshsdn.traffic import (
    BulkFlowCfg,
    FluidTraffic,
    PingManager,
    PingProbeCfg,
    max_min_allocate,
)

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
    manager.add_probe(
        PingProbeCfg("p1", "h1", IPv4Address("10.0.255.1"), interval_s=1.0, start_s=0.5)
    )
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
        topo.add_node(Node(f"w{i}", "wmr", [Interface(IPv4Address(f"10.0.0.{i}"), mesh, "mesh")]))
    src, dst = IPv4Address("192.168.1.10"), IPv4Address("192.168.3.10")
    topo.add_node(Node("h1", "host", [Interface(src, IPv4Network("192.168.1.0/24"), "access")]))
    topo.add_node(Node("h2", "host", [Interface(dst, IPv4Network("192.168.3.0/24"), "access")]))
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
    capped = BulkFlowCfg("capped", "h1", dst, demand_bps=2e6, loss_recovery_s=0.0)
    fluid.add_flow(BulkFlowCfg("greedy", "h1", dst, loss_recovery_s=0.0))
    fluid.add_flow(capped)

    def tick_at(t):
        sim.run_until(to_us(t))
        return {flow: bps for at, flow, bps in samples if at == to_us(t)}

    def direct(demand, path):
        demands = {"capped": demand, "greedy": math.inf}
        return max_min_allocate(demands, {"capped": path, "greedy": path})

    long_path, short_path = [access1, w12, w23, access3], [access1, w13, access3]
    # The first tick sees only the flow started first; both run from 0.1 s.
    tick_at(0.0)
    assert tick_at(0.1) == direct(2e6, long_path) == {"capped": 2e6, "greedy": 8e6}
    assert len(calls) == 2
    assert tick_at(0.2) == direct(2e6, long_path)
    assert len(calls) == 2  # unchanged inputs: the last shares are reused

    capped.demand_bps = 4e6
    assert tick_at(0.3) == direct(4e6, long_path) == {"capped": 4e6, "greedy": 6e6}
    assert len(calls) == 3
    assert tick_at(0.4) == direct(4e6, long_path) and len(calls) == 3

    install("w1", ForwardTo("w3"), priority=200)
    assert tick_at(0.5) == direct(4e6, short_path) == {"capped": 4e6, "greedy": 16e6}
    assert len(calls) == 4
    assert calls[-1] == (
        {"capped": 4e6, "greedy": math.inf},
        {"capped": short_path, "greedy": short_path},
    )
    assert tick_at(0.6) == direct(4e6, short_path) and len(calls) == 4
