"""Controller behaviour against a hand-built topology view.

The controller under test sees a three-router chain wmr1 - wmr2 - wmr3 with a
host subnet behind each end.  A fake transport records everything it sends so
install order and rule contents can be checked exactly.
"""
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshsdn import control_plane as cp
from meshsdn.controller import Controller, ControllerConfig
from meshsdn.engine import Simulator, to_us
from meshsdn.olsr import TopologySnapshot
from meshsdn.routing import first_hop_tree
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.switch import DeliverLocal, DropAction, ForwardTo

from support import builtin_scenario

CADDR = IPv4Address("10.0.255.1")


def chain_snapshot(captured_at=0):
    return TopologySnapshot(
        captured_at=captured_at,
        adjacency={
            "wmr1": ("wmr2",),
            "wmr2": ("wmr1", "wmr3"),
            "wmr3": ("wmr2",),
        },
        addresses={
            "wmr1": (IPv4Address("10.0.0.1"),),
            "wmr2": (IPv4Address("10.0.0.2"),),
            "wmr3": (IPv4Address("10.0.0.3"),),
        },
        hna=(
            ("wmr1", IPv4Network("192.168.1.0/24")),
            ("wmr3", IPv4Network("192.168.3.0/24")),
            ("wmr3", IPv4Network("192.168.0.0/16")),  # less specific decoy
        ),
    )


class Bench:
    def __init__(self, cfg=None, path_overrides=None):
        self.sim = Simulator()
        self.sent = []
        self.records = []
        self.attachment_up = True
        self.ctrl = Controller(
            "ctrl1",
            CADDR,
            cfg or ControllerConfig(),
            self.sim,
            pull_snapshot=lambda: chain_snapshot(self.sim.now()),
            attachment_up=lambda: self.attachment_up,
            send=lambda addr, payload: self.sent.append((addr, payload)),
            log=lambda k, d: self.records.append((k, d)),
            path_overrides=path_overrides,
        )
        self.ctrl.start()

    def connect(self, wmr, addr):
        self.ctrl.on_connect_request(cp.ConnectRequest(wmr, token=7), addr)

    def connect_all(self):
        for i, wmr in enumerate(("wmr1", "wmr2", "wmr3"), start=1):
            self.connect(wmr, IPv4Address(f"10.0.0.{i}"))
        self.sent.clear()

    def flow_mods(self):
        return [(a, p.rule) for a, p in self.sent if isinstance(p, cp.FlowModMsg)]

    def actions(self, name):
        return [d for k, d in self.records if k == "ControllerAction" and d["action"] == name]


def test_connect_accept_then_flush():
    bench = Bench()
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    kinds = [type(p).__name__ for _, p in bench.sent]
    assert kinds == ["ConnectAccept", "FlushMsg"]
    assert bench.sent[1][1].origin_filter == "controller:*"
    assert bench.ctrl.connected_switches() == ["wmr1"]


def test_flush_on_connect_can_be_disabled():
    bench = Bench(ControllerConfig(flush_on_connect=False))
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    assert [type(p).__name__ for _, p in bench.sent] == ["ConnectAccept"]


def test_probe_reply_echoes_token():
    bench = Bench()
    bench.ctrl.on_probe_request(
        cp.ProbeRequest("wmr1", token=41), IPv4Address("10.0.0.1")
    )
    [(addr, reply)] = bench.sent
    assert (addr, reply.controller, reply.token) == (IPv4Address("10.0.0.1"), CADDR, 41)


def test_packet_in_installs_far_to_near():
    bench = Bench()
    bench.connect_all()
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("192.168.3.10")),
        IPv4Address("10.0.0.1"),
    )
    mods = bench.flow_mods()
    # Longest HNA match wins: the /24 behind wmr3, not the /16 decoy.
    assert [(str(a), str(r.dst_prefix), r.action) for a, r in mods] == [
        ("10.0.0.3", "192.168.3.0/24", DeliverLocal()),
        ("10.0.0.2", "192.168.3.0/24", ForwardTo("wmr3")),
        ("10.0.0.1", "192.168.3.0/24", ForwardTo("wmr2")),
    ]
    for _, rule in mods:
        assert rule.priority == 100
        assert rule.origin == "controller:10.0.255.1"
        assert rule.idle_timeout_us == to_us(30.0)
        assert rule.hard_timeout_us == 0


def test_every_flow_mod_carries_a_rule_of_its_own():
    # The switch stamps its install time and last hit on the rule a
    # flow-mod carries, so no two flow-mods may share one.
    bench = Bench()
    bench.connect_all()
    msg = cp.PacketInMsg("wmr1", None)
    for dst in ("192.168.3.10", "172.16.9.9") * 2:
        bench.ctrl.on_packet_in(msg._replace(dst=IPv4Address(dst)), IPv4Address("10.0.0.1"))
    rules = [rule for _, rule in bench.flow_mods()]
    assert len(rules) == 8  # a three-hop path and a drop, twice
    assert len({id(rule) for rule in rules}) == 8


def test_unconnected_hops_are_skipped_with_warning():
    bench = Bench()
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    bench.connect("wmr3", IPv4Address("10.0.0.3"))
    bench.sent.clear()
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("192.168.3.10")),
        IPv4Address("10.0.0.1"),
    )
    assert [str(a) for a, _ in bench.flow_mods()] == ["10.0.0.3", "10.0.0.1"]
    assert bench.actions("skip-unconnected-hop") == [
        {
            "controller": "ctrl1",
            "action": "skip-unconnected-hop",
            "wmr": "wmr2",
            "prefix": "192.168.3.0/24",
        }
    ]


def test_unknown_destination_gets_host_drop():
    bench = Bench()
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    bench.sent.clear()
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("172.16.9.9")),
        IPv4Address("10.0.0.1"),
    )
    [(addr, rule)] = bench.flow_mods()
    assert str(rule.dst_prefix) == "172.16.9.9/32"
    assert rule.action == DropAction()
    assert rule.hard_timeout_us == to_us(5.0)
    assert rule.idle_timeout_us == 0


def test_packet_in_from_unconnected_switch_is_ignored():
    bench = Bench()
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("192.168.3.10")),
        IPv4Address("10.0.0.1"),
    )
    assert bench.sent == []
    assert len(bench.actions("packet-in-ignored")) == 1


def test_silent_switch_evicted_after_timeout():
    bench = Bench()
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    bench.sim.run_until(to_us(4.9))
    assert bench.ctrl.connected_switches() == ["wmr1"]
    bench.sim.run_until(to_us(5.1))
    assert bench.ctrl.connected_switches() == []
    assert len(bench.actions("switch-timeout")) == 1


def test_keepalive_refreshes_liveness():
    bench = Bench()
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    bench.sim.run_until(to_us(4.0))
    bench.ctrl.on_keepalive(cp.KeepaliveRequest("wmr1", 3), IPv4Address("10.0.0.1"))
    bench.sim.run_until(to_us(8.0))
    assert bench.ctrl.connected_switches() == ["wmr1"]


def test_disconnect_notice_removes_switch():
    bench = Bench()
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    bench.ctrl.on_disconnect(cp.DisconnectNotice("wmr1"))
    assert bench.ctrl.connected_switches() == []
    # A second notice for the same switch is a no-op, not an error.
    bench.ctrl.on_disconnect(cp.DisconnectNotice("wmr1"))


def test_stale_view_is_logged_while_attachment_down():
    bench = Bench()
    bench.attachment_up = False
    bench.sim.run_until(to_us(5.0))  # refresh timer fires against a dead link
    [stale] = bench.actions("view-stale")
    assert stale["age_us"] == to_us(5.0)
    bench.attachment_up = True
    bench.sim.run_until(to_us(10.0))
    # The refresh at 10 s pulled a fresh view and logged nothing stale.
    assert len(bench.actions("view-stale")) == 1
    assert bench.ctrl.topo_view.captured_at == to_us(10.0)


def test_packet_in_refreshes_view_first():
    bench = Bench()
    bench.connect_all()
    bench.sim.run_until(to_us(2.0))
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("192.168.3.10")),
        IPv4Address("10.0.0.1"),
    )
    assert bench.ctrl.topo_view.captured_at == to_us(2.0)


def test_path_override_detours_install():
    # Force the long way round a square: wmr1-wmr2-wmr3 plus a direct 1-3 edge.
    snapshot = TopologySnapshot(
        captured_at=0,
        adjacency={
            "wmr1": ("wmr2", "wmr3"),
            "wmr2": ("wmr1", "wmr3"),
            "wmr3": ("wmr1", "wmr2"),
        },
        addresses={
            "wmr1": (IPv4Address("10.0.0.1"),),
            "wmr2": (IPv4Address("10.0.0.2"),),
            "wmr3": (IPv4Address("10.0.0.3"),),
        },
        hna=(("wmr3", IPv4Network("192.168.3.0/24")),),
    )
    bench = Bench(
        path_overrides={IPv4Network("192.168.3.0/24"): ["wmr1", "wmr2", "wmr3"]}
    )
    bench.ctrl._pull = lambda: snapshot
    bench.ctrl.refresh_topology()
    bench.connect_all()
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("192.168.3.10")),
        IPv4Address("10.0.0.1"),
    )
    assert [str(a) for a, _ in bench.flow_mods()] == [
        "10.0.0.3",
        "10.0.0.2",
        "10.0.0.1",
    ]


def two_gateway_doc(cut_first_gateway):
    """wmr2 and wmr4 are both gateways, joined to the controller's router
    wmr1 directly, and wmr4 also through wmr3; h1 sends to the Internet from
    40 s.  wmr1 lists wmr2's default route first, until the entry expires."""
    return {
        "name": "two-gateways",
        "duration_s": 45.0,
        "wmrs": [
            {"id": "wmr1", "mesh_addr": "10.0.0.1", "access": [{"subnet": "192.168.1.0/24", "addr": "192.168.1.1"}]},
            {"id": "wmr2", "mesh_addr": "10.0.0.2", "gateway": True},
            {"id": "wmr3", "mesh_addr": "10.0.0.3"},
            {"id": "wmr4", "mesh_addr": "10.0.0.4", "gateway": True},
        ],
        "controllers": [
            {
                "id": "ctrl1",
                "addr": "10.0.255.1",
                "attach": "wmr1",
                "path_overrides": [{"dst": "0.0.0.0/0", "path": ["wmr1", "wmr3", "wmr4"]}],
            }
        ],
        "hosts": [{"id": "h1", "addr": "192.168.1.10", "attach": "wmr1"}],
        "links": [
            {"a": "wmr1", "b": "wmr2"},
            {"a": "wmr1", "b": "wmr4"},
            {"a": "wmr1", "b": "wmr3"},
            {"a": "wmr3", "b": "wmr4"},
        ],
        "flows": [{"id": "flow1", "src": "h1", "dst": "8.8.8.8", "start_s": 40.0}],
        "events": (
            [{"at_s": 5.0, "action": "link-down", "link": ["wmr1", "wmr2"]}] if cut_first_gateway else []
        ),
    }


@pytest.mark.parametrize(
    "cut_first_gateway, installed",
    [
        # The controller resolves 0.0.0.0/0 to wmr2, so it ignores the
        # override, which ends at wmr4, and takes the shortest path.
        (False, [("wmr2", "DeliverLocal()"), ("wmr1", "ForwardTo(next_hop='wmr2')")]),
        # Cut off, wmr2's entry expires at wmr1 before 40 s: wmr4 is then the
        # first live announcer, and the override's detour is installed.
        (
            True,
            [
                ("wmr4", "DeliverLocal()"),
                ("wmr3", "ForwardTo(next_hop='wmr4')"),
                ("wmr1", "ForwardTo(next_hop='wmr3')"),
            ],
        ),
    ],
)
def test_override_to_a_second_gateway_is_used_once_the_first_is_gone(cut_first_gateway, installed):
    scenario = scenario_from_mapping(two_gateway_doc(cut_first_gateway), source="two-gateways")
    result = Simulation(scenario, seed=0).run()
    installs = [
        (r.data["wmr"], r.data["rule"])
        for r in result.log.records
        if r.kind == "ControllerAction" and r.data["action"] == "install"
    ]
    assert installs == [(wmr, f"0.0.0.0/0->{action}") for wmr, action in installed]


def test_unreachable_origin_falls_back_to_drop():
    # wmr3 advertises the subnet but is not in the adjacency map at all.
    snapshot = TopologySnapshot(
        captured_at=0,
        adjacency={"wmr1": (), "wmr2": ()},
        addresses={
            "wmr1": (IPv4Address("10.0.0.1"),),
            "wmr2": (IPv4Address("10.0.0.2"),),
        },
        hna=(("wmr3", IPv4Network("192.168.3.0/24")),),
    )
    bench = Bench()
    bench.ctrl._pull = lambda: snapshot
    bench.connect("wmr1", IPv4Address("10.0.0.1"))
    bench.sent.clear()
    bench.ctrl.on_packet_in(
        cp.PacketInMsg("wmr1", IPv4Address("192.168.3.10")),
        IPv4Address("10.0.0.1"),
    )
    [(_, rule)] = bench.flow_mods()
    assert rule.action == DropAction()
    assert str(rule.dst_prefix) == "192.168.3.10/32"


@pytest.mark.parametrize(
    "dst,expected",
    [
        ("192.168.3.10", "192.168.3.0/24"),
        ("192.168.7.10", "192.168.0.0/16"),
    ],
)
def test_resolve_prefers_longest_hna_match(dst, expected):
    bench = Bench()
    prefix, origin = bench.ctrl._resolve(IPv4Address(dst))
    assert str(prefix) == expected
    assert origin == ("wmr3" if expected != "192.168.1.0/24" else "wmr1")


# -- path search against one first-hop search per hop --------------------------

NODES = [f"w{i}" for i in range(9)]
# Self edges included: an origin may list itself as a neighbour.
PAIRS = [(a, b) for i, a in enumerate(NODES) for b in NODES[i:]]
# Repeated addresses tie on address and fall to the node id; None leaves a
# node without an address, which ranks after every node with one.
ADDRESSES = [None, "10.0.0.1", "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
PREFIX = IPv4Network("192.168.9.0/24")


@st.composite
def views(draw):
    """A snapshot over NODES with symmetric adjacency, as ``graph()`` builds
    it: every edge listed at both ends, isolated nodes absent; then a start
    and a goal, the same node one time in ten."""
    # Each edge is present with probability 1 / sparsity: dense views tie
    # often, sparse ones have long paths and unreachable goals.
    sparsity = draw(st.sampled_from([2, 3, 5]))
    adjacency: dict[str, set[str]] = {}
    for a, b in PAIRS:
        if draw(st.integers(0, sparsity - 1)) == 0:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    addresses = {}
    for node in NODES:
        addr = draw(st.sampled_from(ADDRESSES))
        if addr is not None:
            addresses[node] = (IPv4Address(addr),)
    view = TopologySnapshot(
        captured_at=0,
        adjacency={n: tuple(sorted(peers)) for n, peers in sorted(adjacency.items())},
        addresses=addresses,
        hna=(),
    )
    start, other = draw(st.permutations(NODES))[:2]
    return view, start, start if draw(st.integers(0, 9)) == 0 else other


def per_hop_path(view, start, goal):
    """The reference: one first-hop search from each hop, taking its first
    hop towards ``goal``, as every hop's own routing would."""
    def addr_of(node):
        held = view.addresses.get(node)
        return held[0] if held else None

    path = [start]
    while path[-1] != goal:
        _, first = first_hop_tree(view.adjacency, path[-1], addr_of)
        if goal not in first:
            return None
        path.append(first[goal])
    return path


CHAIN_VIEW = chain_snapshot()


@settings(max_examples=300, deadline=None)
@given(views())
@example((CHAIN_VIEW, "wmr1", "wmr1"))  # start == goal
@example((CHAIN_VIEW, "wmr1", "wmr3"))
@example((CHAIN_VIEW, "wmr1", "wmr9"))  # goal outside the view
@example((CHAIN_VIEW, "wmr9", "wmr1"))  # start outside the view
def test_path_equals_per_hop_first_hops(case):
    view, start, goal = case
    bench = Bench()
    bench.ctrl.topo_view = view
    assert bench.ctrl._path(start, goal, PREFIX) == per_hop_path(view, start, goal)


def test_snapshot_adjacency_is_symmetric_through_merge_run():
    sim = Simulation(builtin_scenario("merge"), 0)
    step = to_us(1.0)
    for end in range(step, to_us(sim.scenario.duration_s) + 1, step):
        sim.engine.run_until(end)
        for wmr in sim.wmrs.values():
            adjacency = wmr.daemon.snapshot().adjacency
            for node, peers in adjacency.items():
                for peer in peers:
                    assert node in adjacency.get(peer, ()), (end, wmr.node_id, node, peer)
