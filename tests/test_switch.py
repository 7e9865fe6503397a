"""Flow-table matching, timeouts, flush filters, and miss handling."""
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsdn.engine import Simulator, to_us
from meshsdn.switch import (
    ORIGIN_EFTM,
    DeliverLocal,
    DropAction,
    FlowRule,
    FlowSwitch,
    FlowTable,
    ForwardTo,
    Packet,
    SwitchConfig,
    origin_controller,
)

CONTROL = IPv4Network("10.0.0.0/16")


def rule(priority=100, dst="192.168.0.0/16", action=None, origin="t", idle=0, hard=0):
    return FlowRule(
        priority=priority,
        dst_prefix=IPv4Network(dst),
        action=action or DropAction(),
        origin=origin,
        idle_timeout_us=idle,
        hard_timeout_us=hard,
    )


def data_packet(dst="192.168.2.10", src="192.168.1.10"):
    return Packet(IPv4Address(src), IPv4Address(dst), "data")


class Harness:
    """A switch whose host is the harness itself, with inspectable stubs."""

    def __init__(self, connected=False, local=("10.0.0.1",)):
        self.sim = Simulator()
        self.records = []
        self.sent = []
        self.delivered = []
        self.packet_ins = []
        self.local = {int(IPv4Address(addr)) for addr in local}
        self.access_networks = [IPv4Network("192.168.1.0/24")]
        self.master = IPv4Address("10.0.255.1") if connected else None
        self.switch = FlowSwitch(
            "wmr1",
            CONTROL,
            SwitchConfig(),
            self.sim,
            lambda k, d: self.records.append((k, d)),
            self,
        )

    def route(self, dst):
        return None

    def is_neighbor(self, node_id):
        return node_id in ("wmr2", "wmr3")

    def send_to_neighbor(self, neighbor, packet):
        self.sent.append((neighbor, packet))

    def deliver_local(self, packet):
        self.delivered.append(packet)

    def raise_packet_in(self, packet):
        self.packet_ins.append(packet)

    def drops(self):
        return [d["reason"] for k, d in self.records if k == "PacketDrop"]


@given(
    st.one_of(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(int(CONTROL.network_address), int(CONTROL.broadcast_address)),
        st.integers(0, 31).map(lambda bit: int(CONTROL.network_address) ^ (1 << bit)),
    )
)
def test_classification_splits_on_control_subnet(raw):
    # Basic class, anything into the control subnet, follows the routing
    # table; everything else is SDN class and meets the flow table.  The
    # addresses one bit away from the subnet's own test each bit of its
    # mask.  The router owns no address here, so no Basic packet is
    # delivered up.
    h = Harness(local=())
    routed, matched = [], []
    route, match = h.route, h.switch.table.match
    h.route = lambda dst: routed.append(dst) or route(dst)
    h.switch.table.match = lambda packet, now: matched.append(packet.dst_int) or match(packet, now)
    packet = Packet(IPv4Address("10.0.0.1"), IPv4Address(raw), "data")
    h.switch.forward(packet)
    if packet.dst in CONTROL:
        assert (routed, matched) == ([raw], [])
    else:
        assert (routed, matched) == ([], [raw])


def test_match_prefers_priority_then_prefix_length():
    table = FlowTable()
    low = table.install(rule(priority=10, dst="192.168.0.0/16", origin="a"))
    longer = table.install(rule(priority=10, dst="192.168.2.0/24", origin="b"))
    high = table.install(rule(priority=50, dst="192.168.0.0/16", origin="c"))
    packet = data_packet()
    assert table.match(packet, 0) is high
    table.flush("c")
    assert table.match(packet, 0) is longer
    table.flush("b")
    assert table.match(packet, 0) is low


def test_idle_and_hard_timeouts():
    sim_now = to_us(100.0)
    idler = rule(idle=to_us(30.0))
    idler.installed_at = idler.last_hit = sim_now
    assert not idler.expired(sim_now + to_us(29.9))
    assert idler.expired(sim_now + to_us(30.0))
    idler.last_hit = sim_now + to_us(10.0)  # a hit pushes expiry out
    assert not idler.expired(sim_now + to_us(30.0))

    harder = rule(hard=to_us(5.0), idle=to_us(30.0))
    harder.installed_at = harder.last_hit = sim_now
    harder.last_hit = sim_now + to_us(4.0)
    assert harder.expired(sim_now + to_us(5.0))  # hard limit ignores hits


def test_matching_touches_last_hit():
    h = Harness()
    h.sim.run_until(to_us(50.0))
    r = rule(idle=to_us(30.0), action=ForwardTo("wmr2"))
    h.switch.install_rule(r)
    h.sim.run_until(to_us(79.0))
    h.switch.forward(data_packet())
    assert r.last_hit == to_us(79.0)
    # The hit at 79 keeps it alive past the original 80 s horizon.
    h.sim.run_until(to_us(100.0))
    assert h.switch.table.match(data_packet(), h.sim.now()) is r


def test_sweep_logs_expired_rules():
    h = Harness()
    h.switch.start()
    h.switch.install_rule(rule(hard=to_us(2.0)))
    h.sim.run_until(to_us(10.0))
    events = [d for k, d in h.records if k == "RuleEvent" and d["event"] == "expire"]
    assert len(events) == 1
    assert events[0]["table"] == []  # dump after removal


def test_flush_filters():
    c1 = origin_controller(IPv4Address("10.0.255.1"))
    c2 = origin_controller(IPv4Address("10.0.255.2"))
    specs = [
        ("10.1.0.0/24", c1),
        ("10.2.0.0/24", c1),
        ("10.3.0.0/24", c2),
        ("10.4.0.0/24", ORIGIN_EFTM),
        ("10.5.0.0/24", ORIGIN_EFTM),
    ]

    def fresh():
        table = FlowTable()
        for dst, origin in specs:
            table.install(rule(dst=dst, origin=origin))
        return table

    table = fresh()
    assert len(table.flush(c1)) == 2 and len(table.rules) == 3
    table = fresh()
    assert len(table.flush("controller:*")) == 3
    assert sorted(r.origin for r in table.rules.values()) == [ORIGIN_EFTM, ORIGIN_EFTM]
    table = fresh()
    assert len(table.flush(ORIGIN_EFTM)) == 2
    table = fresh()
    assert table.flush("controller:10.0.255.9") == []


def test_miss_with_controller_buffers_and_raises_packet_in():
    h = Harness(connected=True)
    packet = data_packet()
    h.switch.forward(packet)
    assert h.packet_ins == [packet]
    assert h.sent == [] and h.drops() == []
    # Installing a matching rule releases the buffered packet.
    h.switch.install_rule(rule(action=ForwardTo("wmr2"), dst="192.168.2.0/24"))
    assert [(n, p.dst) for n, p in h.sent] == [("wmr2", packet.dst)]


def test_buffered_packet_dropped_after_timeout():
    h = Harness(connected=True)
    h.switch.forward(data_packet())
    h.sim.run_until(to_us(0.9))
    assert h.drops() == []
    h.sim.run_until(to_us(1.1))
    assert h.drops() == ["buffer-timeout"]
    # A late rule must not resurrect it.
    h.switch.install_rule(rule(action=ForwardTo("wmr2"), dst="192.168.2.0/24"))
    assert h.sent == []


def test_release_does_not_burn_a_hop():
    h = Harness(connected=True)
    packet = data_packet()
    packet.hops_left = 1
    h.switch.forward(packet)
    h.switch.install_rule(rule(action=ForwardTo("wmr2"), dst="192.168.2.0/24"))
    assert len(h.sent) == 1  # would have died at the retry otherwise


def test_miss_without_controller_drops():
    h = Harness(connected=False)
    h.switch.forward(data_packet())
    assert h.drops() == ["no-rule"] and h.packet_ins == []


def test_basic_class_follows_routing_table():
    h = Harness()
    h.route = lambda a: type(
        "E", (), {"next_hop": "wmr3", "hop_count": 2}
    )()
    packet = Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.5"), "control")
    h.switch.forward(packet)
    assert [(n, p.dst) for n, p in h.sent] == [("wmr3", packet.dst)]

    h2 = Harness()
    h2.switch.forward(Packet(IPv4Address("10.0.0.9"), IPv4Address("10.0.0.5"), "control"))
    assert h2.drops() == ["no-route"]


def test_basic_class_delivers_own_address_without_lookup():
    h = Harness()
    packet = Packet(IPv4Address("10.0.0.9"), IPv4Address("10.0.0.1"), "control")
    h.switch.forward(packet)
    assert h.delivered == [packet]


def test_hop_limit_drops_loops():
    h = Harness()
    h.switch.install_rule(rule(action=ForwardTo("wmr2"), dst="192.168.2.0/24"))
    packet = data_packet()
    packet.hops_left = 0
    h.switch.forward(packet)
    assert h.drops() == ["hop-limit"] and h.sent == []


def test_deliver_local_requires_local_destination():
    h = Harness()
    h.switch.install_rule(rule(action=DeliverLocal(), dst="192.168.1.0/24"))
    good = data_packet(dst="192.168.1.10")
    h.switch.forward(good)
    assert h.delivered == [good]
    h.switch.install_rule(rule(action=DeliverLocal(), dst="192.168.9.0/24"))
    h.switch.forward(data_packet(dst="192.168.9.10"))
    assert h.drops() == ["bad-local"]


def test_install_rejects_non_neighbor_target():
    h = Harness()
    with pytest.raises(ValueError):
        h.switch.install_rule(rule(action=ForwardTo("wmr9")))


def test_rule_events_carry_full_table_dump():
    h = Harness()
    h.switch.install_rule(rule(action=ForwardTo("wmr2"), dst="192.168.2.0/24", origin="a"))
    h.switch.install_rule(rule(priority=10, origin=ORIGIN_EFTM, dst="0.0.0.0/0"))
    installs = [d for k, d in h.records if k == "RuleEvent" and d["event"] == "install"]
    assert len(installs) == 2
    assert len(installs[1]["table"]) == 2
    # Higher priority first in the dump.
    assert "p=100" in installs[1]["table"][0] and "p=10" in installs[1]["table"][1]


# -- indexed match against a linear scan --------------------------------------

# Few addresses sharing long prefixes, so that rules overlap and collide.
POOL = ["10.0.0.1", "192.168.2.10", "192.168.2.11", "192.168.3.10"]
ORIGINS = ["controller:10.0.255.1", "controller:10.0.255.2", ORIGIN_EFTM]
FILTERS = ["controller:*", "controller:10.0.255.1", ORIGIN_EFTM]

# Mostly a few shared prefixes, so that rules often share a key and replace
# each other; sometimes any prefix of a pool address.
prefixes = st.sampled_from(
    [IPv4Network(p) for p in ("0.0.0.0/0", "192.168.0.0/16", "192.168.2.0/24", "192.168.2.10/31")]
) | st.builds(
    lambda addr, length: IPv4Network((addr, length), strict=False),
    st.sampled_from(POOL),
    st.integers(min_value=0, max_value=32),
)
rule_args = st.fixed_dictionaries(
    {
        "priority": st.sampled_from([10, 100]),
        "dst_prefix": prefixes,
        "origin": st.sampled_from(ORIGINS),
        "idle_timeout_us": st.sampled_from([0, 5, 10]),
        "hard_timeout_us": st.sampled_from([0, 7, 20]),
    }
)
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # time step before the operation
        st.one_of(
            # Installs are listed twice to draw them more often.
            installs := st.tuples(st.just("install"), rule_args),
            installs,
            st.tuples(st.just("match"), st.booleans()),
            st.tuples(st.just("expire")),
            st.tuples(st.just("flush"), st.sampled_from(FILTERS)),
        ),
    ),
    min_size=10,
    max_size=60,
)
PACKETS = [Packet(IPv4Address(src), IPv4Address(dst), "data") for src in POOL for dst in POOL]


def scan_match(rules, packet, now):
    """Scan every rule for the highest (priority, dst length) among the
    unexpired rules that match."""
    live = [r for r in rules if not r.expired(now) and r.matches(packet)]
    return max(live, key=lambda r: (r.priority, r.dst_prefix.prefixlen), default=None)


@settings(max_examples=100, deadline=None)
@given(operations)
def test_indexed_match_equals_linear_scan(ops):
    table = FlowTable()
    reference: dict[tuple, FlowRule] = {}
    now = 0
    for step, op in ops:
        now += step
        changes, held = table.changes, {key: id(r) for key, r in table.rules.items()}
        if op[0] == "install":
            r = FlowRule(action=DropAction(), **op[1])
            r.installed_at = r.last_hit = now
            reference[r.key] = table.install(r)
        elif op[0] == "expire":
            gone = table.remove_expired(now)
            expected = [r for r in reference.values() if r.expired(now)]
            assert gone == expected
            for r in gone:
                del reference[r.key]
        elif op[0] == "flush":
            gone = table.flush(op[1])
            for r in gone:
                del reference[r.key]
        elif op[0] == "match":
            touch = op[1]
            for packet in PACKETS:
                before = {key: r.last_hit for key, r in reference.items()}
                expected = scan_match(reference.values(), packet, now)
                got = table.match(packet, now, touch=touch)
                assert got is expected
                for key, r in reference.items():
                    assert r.last_hit == (now if touch and r is got else before[key])
        assert dict(table.rules) == reference
        # The change count moves exactly when the rule set does.
        assert (table.changes != changes) == (held != {key: id(r) for key, r in reference.items()})


def test_rules_view_refuses_writes():
    table = FlowTable()
    r = table.install(rule())
    with pytest.raises(TypeError):
        table.rules[r.key] = rule(origin="sneaky")
    with pytest.raises(TypeError):
        del table.rules[r.key]
    assert table.match(data_packet(), 0) is r


# -- the sweep bound against a full scan --------------------------------------

sweep_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"),
            rule_args,
            st.sampled_from([0, 3, 5, 10]),  # idle timeout
            st.sampled_from([0, 4, 7, 20]),  # hard timeout
        ),
        st.tuples(st.just("match"), st.integers(min_value=0, max_value=len(PACKETS) - 1)),
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("flush"), st.sampled_from(FILTERS)),
        st.tuples(st.just("sweep")),
    ),
    min_size=5,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(sweep_steps)
def test_sweep_returns_what_a_full_scan_would(steps):
    # A sweep that skips its scan before the table's expiry bound must still
    # return exactly the expired rules, in table order, after every step.
    table = FlowTable()
    reference: dict[tuple, FlowRule] = {}
    now = 0

    def sweep():
        expected = [r for r in reference.values() if r.expired(now)]
        assert table.remove_expired(now) == expected, step
        for r in expected:
            del reference[r.key]

    for step in steps:
        op = step[0]
        if op == "install":
            _, args, idle, hard = step
            r = FlowRule(action=DropAction(), **{**args, "idle_timeout_us": idle, "hard_timeout_us": hard})
            r.installed_at = r.last_hit = now
            reference[r.key] = table.install(r)
        elif op == "match":
            table.match(PACKETS[step[1]], now)
        elif op == "advance":
            now += step[1]
        elif op == "flush":
            for r in table.flush(step[1]):
                del reference[r.key]
        elif op == "sweep":
            sweep()
        sweep()  # after every step; after a sweep step it finds nothing
        assert dict(table.rules) == reference
