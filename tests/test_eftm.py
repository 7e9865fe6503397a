"""Master discovery, probing, handover, keepalive loss, and emergency rules.

These tests drive one selector directly: probe and connect messages are
captured in an outbox and answered by hand, keepalives are auto-acked unless
a test turns that off.  Phase randomization is disabled so the poll timer
fires at exactly 0, 3, 6... seconds.  The kept discovery answer is checked
against a full scan of the live announcements, over whole runs and over a
real routing daemon at the instants its entries expire.
"""
import sys
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path

import pytest

from meshsdn import control_plane as cp
from meshsdn.eftm import (
    EMERGENCY_DROP_PRIORITY,
    EMERGENCY_FORWARD_PRIORITY,
    EftmConfig,
    MasterSelector,
)
from meshsdn.engine import Simulator, to_us
from meshsdn.olsr import FloodMsg, OlsrConfig, OlsrDaemon
from meshsdn.routing import RouteEntry, RoutingTable, route_key
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.switch import (
    ORIGIN_EFTM,
    DropAction,
    FlowRule,
    FlowSwitch,
    ForwardTo,
    SwitchConfig,
)

from support import StubHost, builtin_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import grid_partition_doc  # noqa: E402

C1 = IPv4Address("10.0.255.1")
C2 = IPv4Address("10.0.255.2")


class FakeDaemon:
    """Announcements set by hand in ``hna``, all of them live.  Any change
    to them is a new ``hna_version``."""

    node_id = "wmr1"

    def __init__(self):
        self.hna = []
        self.routing_table = RoutingTable()
        self.on_routes_changed = []

    @property
    def hna_version(self):
        return tuple(self.hna)

    @property
    def expires_at(self):
        return {origin: 1 << 62 for origin, _ in self.hna}

    def hna_entries(self):
        return [(origin, IPv4Network(p)) for origin, p in self.hna]

    def set_routes(self, entries):
        """Patch the routing table to hold exactly ``entries``."""
        table = self.routing_table
        table.patch(
            {
                route_key(IPv4Network(p)): (IPv4Network(p), RouteEntry(hop, hops))
                for p, hop, hops in entries
            },
            list(table.routes),
        )


class Bench:
    def __init__(self, cfg=None):
        self.sim = Simulator()
        self.daemon = FakeDaemon()
        self.records = []
        self.outbox = []
        self.ack_keepalives = True
        self.switch = FlowSwitch(
            "wmr1",
            IPv4Network("10.0.0.0/16"),
            SwitchConfig(),
            self.sim,
            lambda k, d: self.records.append((k, d)),
            StubHost(),
        )
        self.selector = MasterSelector(
            "wmr1",
            cfg or EftmConfig(randomize_phase=False),
            self.sim,
            self.daemon,
            self.switch,
            send=self._send,
            log=lambda k, d: self.records.append((k, d)),
        )

    def _send(self, addr, payload):
        if self.ack_keepalives and isinstance(payload, cp.KeepaliveRequest):
            self.selector.on_keepalive_reply(cp.KeepaliveReply(addr, payload.token))
            return
        self.outbox.append((addr, payload))

    def take(self, kind):
        found = [(a, p) for a, p in self.outbox if isinstance(p, kind)]
        self.outbox = [(a, p) for a, p in self.outbox if not isinstance(p, kind)]
        return found

    def accept_handshake(self):
        """Answer the pending probe, then the connect request."""
        [(addr, probe)] = self.take(cp.ProbeRequest)
        self.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
        [(addr2, connect)] = self.take(cp.ConnectRequest)
        self.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token))
        return addr2

    def transitions(self):
        return [
            (d["from"], d["to"], d.get("master"))
            for k, d in self.records
            if k == "EftmTransition"
        ]


def probing_bench(controllers=("10.0.255.1/32",), cfg=None):
    """A selector that has sent its first probe and heard nothing yet."""
    bench = Bench(cfg)
    bench.daemon.hna = [(f"c{i}", p) for i, p in enumerate(controllers)]
    bench.selector.start()
    bench.sim.run_until(0)  # poll fires at phase 0 and sends the first probe
    return bench


def connected_bench(controllers=("10.0.255.1/32",), cfg=None):
    bench = probing_bench(controllers, cfg)
    assert bench.accept_handshake() is not None
    return bench


def test_discovery_filters_and_sorts():
    bench = Bench()
    bench.daemon.hna = [
        ("a", "10.0.255.2/32"),
        ("b", "10.0.255.1/32"),
        ("c", "192.168.1.0/24"),  # not a /32 in the range
        ("d", "10.0.3.3/32"),  # /32 but outside the controller range
        ("e", "10.0.255.0/28"),  # inside the range but not a host route
    ]
    assert bench.selector.discover_controllers() == [C1, C2]


def test_priority_override_reorders_discovery():
    bench = Bench(EftmConfig(randomize_phase=False, priority_override=[C2]))
    bench.daemon.hna = [("a", "10.0.255.1/32"), ("b", "10.0.255.2/32")]
    # Listed controllers rank first; unlisted ones follow by address.
    assert bench.selector.discover_controllers() == [C2, C1]


def test_connect_sequence_and_master():
    bench = connected_bench()
    assert bench.selector.master == C1
    assert bench.transitions() == [
        ("disconnected", "connecting", None),
        ("connecting", "connected", "10.0.255.1"),
    ]


def test_probe_reply_token_and_sender_are_verified():
    bench = Bench()
    bench.daemon.hna = [("a", "10.0.255.1/32")]
    bench.selector.start()
    bench.sim.run_until(0)
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token + 99))
    bench.selector.on_probe_reply(cp.ProbeReply(C2, probe.token))
    assert bench.take(cp.ConnectRequest) == []  # both forged replies ignored
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    assert len(bench.take(cp.ConnectRequest)) == 1


def test_no_candidates_enters_emergency_with_drop_all():
    bench = Bench()
    bench.selector.start()
    bench.sim.run_until(0)
    assert bench.selector.mode == "emergency"
    rules = list(bench.switch.table.rules.values())
    assert len(rules) == 1
    assert rules[0].priority == EMERGENCY_DROP_PRIORITY
    assert rules[0].origin == ORIGIN_EFTM
    assert isinstance(rules[0].action, DropAction)


def test_unanswered_probes_walk_the_candidate_list_then_emergency():
    bench = Bench()
    bench.daemon.hna = [("a", "10.0.255.1/32"), ("b", "10.0.255.2/32")]
    bench.selector.start()
    bench.sim.run_until(0)
    assert [a for a, _ in bench.take(cp.ProbeRequest)] == [C1]
    bench.sim.run_until(to_us(2.0))  # first probe times out
    assert [a for a, _ in bench.take(cp.ProbeRequest)] == [C2]
    bench.sim.run_until(to_us(4.0))
    assert bench.selector.mode == "emergency"


def test_keepalive_loss_reconnects_out_of_cycle():
    bench = connected_bench()
    bench.ack_keepalives = False
    # Keepalives go out at 1 s and 2 s; the 1 s request times out at 3 s.
    bench.sim.run_until(to_us(2.99))
    assert bench.selector.master == C1
    bench.sim.run_until(to_us(3.0))
    assert bench.selector.master is None
    assert ("connected", "disconnected", None) in bench.transitions()
    # The immediate re-poll already probed again, without waiting for 6 s.
    assert [a for a, _ in bench.take(cp.ProbeRequest)] == [C1]


def test_poll_while_connected_probes_only_strictly_higher():
    bench = connected_bench(controllers=("10.0.255.2/32",))
    assert bench.selector.master == C2
    bench.sim.run_until(to_us(3.0))  # periodic poll with no better candidate
    assert bench.take(cp.ProbeRequest) == []
    bench.daemon.hna.append(("new", "10.0.255.1/32"))
    bench.sim.run_until(to_us(6.0))
    assert [a for a, _ in bench.take(cp.ProbeRequest)] == [C1]


def test_handover_is_hard_and_preserves_flow_table():
    bench = connected_bench(controllers=("10.0.255.2/32",))
    keeper = FlowRule(
        priority=100,
        dst_prefix=IPv4Network("192.168.2.0/24"),
        action=ForwardTo("wmr2"),
        origin="controller:10.0.255.2",
    )
    bench.switch.install_rule(keeper)
    bench.daemon.hna.append(("new", "10.0.255.1/32"))
    bench.sim.run_until(to_us(3.0))
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    # Old master got a goodbye before the new connect went out.
    [(notified, _)] = bench.take(cp.DisconnectNotice)
    assert notified == C2
    [(addr2, connect)] = bench.take(cp.ConnectRequest)
    assert addr2 == C1
    bench.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token))
    assert bench.selector.master == C1
    assert bench.switch.table.rules[keeper.key] is keeper  # untouched
    handover = [
        d for k, d in bench.records if k == "EftmTransition" and "handover_from" in d
    ]
    assert len(handover) == 1 and handover[0]["handover_from"] == "10.0.255.2"


def test_hysteresis_defers_handover():
    cfg = EftmConfig(randomize_phase=False, hysteresis_hold_s=10.0)
    bench = connected_bench(controllers=("10.0.255.2/32",), cfg=cfg)
    bench.daemon.hna.append(("new", "10.0.255.1/32"))
    bench.sim.run_until(to_us(3.0))
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    assert bench.selector.master == C2  # within the hold: offer declined
    assert bench.take(cp.ConnectRequest) == []
    bench.sim.run_until(to_us(12.0))
    addr, probe = bench.take(cp.ProbeRequest)[-1]  # polls at 6/9/12 all probed
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    assert len(bench.take(cp.ConnectRequest)) == 1  # hold elapsed


def test_emergency_clears_controller_rules_and_connect_clears_emergency():
    bench = Bench()
    stale = FlowRule(
        priority=100,
        dst_prefix=IPv4Network("192.168.2.0/24"),
        action=ForwardTo("wmr2"),
        origin="controller:10.0.255.9",
    )
    bench.switch.install_rule(stale)
    bench.selector.start()
    bench.sim.run_until(0)
    assert bench.selector.mode == "emergency"
    origins = {r.origin for r in bench.switch.table.rules.values()}
    assert origins == {ORIGIN_EFTM}  # stale controller rule cleared
    bench.daemon.hna = [("a", "10.0.255.1/32")]
    bench.sim.run_until(to_us(3.0))
    bench.accept_handshake()
    assert bench.selector.mode == "connected"
    assert bench.switch.table.rules == {}  # emergency rules flushed on connect


def test_emergency_policy_allow_all_mirrors_routing_table():
    bench = Bench(EftmConfig(randomize_phase=False, emergency_policy="allow-all"))
    bench.daemon.set_routes(
        [
            ("192.168.1.0/24", None, 0),
            ("192.168.2.0/24", "wmr2", 1),
            ("0.0.0.0/0", "wmr3", 5),
            ("10.0.255.1/32", "wmr2", 4),  # control subnet: never mirrored
        ]
    )
    bench.selector.start()
    bench.sim.run_until(0)
    rules = sorted(
        bench.switch.table.rules.values(), key=lambda r: str(r.dst_prefix)
    )
    assert [(str(r.dst_prefix), r.priority) for r in rules] == [
        ("0.0.0.0/0", EMERGENCY_FORWARD_PRIORITY),
        ("192.168.1.0/24", EMERGENCY_FORWARD_PRIORITY),
        ("192.168.2.0/24", EMERGENCY_FORWARD_PRIORITY),
    ]
    assert {r.origin for r in rules} == {ORIGIN_EFTM}


def test_emergency_policy_selective_forwards_listed_prefixes_only():
    cfg = EftmConfig(
        randomize_phase=False,
        emergency_policy="selective",
        selective_prefixes=[IPv4Network("192.168.2.0/24"), IPv4Network("172.16.0.0/16")],
    )
    bench = Bench(cfg)
    bench.daemon.set_routes([("192.168.2.0/24", "wmr2", 1)])
    bench.selector.start()
    bench.sim.run_until(0)
    by_prefix = {str(r.dst_prefix): r for r in bench.switch.table.rules.values()}
    # 172.16/16 has no route so only the drop floor plus the routed prefix.
    assert set(by_prefix) == {"192.168.2.0/24", "0.0.0.0/0"}
    assert by_prefix["192.168.2.0/24"].action == ForwardTo("wmr2")
    assert by_prefix["0.0.0.0/0"].priority == EMERGENCY_DROP_PRIORITY


def test_emergency_rules_follow_route_changes():
    bench = Bench(EftmConfig(randomize_phase=False, emergency_policy="allow-all"))
    bench.daemon.set_routes([("192.168.2.0/24", "wmr2", 1)])
    bench.selector.start()
    bench.sim.run_until(0)
    assert bench.switch.table.rules[
        (EMERGENCY_FORWARD_PRIORITY, IPv4Network("192.168.2.0/24"))
    ].action == ForwardTo("wmr2")
    bench.daemon.set_routes([("192.168.2.0/24", "wmr3", 2)])
    for callback in bench.daemon.on_routes_changed:
        callback()
    assert bench.switch.table.rules[
        (EMERGENCY_FORWARD_PRIORITY, IPv4Network("192.168.2.0/24"))
    ].action == ForwardTo("wmr3")


def test_connect_accept_token_and_sender_are_verified():
    bench = probing_bench()
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    [(addr2, connect)] = bench.take(cp.ConnectRequest)
    bench.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token + 99))
    bench.selector.on_connect_accept(cp.ConnectAccept(C2, connect.token))
    assert bench.selector.mode == "connecting" and bench.selector.master is None
    bench.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token))
    assert bench.selector.master == C1


def test_connect_timeout_disconnects_and_probes_again_at_once():
    bench = probing_bench()
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    assert len(bench.take(cp.ConnectRequest)) == 1
    bench.sim.run_until(to_us(2.0))  # the connect request times out
    [timed_out] = [d for k, d in bench.records if k == "EftmTransition" and d.get("reason")]
    assert (timed_out["from"], timed_out["to"], timed_out["master"]) == (
        "connecting",
        "disconnected",
        None,
    )
    assert timed_out["reason"] == "connect-timeout"
    # The immediate re-poll already probed again, without waiting for 3 s.
    assert [a for a, _ in bench.take(cp.ProbeRequest)] == [C1]


def test_reply_to_a_timed_out_probe_is_ignored():
    bench = probing_bench(controllers=("10.0.255.1/32", "10.0.255.2/32"))
    [(addr, late)] = bench.take(cp.ProbeRequest)
    bench.sim.run_until(to_us(2.0))  # the probe to C1 times out, C2 is probed
    [(addr2, probe)] = bench.take(cp.ProbeRequest)
    assert (addr, addr2) == (C1, C2)
    bench.selector.on_probe_reply(cp.ProbeReply(addr, late.token))
    assert bench.take(cp.ConnectRequest) == []
    bench.selector.on_probe_reply(cp.ProbeReply(addr2, probe.token))
    assert [a for a, _ in bench.take(cp.ConnectRequest)] == [C2]


def test_a_reply_of_the_wrong_kind_settles_nothing():
    bench = probing_bench()
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    # An accept carrying the probe's token does not connect ...
    bench.selector.on_connect_accept(cp.ConnectAccept(addr, probe.token))
    assert bench.selector.mode != "connected" and bench.selector.master is None
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    [(addr2, connect)] = bench.take(cp.ConnectRequest)
    before = bench.transitions()
    # ... and a probe reply carrying the connect's token starts nothing.
    bench.selector.on_probe_reply(cp.ProbeReply(addr2, connect.token))
    assert bench.outbox == [] and bench.transitions() == before
    assert bench.selector.mode == "connecting"
    bench.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token))
    assert bench.selector.master == C1
    assert bench.transitions() == [
        ("disconnected", "connecting", None),
        ("connecting", "connected", "10.0.255.1"),
    ]


def test_timeout_of_an_answered_probe_spares_the_connect():
    bench = probing_bench()
    [(addr, probe)] = bench.take(cp.ProbeRequest)
    bench.sim.run_until(to_us(1.5))
    bench.selector.on_probe_reply(cp.ProbeReply(addr, probe.token))
    [(addr2, connect)] = bench.take(cp.ConnectRequest)
    bench.sim.run_until(to_us(2.5))  # past the instant the probe would have timed out
    assert bench.selector.mode == "connecting"
    bench.selector.on_connect_accept(cp.ConnectAccept(addr2, connect.token))
    assert bench.selector.master == C1


# -- the kept discovery answer -------------------------------------------------


def scanned_controllers(selector):
    """What discovery answers from a full scan of the live announcements."""
    found = {
        prefix.network_address
        for _, prefix in selector.olsr.hna_entries()
        if prefix.prefixlen == 32 and prefix.network_address in selector.cfg.controller_range
    }
    return sorted(found, key=selector._priority_key)


@pytest.mark.parametrize("name, seed", [("merge", 0), ("partition", 0), ("grid-partition", 0)])
def test_kept_discovery_answers_as_a_full_scan_does(name, seed, monkeypatch):
    """Every poll's answer, and an extra one at each instant an entry
    expires before its removal, equals a full scan's."""
    discover = MasterSelector.discover_controllers
    expiry_check = OlsrDaemon._entry_expiry_check
    calls = scans = expiries = 0

    def checked(selector):
        nonlocal calls, scans
        kept = selector._discovered
        answer = discover(selector)
        assert answer == scanned_controllers(selector)
        calls += 1
        scans += selector._discovered is not kept
        return answer

    def checked_at_expiry(daemon, origin):
        nonlocal expiries
        selector = selector_of.get(daemon)
        if selector is not None and daemon.expires_at.get(origin, 1 << 62) <= daemon.sim.now():
            expiries += 1
            kept = selector._discovered
            checked(selector)
            # The run's own polls go on from the answer they kept.
            selector._discovered = kept
        expiry_check(daemon, origin)

    monkeypatch.setattr(MasterSelector, "discover_controllers", checked)
    monkeypatch.setattr(OlsrDaemon, "_entry_expiry_check", checked_at_expiry)
    if name == "grid-partition":
        scenario = scenario_from_mapping(grid_partition_doc(seed), source=f"{name}/{seed}")
    else:
        scenario = builtin_scenario(name)
    sim = Simulation(scenario, seed)
    selector_of = {runtime.daemon: runtime.selector for runtime in sim.wmrs.values()}
    sim.run()
    assert 0 < scans < calls  # the kept answer served some calls
    assert expiries > 0 or name == "merge"  # a merge only gains announcements


VALIDITY = to_us(15.0)


def selector_over_daemon():
    """A selector over a real routing daemon without links, which hears
    only the advertisements a test hands it."""
    sim = Simulator()
    daemon = OlsrDaemon(
        "wmr1",
        [IPv4Address("10.0.0.1")],
        [],
        OlsrConfig(jitter=0.0, randomize_phase=False),
        sim,
        links=[],
        broadcast=lambda links, msg: None,
        flood=lambda links, msg: None,
        log=lambda kind, data: None,
    )
    switch = FlowSwitch(
        "wmr1", IPv4Network("10.0.0.0/16"), SwitchConfig(), sim, lambda k, d: None, StubHost()
    )
    selector = MasterSelector(
        "wmr1",
        EftmConfig(randomize_phase=False),
        sim,
        daemon,
        switch,
        send=lambda addr, payload: None,
        log=lambda kind, data: None,
    )
    return sim, daemon, selector


def controller_ad(seq):
    """ctrl1's advertisement of its address as a /32 announcement."""
    return FloodMsg("ctrl1", seq, (C1,), (), (IPv4Network(f"{C1}/32"),), VALIDITY)


def test_discovery_drops_a_controller_at_the_instant_its_announcement_expires():
    sim, daemon, selector = selector_over_daemon()
    seen = []
    # Scheduled before the advertisement arrives, so it runs at the expiry
    # instant before the entry's removal does.
    sim.schedule(
        VALIDITY,
        lambda: seen.append((selector.discover_controllers(), "ctrl1" in daemon.link_state)),
    )
    daemon.handle_flood(controller_ad(1), None)
    assert selector.discover_controllers() == [C1]
    sim.run_until(VALIDITY - 1)
    assert selector.discover_controllers() == [C1]
    sim.run_until(VALIDITY)
    assert seen == [([], True)]
    assert "ctrl1" not in daemon.link_state


def test_discovery_forgets_a_removed_announcement():
    sim, daemon, selector = selector_over_daemon()
    daemon.handle_flood(controller_ad(1), None)
    sim.run_until(VALIDITY - 1)
    assert selector.discover_controllers() == [C1]
    sim.run_until(VALIDITY + 1)  # the entry expired and was removed
    assert "ctrl1" not in daemon.link_state
    assert selector.discover_controllers() == []
    daemon.handle_flood(controller_ad(2), None)
    assert selector.discover_controllers() == [C1]


def test_discovery_sees_an_expired_announcement_refreshed_before_its_removal():
    sim, daemon, selector = selector_over_daemon()
    seen = []

    def poll():
        seen.append(selector.discover_controllers())

    # At the expiry instant, before the removal check: a poll, the same
    # announcement again, and another poll.
    sim.schedule(VALIDITY, poll)
    sim.schedule(VALIDITY, lambda: daemon.handle_flood(controller_ad(2), None))
    sim.schedule(VALIDITY, poll)
    daemon.handle_flood(controller_ad(1), None)
    sim.run_until(VALIDITY)
    assert seen == [[], [C1]]
    assert selector.discover_controllers() == [C1] and "ctrl1" in daemon.link_state
