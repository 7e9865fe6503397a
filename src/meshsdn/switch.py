"""Hybrid per-hop forwarding: routed control traffic plus an OpenFlow-style table.

Every packet is classified by destination.  Anything addressed into the
control subnet is Basic class and follows the link-state routing table;
everything else is SDN class and must match a flow rule.  An SDN miss with a
live controller connection buffers the packet briefly and raises a packet-in.
Misses without a controller fall to whatever rules the local emergency policy
installed.
"""
from __future__ import annotations

import math
from functools import cached_property
from ipaddress import IPv4Address, IPv4Network
from types import MappingProxyType
from typing import AbstractSet, Callable, Literal, Mapping, NamedTuple, Protocol, Sequence

from .engine import Period, Seconds, SimTime, Simulator, to_us
from .routing import RouteEntry

ORIGIN_EFTM = "eftm"


def origin_controller(addr: IPv4Address) -> str:
    return f"controller:{addr}"


class ForwardTo(NamedTuple):
    next_hop: str


class _FieldlessAction:
    """An action without fields, equal to every action of its own type and
    to nothing else.  Not a named tuple like ForwardTo: a named tuple without
    fields would equal () and every other one."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DeliverLocal(_FieldlessAction):
    pass


class DropAction(_FieldlessAction):
    pass


Action = ForwardTo | DeliverLocal | DropAction

PacketKind = Literal["olsr", "control", "ping", "data"]


class Packet:
    """One frame in flight.

    ``dst_int`` is ``dst`` as an int, computed once when the packet is built,
    so that each hop classifies, matches and routes it without converting
    the address again.  Forwarding burns one of ``hops_left`` per hop.

    An OLSR frame is a link-local broadcast: its ``dst`` is
    255.255.255.255, and one frame carries a Hello or advertisement over
    every link it is sent on, so all its receivers share it.  Sharing is
    safe because OLSR frames go to the routing daemon and never reach
    :meth:`FlowSwitch.forward`, the only place a frame is changed.
    """

    __slots__ = ("src", "dst", "dst_int", "kind", "payload", "flow_id", "hops_left")

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        kind: PacketKind,
        payload: object = None,
        flow_id: str = "",
    ) -> None:
        self.src = src
        self.dst = dst
        self.dst_int = dst._ip  # int(dst), without a call
        self.kind = kind
        self.payload = payload
        self.flow_id = flow_id
        self.hops_left = 64  # guards against transient routing loops


class FlowRule:
    """One match-action entry, matching on destination only.

    Its priority, destination prefix, action, origin and timeouts are fixed
    once it is built, so its text and dump order are worked out on first use
    and kept.  The switch stamps ``installed_at`` and ``last_hit`` on
    install, and a match moves ``last_hit`` later.
    """

    def __init__(
        self,
        priority: int,
        dst_prefix: IPv4Network,
        action: Action,
        origin: str,
        idle_timeout_us: SimTime = 0,  # 0 disables the timeout
        hard_timeout_us: SimTime = 0,
    ) -> None:
        self.priority = priority
        self.dst_prefix = dst_prefix
        self.action = action
        self.origin = origin
        self.idle_timeout_us = idle_timeout_us
        self.hard_timeout_us = hard_timeout_us
        self.installed_at: SimTime = 0
        self.last_hit: SimTime = 0

    @property
    def key(self) -> tuple[int, IPv4Network]:
        return (self.priority, self.dst_prefix)

    def matches(self, packet: Packet) -> bool:
        return packet.dst in self.dst_prefix

    def expired(self, now: SimTime) -> bool:
        if self.hard_timeout_us and now - self.installed_at >= self.hard_timeout_us:
            return True
        if self.idle_timeout_us and now - self.last_hit >= self.idle_timeout_us:
            return True
        return False

    def earliest_expiry(self) -> float:
        """The first instant the rule could expire: its hard deadline, or
        its idle deadline from the last hit if sooner; inf without timeouts.
        A hit only moves the idle deadline later."""
        due = math.inf
        if self.hard_timeout_us:
            due = self.installed_at + self.hard_timeout_us
        if self.idle_timeout_us:
            due = min(due, self.last_hit + self.idle_timeout_us)
        return due

    @cached_property
    def summary(self) -> str:
        action = self.action
        if isinstance(action, ForwardTo):
            act = f"fwd:{action.next_hop}"
        elif isinstance(action, DeliverLocal):
            act = "local"
        else:
            act = "drop"
        return f"p={self.priority} dst={self.dst_prefix} src=* -> {act} [{self.origin}]"

    @cached_property
    def _dump_key(self) -> tuple[int, str]:
        return (-self.priority, str(self.dst_prefix))


class FlowTable:
    """One rule per (priority, dst prefix), indexed for best-first lookup.

    ``rules`` is a read-only view: every change goes through install (which
    replaces the rule under the same key), remove_expired or flush, which
    drop the index and count one more change in ``changes``.  The next match
    rebuilds the index, so a match never answers from a stale one.

    The table also keeps ``_due``, a lower bound on the first instant any of
    its rules could expire.  An install lowers it to the new rule's
    :meth:`FlowRule.earliest_expiry`, and a full expiry scan sets it to the
    earliest of the rules that scan keeps.  Nothing moves a rule's deadline
    earlier (``last_hit`` only moves later), so a sweep before ``_due`` has
    nothing to remove and returns without scanning.
    """

    def __init__(self) -> None:
        self._rules: dict[tuple, FlowRule] = {}
        self.rules: Mapping[tuple, FlowRule] = MappingProxyType(self._rules)
        self._index: list[tuple[int, dict[int, FlowRule]]] | None = None
        self.changes = 0
        self._due = math.inf

    def install(self, rule: FlowRule) -> FlowRule:
        self._rules[rule.key] = rule
        self._index = None
        self.changes += 1
        self._due = min(self._due, rule.earliest_expiry())
        return rule

    def match(self, packet: Packet, now: SimTime, touch: bool = True) -> FlowRule | None:
        """The unexpired matching rule of highest rank; only it is touched."""
        if self._index is None:
            self._index = self._build_index()
        dst = packet.dst_int
        for mask, by_network in self._index:
            rule = by_network.get(dst & mask)
            if rule is not None and not rule.expired(now):
                if touch:
                    rule.last_hit = now
                return rule
        return None

    def _build_index(self) -> list[tuple[int, dict[int, FlowRule]]]:
        """One bucket per (priority, dst prefix length), best first, each
        mapping a dst network to its one rule."""
        buckets: dict[tuple[int, int], dict[int, FlowRule]] = {}
        for rule in self._rules.values():
            dst = rule.dst_prefix
            buckets.setdefault((rule.priority, dst.prefixlen), {})[int(dst.network_address)] = rule
        return [
            (0xFFFFFFFF ^ (0xFFFFFFFF >> n), buckets[p, n]) for p, n in sorted(buckets, reverse=True)
        ]

    def _discard(self, gone: list[FlowRule]) -> list[FlowRule]:
        for rule in gone:
            del self._rules[rule.key]
        if gone:
            self._index = None
            self.changes += 1
        return gone

    def remove_expired(self, now: SimTime) -> list[FlowRule]:
        if now < self._due:
            return []
        gone = []
        due = math.inf
        for rule in self._rules.values():
            rule_due = rule.earliest_expiry()  # expired(now) is now >= rule_due
            if now >= rule_due:
                gone.append(rule)
            elif rule_due < due:
                due = rule_due
        self._due = due
        return self._discard(gone)

    def flush(self, origin_filter: str) -> list[FlowRule]:
        if origin_filter == "controller:*":
            gone = [r for r in self.rules.values() if r.origin.startswith("controller:")]
        else:
            gone = [r for r in self.rules.values() if r.origin == origin_filter]
        return self._discard(gone)

    def dump(self) -> list[str]:
        ordered = sorted(self._rules.values(), key=lambda r: r._dump_key)
        return [r.summary for r in ordered]


class SwitchConfig(NamedTuple):
    buffer_timeout_s: Seconds = 1.0
    sweep_interval_s: Period = 1.0


class SwitchHost(Protocol):
    """The router a switch forwards for, given to the switch at construction.

    The switch keeps the ``local`` set it finds at construction.
    """

    local: AbstractSet[int]  # Basic traffic to these int addresses is delivered up
    access_networks: Sequence[IPv4Network]  # DeliverLocal may also deliver into these

    @property
    def master(self) -> IPv4Address | None: ...  # a miss raises a packet-in only with one
    def route(self, dst: IPv4Address | int) -> RouteEntry | None:
        """The longest-prefix route for ``dst``, an address or its int value."""
    def is_neighbor(self, node_id: str) -> bool: ...
    def send_to_neighbor(self, neighbor: str, packet: Packet) -> None: ...
    def deliver_local(self, packet: Packet) -> None: ...
    def raise_packet_in(self, packet: Packet) -> None: ...


class FlowSwitch:
    """Forwarding plane of one mesh router.

    The hosting router does routing lookups, link transmission and local
    delivery and holds the controller connection; the switch itself only
    decides dispositions.
    """

    def __init__(
        self,
        node_id: str,
        control_subnet: IPv4Network,
        cfg: SwitchConfig,
        sim: Simulator,
        log: Callable[[str, dict], None],
        host: SwitchHost,
    ) -> None:
        self.node_id = node_id
        self.control_subnet = control_subnet
        # The control subnet as ints, and the host's int addresses, which
        # stay fixed for the switch's life, so that forwarding tests
        # membership on ints instead of hashing an IPv4Address each time.
        self._control_net = int(control_subnet.network_address)
        self._control_mask = int(control_subnet.netmask)
        self._local = host.local
        self._buffer_timeout_us = to_us(cfg.buffer_timeout_s)
        self._sweep_interval_us = to_us(cfg.sweep_interval_s)
        self.sim = sim
        self.log = log
        self.host = host
        self.table = FlowTable()
        self._buffered: list[tuple[Packet, object]] = []  # (packet, timeout handle)

    def start(self) -> None:
        self.sim.schedule(self._sweep_interval_us, self._sweep, kind="rule-sweep")

    # -- forwarding ---------------------------------------------------------

    def forward(self, packet: Packet) -> None:
        if packet.hops_left <= 0:
            self._drop(packet, "hop-limit")
            return
        packet.hops_left -= 1
        dst = packet.dst_int
        if dst & self._control_mask != self._control_net:
            self._forward_sdn(packet, dst)
            return
        # Basic class, routed inline: it is most transit hops, and a helper
        # would cost one more call on each.
        if dst in self._local:
            self.host.deliver_local(packet)
            return
        entry = self.host.route(dst)
        if entry is None:
            self._drop(packet, "no-route")
        elif entry.next_hop is None:
            self.host.deliver_local(packet)
        else:
            self.host.send_to_neighbor(entry.next_hop, packet)

    def _forward_sdn(self, packet: Packet, dst: int) -> None:
        rule = self.table.match(packet, self.sim.now())
        if rule is not None:
            self._apply(rule.action, packet, dst)
            return
        if self.host.master is not None:
            self._buffer(packet)
            self.host.raise_packet_in(packet)
        else:
            # Either emergency rules already decided everything that is
            # allowed, or no controller has ever been reached; both drop.
            self._drop(packet, "no-rule")

    def _apply(self, action: Action, packet: Packet, dst: int) -> None:
        if isinstance(action, ForwardTo):
            self.host.send_to_neighbor(action.next_hop, packet)
        elif isinstance(action, DeliverLocal):
            if dst in self._local or any(
                packet.dst in net for net in self.host.access_networks
            ):
                self.host.deliver_local(packet)
            else:
                self._drop(packet, "bad-local")
        else:
            self._drop(packet, "rule-drop")

    # -- packet buffer ------------------------------------------------------

    def _buffer(self, packet: Packet) -> None:
        handle = self.sim.schedule(
            self._buffer_timeout_us,
            lambda p=packet: self._buffer_expire(p),
            kind="buffer-timeout",
        )
        self._buffered.append((packet, handle))

    def _buffer_expire(self, packet: Packet) -> None:
        for i, (buffered, _) in enumerate(self._buffered):
            if buffered is packet:
                del self._buffered[i]
                self._drop(packet, "buffer-timeout")
                return

    def _release_buffered(self, rule: FlowRule) -> None:
        released, kept = [], []
        for item in self._buffered:
            (released if rule.matches(item[0]) else kept).append(item)
        self._buffered = kept
        for packet, handle in released:
            handle.cancel()
            packet.hops_left += 1  # retry does not burn a hop
            self.forward(packet)

    # -- table mutation -----------------------------------------------------

    def install_rule(self, rule: FlowRule) -> None:
        if isinstance(rule.action, ForwardTo) and not self.host.is_neighbor(rule.action.next_hop):
            raise ValueError(
                f"{self.node_id}: rule targets non-neighbor {rule.action.next_hop}"
            )
        now = self.sim.now()
        rule.installed_at = now
        rule.last_hit = now
        self.table.install(rule)
        self._log_table("install", extra={"rule": rule.summary})
        self._release_buffered(rule)

    def flush_rules(self, origin_filter: str) -> int:
        gone = self.table.flush(origin_filter)
        if gone:
            self._log_table("flush", extra={"filter": origin_filter, "removed": len(gone)})
        return len(gone)

    def _sweep(self) -> None:
        gone = self.table.remove_expired(self.sim.now())
        if gone:
            self._log_table("expire", extra={"removed": [r.summary for r in gone]})
        self.sim.schedule(self._sweep_interval_us, self._sweep, kind="rule-sweep")

    # -- logging ------------------------------------------------------------

    def _log_table(self, event: str, extra: dict) -> None:
        data = {"node": self.node_id, "event": event}
        data.update(extra)
        data["table"] = self.table.dump()
        self.log("RuleEvent", data)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.log(
            "PacketDrop",
            {
                "node": self.node_id,
                "reason": reason,
                "dst": str(packet.dst),
                "kind": packet.kind,
            },
        )
