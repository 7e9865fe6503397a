"""Hybrid per-hop forwarding: routed control traffic plus an OpenFlow-style table.

Every packet is classified by destination.  Anything addressed into the
control subnet is Basic class and follows the link-state routing table;
everything else is SDN class and must match a flow rule.  An SDN miss with a
live controller connection buffers the packet briefly and raises a packet-in.
Misses without a controller fall to whatever rules the local emergency policy
installed.
"""
from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network
from types import MappingProxyType
from typing import AbstractSet, Callable, Literal, Mapping, NamedTuple, Protocol, Sequence

from .engine import Period, Seconds, SimTime, Simulator, to_us
from .olsr import RouteEntry

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
        self.dst_int = int(dst)
        self.kind = kind
        self.payload = payload
        self.flow_id = flow_id
        self.hops_left = 64  # guards against transient routing loops


class FlowRule:
    def __init__(
        self,
        priority: int,
        dst_prefix: IPv4Network,
        action: Action,
        origin: str,
        src_prefix: IPv4Network | None = None,
        idle_timeout_us: SimTime = 0,  # 0 disables the timeout
        hard_timeout_us: SimTime = 0,
    ) -> None:
        self.priority = priority
        self.dst_prefix = dst_prefix
        self.action = action
        self.origin = origin
        self.src_prefix = src_prefix
        self.idle_timeout_us = idle_timeout_us
        self.hard_timeout_us = hard_timeout_us
        self.installed_at: SimTime = 0
        self.last_hit: SimTime = 0
        self.install_order = 0

    @property
    def key(self) -> tuple[int, IPv4Network, IPv4Network | None]:
        return (self.priority, self.dst_prefix, self.src_prefix)

    def matches(self, packet: Packet) -> bool:
        if packet.dst not in self.dst_prefix:
            return False
        return self.src_prefix is None or packet.src in self.src_prefix

    def expired(self, now: SimTime) -> bool:
        if self.hard_timeout_us and now - self.installed_at >= self.hard_timeout_us:
            return True
        if self.idle_timeout_us and now - self.last_hit >= self.idle_timeout_us:
            return True
        return False

    def summary(self) -> str:
        action = self.action
        if isinstance(action, ForwardTo):
            act = f"fwd:{action.next_hop}"
        elif isinstance(action, DeliverLocal):
            act = "local"
        else:
            act = "drop"
        src = self.src_prefix or "*"
        return f"p={self.priority} dst={self.dst_prefix} src={src} -> {act} [{self.origin}]"


class FlowTable:
    """Rules keyed by match space, indexed for best-first lookup.

    ``rules`` is a read-only view: every change goes through install, remove,
    remove_expired or flush, which drops the index and counts one more change
    in ``changes``.  The next match rebuilds the index, so a match never
    answers from a stale one; a reader that kept a match result can tell from
    ``changes`` whether the rule set it came from still holds.
    """

    def __init__(self) -> None:
        self._rules: dict[tuple, FlowRule] = {}
        self.rules: Mapping[tuple, FlowRule] = MappingProxyType(self._rules)
        self._install_counter = 0
        self._index: list[tuple[int, dict[int, list[FlowRule]]]] | None = None
        self.changes = 0

    def install(self, rule: FlowRule) -> FlowRule:
        self._install_counter += 1
        rule.install_order = self._install_counter
        self._rules[rule.key] = rule
        self._index = None
        self.changes += 1
        return rule

    def remove(self, rule: FlowRule) -> None:
        if self._rules.get(rule.key) is not rule:
            raise KeyError(f"rule not installed: {rule.summary()}")
        self._discard([rule])

    def match(self, packet: Packet, now: SimTime, touch: bool = True) -> FlowRule | None:
        """The unexpired matching rule of highest rank; only it is touched."""
        if self._index is None:
            self._index = self._build_index()
        dst = packet.dst_int
        for mask, by_network in self._index:
            for rule in by_network.get(dst & mask, ()):
                src = rule.src_prefix
                if (src is None or packet.src in src) and not rule.expired(now):
                    if touch:
                        rule.last_hit = now
                    return rule
        return None

    @staticmethod
    def _rank(rule: FlowRule) -> tuple[int, int, int, int]:
        src_len = rule.src_prefix.prefixlen if rule.src_prefix is not None else -1
        # Later install wins only as a final, never-ambiguous tie-break.
        return (rule.priority, rule.dst_prefix.prefixlen, src_len, rule.install_order)

    def _build_index(self) -> list[tuple[int, dict[int, list[FlowRule]]]]:
        """One bucket per (priority, dst prefix length), keyed by dst network;
        buckets and each network's rules come best first."""
        buckets: dict[tuple[int, int], dict[int, list[FlowRule]]] = {}
        for rule in sorted(self._rules.values(), key=self._rank, reverse=True):
            dst = rule.dst_prefix
            bucket = buckets.setdefault((rule.priority, dst.prefixlen), {})
            bucket.setdefault(int(dst.network_address), []).append(rule)
        return [(0xFFFFFFFF ^ (0xFFFFFFFF >> n), b) for (_, n), b in buckets.items()]

    def _discard(self, gone: list[FlowRule]) -> list[FlowRule]:
        for rule in gone:
            del self._rules[rule.key]
        if gone:
            self._index = None
            self.changes += 1
        return gone

    def remove_expired(self, now: SimTime) -> list[FlowRule]:
        return self._discard([r for r in self.rules.values() if r.expired(now)])

    def flush(self, origin_filter: str) -> list[FlowRule]:
        if origin_filter == "*":
            gone = list(self.rules.values())
        elif origin_filter == "controller:*":
            gone = [r for r in self.rules.values() if r.origin.startswith("controller:")]
        else:
            gone = [r for r in self.rules.values() if r.origin == origin_filter]
        return self._discard(gone)

    def dump(self) -> list[str]:
        ordered = sorted(
            self.rules.values(),
            key=lambda r: (-r.priority, str(r.dst_prefix), str(r.src_prefix), r.origin),
        )
        return [r.summary() for r in ordered]


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

    def classify(self, packet: Packet) -> Literal["basic", "sdn"]:
        return "basic" if packet.dst_int & self._control_mask == self._control_net else "sdn"

    # -- forwarding ---------------------------------------------------------

    def forward(self, packet: Packet) -> None:
        if packet.hops_left <= 0:
            self._drop(packet, "hop-limit")
            return
        packet.hops_left -= 1
        dst = packet.dst_int
        if dst & self._control_mask == self._control_net:
            self._forward_basic(packet, dst)
        else:
            self._forward_sdn(packet, dst)

    def _forward_basic(self, packet: Packet, dst: int) -> None:
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
        released = [(p, h) for p, h in self._buffered if rule.matches(p)]
        self._buffered = [(p, h) for p, h in self._buffered if not rule.matches(p)]
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
        self._log_table("install", extra={"rule": rule.summary()})
        self._release_buffered(rule)

    def flush_rules(self, origin_filter: str) -> int:
        gone = self.table.flush(origin_filter)
        if gone:
            self._log_table("flush", extra={"filter": origin_filter, "removed": len(gone)})
        return len(gone)

    def _sweep(self) -> None:
        gone = self.table.remove_expired(self.sim.now())
        if gone:
            self._log_table("expire", extra={"removed": [r.summary() for r in gone]})
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
