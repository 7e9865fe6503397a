"""Controller master selection and survival logic embedded in each mesh router.

Every mesh router runs one :class:`MasterSelector`.  It discovers controllers
from /32 host routes announced inside a dedicated controller address range,
ranks them (lowest address = highest priority unless a static override is
configured), and keeps exactly one control connection alive:

* a periodic poll probes candidates in priority order, each attempt bounded
  by ``connect_timeout``; while connected only strictly-higher-priority
  candidates are probed, so an established master is never re-validated by
  polling (keepalives do that);
* handovers are hard: the old connection is closed before the new one is
  opened, and the flow table is left completely untouched;
* if no controller answers and none is connected, the router enters Emergency
  mode and installs its own rules according to the configured policy.
"""
from __future__ import annotations

from functools import partial
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Literal, NamedTuple

from . import control_plane as cp
from .engine import Period, Seconds, SimTime, Simulator, to_us
from .olsr import OlsrDaemon
from .switch import (
    ORIGIN_EFTM,
    DeliverLocal,
    DropAction,
    FlowRule,
    FlowSwitch,
    ForwardTo,
)

Mode = Literal["disconnected", "connecting", "connected", "emergency"]
RequestKind = Literal["probe", "connect"]
EmergencyPolicy = Literal["control-only", "allow-all", "selective"]

EMERGENCY_FORWARD_PRIORITY = 20
EMERGENCY_DROP_PRIORITY = 10
# What the emergency drop rule matches, parsed once rather than per rule set.
ALL_DESTINATIONS = IPv4Network("0.0.0.0/0")


class EftmConfig(NamedTuple):
    poll_period_s: Period = 3.0
    connect_timeout_s: Period = 2.0
    keepalive_interval_s: Period = 1.0
    controller_range: IPv4Network = IPv4Network("10.0.255.0/24")
    hysteresis_hold_s: Seconds = 0.0
    emergency_policy: EmergencyPolicy = "control-only"
    selective_prefixes: list[IPv4Network] = ()
    # Explicit priority order; discovered controllers not listed rank after
    # the listed ones, by ascending address.
    priority_override: list[IPv4Address] | None = None
    randomize_phase: bool = True


class MasterSelector:
    """One router's controller-selection state machine.

    Its state is the mode, one controller address (the target while
    connecting, the master once connected) and one slot for the probe or
    connect request in flight.  The master is derived from the first two, so
    there is never more than one.
    """

    def __init__(
        self,
        node_id: str,
        cfg: EftmConfig,
        sim: Simulator,
        olsr: OlsrDaemon,
        flow_switch: FlowSwitch,
        send: Callable[[IPv4Address, object], None],
        log: Callable[[str, dict], None],
    ) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.sim = sim
        self.olsr = olsr
        self.switch = flow_switch
        self._send = send
        self._log = log
        self._rng = sim.node_rng(node_id)
        self._poll_period_us = to_us(cfg.poll_period_s)
        self._connect_timeout_us = to_us(cfg.connect_timeout_s)
        self._keepalive_interval_us = to_us(cfg.keepalive_interval_s)
        self._hysteresis_hold_us = to_us(cfg.hysteresis_hold_s)

        self.mode: Mode = "disconnected"
        self._controller: IPv4Address | None = None
        # (kind, target, token, timeout handle) of the request in flight.
        self._request: tuple[RequestKind, IPv4Address, int, object] | None = None
        self._last_change: SimTime = -(1 << 62)
        self._token = 0
        self._cycle: list[IPv4Address] = []
        self._keepalive_waits: dict[int, object] = {}
        self._keepalive_timer: object | None = None
        self._emergency_rules = False
        # The drop-all floor of the emergency rule set, built once: its
        # match, action and origin never change, and each re-application
        # flushes it before installing it again, text and dump key cached.
        self._drop_all = FlowRule(
            priority=EMERGENCY_DROP_PRIORITY,
            dst_prefix=ALL_DESTINATIONS,
            action=DropAction(),
            origin=ORIGIN_EFTM,
        )
        # The last discovery: the daemon's hna_version it read, the origins
        # whose announcements it found controllers in, and its answer.
        self._discovered: tuple[int, tuple[str, ...], list[IPv4Address]] | None = None

        olsr.on_routes_changed.append(self._on_routes_changed)

    @property
    def master(self) -> IPv4Address | None:
        return self._controller if self.mode == "connected" else None

    def start(self) -> None:
        phase = (
            round(self._rng.random() * self._poll_period_us)
            if self.cfg.randomize_phase
            else 0
        )
        self.sim.schedule(phase, self._periodic_poll, kind="poll")

    # -- discovery ----------------------------------------------------------

    def discover_controllers(self) -> list[IPv4Address]:
        """Reachable-looking controllers, best first.  A controller is known
        while its /32 announcement inside ``controller_range`` is live.

        The answer is kept and a copy returned while it still holds: while
        the daemon's ``hna_version`` is the one it was read at, so no
        origin's prefixes came, changed, went or came back from expiry, and
        every origin it found a controller in is still live (expires after
        now).  Otherwise the live announcements are scanned afresh.
        """
        olsr = self.olsr
        kept = self._discovered
        if kept is not None and kept[0] == olsr.hna_version:
            now, expires_at = self.sim.now(), olsr.expires_at
            for origin in kept[1]:
                if expires_at[origin] <= now:
                    break
            else:
                return list(kept[2])
        found: set[IPv4Address] = set()
        origins: set[str] = set()
        for origin, prefix in olsr.hna_entries():
            if prefix.prefixlen == 32 and prefix.network_address in self.cfg.controller_range:
                found.add(prefix.network_address)
                if origin != olsr.node_id:  # its own announcements never expire
                    origins.add(origin)
        controllers = sorted(found, key=self._priority_key)
        self._discovered = (olsr.hna_version, tuple(origins), controllers)
        return list(controllers)

    def _priority_key(self, addr: IPv4Address) -> tuple[int, int]:
        override = self.cfg.priority_override
        if override is not None and addr in override:
            return (override.index(addr), int(addr))
        rank = len(override) if override is not None else 0
        return (rank, int(addr))

    # -- requests -----------------------------------------------------------

    def _ask(self, kind: RequestKind, target: IPv4Address) -> None:
        """Send ``target`` a probe or connect request, bounded by ``connect_timeout``."""
        self._token += 1
        token = self._token
        handle = self.sim.schedule(
            self._connect_timeout_us,
            partial(self._request_timeout, token),
            kind=f"{kind}-timeout",
        )
        self._request = (kind, target, token, handle)
        request = cp.ProbeRequest if kind == "probe" else cp.ConnectRequest
        self._send(target, request(self.node_id, token))

    def _settle(self, kind: RequestKind, sender: IPv4Address, token: int) -> bool:
        """Whether a reply answers the request in flight; if so, that request ends."""
        request = self._request
        if request is None or request[:3] != (kind, sender, token):
            return False
        request[3].cancel()
        self._request = None
        return True

    def _request_timeout(self, token: int) -> None:
        request = self._request
        if request is None or request[2] != token:
            return
        self._request = None
        if request[0] == "probe":
            self._probe_next()
        else:
            self._disconnect("connect-timeout")

    # -- poll cycle ---------------------------------------------------------

    def _periodic_poll(self) -> None:
        self.poll_tick()
        self.sim.schedule(self._poll_period_us, self._periodic_poll, kind="poll")

    def poll_tick(self) -> None:
        if self._request is not None:
            return
        candidates = self.discover_controllers()
        if self.mode == "connected":
            master_key = self._priority_key(self._controller)
            candidates = [a for a in candidates if self._priority_key(a) < master_key]
        self._cycle = candidates
        self._probe_next()

    def _probe_next(self) -> None:
        if self._cycle:
            self._ask("probe", self._cycle.pop(0))
        elif self.mode != "connected":
            self._enter_emergency()

    def on_probe_reply(self, msg: cp.ProbeReply) -> None:
        if not self._settle("probe", msg.controller, msg.token):
            return
        self._cycle = []
        if self.mode != "connected":
            self._open_connection(msg.controller)
        elif self.sim.now() - self._last_change >= self._hysteresis_hold_us:
            self._hard_handover(msg.controller)

    # -- connection lifecycle -----------------------------------------------

    def _hard_handover(self, to: IPv4Address) -> None:
        """Close the current connection, then connect to ``to``.

        Deliberately leaves every flow rule in place: traffic keeps flowing on
        whatever the old master installed until the new one decides otherwise.
        """
        old = self._controller
        self._send(old, cp.DisconnectNotice(self.node_id))
        self._stop_keepalives()
        self._transition("disconnected", detail={"handover_from": str(old)})
        self._open_connection(to)

    def _open_connection(self, to: IPv4Address) -> None:
        self._controller = to
        self._transition("connecting")
        self._ask("connect", to)

    def on_connect_accept(self, msg: cp.ConnectAccept) -> None:
        if not self._settle("connect", msg.controller, msg.token):
            return
        self._last_change = self.sim.now()
        if self._emergency_rules:
            self.switch.flush_rules(ORIGIN_EFTM)
            self._emergency_rules = False
        self._transition("connected")
        self._start_keepalives()

    # -- keepalives ---------------------------------------------------------

    def _start_keepalives(self) -> None:
        self._keepalive_timer = self.sim.schedule(
            self._keepalive_interval_us,
            self._keepalive_tick,
            kind="keepalive",
        )

    def _stop_keepalives(self) -> None:
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None
        for handle in self._keepalive_waits.values():
            handle.cancel()
        self._keepalive_waits.clear()

    def _keepalive_tick(self) -> None:
        master = self.master
        if master is None:
            return
        self._token += 1
        token = self._token
        self._keepalive_waits[token] = self.sim.schedule(
            self._connect_timeout_us,
            partial(self._keepalive_timeout, token),
            kind="keepalive-timeout",
        )
        self._send(master, cp.KeepaliveRequest(self.node_id, token))
        self._start_keepalives()

    def on_keepalive_reply(self, msg: cp.KeepaliveReply) -> None:
        handle = self._keepalive_waits.pop(msg.token, None)
        if handle is not None:
            handle.cancel()

    def _keepalive_timeout(self, token: int) -> None:
        if token not in self._keepalive_waits:
            return
        self._stop_keepalives()
        self._disconnect("keepalive-timeout")

    def _disconnect(self, reason: str) -> None:
        self._transition("disconnected", detail={"reason": reason})
        # Out-of-cycle poll: do not wait for the next period boundary.
        self.sim.schedule(0, self.poll_tick, kind="poll")

    # -- emergency mode -----------------------------------------------------

    def _enter_emergency(self) -> None:
        if self.mode == "emergency":
            return
        self._transition("emergency")
        if not self._emergency_rules:
            self._apply_emergency_policy()

    def _on_routes_changed(self) -> None:
        if self.mode == "emergency":
            self._apply_emergency_policy()

    def _apply_emergency_policy(self) -> None:
        self.switch.flush_rules("controller:*")
        self.switch.flush_rules(ORIGIN_EFTM)
        for rule in self._emergency_rule_set():
            self.switch.install_rule(rule)
        self._emergency_rules = True

    def _emergency_rule_set(self) -> list[FlowRule]:
        """Forward rules for the routes the policy keeps, then a drop-all floor
        unless the policy is allow-all."""
        policy = self.cfg.emergency_policy
        if policy == "control-only":
            return [self._drop_all]
        table = self.olsr.routing_table
        if policy == "allow-all":
            routes = [
                (prefix, entry)
                for prefix, entry in sorted(table.routes.values(), key=lambda kv: str(kv[0]))
                if not prefix.subnet_of(self.switch.control_subnet)
            ]
        else:
            routes = [(p, table.lookup(p.network_address)) for p in self.cfg.selective_prefixes]
        rules = [
            FlowRule(
                priority=EMERGENCY_FORWARD_PRIORITY,
                dst_prefix=prefix,
                action=DeliverLocal() if entry.next_hop is None else ForwardTo(entry.next_hop),
                origin=ORIGIN_EFTM,
            )
            for prefix, entry in routes
            if entry is not None
        ]
        if policy == "selective":
            rules.append(self._drop_all)
        return rules

    # -- bookkeeping --------------------------------------------------------

    def _transition(self, to: Mode, detail: dict | None = None) -> None:
        data = {
            "node": self.node_id,
            "from": self.mode,
            "to": to,
            # Only a transition to connected has a master: the controller it connected to.
            "master": str(self._controller) if to == "connected" else None,
        }
        if detail:
            data.update(detail)
        self.mode = to
        self._log("EftmTransition", data)
