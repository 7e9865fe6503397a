"""Reactive path controller that learns topology from its attachment router.

The controller is a host beside one mesh router.  It never speaks routing
itself: it pulls the attached router's link-state and HNA databases (on a
timer and again on every packet-in) and answers flow-table misses by
installing per-hop rules along the shortest path, using the same hop-count
metric and lowest-address tie-break as the routing daemons.  Controllers are
fully independent of each other; coordination happens only through the
switches' own master selection.
"""
from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network
from typing import Callable, NamedTuple

from . import control_plane as cp
from .engine import Period, Seconds, SimTime, Simulator, to_us
from .olsr import TopologySnapshot
from .routing import by_address, first_hop_tree
from .switch import DeliverLocal, DropAction, FlowRule, ForwardTo, origin_controller


class ControllerConfig(NamedTuple):
    flush_on_connect: bool = True
    rule_idle_timeout_s: Seconds = 30.0
    rule_priority: int = 100
    refresh_interval_s: Period = 5.0
    unknown_dst_hard_timeout_s: Seconds = 5.0
    # A switch with no traffic on the control connection for this long is
    # considered gone even if it never said goodbye.
    switch_timeout_s: Seconds = 5.0


class Controller:
    def __init__(
        self,
        node_id: str,
        address: IPv4Address,
        cfg: ControllerConfig,
        sim: Simulator,
        pull_snapshot: Callable[[], TopologySnapshot],
        attachment_up: Callable[[], bool],
        send: Callable[[IPv4Address, object], None],
        log: Callable[[str, dict], None],
        path_overrides: dict[IPv4Network, list[str]] | None = None,
    ) -> None:
        self.node_id = node_id
        self.address = address
        self.cfg = cfg
        self.sim = sim
        self._pull = pull_snapshot
        self._attachment_up = attachment_up
        self._send = send
        self._log = log
        self.path_overrides = path_overrides or {}
        self._refresh_interval_us = to_us(cfg.refresh_interval_s)
        self._switch_timeout_us = to_us(cfg.switch_timeout_s)
        self._rule_idle_timeout_us = to_us(cfg.rule_idle_timeout_s)
        self._unknown_dst_hard_timeout_us = to_us(cfg.unknown_dst_hard_timeout_s)

        self.topo_view: TopologySnapshot | None = None
        # Each connected switch's address and when it was last heard from.
        self._switches: dict[str, tuple[IPv4Address, SimTime]] = {}

    # -- topology view ------------------------------------------------------

    def start(self) -> None:
        """Pull the topology view now, then again every ``refresh_interval_s``."""
        self.refresh_topology()
        self.sim.schedule(self._refresh_interval_us, self.start, kind="topo-refresh")

    def refresh_topology(self) -> None:
        if self._attachment_up():
            self.topo_view = self._pull()
        else:
            age = (
                self.sim.now() - self.topo_view.captured_at
                if self.topo_view is not None
                else None
            )
            self._action("view-stale", age_us=age)

    # -- connection bookkeeping ---------------------------------------------

    def connected_switches(self) -> list[str]:
        self._evict_silent()
        return sorted(self._switches)

    def _evict_silent(self) -> None:
        deadline = self.sim.now() - self._switch_timeout_us
        for wmr in sorted(self._switches):
            if self._switches[wmr][1] < deadline:
                del self._switches[wmr]
                self._action("switch-timeout", wmr=wmr)

    def _seen(self, wmr: str, addr: IPv4Address) -> None:
        self._switches[wmr] = (addr, self.sim.now())

    # -- control-channel handlers -------------------------------------------

    def on_probe_request(self, msg: cp.ProbeRequest, src: IPv4Address) -> None:
        self._send(src, cp.ProbeReply(self.address, msg.token))

    def on_connect_request(self, msg: cp.ConnectRequest, src: IPv4Address) -> None:
        self._seen(msg.wmr, src)
        self._action("switch-connected", wmr=msg.wmr)
        self._send(src, cp.ConnectAccept(self.address, msg.token))
        if self.cfg.flush_on_connect:
            # Remove every rule any controller ever installed; the flow table
            # restarts from this controller's view of the world.
            self._send(src, cp.FlushMsg("controller:*"))
            self._action("flush-on-connect", wmr=msg.wmr)

    def on_disconnect(self, msg: cp.DisconnectNotice) -> None:
        if self._switches.pop(msg.wmr, None) is not None:
            self._action("switch-disconnected", wmr=msg.wmr)

    def on_keepalive(self, msg: cp.KeepaliveRequest, src: IPv4Address) -> None:
        if msg.wmr in self._switches:
            self._seen(msg.wmr, src)
        self._send(src, cp.KeepaliveReply(self.address, msg.token))

    # -- packet-in ----------------------------------------------------------

    def on_packet_in(self, msg: cp.PacketInMsg, src: IPv4Address) -> None:
        if msg.wmr not in self._switches:
            self._action("packet-in-ignored", wmr=msg.wmr)
            return
        self._seen(msg.wmr, src)
        self.refresh_topology()
        if self.topo_view is None:
            return
        resolved = self._resolve(msg.dst)
        if resolved is None:
            self._install_unknown_drop(msg)
            return
        prefix, origin = resolved
        path = self._path(msg.wmr, origin, prefix)
        if path is None:
            self._install_unknown_drop(msg)
            return
        self._install_path(prefix, path)

    def _resolve(self, dst: IPv4Address) -> tuple[IPv4Network, str] | None:
        assert self.topo_view is not None
        best: tuple[IPv4Network, str] | None = None
        for origin, prefix in self.topo_view.hna:
            if dst in prefix:
                if best is None or prefix.prefixlen > best[0].prefixlen:
                    best = (prefix, origin)
        return best

    def _path(self, start: str, goal: str, prefix: IPv4Network) -> list[str] | None:
        """Hop sequence from ``start`` to ``goal``, None if there is none.

        Each hop is the neighbour one hop nearer the goal with the lowest
        (address, id): the first hop that hop's own routing picks.  One
        search from the goal gives every node's distance to it, because the
        snapshot's adjacency is symmetric (``OlsrDaemon.graph`` builds it so).
        """
        assert self.topo_view is not None
        override = self.path_overrides.get(prefix)
        if override is not None and override[0] == start and override[-1] == goal:
            return list(override)
        adj = self.topo_view.adjacency
        addrs = self.topo_view.addresses

        def addr_of(node: str) -> IPv4Address | None:
            held = addrs.get(node)
            return held[0] if held else None

        dist, _ = first_hop_tree(adj, goal, addr_of)
        if start not in dist:
            return None
        rank = by_address(addr_of)
        path = [start]
        for nearer in range(dist[start] - 1, -1, -1):
            path.append(min((v for v in adj[path[-1]] if dist.get(v) == nearer), key=rank))
        return path

    def _install_path(self, prefix: IPv4Network, path: list[str]) -> None:
        connected = set(self.connected_switches())
        # Far-to-near install order so downstream rules are in place before
        # the released packet reaches them.
        for i in range(len(path) - 1, -1, -1):
            wmr = path[i]
            if wmr not in connected:
                self._action("skip-unconnected-hop", wmr=wmr, prefix=str(prefix))
                continue
            action = DeliverLocal() if i == len(path) - 1 else ForwardTo(path[i + 1])
            rule = FlowRule(
                priority=self.cfg.rule_priority,
                dst_prefix=prefix,
                action=action,
                origin=origin_controller(self.address),
                idle_timeout_us=self._rule_idle_timeout_us,
            )
            self._send(self._switches[wmr][0], cp.FlowModMsg(rule))
            self._action("install", wmr=wmr, rule=f"{prefix}->{action}")

    def _install_unknown_drop(self, msg: cp.PacketInMsg) -> None:
        rule = FlowRule(
            priority=self.cfg.rule_priority,
            dst_prefix=IPv4Network(f"{msg.dst}/32"),
            action=DropAction(),
            origin=origin_controller(self.address),
            hard_timeout_us=self._unknown_dst_hard_timeout_us,
        )
        self._send(self._switches[msg.wmr][0], cp.FlowModMsg(rule))
        self._action("install-unknown-drop", wmr=msg.wmr, dst=str(msg.dst))

    def _action(self, action: str, **data: object) -> None:
        payload: dict = {"controller": self.node_id, "action": action}
        payload.update(data)
        self._log("ControllerAction", payload)
