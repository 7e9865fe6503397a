"""Probe and bulk traffic: periodic pings plus a fluid bulk-flow model.

Ping probes are real simulated packets and measure end-to-end liveness.
Bulk flows are fluid: every 100 ms each active flow's forwarding path is
walked through the actual flow tables, and path-sharing flows split link
capacity max-min fairly.  A walk that dead-ends at a ruleless switch behaves
exactly like a real first packet there: it is buffered and raises a
packet-in, so sampling is also what drives reactive rule installation.
After any interruption a flow ramps back linearly over its loss-recovery
delay, a stand-in for transport-layer recovery.

A flow's last complete walk is kept, and one rule settles it: a *clean*
sample reuses it, touching each of its rules as a match would, and any other
sample drops it and walks afresh.  A sample is clean when the sum of the
switches' table change counts and the topology's link-event count are what
they were at the previous sample, and it comes before the *kept-until
horizon*.  That horizon is the earliest hard deadline among the rules of
every kept walk, or the instant a walk was kept if one of its rules has an
idle timeout no longer than the sample interval.  A longer idle timeout
cannot lapse, since each sample touches the rules of every kept walk.  So a
clean sample would walk the same path afresh: no link or table changed, no
kept rule expired, and a rule above a kept one in match order, expired when
the walk matched, stays expired, since only an install restarts timers.  A
walk that ends in a miss, a drop rule or a loop is never kept, so each
sample that meets one raises its packet-in or drop as a fresh walk does.
Stopping a flow drops its walk, so a restarted flow walks afresh.  A
sample's own walks change no table and no link: a miss only buffers the
packet and raises a packet-in, which reaches the controller as a message.

Each flow builds its sample data once per rate and logs that dict again
while the rate holds.  The allocation is kept too: a sample whose flows
found the same paths as the last one reuses its shares, since a flow's
demand is fixed when it is added.
"""
from __future__ import annotations

import math
from ipaddress import IPv4Address
from itertools import count
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple

from . import control_plane as cp
from .engine import Mbps, Period, Seconds, SimTime, Simulator, to_us
from .switch import DeliverLocal, FlowRule, FlowSwitch, ForwardTo, Packet
from .topology import Link, Topology


class PingSpec(NamedTuple):
    """A probe from host ``src`` to ``dst`` every ``interval_s``."""

    id: str
    src: str
    dst: IPv4Address
    interval_s: Period = 1.0
    start_s: Seconds = 0.0


class PingManager:
    """Schedules probe requests and logs one PingResult per completed trip."""

    def __init__(
        self,
        sim: Simulator,
        originate: Callable[[str, IPv4Address, object], None],
        log: Callable[[str, dict], None],
    ) -> None:
        self.sim = sim
        self._originate = originate
        self._log = log

    def add_probe(self, spec: PingSpec) -> None:
        """Send ``spec``'s requests from its start, each ``interval_s`` after
        the last, numbered from 0, through one callback built here."""
        sim, interval_us, seqs = self.sim, to_us(spec.interval_s), count()

        def send() -> None:
            self._originate(spec.src, spec.dst, cp.PingRequest(spec.id, next(seqs), sim.now()))
            sim.schedule(interval_us, send, kind="ping")

        sim.schedule(max(0, to_us(spec.start_s) - sim.now()), send, kind="ping")

    def on_reply(self, reply: cp.PingReply) -> None:
        self._log(
            "PingResult",
            {
                "probe": reply.probe_id,
                "seq": reply.seq,
                "rtt_us": self.sim.now() - reply.sent_at,
            },
        )


# -- max-min fair allocation -------------------------------------------------


def max_min_allocate(
    demands: dict[str, float],
    flow_links: dict[str, list[Link]],
) -> dict[str, float]:
    """Progressive-filling max-min allocation.

    ``demands`` may contain ``math.inf`` for greedy flows.  Every flow must
    cross at least one link.  Freezing happens either at a flow's demand or
    at the fair share of the first saturating link, whichever binds first.
    """
    rates: dict[str, float] = {}
    active = sorted(demands)
    link_flows: dict[str, list[str]] = {}
    link_caps: dict[str, float] = {}
    for flow in active:
        if not flow_links[flow]:
            raise ValueError(f"flow {flow} crosses no links")
        for link in flow_links[flow]:
            link_flows.setdefault(link.id, []).append(flow)
            link_caps[link.id] = float(link.capacity_bps)
    # Per link, how many of its ``link_flows`` entries are not frozen yet,
    # and the links that still have some, in link id order.
    unfrozen = {lid: len(flows) for lid, flows in link_flows.items()}
    live = sorted(link_flows)

    while active:
        live = [lid for lid in live if unfrozen[lid]]
        shares: dict[str, float] = {}
        for lid in live:
            # Frozen rates are summed afresh in ``link_flows`` order, not kept
            # as a running total, so each share is the float that order gives.
            residual = link_caps[lid] - sum(rates[f] for f in link_flows[lid] if f in rates)
            shares[lid] = max(residual, 0.0) / unfrozen[lid]
        bottleneck = min(shares.values())
        frozen = [f for f in active if demands[f] <= bottleneck]
        if frozen:
            for flow in frozen:
                rates[flow] = demands[flow]
        else:
            saturated = {lid for lid, s in shares.items() if s == bottleneck}
            frozen = [
                f for f in active if any(link.id in saturated for link in flow_links[f])
            ]
            for flow in frozen:
                rates[flow] = bottleneck
        for flow in frozen:
            for link in flow_links[flow]:
                unfrozen[link.id] -= 1
        active = [f for f in active if f not in rates]
    return rates


# -- fluid bulk flows --------------------------------------------------------


class FlowSpec(NamedTuple):
    """A bulk flow from host ``src`` to ``dst`` between its start and stop."""

    id: str
    src: str
    dst: IPv4Address
    demand_mbps: Mbps | None = None  # None: take whatever the path gives
    start_s: Seconds = 0.0
    stop_s: Seconds | None = None
    loss_recovery_s: Seconds = 1.0


class _FlowState:
    def __init__(
        self,
        demand_bps: float,  # math.inf when uncapped
        access: Link,  # the source host's attach link
        router: str,  # the router at its other end
        packet: Packet,  # what each sample matches against the flow tables
        owner: str | None,  # the node that owns the destination address
        recovery_us: SimTime,
    ) -> None:
        self.demand_bps = demand_bps
        self.access = access
        self.router = router
        self.packet = packet
        self.owner = owner
        self.recovery_us = recovery_us
        self.active = False
        self.path_ok_since: SimTime | None = None
        # The last complete walk: its links, the rule it matched at each
        # hop, and the instant from which one of those rules may have expired.
        self.walk: tuple[list[Link], list[FlowRule], float] | None = None
        # The data of the flow's last ThroughputSample, logged again while
        # its rate holds.
        self.data: dict | None = None

    def data_at(self, bps: float) -> dict:
        """The data of a sample at ``bps``: the last sample's while ``bps``
        renders as its rate does (equal, and of one sign at zero), else new."""
        data = self.data
        if data is not None:
            last = data["bps"]
            if last == bps and (bps or math.copysign(1.0, last) == math.copysign(1.0, bps)):
                return data
        self.data = data = _sample_data(self.packet.flow_id, bps)
        return data


def _sample_data(flow_id: str, bps: float) -> dict:
    """A ThroughputSample's data, built once per rate of a flow and shared by
    every record at that rate."""
    return {"flow": flow_id, "bps": bps}


class FluidTraffic:
    """Samples every active flow on a fixed grid and logs ThroughputSample."""

    SAMPLE_INTERVAL_S = 0.1

    def __init__(
        self,
        sim: Simulator,
        topo: Topology,
        switches: Mapping[str, FlowSwitch],
        log: Callable[[str, dict], None],
    ) -> None:
        self.sim = sim
        self.topo = topo
        self._switches = switches
        self._log = log
        self._flows: dict[str, _FlowState] = {}
        self._flow_ids: list[str] = []  # sorted, the order samples are logged in
        self._ticking = False
        # The paths of the last allocation.  Demands and link capacities
        # never change and a Down link never reaches a path, so equal paths
        # give equal shares.
        self._allocated: dict[str, list[Link]] = {}
        self._shares: dict[str, float] = {}
        self._sample_interval_us = to_us(self.SAMPLE_INTERVAL_S)
        self._tables = [switch.table for switch in switches.values()]
        # The tables' change counts summed with the link-event count, as the
        # last sample found them.  Both only grow, so an equal sum means
        # neither moved.  With the kept-until horizon of the walks that
        # sample kept, it decides whether this sample is clean.
        self._marks = -1
        self._horizon: float = 0
        self._clean = False

    def add_flow(self, spec: FlowSpec) -> None:
        # The topology is complete and fixed by now, so what a flow starts
        # from, where it ends and what it asks for are resolved once, not on
        # every sample.
        (access,) = self.topo.links_of(spec.src)
        src = self.topo.nodes[spec.src].addresses[0]
        owner = self.topo.owner_of(spec.dst)
        demand = spec.demand_mbps
        self._flows[spec.id] = _FlowState(
            math.inf if demand is None else demand * 1_000_000,
            access,
            access.other(spec.src),
            Packet(src, spec.dst, "data", flow_id=spec.id),
            owner.id if owner is not None else None,
            to_us(spec.loss_recovery_s),
        )
        self._flow_ids = sorted(self._flows)
        delay = max(0, to_us(spec.start_s) - self.sim.now())
        self.sim.schedule(delay, lambda: self.start_flow(spec.id), kind="flow")
        if spec.stop_s is not None:
            self.sim.schedule(
                max(0, to_us(spec.stop_s) - self.sim.now()),
                lambda: self.stop_flow(spec.id),
                kind="flow",
            )

    def start_flow(self, flow_id: str) -> None:
        self._flows[flow_id].active = True
        if not self._ticking:
            self._ticking = True
            self._tick()

    def stop_flow(self, flow_id: str) -> None:
        state = self._flows[flow_id]
        state.active = False
        state.path_ok_since = None
        state.walk = None

    def _tick(self) -> None:
        now = self.sim.now()
        marks = sum(map(attrgetter("changes"), self._tables)) + self.topo.link_events
        self._clean = marks == self._marks and now < self._horizon
        self._marks = marks
        self._sample(now)
        self.sim.schedule(self._sample_interval_us, self._tick, kind="sample")

    def _sample(self, now: SimTime) -> None:
        """Walk every active flow, share the links and log the rates."""
        horizon = math.inf
        paths: dict[str, list[Link]] = {}
        flows = self._flows
        for flow_id in self._flow_ids:
            state = flows[flow_id]
            if not state.active:
                continue
            links = self._trace(state, now)
            walk = state.walk
            if walk is not None and walk[2] < horizon:
                horizon = walk[2]
            if links is None:
                state.path_ok_since = None
                self._log("ThroughputSample", state.data_at(0.0))
            else:
                if state.path_ok_since is None:
                    state.path_ok_since = now
                paths[flow_id] = links
        self._horizon = horizon
        if paths:
            if self._allocated != paths:
                demands = {f: flows[f].demand_bps for f in paths}
                self._shares = max_min_allocate(demands, paths)
                self._allocated = paths
            shares = self._shares
            for flow_id in paths:  # inserted in sorted order
                state = flows[flow_id]
                assert state.path_ok_since is not None
                share = shares[flow_id]
                elapsed = now - state.path_ok_since
                recovery = state.recovery_us
                bps = share if elapsed >= recovery else share * (elapsed / recovery)
                self._log("ThroughputSample", state.data_at(bps))

    def _trace(self, state: _FlowState, now: SimTime) -> list[Link] | None:
        """Walk the flow through access links and flow tables; None if it
        currently cannot reach its destination."""
        walk = state.walk
        if walk is not None:
            if self._clean:
                links, rules, _ = walk
                for rule in rules:
                    rule.last_hit = now  # as the match it stands for would
                return links
            state.walk = None
        access = state.access
        if not access.up:
            return None
        links = [access]
        rules: list[FlowRule] = []
        packet = state.packet
        current = state.router
        for _ in range(len(self.topo.nodes) + 1):
            flow_switch = self._switches[current]
            rule = flow_switch.table.match(packet, now)
            if rule is None:
                # Behave like the first real packet of the burst: let the
                # switch buffer it and raise a packet-in if it can.
                flow_switch.forward(
                    Packet(packet.src, packet.dst, "data", flow_id=packet.flow_id)
                )
                return None
            rules.append(rule)
            action = rule.action
            if isinstance(action, ForwardTo):
                nxt = action.next_hop
            elif isinstance(action, DeliverLocal) and state.owner is not None:
                if state.owner == current:
                    state.walk = (links, rules, self._kept_until(rules, now))
                    return links
                nxt = state.owner  # the last hop, to the owner of the destination
            else:
                return None  # a drop rule, or a destination nobody owns
            try:
                hop = self.topo.link_between(current, nxt)
            except KeyError:
                return None
            if not hop.up:
                return None
            links.append(hop)
            if isinstance(action, DeliverLocal):
                state.walk = (links, rules, self._kept_until(rules, now))
                return links
            current = nxt
        return None  # rule loop

    def _kept_until(self, rules: list[FlowRule], now: SimTime) -> float:
        """The instant from which a rule of a walk kept at ``now`` may have
        expired, with each sample after ``now`` touching them all: the
        earliest hard deadline, or ``now`` if an idle timeout lapses between
        two samples."""
        until = math.inf
        for rule in rules:
            if 0 < rule.idle_timeout_us <= self._sample_interval_us:
                return now
            if rule.hard_timeout_us:
                until = min(until, rule.installed_at + rule.hard_timeout_us)
        return until
