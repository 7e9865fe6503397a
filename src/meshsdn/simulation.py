"""Composition root: builds a scenario into live nodes and runs it.

One :class:`Simulation` owns the event engine, the physical topology, one
runtime object per node (router, controller, host), the traffic sources, and
the metric log.  The transport here and the runtimes it delivers to are the
only places that consult physical link state: a message sent over a Down
link, or in flight when the link goes down, silently disappears.
"""
from __future__ import annotations

from collections import Counter
from functools import partial
from ipaddress import IPv4Address, IPv4Network
from typing import Any, Callable, NamedTuple, Sequence

from . import control_plane as cp
from .controller import Controller
from .eftm import MasterSelector
from .engine import SimTime, Simulator, to_us
from .metrics import (
    MetricLog,
    OnlineMetrics,
    RecoveryAnalysis,
    SummaryRow,
    master_selection_delay,
    network_connectivity_time,
    throughput_recovery,
)
from .olsr import FloodMsg, HelloMsg, OlsrDaemon
from .scenario import Scenario
from .switch import FlowSwitch, Packet
from .topology import Link, Node, Topology
from .traffic import FluidTraffic, PingManager

# Where every OLSR frame is addressed: its receivers are the link's far ends.
BROADCAST = IPv4Address("255.255.255.255")


class NodeRuntime:
    """What every node shares: its node's address and int address set,
    its links by peer, and one handler per payload type it accepts, called
    as ``handler(msg, src)``.
    A router or controller, given the prefixes it announces, also runs the
    routing daemon over its router and controller links.

    The topology is complete before any runtime exists and its links never
    change, so all of these are fixed at construction.  Each kind of node
    receives through its own ``on_packet(packet, link)``, which drops a
    packet whose link went down while it was in flight.
    """

    def __init__(self, sim: "Simulation", node: Node, hna: list[IPv4Network] | None = None) -> None:
        self.sim = sim
        self.node = node
        self.node_id = node.id
        # A router's or controller's mesh address; a host's only address.
        self.address = node.addresses[0]
        # The node's addresses as ints, tested against ``Packet.dst_int``.
        self.local = node.local
        self.link_to = {link.other(node.id): link for link in sim.topo.links_of(node.id)}
        self.handlers: dict[type, Callable[[Any, IPv4Address], None]] = {
            cp.PingRequest: lambda msg, src: self.originate(
                src, "ping", cp.PingReply(msg.probe_id, msg.seq, msg.sent_at)
            ),
            cp.PingReply: lambda msg, src: sim.pings.on_reply(msg),
        }
        if hna is not None:
            nodes = sim.topo.nodes
            olsr_links = tuple(
                sorted(
                    (peer, link)
                    for peer, link in self.link_to.items()
                    if nodes[peer].kind in ("wmr", "controller")
                )
            )
            self.daemon = OlsrDaemon(
                node.id,
                [self.address],
                hna,
                sim.scenario.olsr,
                sim.engine,
                links=olsr_links,
                broadcast=self._olsr_broadcast,
                flood=self._olsr_flood,
                log=sim.log.append,
            )
            self._olsr_links = olsr_links

    def originate(self, dst: IPv4Address, kind: str, payload: object) -> None:
        """Send from a controller or host over its only link, the attach link."""
        (link,) = self.link_to.values()
        packet = Packet(self.address, dst, kind, payload)  # type: ignore[arg-type]
        self.sim.transmit(link, self.node_id, packet)

    def send_control(self, dst: IPv4Address, payload: object) -> None:
        self.originate(dst, "control", payload)

    def _dispatch(self, packet: Packet) -> None:
        handler = self.handlers.get(type(packet.payload))
        if handler is not None:
            handler(packet.payload, packet.src)

    def _olsr_broadcast(self, links: Sequence[Link], msg: object) -> None:
        """Send one OLSR frame carrying ``msg`` over each of ``links``."""
        me, transmit = self.node_id, self.sim.transmit
        frame = Packet(self.address, BROADCAST, "olsr", msg)
        for link in links:
            transmit(link, me, frame)

    def bind_olsr_ends(self, daemons: dict[str, OlsrDaemon]) -> None:
        """Keep, per OLSR link, the ``get`` of its far end's ``seen_seq``
        from ``daemons``, which runs one daemon per router and controller."""
        self._seen_by = {link: daemons[peer].seen_seq.get for peer, link in self._olsr_links}

    def _olsr_flood(self, links: Sequence[Link], msg: FloodMsg) -> None:
        """Send ``msg``, a flood originated or relayed here, over each of
        ``links`` whose far end would accept it.

        A copy whose receiver's ``seen_seq`` already reaches its sequence
        number (the receiver saw it, is its origin, or sent it here) is dead
        on send: the receiver's duplicate check would drop it on arrival,
        and ``seen_seq`` only grows.  Sending it would change no state, log
        nothing and draw no random number, so it is not sent.  The frame is
        built only if some copy goes out.
        """
        origin, seq = msg.origin, msg.seq
        seen_by, me, transmit = self._seen_by, self.node_id, self.sim.transmit
        frame = None
        for link in links:
            if seen_by[link](origin, 0) < seq:
                if frame is None:
                    frame = Packet(self.address, BROADCAST, "olsr", msg)
                transmit(link, me, frame)


class WmrRuntime(NodeRuntime):
    """A mesh router: routing daemon + hybrid switch + master selector.

    The router is its switch's :class:`~meshsdn.switch.SwitchHost`.
    """

    def __init__(self, sim: "Simulation", node: Node, gateway: bool) -> None:
        self.access_networks = node.access_networks
        default_route = [IPv4Network("0.0.0.0/0")] if gateway else []
        super().__init__(sim, node, [*self.access_networks, *default_route])
        scenario = sim.scenario
        nodes = sim.topo.nodes
        # Each attached host's link, by the int value of its address.
        self._host_links = {
            int(nodes[peer].addresses[0]): link
            for peer, link in self.link_to.items()
            if nodes[peer].kind == "host"
        }
        # The switch host's route lookup: the table's own, which every route
        # change patches in place.
        self.route = self.daemon.routing_table.lookup
        self.switch = FlowSwitch(
            node.id, scenario.control_subnet, scenario.switch, sim.engine, sim.log.append, self
        )
        self.selector = selector = MasterSelector(
            node.id,
            scenario.eftm,
            sim.engine,
            self.daemon,
            self.switch,
            send=self.send_control,
            log=sim.log.append,
        )
        self.handlers |= {
            cp.ProbeReply: lambda msg, src: selector.on_probe_reply(msg),
            cp.ConnectAccept: lambda msg, src: selector.on_connect_accept(msg),
            cp.KeepaliveReply: lambda msg, src: selector.on_keepalive_reply(msg),
            cp.FlowModMsg: lambda msg, src: self.switch.install_rule(msg.rule),
            cp.FlushMsg: lambda msg, src: self.switch.flush_rules(msg.origin_filter),
        }
        # What each arrival is handed to, bound once.  Anything that wraps
        # these methods (bench/tracing.py) is in place before a build.
        self._handle_hello = self.daemon.handle_hello
        self._handle_flood = self.daemon.handle_flood
        self._forward = self.switch.forward

    def start(self) -> None:
        self.daemon.start()
        self.switch.start()
        self.selector.start()

    def originate(self, dst: IPv4Address, kind: str, payload: object) -> None:
        self.switch.forward(Packet(self.address, dst, kind, payload))  # type: ignore[arg-type]

    def on_packet(self, packet: Packet, link: Link) -> None:
        if not link.up:  # it went down while the packet was in flight
            return
        if packet.kind == "olsr":
            msg = packet.payload
            if type(msg) is HelloMsg:
                self._handle_hello(msg)
            else:
                self._handle_flood(msg, link)
        else:
            self._forward(packet)

    # -- switch host --------------------------------------------------------

    @property
    def master(self) -> IPv4Address | None:
        return self.selector.master

    def is_neighbor(self, node_id: str) -> bool:
        return node_id in self.link_to

    def send_to_neighbor(self, neighbor: str, packet: Packet) -> None:
        self.sim.transmit(self.link_to[neighbor], self.node_id, packet)

    def deliver_local(self, packet: Packet) -> None:
        dst = packet.dst_int
        if dst in self.local:
            self._dispatch(packet)
            return
        # A packet for an access subnet with no such host simply vanishes,
        # like a frame to an unanswered ARP.
        link = self._host_links.get(dst)
        if link is not None:
            self.sim.transmit(link, self.node_id, packet)

    def raise_packet_in(self, packet: Packet) -> None:
        self.send_control(self.selector.master, cp.PacketInMsg(self.node_id, packet.dst))


class ControllerRuntime(NodeRuntime):
    """A controller host: runs the routing daemon plus the path controller."""

    def __init__(self, sim: "Simulation", node: Node, attach: str, overrides) -> None:
        super().__init__(sim, node, [IPv4Network(f"{node.mesh_address}/32")])
        self.controller = controller = Controller(
            node.id,
            self.address,
            sim.scenario.controller,
            sim.engine,
            pull_snapshot=lambda: sim.wmrs[attach].daemon.snapshot(),
            attachment_up=lambda: self.link_to[attach].up,
            send=self.send_control,
            log=sim.log.append,
            path_overrides=overrides,
        )
        self.handlers |= {
            cp.ProbeRequest: controller.on_probe_request,
            cp.ConnectRequest: controller.on_connect_request,
            cp.DisconnectNotice: lambda msg, src: controller.on_disconnect(msg),
            cp.KeepaliveRequest: controller.on_keepalive,
            cp.PacketInMsg: controller.on_packet_in,
        }

    def start(self) -> None:
        self.daemon.start()
        self.controller.start()

    def on_packet(self, packet: Packet, link: Link) -> None:
        if not link.up:
            return
        if packet.kind == "olsr":
            msg = packet.payload
            if type(msg) is HelloMsg:
                self.daemon.handle_hello(msg)
            else:
                self.daemon.handle_flood(msg, link)
        elif packet.dst_int in self.local:  # controllers do not forward transit traffic
            self._dispatch(packet)


class HostRuntime(NodeRuntime):
    """An end host on an access subnet: it sends and answers pings."""

    def on_packet(self, packet: Packet, link: Link) -> None:
        # Bulk data arriving here is accounted by the fluid model, not counted
        # per packet.
        if link.up and packet.dst_int in self.local:
            self._dispatch(packet)


class RunResult(NamedTuple):
    """A run's log and summary, which names the run by scenario and seed,
    with the figures derived from the log."""

    log: MetricLog
    summary: SummaryRow
    connectivity_us: SimTime | None
    selection_us: SimTime | None
    recovery: RecoveryAnalysis | None
    online: OnlineMetrics | None


class Simulation:
    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        self.scenario = scenario
        self.topo = Topology()
        self._build_topology()
        # Most events are deliveries, each scheduled with its link's delay:
        # the delay most links share gets the engine's FIFO lane.
        delays = Counter(link.delay_us for link in self.topo.links.values()).most_common(1)
        self.engine = Simulator(seed, lane_delay=delays[0][0] if delays else None)
        self.log = MetricLog(self.engine)
        self.wmrs: dict[str, WmrRuntime] = {}
        self.controllers: dict[str, ControllerRuntime] = {}
        self.hosts: dict[str, HostRuntime] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build_topology(self) -> None:
        s = self.scenario
        self.topo.on_link_event = lambda link, up: self.log.append(
            "LinkEvent", {"link": link.id, "up": up}
        )

        for w in s.wmrs:
            addresses = [w.mesh_addr, *(net.addr for net in w.access)]
            self.topo.add_node(Node(w.id, "wmr", addresses, [net.subnet for net in w.access]))
        for c in s.controllers:
            self.topo.add_node(Node(c.id, "controller", [c.addr]))
        for h in s.hosts:
            self.topo.add_node(Node(h.id, "host", [h.addr]))

        for spec in s.links:
            self.topo.add_link(
                Link(
                    spec.a,
                    spec.b,
                    capacity_bps=round(spec.capacity_mbps * 1_000_000),
                    delay_us=round(spec.delay_ms * 1000),
                    up=spec.initial_up,
                )
            )
        for c in s.controllers:
            self.topo.add_link(self._attach_link(c.id, c.attach))
        for h in s.hosts:
            self.topo.add_link(self._attach_link(h.id, h.attach))

    def _build(self) -> None:
        s = self.scenario
        for w in s.wmrs:
            self.wmrs[w.id] = WmrRuntime(self, self.topo.nodes[w.id], w.gateway)
        for c in s.controllers:
            self.controllers[c.id] = ControllerRuntime(
                self, self.topo.nodes[c.id], c.attach, c.path_overrides
            )
        for h in s.hosts:
            self.hosts[h.id] = HostRuntime(self, self.topo.nodes[h.id])
        routing = [*self.wmrs.values(), *self.controllers.values()]
        daemons = {runtime.node_id: runtime.daemon for runtime in routing}
        for runtime in routing:
            runtime.bind_olsr_ends(daemons)
        # Each node's receiving method, bound once for every transmission.
        self._on_packet: dict[str, Callable[[Packet, Link], None]] = {
            node_id: runtime.on_packet
            for runtimes in (self.wmrs, self.controllers, self.hosts)
            for node_id, runtime in runtimes.items()
        }

        self.pings = PingManager(
            self.engine,
            lambda host, dst, payload: self.hosts[host].originate(dst, "ping", payload),
            self.log.append,
        )
        self.fluid = FluidTraffic(
            self.engine,
            self.topo,
            {wmr_id: runtime.switch for wmr_id, runtime in self.wmrs.items()},
            self.log.append,
        )
        for ping in s.pings:
            self.pings.add_probe(ping)
        for flow in s.flows:
            self.fluid.add_flow(flow)

        for ev in s.events:
            self.engine.schedule(to_us(ev.at_s), self._event_action(ev), kind=ev.action)

        for w in s.wmrs:
            self.wmrs[w.id].start()
        for c in s.controllers:
            self.controllers[c.id].start()

    def _attach_link(self, stub: str, wmr: str) -> Link:
        d = self.scenario.defaults.attach_link
        return Link(
            stub,
            wmr,
            capacity_bps=round(d.capacity_mbps * 1_000_000),
            delay_us=round(d.delay_ms * 1000),
        )

    def _event_action(self, ev) -> Callable[[], None]:
        if ev.action == "link-up":
            return lambda: self.topo.set_link_state(ev.link[0], ev.link[1], True)
        if ev.action == "link-down":
            return lambda: self.topo.set_link_state(ev.link[0], ev.link[1], False)
        if ev.action == "start-flow":
            return lambda: self.fluid.start_flow(ev.flow)
        return lambda: self.fluid.stop_flow(ev.flow)

    # -- transport ----------------------------------------------------------

    def transmit(self, link: Link, sender: str, packet: Packet) -> None:
        if not link.up:
            return
        receiver = link.b if link.a == sender else link.a
        self.engine.schedule(
            link.delay_us, partial(self._on_packet[receiver], packet, link), kind="deliver"
        )

    # -- run & measure ------------------------------------------------------

    def run(self) -> RunResult:
        measure = self.scenario.measure
        online: OnlineMetrics | None = None
        if measure is not None:
            online = OnlineMetrics(
                to_us(measure.event_at_s), measure.probe, list(measure.wmrs), measure.flow
            )
            self.log.observers.append(online.feed)
        self.engine.run_until(to_us(self.scenario.duration_s))
        return self._finalize(online)

    def _finalize(self, online: OnlineMetrics | None) -> RunResult:
        measure = self.scenario.measure
        connectivity: SimTime | None = None
        selection: SimTime | None = None
        recovery: RecoveryAnalysis | None = None
        if measure is not None:
            event_at = to_us(measure.event_at_s)
            if measure.probe is not None:
                connectivity = network_connectivity_time(
                    self.log.records, event_at, measure.probe
                )
            if measure.kind == "merge":
                reference = (
                    event_at + connectivity if connectivity is not None else None
                )
            else:
                reference = event_at
            if measure.wmrs and reference is not None:
                selection = master_selection_delay(
                    self.log.records, event_at, list(measure.wmrs), reference
                )
            if measure.flow is not None:
                recovery = throughput_recovery(
                    self.log.records, measure.flow, event_at, steady_window=to_us(5.0)
                )
        summary = SummaryRow(
            seed=self.engine.seed,
            scenario=self.scenario.name,
            connectivity_time_us=connectivity,
            selection_delay_us=selection,
            throughput_gap_us=(
                recovery.recovery_after_event if recovery is not None else None
            ),
        )
        return RunResult(
            log=self.log,
            summary=summary,
            connectivity_us=connectivity,
            selection_us=selection,
            recovery=recovery,
            online=online,
        )


def run_scenario(scenario: Scenario, seed: int = 0) -> RunResult:
    return Simulation(scenario, seed).run()
