"""Composition root: builds a scenario into live nodes and runs it.

One :class:`Simulation` owns the event engine, the physical topology, one
runtime object per node (router, controller, host), the traffic sources, and
the metric log.  The transport here is the only place that consults physical
link state: a message sent over a Down link, or in flight when the link goes
down, silently disappears.
"""
from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Callable

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
from .topology import Interface, Link, Node, Topology
from .traffic import BulkFlowCfg, FluidTraffic, PingManager, PingProbeCfg


class WmrRuntime:
    """A mesh router: routing daemon + hybrid switch + master selector."""

    def __init__(self, sim: "Simulation", node: Node, spec_gateway: bool) -> None:
        self.sim = sim
        self.node = node
        scenario = sim.scenario
        self._mesh_address = node.mesh_address
        # The topology is complete before any runtime exists and its links
        # never change, so the addresses, links and routing peers are fixed.
        topo = sim.topo
        self._addresses = frozenset(itf.address for itf in node.interfaces)
        self._link_to = {link.other(node.id): link for link in topo.links_of(node.id)}
        self._olsr_links = tuple(
            sorted(
                (peer, link)
                for peer, link in self._link_to.items()
                if topo.nodes[peer].kind in ("wmr", "controller")
            )
        )
        self._peer_address = {peer: topo.nodes[peer].mesh_address for peer, _ in self._olsr_links}
        hna: list[IPv4Network] = [itf.network for itf in node.access_interfaces]
        if spec_gateway:
            hna.append(IPv4Network("0.0.0.0/0"))
        self.daemon = OlsrDaemon(
            node.id,
            [node.mesh_address],
            hna,
            scenario.olsr,
            sim.engine,
            links=lambda: self._olsr_links,
            send=self._olsr_send,
            log=sim.log.append,
        )
        self.switch = FlowSwitch(
            node.id, scenario.control_subnet, scenario.switch, sim.engine, sim.log.append
        )
        self.selector = MasterSelector(
            node.id,
            scenario.eftm,
            sim.engine,
            self.daemon,
            self.switch,
            send=lambda addr, payload: self.originate(addr, "control", payload),
            log=sim.log.append,
        )
        self.switch.route_lookup = self.daemon.routing_table.lookup
        self.switch.owns_address = self._addresses.__contains__
        self.switch.local_subnets = lambda: [
            itf.network for itf in self.node.access_interfaces
        ]
        self.switch.send_to_neighbor = self._send_to_neighbor
        self.switch.deliver_local = self._deliver_local
        self.switch.controller_connected = lambda: self.selector.master is not None
        self.switch.raise_packet_in = self._raise_packet_in
        self.switch.is_neighbor = self._link_to.__contains__

    def start(self) -> None:
        self.daemon.start()
        self.switch.start()
        self.selector.start()

    # -- transport adapters -------------------------------------------------

    def _olsr_send(self, link: Link, msg: object) -> None:
        dst = self._peer_address[link.other(self.node.id)]
        self.sim.transmit(link, self.node.id, Packet(self._mesh_address, dst, "olsr", msg))

    def _send_to_neighbor(self, neighbor: str, packet: Packet) -> None:
        self.sim.transmit(self._link_to[neighbor], self.node.id, packet)

    def _raise_packet_in(self, packet: Packet) -> None:
        master = self.selector.master
        if master is None:
            return
        self.originate(
            master,
            "control",
            cp.PacketInMsg(
                self.node.id, packet.src, packet.dst, packet.flow_id, self.sim.engine.now()
            ),
        )

    def originate(self, dst: IPv4Address, kind: str, payload: object) -> None:
        self.switch.forward(Packet(self._mesh_address, dst, kind, payload))  # type: ignore[arg-type]

    # -- receive path -------------------------------------------------------

    def on_packet(self, packet: Packet, link: Link) -> None:
        if packet.kind == "olsr":
            if isinstance(packet.payload, HelloMsg):
                self.daemon.handle_hello(packet.payload)
            elif isinstance(packet.payload, FloodMsg):
                self.daemon.handle_flood(packet.payload, link)
            return
        self.switch.forward(packet)

    def _deliver_local(self, packet: Packet) -> None:
        if packet.dst in self._addresses:
            self._dispatch_up(packet)
            return
        host = self.sim.host_by_address.get(packet.dst)
        if host is not None and host.attach_wmr == self.node.id:
            self.sim.transmit(host.access_link, self.node.id, packet)
        # A packet for an access subnet with no such host simply vanishes,
        # like a frame to an unanswered ARP.

    def _dispatch_up(self, packet: Packet) -> None:
        msg = packet.payload
        if isinstance(msg, cp.ProbeReply):
            self.selector.on_probe_reply(msg)
        elif isinstance(msg, cp.ConnectAccept):
            self.selector.on_connect_accept(msg)
        elif isinstance(msg, cp.KeepaliveReply):
            self.selector.on_keepalive_reply(msg)
        elif isinstance(msg, cp.FlowModMsg):
            self.switch.install_rule(msg.rule.build())
        elif isinstance(msg, cp.FlushMsg):
            self.switch.flush_rules(msg.origin_filter)
        elif isinstance(msg, cp.PingRequest):
            self.originate(packet.src, "ping", cp.PingReply(msg.probe_id, msg.seq, msg.sent_at))
        elif isinstance(msg, cp.PingReply):
            self.sim.pings.on_reply(msg)


class ControllerRuntime:
    """A controller host: runs the routing daemon plus the path controller."""

    def __init__(self, sim: "Simulation", node: Node, attach: str, overrides) -> None:
        self.sim = sim
        self.node = node
        self.attach_wmr = attach
        self.attach_link = sim.topo.link_between(node.id, attach)
        addr = self._mesh_address = node.mesh_address
        self._attach_address = sim.topo.nodes[attach].mesh_address
        olsr_links = ((attach, self.attach_link),)
        self.daemon = OlsrDaemon(
            node.id,
            [addr],
            [IPv4Network(f"{addr}/32")],
            sim.scenario.olsr,
            sim.engine,
            links=lambda: olsr_links,
            send=self._olsr_send,
            log=sim.log.append,
        )
        self.controller = Controller(
            node.id,
            addr,
            attach,
            sim.scenario.controller,
            sim.engine,
            pull_snapshot=lambda: sim.wmrs[attach].daemon.snapshot(),
            attachment_up=lambda: self.attach_link.up,
            send=self._originate,
            log=sim.log.append,
            path_overrides=overrides,
        )

    def start(self) -> None:
        self.daemon.start()
        self.controller.start()

    def _olsr_send(self, link: Link, msg: object) -> None:
        packet = Packet(self._mesh_address, self._attach_address, "olsr", msg)
        self.sim.transmit(link, self.node.id, packet)

    def _originate(self, dst: IPv4Address, payload: object) -> None:
        kind = "ping" if isinstance(payload, (cp.PingRequest, cp.PingReply)) else "control"
        packet = Packet(self._mesh_address, dst, kind, payload)  # type: ignore[arg-type]
        self.sim.transmit(self.attach_link, self.node.id, packet)

    def on_packet(self, packet: Packet, link: Link) -> None:
        if packet.kind == "olsr":
            if isinstance(packet.payload, HelloMsg):
                self.daemon.handle_hello(packet.payload)
            elif isinstance(packet.payload, FloodMsg):
                self.daemon.handle_flood(packet.payload, link)
            return
        if not self.node.owns(packet.dst):
            return  # controllers do not forward transit traffic
        msg = packet.payload
        if isinstance(msg, cp.ProbeRequest):
            self.controller.on_probe_request(msg, packet.src)
        elif isinstance(msg, cp.ConnectRequest):
            self.controller.on_connect_request(msg, packet.src)
        elif isinstance(msg, cp.DisconnectNotice):
            self.controller.on_disconnect(msg)
        elif isinstance(msg, cp.KeepaliveRequest):
            self.controller.on_keepalive(msg, packet.src)
        elif isinstance(msg, cp.PacketInMsg):
            self.controller.on_packet_in(msg, packet.src)
        elif isinstance(msg, cp.PingRequest):
            self._originate(packet.src, cp.PingReply(msg.probe_id, msg.seq, msg.sent_at))
        elif isinstance(msg, cp.PingReply):
            self.sim.pings.on_reply(msg)


class HostRuntime:
    def __init__(self, sim: "Simulation", node: Node, attach: str) -> None:
        self.sim = sim
        self.node = node
        self.attach_wmr = attach
        self.access_link = sim.topo.link_between(node.id, attach)

    @property
    def address(self) -> IPv4Address:
        return self.node.interfaces[0].address

    def originate(self, dst: IPv4Address, kind: str, payload: object) -> None:
        packet = Packet(self.address, dst, kind, payload)  # type: ignore[arg-type]
        self.sim.transmit(self.access_link, self.node.id, packet)

    def on_packet(self, packet: Packet, link: Link) -> None:
        if not self.node.owns(packet.dst):
            return
        msg = packet.payload
        if isinstance(msg, cp.PingRequest):
            self.originate(packet.src, "ping", cp.PingReply(msg.probe_id, msg.seq, msg.sent_at))
        elif isinstance(msg, cp.PingReply):
            self.sim.pings.on_reply(msg)
        # Bulk data arriving here is accounted by the fluid model, not counted
        # per packet.


@dataclass
class RunResult:
    scenario: str
    seed: int
    log: MetricLog
    summary: SummaryRow
    connectivity_us: SimTime | None
    selection_us: SimTime | None
    recovery: RecoveryAnalysis | None
    online: OnlineMetrics | None


class Simulation:
    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        self.scenario = scenario
        self.seed = seed
        self.engine = Simulator(seed)
        self.log = MetricLog(self.engine)
        self.topo = Topology()
        self.wmrs: dict[str, WmrRuntime] = {}
        self.controllers: dict[str, ControllerRuntime] = {}
        self.hosts: dict[str, HostRuntime] = {}
        self.host_by_address: dict[IPv4Address, HostRuntime] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        s = self.scenario
        self.topo.on_link_event = lambda link, up: self.log.append(
            "LinkEvent", {"link": link.id, "up": up}
        )

        for w in s.wmrs:
            interfaces = [Interface(w.mesh_addr, s.control_subnet, "mesh")]
            for net in w.access:
                interfaces.append(Interface(net.addr, net.subnet, "access"))
            self.topo.add_node(Node(w.id, "wmr", interfaces, gateway=w.gateway))
        for c in s.controllers:
            self.topo.add_node(
                Node(c.id, "controller", [Interface(c.addr, s.control_subnet, "mesh")])
            )
        for h in s.hosts:
            wmr = next(w for w in s.wmrs if w.id == h.attach)
            subnet = next(net.subnet for net in wmr.access if h.addr in net.subnet)
            self.topo.add_node(Node(h.id, "host", [Interface(h.addr, subnet, "access")]))

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

        for w in s.wmrs:
            self.wmrs[w.id] = WmrRuntime(self, self.topo.nodes[w.id], w.gateway)
        for c in s.controllers:
            self.controllers[c.id] = ControllerRuntime(
                self, self.topo.nodes[c.id], c.attach, c.path_overrides
            )
        for h in s.hosts:
            runtime = HostRuntime(self, self.topo.nodes[h.id], h.attach)
            self.hosts[h.id] = runtime
            self.host_by_address[runtime.address] = runtime
        self._runtimes: dict[str, WmrRuntime | ControllerRuntime | HostRuntime] = {
            **self.wmrs,
            **self.controllers,
            **self.hosts,
        }

        self.pings = PingManager(self.engine, self._originate_ping, self.log.append)
        self.fluid = FluidTraffic(
            self.engine,
            self.topo,
            attachment_of=lambda host: (
                self.hosts[host].attach_wmr,
                self.hosts[host].access_link,
            ),
            switch_of=lambda wmr: self.wmrs[wmr].switch,
            host_address=lambda host: self.hosts[host].address,
            log=self.log.append,
        )
        for p in s.pings:
            self.pings.add_probe(
                PingProbeCfg(p.id, p.src, p.dst, p.interval_s, p.start_s)
            )
        for f in s.flows:
            demand = f.demand_mbps * 1_000_000 if f.demand_mbps is not None else None
            self.fluid.add_flow(
                BulkFlowCfg(
                    f.id, f.src, f.dst, demand, f.start_s, f.stop_s, f.loss_recovery_s
                )
            )

        for ev in s.events:
            self.engine.schedule(
                to_us(ev.at_s), self._event_action(ev), target="scenario", kind=ev.action
            )

        for w in s.wmrs:
            self.wmrs[w.id].start()
        for c in s.controllers:
            self.controllers[c.id].start()

    def _attach_link(self, stub: str, wmr: str) -> Link:
        d = self.scenario.attach_link
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

    def _originate_ping(self, host: str, dst: IPv4Address, payload: object) -> None:
        self.hosts[host].originate(dst, "ping", payload)

    # -- transport ----------------------------------------------------------

    def transmit(self, link: Link, sender: str, packet: Packet) -> None:
        if not link.up:
            return
        receiver = link.other(sender)
        runtime = self._runtimes[receiver]

        def deliver() -> None:
            if link.up:  # a link that went down while in flight drops it
                runtime.on_packet(packet, link)

        self.engine.schedule(link.delay_us, deliver, target=receiver, kind="deliver")

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
            seed=self.seed,
            scenario=self.scenario.name,
            connectivity_time_us=connectivity,
            selection_delay_us=selection,
            throughput_gap_us=(
                recovery.recovery_after_event if recovery is not None else None
            ),
        )
        return RunResult(
            scenario=self.scenario.name,
            seed=self.seed,
            log=self.log,
            summary=summary,
            connectivity_us=connectivity,
            selection_us=selection,
            recovery=recovery,
            online=online,
        )


def run_scenario(scenario: Scenario, seed: int = 0) -> RunResult:
    return Simulation(scenario, seed).run()
