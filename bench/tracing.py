"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the entry points of each meshsdn layer with thin
wrappers while it is active and puts the originals back on exit.  Nothing
under ``src/`` knows about it.  It must be entered before any ``Simulation``
is built, because runtimes bind methods such as ``MetricLog.append`` and
``RoutingTable.lookup`` when they are constructed.

Every wrapped call records a span (name, parent, start, end) in flat
in-memory arrays; :meth:`Tracer.write` saves them when the benchmark ends.
A few hooks only count: events scheduled, fired and cancelled by kind,
deliveries by payload type and control messages originated by type.
"""
from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

from meshsdn import engine, metrics, olsr, scenario, simulation, switch, topology, traffic
from meshsdn import controller as controller_mod
from meshsdn import eftm as eftm_mod

# Span name for the callback of each event kind.  Unknown kinds fall to
# "engine.other", so every instant under run_until belongs to some span.
EVENT_SPANS = {
    "hello": "olsr.hello",
    "tc": "olsr.tc",
    "neighbor-expiry": "olsr.expiry",
    "ls-expiry": "olsr.expiry",
    "deliver": "transport.deliver",
    "poll": "eftm.poll",
    "probe-timeout": "eftm.timer",
    "connect-timeout": "eftm.timer",
    "keepalive": "eftm.timer",
    "keepalive-timeout": "eftm.timer",
    "topo-refresh": "controller.refresh",
    "rule-sweep": "switch.timer",
    "buffer-timeout": "switch.timer",
    "ping": "traffic.ping",
    "flow": "traffic.flow",
    "sample": "traffic.tick",
    "link-up": "topology.event",
    "link-down": "topology.event",
    "start-flow": "traffic.flow",
    "stop-flow": "traffic.flow",
}

# (owner, attribute, span name): the layer entry points that get a span.
SPAN_TARGETS = [
    (engine.Simulator, "run_until", "engine.run_until"),
    (engine.Simulator, "schedule", "engine.schedule"),
    (simulation.Simulation, "__init__", "simulation.build"),
    (simulation.Simulation, "run", "simulation.run"),
    (simulation.Simulation, "transmit", "transport.transmit"),
    (scenario, "scenario_from_mapping", "scenario.parse"),
    (topology.Topology, "owner_of", "topology.owner_of"),
    (topology.Topology, "link_between", "topology.link_between"),
    (olsr.OlsrDaemon, "handle_hello", "olsr.hello"),
    (olsr.OlsrDaemon, "handle_flood", "olsr.flood"),
    (olsr.OlsrDaemon, "_recompute", "olsr.recompute"),
    (olsr.OlsrDaemon, "hna_entries", "olsr.hna"),
    (olsr.OlsrDaemon, "snapshot", "olsr.snapshot"),
    (olsr.RoutingTable, "lookup", "olsr.lookup"),
    (switch.FlowSwitch, "forward", "switch.forward"),
    (switch.FlowSwitch, "install_rule", "switch.install"),
    (switch.FlowSwitch, "flush_rules", "switch.flush"),
    (switch.FlowTable, "match", "switch.match"),
    (eftm_mod.MasterSelector, "poll_tick", "eftm.poll"),
    (eftm_mod.MasterSelector, "discover_controllers", "eftm.discover"),
    (eftm_mod.MasterSelector, "on_probe_reply", "eftm.control"),
    (eftm_mod.MasterSelector, "on_connect_accept", "eftm.control"),
    (eftm_mod.MasterSelector, "on_keepalive_reply", "eftm.control"),
    (controller_mod.Controller, "on_packet_in", "controller.packet_in"),
    (controller_mod.Controller, "refresh_topology", "controller.refresh"),
    (controller_mod.Controller, "on_probe_request", "controller.control"),
    (controller_mod.Controller, "on_connect_request", "controller.control"),
    (controller_mod.Controller, "on_disconnect", "controller.control"),
    (controller_mod.Controller, "on_keepalive", "controller.control"),
    (traffic, "max_min_allocate", "traffic.maxmin"),
    (traffic.PingManager, "on_reply", "traffic.ping"),
    (metrics.MetricLog, "append", "metrics.append"),
    (metrics.MetricLog, "to_ndjson", "metrics.ndjson"),
    (simulation, "network_connectivity_time", "metrics.derive"),
    (simulation, "master_selection_delay", "metrics.derive"),
    (simulation, "throughput_recovery", "metrics.derive"),
]

# The layer a span prefix belongs to; layers are the meshsdn modules.
PREFIX_LAYER = {
    "engine": "engine",
    "transport": "simulation",
    "topology": "topology",
    "olsr": "olsr",
    "switch": "switch",
    "eftm": "eftm",
    "controller": "controller",
    "traffic": "traffic",
    "metrics": "metrics",
    "scenario": "scenario",
}
SPAN_LAYER = {"simulation.build": "scenario", "simulation.run": "simulation"}
LAYERS = tuple(dict.fromkeys(PREFIX_LAYER.values()))

PAYLOAD_CLASS = {
    "HelloMsg": "hello",
    "FloodMsg": "flood",
    "ProbeRequest": "eftm",
    "ProbeReply": "eftm",
    "ConnectRequest": "eftm",
    "ConnectAccept": "eftm",
    "DisconnectNotice": "eftm",
    "KeepaliveRequest": "eftm",
    "KeepaliveReply": "eftm",
    "FlowModMsg": "flowmod",
    "FlushMsg": "flowmod",
    "PacketInMsg": "packet_in",
    "PingRequest": "ping",
    "PingReply": "ping",
}
PAYLOADS = ("hello", "flood", "eftm", "flowmod", "packet_in", "ping", "data")

# Name ids at or above this offset mark a span nested inside another span of
# the same name; only outermost spans add to a name's inclusive time.
_NESTED = 1 << 16


def span_layer(name: str) -> str:
    return SPAN_LAYER.get(name) or PREFIX_LAYER[name.split(".", 1)[0]]


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        # Four int64 slots per span: name id, parent index, start, end (ns).
        self.buf = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._active: list[int] = []
        self._stack = [-1]
        self.scheduled: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()
        self.cancelled = 0
        self.queue_peak = 0
        self.delivered: Counter[str] = Counter()
        self.originated: Counter[str] = Counter()
        self.flood_duplicates = 0
        self.recompute_changed = 0
        self.match_hits = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _spanned(self, name: str, fn):
        nid = self._name_id(name)
        buf, stack, active = self.buf, self._stack, self._active

        def wrapper(*args, **kwargs):
            idx = len(buf) >> 2
            active[nid] += 1
            buf.extend((nid if active[nid] == 1 else nid + _NESTED, stack[-1], 0, 0))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                active[nid] -= 1
                buf[4 * idx + 2] = start
                buf[4 * idx + 3] = end
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- hooks ------------------------------------------------------------

    def _schedule_hook(self, fn):
        tracer = self
        spanned = {}

        def fire_wrapper(kind: str):
            if kind not in spanned:
                name = EVENT_SPANS.get(kind, "engine.other")

                def fire(callback):
                    tracer.fired[kind] += 1
                    return callback()

                spanned[kind] = self._spanned(name, fire)
            return spanned[kind]

        def schedule(sim, delay, callback, *, target="", kind=""):
            tracer.scheduled[kind] += 1
            fire = fire_wrapper(kind)
            event = fn(sim, delay, lambda: fire(callback), target=target, kind=kind)
            if len(sim._queue) > tracer.queue_peak:
                tracer.queue_peak = len(sim._queue)
            return event

        return schedule

    def _cancel_hook(self, fn):
        tracer = self

        def cancel(event):
            if not event.cancelled and event.callback is not None:
                tracer.cancelled += 1
            return fn(event)

        return cancel

    def _delivery_hook(self, fn):
        tracer = self

        def on_packet(runtime, packet, link):
            kind = PAYLOAD_CLASS.get(type(packet.payload).__name__, "data")
            tracer.delivered[kind] += 1
            return fn(runtime, packet, link)

        return on_packet

    def _originate_hook(self, fn):
        tracer = self

        def originate(runtime, dst, kind, payload):
            tracer.originated[type(payload).__name__] += 1
            return fn(runtime, dst, kind, payload)

        return originate

    def _flood_hook(self, fn):
        tracer = self

        def handle_flood(daemon, msg, arrival_link):
            # An accepted advertisement replaces the origin's entry; every
            # node relays the same message object, so compare entries.
            before = daemon.link_state.get(msg.origin)
            fn(daemon, msg, arrival_link)
            if daemon.link_state.get(msg.origin) is before:
                tracer.flood_duplicates += 1

        return handle_flood

    def _recompute_hook(self, fn):
        tracer = self

        def recompute(daemon):
            before = daemon.routes_version
            fn(daemon)
            if daemon.routes_version != before:
                tracer.recompute_changed += 1

        return recompute

    def _match_hook(self, fn):
        tracer = self

        def match(table, packet, now, touch=True):
            rule = fn(table, packet, now, touch)
            if rule is not None:
                tracer.match_hits += 1
            return rule

        return match

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        hooks = {
            "engine.schedule": self._schedule_hook,
            "olsr.flood": self._flood_hook,
            "olsr.recompute": self._recompute_hook,
            "switch.match": self._match_hook,
        }
        for owner, attr, name in SPAN_TARGETS:
            fn = vars(owner)[attr]
            if name in hooks:
                fn = hooks[name](fn)
            self._patch(owner, attr, self._spanned(name, fn))
        self._patch(engine.Event, "cancel", self._cancel_hook(vars(engine.Event)["cancel"]))
        for runtime in (simulation.WmrRuntime, simulation.ControllerRuntime, simulation.HostRuntime):
            self._patch(runtime, "on_packet", self._delivery_hook(vars(runtime)["on_packet"]))
        self._patch(
            simulation.WmrRuntime,
            "originate",
            self._originate_hook(vars(simulation.WmrRuntime)["originate"]),
        )

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.buf) >> 2

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans, and
        self seconds (duration minus the time covered by child spans)."""
        buf = self.buf
        n = len(buf) >> 2
        child = [0] * n
        for i in range(n):
            parent = buf[4 * i + 1]
            if parent >= 0:
                child[parent] += buf[4 * i + 3] - buf[4 * i + 2]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            raw = buf[4 * i]
            dur = buf[4 * i + 3] - buf[4 * i + 2]
            row = out[self.names[raw % _NESTED]]
            row["calls"] += 1
            row["self_s"] += (dur - child[i]) / 1e9
            if raw < _NESTED:
                row["s"] += dur / 1e9
        return out

    def write(self, path) -> None:
        """Save every span as CSV: id, parent, name, start_ns, end_ns."""
        buf = self.buf
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(buf) >> 2):
                name = self.names[buf[4 * i] % _NESTED]
                out.write(f"{i},{buf[4 * i + 1]},{name},{buf[4 * i + 2]},{buf[4 * i + 3]}\n")

