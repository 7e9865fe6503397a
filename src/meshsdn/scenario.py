"""Scenario files: the declarative description of one simulated experiment.

A scenario is a YAML document naming the routers, controllers, hosts, links,
traffic, timed events, and which measurement the run should report.  Loading
is strict: unknown keys, dangling references, addresses outside their
designated subnets, and out-of-order events are all rejected with the offending
location in the message.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import InitVar, dataclass, field
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path
from typing import Any

from .controller import ControllerConfig
from .eftm import EftmConfig
from .olsr import OlsrConfig
from .switch import SwitchConfig


class ScenarioError(ValueError):
    """A scenario file that cannot be run as written."""


@dataclass
class LinkDefaults:
    capacity_mbps: float = 10.0
    delay_ms: float = 2.0


@dataclass
class AccessNetSpec:
    subnet: IPv4Network
    addr: IPv4Address


@dataclass
class WmrSpec:
    id: str
    mesh_addr: IPv4Address
    access: list[AccessNetSpec] = field(default_factory=list)
    gateway: bool = False


@dataclass
class ControllerSpec:
    id: str
    addr: IPv4Address
    attach: str
    path_overrides: dict[IPv4Network, list[str]] = field(default_factory=dict)


@dataclass
class HostSpec:
    id: str
    addr: IPv4Address
    attach: str


@dataclass
class LinkSpec:
    a: str
    b: str
    capacity_mbps: float
    delay_ms: float
    initial_up: bool = True


@dataclass
class PingSpec:
    id: str
    src: str
    dst: IPv4Address
    interval_s: float = 1.0
    start_s: float = 0.0


@dataclass
class FlowSpec:
    id: str
    src: str
    dst: IPv4Address
    demand_mbps: float | None = None
    start_s: float = 0.0
    stop_s: float | None = None
    loss_recovery_s: float = 1.0


@dataclass
class EventSpec:
    at_s: float
    action: str  # link-up | link-down | start-flow | stop-flow
    link: tuple[str, str] | None = None
    flow: str | None = None


@dataclass
class MeasureSpec:
    kind: str  # merge | partition
    event_at_s: float
    wmrs: list[str] = field(default_factory=list)
    probe: str | None = None
    flow: str | None = None


@dataclass
class Scenario:
    name: str
    duration_s: float
    control_subnet: IPv4Network = IPv4Network("10.0.0.0/16")
    olsr: OlsrConfig = field(default_factory=OlsrConfig)
    eftm: EftmConfig = field(default_factory=EftmConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    mesh_link: LinkDefaults = field(default_factory=LinkDefaults)
    attach_link: LinkDefaults = field(default_factory=lambda: LinkDefaults(100.0, 0.5))
    wmrs: list[WmrSpec] = field(default_factory=list)
    controllers: list[ControllerSpec] = field(default_factory=list)
    hosts: list[HostSpec] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    pings: list[PingSpec] = field(default_factory=list)
    flows: list[FlowSpec] = field(default_factory=list)
    events: list[EventSpec] = field(default_factory=list)
    measure: MeasureSpec | None = None
    source: InitVar[str | None] = None  # the document; names it in errors

    def __post_init__(self, source: str | None) -> None:
        validate_scenario(self, source)


# -- parsing helpers ---------------------------------------------------------


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


def _expect_map(raw: Any, path: str) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected a mapping, got {type(raw).__name__}")
    return raw


def _list(raw: Any, path: str) -> list | tuple:
    """A list-valued key; an absent or null one reads as empty."""
    if raw is None:
        return []
    if not isinstance(raw, (list, tuple)):
        _fail(path, f"expected a list, got {type(raw).__name__}")
    return raw


def _take(raw: dict, path: str, known: set[str]) -> None:
    unknown = set(raw) - known
    if unknown:
        _fail(path, f"unknown keys: {', '.join(sorted(unknown))}")


def _required(raw: dict, key: str, path: str) -> Any:
    if key not in raw:
        _fail(path, f"missing required key {key!r}")
    return raw[key]


def _number(raw: Any, path: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        _fail(path, f"expected a number, got {raw!r}")
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {raw!r}")
    return value


def _addr(raw: Any, path: str) -> IPv4Address:
    try:
        return IPv4Address(str(raw))
    except ValueError as exc:
        _fail(path, f"bad address {raw!r}: {exc}")
    raise AssertionError


def _net(raw: Any, path: str) -> IPv4Network:
    try:
        return IPv4Network(str(raw))
    except ValueError as exc:
        _fail(path, f"bad network {raw!r}: {exc}")
    raise AssertionError


def _config(cls: type, raw: Any, path: str) -> Any:
    """Build a config dataclass from a mapping, rejecting unknown keys."""
    if raw is None:
        return cls()
    raw = dict(_expect_map(raw, path))
    names = {f.name for f in dataclasses.fields(cls)}
    _take(raw, path, names)
    if "controller_range" in raw:
        raw["controller_range"] = _net(raw["controller_range"], f"{path}.controller_range")
    if "priority_override" in raw and raw["priority_override"] is not None:
        raw["priority_override"] = [
            _addr(a, f"{path}.priority_override[{i}]")
            for i, a in enumerate(_list(raw["priority_override"], f"{path}.priority_override"))
        ]
    if "selective_prefixes" in raw:
        raw["selective_prefixes"] = [
            _net(p, f"{path}.selective_prefixes[{i}]")
            for i, p in enumerate(_list(raw["selective_prefixes"], f"{path}.selective_prefixes"))
        ]
    for key, value in raw.items():
        if isinstance(value, float) and not math.isfinite(value):
            _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _link_defaults(raw: Any, path: str, base: LinkDefaults) -> LinkDefaults:
    if raw is None:
        return base
    raw = _expect_map(raw, path)
    _take(raw, path, {"capacity_mbps", "delay_ms"})
    return LinkDefaults(
        _number(raw.get("capacity_mbps", base.capacity_mbps), f"{path}.capacity_mbps"),
        _number(raw.get("delay_ms", base.delay_ms), f"{path}.delay_ms"),
    )


def scenario_from_mapping(doc: Any, source: str = "scenario") -> Scenario:
    doc = _expect_map(doc, source)
    _take(
        doc,
        source,
        {
            "name",
            "duration_s",
            "control_subnet",
            "olsr",
            "eftm",
            "controller",
            "switch",
            "defaults",
            "wmrs",
            "controllers",
            "hosts",
            "links",
            "pings",
            "flows",
            "events",
            "measure",
        },
    )
    if "name" not in doc or "duration_s" not in doc:
        _fail(source, "name and duration_s are required")

    defaults = _expect_map(doc.get("defaults") or {}, f"{source}.defaults")
    _take(defaults, f"{source}.defaults", {"mesh_link", "attach_link"})
    mesh_link = _link_defaults(defaults.get("mesh_link"), f"{source}.defaults.mesh_link", LinkDefaults())
    attach_link = _link_defaults(
        defaults.get("attach_link"), f"{source}.defaults.attach_link", LinkDefaults(100.0, 0.5)
    )

    wmrs: list[WmrSpec] = []
    for i, raw in enumerate(_list(doc.get("wmrs"), f"{source}.wmrs")):
        path = f"{source}.wmrs[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"id", "mesh_addr", "access", "gateway"})
        access: list[AccessNetSpec] = []
        for j, net in enumerate(_list(raw.get("access"), f"{path}.access")):
            npath = f"{path}.access[{j}]"
            net = _expect_map(net, npath)
            _take(net, npath, {"subnet", "addr"})
            access.append(
                AccessNetSpec(
                    _net(_required(net, "subnet", npath), npath),
                    _addr(_required(net, "addr", npath), npath),
                )
            )
        wmrs.append(
            WmrSpec(
                id=str(_required(raw, "id", path)),
                mesh_addr=_addr(raw.get("mesh_addr"), path),
                access=access,
                gateway=bool(raw.get("gateway", False)),
            )
        )

    controllers: list[ControllerSpec] = []
    for i, raw in enumerate(_list(doc.get("controllers"), f"{source}.controllers")):
        path = f"{source}.controllers[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"id", "addr", "attach", "path_overrides"})
        overrides: dict[IPv4Network, list[str]] = {}
        for j, item in enumerate(_list(raw.get("path_overrides"), f"{path}.path_overrides")):
            opath = f"{path}.path_overrides[{j}]"
            item = _expect_map(item, opath)
            _take(item, opath, {"dst", "path"})
            hops = _list(_required(item, "path", opath), f"{opath}.path")
            overrides[_net(_required(item, "dst", opath), opath)] = [str(h) for h in hops]
        controllers.append(
            ControllerSpec(
                id=str(_required(raw, "id", path)),
                addr=_addr(raw.get("addr"), path),
                attach=str(raw.get("attach", "")),
                path_overrides=overrides,
            )
        )

    hosts: list[HostSpec] = []
    for i, raw in enumerate(_list(doc.get("hosts"), f"{source}.hosts")):
        path = f"{source}.hosts[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"id", "addr", "attach"})
        hosts.append(
            HostSpec(
                str(_required(raw, "id", path)),
                _addr(raw.get("addr"), path),
                str(raw.get("attach", "")),
            )
        )

    by_id = {n.id: n for n in [*wmrs, *controllers, *hosts]}

    def resolve_dst(raw_dst: Any, path: str) -> IPv4Address:
        if str(raw_dst) in by_id:
            node = by_id[str(raw_dst)]
            if isinstance(node, WmrSpec):
                return node.mesh_addr
            return node.addr
        return _addr(raw_dst, path)

    links: list[LinkSpec] = []
    for i, raw in enumerate(_list(doc.get("links"), f"{source}.links")):
        path = f"{source}.links[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"a", "b", "capacity_mbps", "delay_ms", "initial"})
        initial = str(raw.get("initial", "up")).lower()
        if initial not in ("up", "down"):
            _fail(path, f"initial must be up or down, got {initial!r}")
        links.append(
            LinkSpec(
                a=str(raw.get("a", "")),
                b=str(raw.get("b", "")),
                capacity_mbps=_number(
                    raw.get("capacity_mbps", mesh_link.capacity_mbps), f"{path}.capacity_mbps"
                ),
                delay_ms=_number(raw.get("delay_ms", mesh_link.delay_ms), f"{path}.delay_ms"),
                initial_up=initial == "up",
            )
        )

    pings: list[PingSpec] = []
    for i, raw in enumerate(_list(doc.get("pings"), f"{source}.pings")):
        path = f"{source}.pings[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"id", "src", "dst", "interval_s", "start_s"})
        pings.append(
            PingSpec(
                id=str(_required(raw, "id", path)),
                src=str(raw.get("src", "")),
                dst=resolve_dst(raw.get("dst"), f"{path}.dst"),
                interval_s=_number(raw.get("interval_s", 1.0), f"{path}.interval_s"),
                start_s=_number(raw.get("start_s", 0.0), f"{path}.start_s"),
            )
        )

    flows: list[FlowSpec] = []
    for i, raw in enumerate(_list(doc.get("flows"), f"{source}.flows")):
        path = f"{source}.flows[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"id", "src", "dst", "demand_mbps", "start_s", "stop_s", "loss_recovery_s"})
        demand = raw.get("demand_mbps")
        stop = raw.get("stop_s")
        flows.append(
            FlowSpec(
                id=str(_required(raw, "id", path)),
                src=str(raw.get("src", "")),
                dst=resolve_dst(raw.get("dst"), f"{path}.dst"),
                demand_mbps=(
                    _number(demand, f"{path}.demand_mbps") if demand is not None else None
                ),
                start_s=_number(raw.get("start_s", 0.0), f"{path}.start_s"),
                stop_s=_number(stop, f"{path}.stop_s") if stop is not None else None,
                loss_recovery_s=_number(
                    raw.get("loss_recovery_s", 1.0), f"{path}.loss_recovery_s"
                ),
            )
        )

    events: list[EventSpec] = []
    for i, raw in enumerate(_list(doc.get("events"), f"{source}.events")):
        path = f"{source}.events[{i}]"
        raw = _expect_map(raw, path)
        _take(raw, path, {"at_s", "action", "link", "flow"})
        link = raw.get("link")
        if link is not None and not (isinstance(link, (list, tuple)) and len(link) == 2):
            _fail(f"{path}.link", f"expected a list of two wmr ids, got {link!r}")
        events.append(
            EventSpec(
                at_s=_number(raw.get("at_s", -1.0), f"{path}.at_s"),
                action=str(raw.get("action", "")),
                link=(str(link[0]), str(link[1])) if link is not None else None,
                flow=str(raw["flow"]) if raw.get("flow") is not None else None,
            )
        )

    measure: MeasureSpec | None = None
    if doc.get("measure") is not None:
        path = f"{source}.measure"
        raw = _expect_map(doc["measure"], path)
        _take(raw, path, {"kind", "event_at_s", "wmrs", "probe", "flow"})
        measure = MeasureSpec(
            kind=str(raw.get("kind", "")),
            event_at_s=_number(raw.get("event_at_s", -1.0), f"{path}.event_at_s"),
            wmrs=[str(w) for w in _list(raw.get("wmrs"), f"{path}.wmrs")],
            probe=str(raw["probe"]) if raw.get("probe") is not None else None,
            flow=str(raw["flow"]) if raw.get("flow") is not None else None,
        )

    return Scenario(
        name=str(doc["name"]),
        duration_s=_number(doc["duration_s"], f"{source}.duration_s"),
        control_subnet=_net(doc.get("control_subnet", "10.0.0.0/16"), f"{source}.control_subnet"),
        olsr=_config(OlsrConfig, doc.get("olsr"), f"{source}.olsr"),
        eftm=_config(EftmConfig, doc.get("eftm"), f"{source}.eftm"),
        controller=_config(ControllerConfig, doc.get("controller"), f"{source}.controller"),
        switch=_config(SwitchConfig, doc.get("switch"), f"{source}.switch"),
        mesh_link=mesh_link,
        attach_link=attach_link,
        wmrs=wmrs,
        controllers=controllers,
        hosts=hosts,
        links=links,
        pings=pings,
        flows=flows,
        events=events,
        measure=measure,
        source=source,
    )


def parse_yaml(text: str, source: str) -> Any:
    """The document ``text`` holds; a ScenarioError naming ``source`` if it is
    not YAML.  PyYAML is imported here, not at module level: a scenario built
    from a mapping never needs it, and it is a large share of import time."""
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: not valid YAML: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    source = str(path)
    return scenario_from_mapping(parse_yaml(Path(path).read_text(), source), source=source)


def apply_overrides(doc: Any, overrides: dict[str, Any]) -> Any:
    """Apply dotted-key overrides (``eftm.poll_period_s=2.5``) to a raw document."""
    for key, value in overrides.items():
        parts = key.split(".")
        cursor = doc
        for part in parts[:-1]:
            if not isinstance(cursor, dict):
                raise ScenarioError(f"override {key!r}: {part} is not a mapping")
            cursor = cursor.setdefault(part, {})
        if not isinstance(cursor, dict):
            raise ScenarioError(f"override {key!r} does not address a mapping")
        cursor[parts[-1]] = value
    return doc


# -- validation --------------------------------------------------------------


def validate_scenario(s: Scenario, source: str | None = None) -> None:
    """Check the cross-references and values parsing cannot; errors start
    with ``source``, or with the scenario's name when there is none."""
    doc = source or s.name
    if s.duration_s <= 0:
        _fail(doc, "duration_s must be positive")

    ids: set[str] = set()
    for node_id in [*(w.id for w in s.wmrs), *(c.id for c in s.controllers), *(h.id for h in s.hosts)]:
        if node_id in ids:
            _fail(doc, f"duplicate node id {node_id!r}")
        ids.add(node_id)

    wmr_ids = {w.id for w in s.wmrs}
    if not s.eftm.controller_range.subnet_of(s.control_subnet):
        _fail(doc, "eftm.controller_range must lie inside control_subnet")

    addresses: set[IPv4Address] = set()

    def claim(addr: IPv4Address, owner: str) -> None:
        if addr in addresses:
            _fail(doc, f"{owner}: address {addr} is already assigned")
        addresses.add(addr)

    for w in s.wmrs:
        if w.mesh_addr not in s.control_subnet:
            _fail(doc, f"wmr {w.id}: mesh_addr {w.mesh_addr} outside control subnet")
        if w.mesh_addr in s.eftm.controller_range:
            _fail(doc, f"wmr {w.id}: mesh_addr {w.mesh_addr} inside controller range")
        claim(w.mesh_addr, f"wmr {w.id}")
        for net in w.access:
            if net.subnet.overlaps(s.control_subnet):
                _fail(doc, f"wmr {w.id}: access subnet {net.subnet} overlaps control subnet")
            if net.addr not in net.subnet:
                _fail(doc, f"wmr {w.id}: access addr {net.addr} outside {net.subnet}")
            claim(net.addr, f"wmr {w.id}")

    for c in s.controllers:
        if c.addr not in s.eftm.controller_range:
            _fail(doc, f"controller {c.id}: addr {c.addr} outside controller range")
        claim(c.addr, f"controller {c.id}")
        if c.attach not in wmr_ids:
            _fail(doc, f"controller {c.id}: attach target {c.attach!r} is not a wmr")
        for prefix, hops in c.path_overrides.items():
            unknown = [h for h in hops if h not in wmr_ids]
            if unknown:
                _fail(doc, f"controller {c.id}: override {prefix} names non-wmr {unknown}")

    hosts_by_id = {}
    for h in s.hosts:
        if h.attach not in wmr_ids:
            _fail(doc, f"host {h.id}: attach target {h.attach!r} is not a wmr")
        wmr = next(w for w in s.wmrs if w.id == h.attach)
        if not any(h.addr in net.subnet for net in wmr.access):
            _fail(
                doc,
                f"host {h.id}: addr {h.addr} not in any access subnet of {h.attach}",
            )
        claim(h.addr, f"host {h.id}")
        hosts_by_id[h.id] = h

    seen_links: set[tuple[str, str]] = set()
    for i, link in enumerate(s.links):
        where = f"links[{i}]"
        if link.a not in wmr_ids or link.b not in wmr_ids:
            _fail(doc, f"{where}: mesh links must join two wmrs ({link.a}, {link.b})")
        if link.a == link.b:
            _fail(doc, f"{where}: self-link on {link.a}")
        key = tuple(sorted((link.a, link.b)))
        if key in seen_links:
            _fail(doc, f"{where}: duplicate link {key}")
        seen_links.add(key)
        if link.capacity_mbps <= 0:
            _fail(doc, f"{where}: capacity must be positive")
        if link.delay_ms < 0:
            _fail(doc, f"{where}: delay must be >= 0")
    if s.attach_link.capacity_mbps <= 0:
        _fail(doc, "defaults.attach_link: capacity must be positive")
    if s.attach_link.delay_ms < 0:
        _fail(doc, "defaults.attach_link: delay must be >= 0")

    flow_ids = {f.id for f in s.flows}
    for i, p in enumerate(s.pings):
        if p.src not in ids:
            _fail(doc, f"ping {p.id}: unknown src {p.src!r}")
        if p.src not in hosts_by_id:
            _fail(doc, f"ping {p.id}: src {p.src!r} is not a host")
        if p.interval_s <= 0:
            _fail(doc, f"pings[{i}]: interval_s must be positive")
        if p.start_s < 0:
            _fail(doc, f"pings[{i}]: start_s must be >= 0")
    for i, f in enumerate(s.flows):
        if f.src not in hosts_by_id:
            _fail(doc, f"flow {f.id}: src {f.src!r} is not a host")
        if f.demand_mbps is not None and f.demand_mbps <= 0:
            _fail(doc, f"flows[{i}]: demand_mbps must be positive")
        if f.loss_recovery_s < 0:
            _fail(doc, f"flows[{i}]: loss_recovery_s must be >= 0")
        if f.start_s < 0:
            _fail(doc, f"flows[{i}]: start_s must be >= 0")
        if f.stop_s is not None and f.stop_s <= f.start_s:
            _fail(doc, f"flows[{i}]: stop_s must be after start_s")

    last_at = 0.0
    for i, ev in enumerate(s.events):
        where = f"events[{i}]"
        if ev.at_s < 0 or ev.at_s > s.duration_s:
            _fail(doc, f"{where}: at_s {ev.at_s} outside [0, {s.duration_s}]")
        if ev.at_s < last_at:
            _fail(doc, f"{where}: events must be time-ordered")
        last_at = ev.at_s
        if ev.action in ("link-up", "link-down"):
            if ev.link is None:
                _fail(doc, f"{where}: {ev.action} needs a link")
            key = tuple(sorted(ev.link))
            if key not in seen_links:
                _fail(doc, f"{where}: unknown link {ev.link}")
        elif ev.action in ("start-flow", "stop-flow"):
            if ev.flow is None or ev.flow not in flow_ids:
                _fail(doc, f"{where}: unknown flow {ev.flow!r}")
        else:
            _fail(doc, f"{where}: unknown action {ev.action!r}")

    if s.measure is not None:
        m = s.measure
        if m.kind not in ("merge", "partition"):
            _fail(doc, f"measure.kind must be merge or partition, got {m.kind!r}")
        for w in m.wmrs:
            if w not in wmr_ids:
                _fail(doc, f"measure: unknown wmr {w!r}")
        if m.probe is not None and m.probe not in {p.id for p in s.pings}:
            _fail(doc, f"measure: unknown probe {m.probe!r}")
        if m.flow is not None and m.flow not in flow_ids:
            _fail(doc, f"measure: unknown flow {m.flow!r}")
