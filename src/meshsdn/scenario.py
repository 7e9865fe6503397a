"""Scenario files: the declarative description of one simulated experiment.

A scenario is a YAML document naming the routers, controllers, hosts, links,
traffic, timed events, and which measurement the run should report.  Loading
is strict: every key is read as the type its record declares, and unknown or
missing keys, dangling references, addresses outside their designated
subnets, and out-of-order events are all rejected with the offending location
in the message.
"""
from __future__ import annotations

import builtins
import math
import sys
import types
from functools import partial
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Literal,
    Mapping,
    NamedTuple,
    NoReturn,
    Union,
    get_args,
    get_origin,
)

from .controller import ControllerConfig
from .eftm import EftmConfig
from .engine import US_PER_S, Mbps, Millis, Period, Seconds
from .olsr import OlsrConfig
from .switch import SwitchConfig
from .traffic import FlowSpec, PingSpec


class ScenarioError(ValueError):
    """A scenario file that cannot be run as written."""


class LinkDefaults(NamedTuple):
    capacity_mbps: Mbps = 10.0
    delay_ms: Millis = 2.0


class Defaults(NamedTuple):
    """What a mesh link leaves out, and what every attach link has."""

    mesh_link: LinkDefaults = LinkDefaults()
    attach_link: LinkDefaults = LinkDefaults(100.0, 0.5)


class AccessNetSpec(NamedTuple):
    subnet: IPv4Network
    addr: IPv4Address


class WmrSpec(NamedTuple):
    id: str
    mesh_addr: IPv4Address
    access: list[AccessNetSpec] = ()
    gateway: bool = False


class PathOverride(NamedTuple):
    dst: IPv4Network
    path: list[str]


class ControllerSpec(NamedTuple):
    id: str
    addr: IPv4Address
    attach: str
    path_overrides: Mapping[IPv4Network, list[str]] = types.MappingProxyType({})


class HostSpec(NamedTuple):
    id: str
    addr: IPv4Address
    attach: str


class LinkSpec(NamedTuple):
    a: str
    b: str
    capacity_mbps: Mbps  # when omitted, from defaults.mesh_link
    delay_ms: Millis  # likewise
    initial_up: bool = True


class EventSpec(NamedTuple):
    at_s: Seconds
    action: Literal["link-up", "link-down", "start-flow", "stop-flow"]
    link: tuple[str, str] | None = None
    flow: str | None = None


class MeasureSpec(NamedTuple):
    kind: Literal["merge", "partition"]
    event_at_s: Seconds
    wmrs: list[str] = ()
    probe: str | None = None
    flow: str | None = None


class Scenario(NamedTuple):
    name: str
    duration_s: Period
    control_subnet: IPv4Network = IPv4Network("10.0.0.0/16")
    olsr: OlsrConfig = OlsrConfig()
    eftm: EftmConfig = EftmConfig()
    controller: ControllerConfig = ControllerConfig()
    switch: SwitchConfig = SwitchConfig()
    defaults: Defaults = Defaults()
    wmrs: list[WmrSpec] = ()
    controllers: list[ControllerSpec] = ()
    hosts: list[HostSpec] = ()
    links: list[LinkSpec] = ()
    pings: list[PingSpec] = ()
    flows: list[FlowSpec] = ()
    events: list[EventSpec] = ()
    measure: MeasureSpec | None = None


# -- reading -----------------------------------------------------------------

Reader = Callable[[Any, str], Any]  # (raw value, its path) -> the typed value


def _fail(path: str, message: str) -> NoReturn:
    raise ScenarioError(f"{path}: {message}")


def _expect_map(raw: Any, path: str) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected a mapping, got {type(raw).__name__}")
    return raw


def _list_of(read: Reader) -> Reader:
    """The reader of a list of what ``read`` reads; null reads as empty."""

    def read_list(raw: Any, path: str) -> list:
        if raw is None:
            return []
        if not isinstance(raw, (list, tuple)):
            _fail(path, f"expected a list, got {type(raw).__name__}")
        return [read(x, f"{path}[{i}]") for i, x in enumerate(raw)]

    return read_list


def _number(raw: Any, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, f"expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {raw!r}")
    return value


def _integer(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(path, f"expected an integer, got {raw!r}")
    return raw


def _flag(raw: Any, path: str) -> bool:
    if not isinstance(raw, bool):
        _fail(path, f"expected true or false, got {raw!r}")
    return raw


def _name(raw: Any, path: str) -> str:
    """A string; an integer, as YAML reads ``id: 7``, becomes its digits."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        _fail(path, f"expected a string, got {raw!r}")
    return str(raw)


def _address(kind: type, noun: str) -> Reader:
    def read(raw: Any, path: str) -> Any:
        if isinstance(raw, kind):  # a node's address, where dst names the node
            return raw
        try:
            return kind(str(raw))
        except ValueError as exc:
            _fail(path, f"bad {noun} {raw!r}: {exc}")

    return read


def _wmr_pair(raw: Any, path: str) -> tuple[str, str]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        _fail(path, f"expected a list of two wmr ids, got {raw!r}")
    return _name(raw[0], f"{path}[0]"), _name(raw[1], f"{path}[1]")


def _one_of(choices: tuple, raw: Any, path: str) -> Any:
    if raw not in choices:
        _fail(path, f"expected one of {', '.join(map(repr, choices))}, got {raw!r}")
    return raw


def _unit(scale: int, positive: bool, whole: str = "") -> Reader:
    """The reader of a number in a unit of ``scale`` base units (us or
    bit/s): positive, or else >= 0; finite once converted; and, if
    ``whole`` names the base unit, at least one of it once rounded, so that
    a timer does not fire at one instant forever and a link does not build
    with no capacity."""

    def read_unit(raw: Any, path: str) -> float:
        value = _number(raw, path)
        if value < 0 or positive and value == 0:
            _fail(path, f"must be {'positive' if positive else '>= 0'}, got {raw!r}")
        if math.isinf(value * scale):
            _fail(path, f"too large, got {raw!r}")
        if whole and round(value * scale) < 1:
            _fail(path, f"must be at least 1 {whole}, got {raw!r}")
        return value

    return read_unit


_SCALARS: dict[Any, Reader] = {
    float: _number,
    Seconds: _unit(US_PER_S, positive=False),
    Period: _unit(US_PER_S, positive=True, whole="us"),
    Millis: _unit(1000, positive=False),
    Mbps: _unit(1_000_000, positive=True, whole="bit/s"),
    int: _integer,
    bool: _flag,
    str: _name,
    IPv4Address: _address(IPv4Address, "address"),
    IPv4Network: _address(IPv4Network, "network"),
}


def _reader(hint: Any) -> Reader:
    """The reader of values declared as ``hint``."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if hasattr(hint, "_fields"):  # a record
        return partial(_read, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is list:
        return _list_of(_reader(args[0]))
    if origin is tuple:  # an event's link
        return _wmr_pair
    if origin is Literal:
        return partial(_one_of, args)
    if origin in (Union, types.UnionType) and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        read = _reader(inner)
        return lambda raw, path: None if raw is None else read(raw, path)
    raise TypeError(f"no reader for {hint!r}")


# Per record class: per document key, its field's name and reader; and the
# (key, field name) pairs that must be given.  Built on a class's first read.
Schema = tuple[dict[str, tuple[str, Reader]], tuple[tuple[str, str], ...]]
_SCHEMAS: dict[type, Schema] = {}


def _up_or_down(raw: Any, path: str) -> bool:
    initial = str(raw).lower()
    if initial not in ("up", "down"):
        _fail(path, f"initial must be up or down, got {initial!r}")
    return initial == "up"


def _path_overrides(raw: Any, path: str) -> dict[IPv4Network, list[str]]:
    return {o.dst: o.path for o in _list_of(partial(_read, PathOverride))(raw, path)}


# The fields written otherwise than their name and type: per record class,
# field name -> (document key, reader).
_WRITTEN_OTHERWISE: dict[type, dict[str, tuple[str, Reader]]] = {
    LinkSpec: {"initial_up": ("initial", _up_or_down)},  # initial: up|down
    # A list of {dst, path} entries.
    ControllerSpec: {"path_overrides": ("path_overrides", _path_overrides)},
}


def _hint(annotation: Any, scope: dict[str, Any]) -> Any:
    """The type a string annotation, which a named tuple keeps as a
    ``ForwardRef``, names in its class's module ``scope``; most are plain
    names, which need no ``eval``."""
    annotation = getattr(annotation, "__forward_arg__", annotation)
    if annotation.isidentifier():
        return scope[annotation] if annotation in scope else getattr(builtins, annotation)
    return eval(annotation, scope)


def _schema(cls: type) -> Schema:
    """The schema of record ``cls``, from its fields, their defaults and
    their annotations."""
    scope = vars(sys.modules[cls.__module__])
    defaults, otherwise = cls._field_defaults, _WRITTEN_OTHERWISE.get(cls, {})
    readers, required = {}, []
    for name in cls._fields:
        if name in otherwise:
            key, read = otherwise[name]
        else:
            key, hint = name, _hint(cls.__annotations__[name], scope)
            read = _reader(hint)
            if hasattr(hint, "_fields") and name in defaults:
                read = partial(_nested, hint, defaults[name])
        if name not in defaults:
            required.append((key, name))
        readers[key] = (name, read)
    _SCHEMAS[cls] = readers, tuple(required)
    return _SCHEMAS[cls]


def _nested(cls: type, default: Any, raw: Any, path: str) -> Any:
    """A nested record with a default: null reads as the default, and each
    key the mapping omits takes the default's value."""
    return default if raw is None else _read(cls, raw, path, default._asdict())


def _values(cls: type, raw: Any, path: str, base: dict[str, Any] | None = None) -> dict[str, Any]:
    """The constructor arguments of record ``cls`` the mapping ``raw`` gives,
    each read as its declared type; a key ``raw`` omits takes its value from
    ``base`` if it has one, or else is left to the field's default."""
    raw = _expect_map(raw, path)
    readers, required = _SCHEMAS.get(cls) or _schema(cls)
    unknown = raw.keys() - readers.keys()
    if unknown:
        _fail(path, f"unknown keys: {', '.join(sorted(map(str, unknown)))}")
    for key, name in required:
        if key not in raw and (base is None or name not in base):
            _fail(path, f"missing required key {key!r}")
    values = dict(base) if base else {}
    for key, value in raw.items():
        name, read = readers[key]
        values[name] = read(value, f"{path}.{key}")
    return values


def _read(cls: type, raw: Any, path: str, base: dict[str, Any] | None = None) -> Any:
    """Record ``cls`` built from the mapping ``raw`` (see :func:`_values`);
    a value the record's ``check`` method, if it has one, refuses is an
    error at ``path``."""
    record = cls(**_values(cls, raw, path, base))
    check = getattr(cls, "check", None)
    if check is not None:
        try:
            check(record)
        except ValueError as exc:
            _fail(path, str(exc))
    return record


def scenario_from_mapping(doc: Any, source: str = "scenario") -> Scenario:
    doc = _expect_map(doc, source)
    if "name" not in doc or "duration_s" not in doc:
        _fail(source, "name and duration_s are required")
    # These lists are read once the rest is: a mesh link takes the fields it
    # omits from the mesh-link defaults, and a ping's or flow's dst may name
    # a node.
    late = {"links": LinkSpec, "pings": PingSpec, "flows": FlowSpec}
    values = _values(Scenario, {k: v for k, v in doc.items() if k not in late}, source)
    mesh_link = values.get("defaults", Defaults()).mesh_link._asdict()
    address_of = {w.id: w.mesh_addr for w in values.get("wmrs", ())}
    for node in [*values.get("controllers", ()), *values.get("hosts", ())]:
        address_of[node.id] = node.addr

    def read_late(cls: type, raw: Any, path: str) -> Any:
        if isinstance(raw, dict) and "dst" in raw and str(raw["dst"]) in address_of:
            raw = {**raw, "dst": address_of[str(raw["dst"])]}
        return _read(cls, raw, path, mesh_link if cls is LinkSpec else None)

    for key, cls in late.items():
        values[key] = _list_of(partial(read_late, cls))(doc.get(key), f"{source}.{key}")
    scenario = Scenario(**values)
    validate_scenario(scenario, source)
    return scenario


def parse_yaml(text: str, source: str) -> Any:
    """The document ``text`` holds; a ScenarioError naming ``source`` if it is
    not YAML.  PyYAML is imported here, not at module level: a scenario built
    from a mapping never needs it, and it is a large share of import time."""
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None and exc.problem:
            detail = f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
        else:
            detail = str(exc).splitlines()[0]
        raise ScenarioError(f"{source}: not valid YAML: {detail}") from None


def read_text(path: Any, source: str) -> str:
    """The UTF-8 text of the file at ``path``, a ``Path`` or a package
    resource; a ScenarioError naming ``source`` if it cannot be read or is
    not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        detail = f"{exc.reason} at byte {exc.start}"
        raise ScenarioError(f"{source}: not UTF-8 text: {detail}") from None
    except OSError as exc:
        raise ScenarioError(f"{source}: cannot read: {exc.strerror or exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    source = str(path)
    return scenario_from_mapping(parse_yaml(read_text(Path(path), source), source), source=source)


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


def validate_scenario(s: Scenario, source: str) -> None:
    """Check the cross-references and the rules between fields, which
    reading each value as its declared type cannot; errors start with
    ``source``.

    A path override must end at a router that announces its prefix, but not
    at the one the controller resolves it to now.  Where two gateways both
    announce ``0.0.0.0/0``, the controller takes the first live announcer
    its attach router lists, so an override ending at the other gateway is
    used once the first one's entry has expired there, as when that gateway
    is cut off.  Such an override is a fallback route, and it is accepted.
    """

    def unique(what: str, names: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        for name in names:
            if name in seen:
                _fail(source, f"duplicate {what} id {name!r}")
            seen.add(name)
        return seen

    ids = unique("node", (n.id for n in (*s.wmrs, *s.controllers, *s.hosts)))
    wmr_ids = {w.id for w in s.wmrs}
    if not s.eftm.controller_range.subnet_of(s.control_subnet):
        _fail(source, "eftm.controller_range must lie inside control_subnet")

    addresses: set[IPv4Address] = set()

    def claim(addr: IPv4Address, owner: str) -> None:
        if addr in addresses:
            _fail(source, f"{owner}: address {addr} is already assigned")
        addresses.add(addr)

    for w in s.wmrs:
        if w.mesh_addr not in s.control_subnet:
            _fail(source, f"wmr {w.id}: mesh_addr {w.mesh_addr} outside control subnet")
        if w.mesh_addr in s.eftm.controller_range:
            _fail(source, f"wmr {w.id}: mesh_addr {w.mesh_addr} inside controller range")
        claim(w.mesh_addr, f"wmr {w.id}")
        for net in w.access:
            if net.subnet.overlaps(s.control_subnet):
                _fail(source, f"wmr {w.id}: access subnet {net.subnet} overlaps control subnet")
            if net.addr not in net.subnet:
                _fail(source, f"wmr {w.id}: access addr {net.addr} outside {net.subnet}")
            claim(net.addr, f"wmr {w.id}")

    mesh_links = {frozenset((link.a, link.b)) for link in s.links}
    for c in s.controllers:
        if c.addr not in s.eftm.controller_range:
            _fail(source, f"controller {c.id}: addr {c.addr} outside controller range")
        claim(c.addr, f"controller {c.id}")
        if c.attach not in wmr_ids:
            _fail(source, f"controller {c.id}: attach target {c.attach!r} is not a wmr")
        # The controller installs an override as given, one rule per router
        # forwarding to the next: it must be a walk over mesh links that
        # visits each router once.  It takes one only for a path to the
        # router announcing the prefix, as an access subnet or, at a gateway,
        # as the default route (the only /0), so the walk must end there.
        for prefix, hops in c.path_overrides.items():
            where = f"controller {c.id}: override {prefix}"
            unknown = [h for h in hops if h not in wmr_ids]
            if unknown:
                _fail(source, f"{where} names non-wmr {unknown}")
            if not hops:
                _fail(source, f"{where} has an empty path")
            for i, hop in enumerate(hops):
                if hop in hops[:i]:
                    _fail(source, f"{where} names {hop} twice")
            for a, b in zip(hops, hops[1:]):
                if frozenset((a, b)) not in mesh_links:
                    _fail(source, f"{where} has no mesh link from {a} to {b}")
            end = next(w for w in s.wmrs if w.id == hops[-1])
            default = end.gateway and prefix.prefixlen == 0
            if not default and all(net.subnet != prefix for net in end.access):
                _fail(source, f"{where} ends at {end.id}, which does not announce it")

    hosts_by_id = {}
    for h in s.hosts:
        if h.attach not in wmr_ids:
            _fail(source, f"host {h.id}: attach target {h.attach!r} is not a wmr")
        wmr = next(w for w in s.wmrs if w.id == h.attach)
        if not any(h.addr in net.subnet for net in wmr.access):
            _fail(
                source,
                f"host {h.id}: addr {h.addr} not in any access subnet of {h.attach}",
            )
        claim(h.addr, f"host {h.id}")
        hosts_by_id[h.id] = h

    seen_links: set[tuple[str, str]] = set()
    for i, link in enumerate(s.links):
        where = f"links[{i}]"
        if link.a not in wmr_ids or link.b not in wmr_ids:
            _fail(source, f"{where}: mesh links must join two wmrs ({link.a}, {link.b})")
        if link.a == link.b:
            _fail(source, f"{where}: self-link on {link.a}")
        key = tuple(sorted((link.a, link.b)))
        if key in seen_links:
            _fail(source, f"{where}: duplicate link {key}")
        seen_links.add(key)

    ping_ids = unique("ping", (p.id for p in s.pings))
    flow_ids = unique("flow", (f.id for f in s.flows))
    for p in s.pings:
        if p.src not in ids:
            _fail(source, f"ping {p.id}: unknown src {p.src!r}")
        if p.src not in hosts_by_id:
            _fail(source, f"ping {p.id}: src {p.src!r} is not a host")
    for i, f in enumerate(s.flows):
        if f.src not in hosts_by_id:
            _fail(source, f"flow {f.id}: src {f.src!r} is not a host")
        # A flow to its own source would cross the attach link twice and
        # take capacity from the flows that really use it.
        if f.dst == hosts_by_id[f.src].addr:
            _fail(source, f"flow {f.id}: dst {f.dst} is the address of its src {f.src!r}")
        # The fluid model follows flow-table rules only, and traffic to the
        # control subnet is routed, never given one: such a flow would carry
        # nothing for its whole life.
        if f.dst in s.control_subnet:
            _fail(source, f"flow {f.id}: dst {f.dst} lies inside control_subnet {s.control_subnet}")
        if f.stop_s is not None and f.stop_s <= f.start_s:
            _fail(source, f"flows[{i}]: stop_s must be after start_s")

    last_at = 0.0
    for i, ev in enumerate(s.events):
        where = f"events[{i}]"
        if ev.at_s > s.duration_s:
            _fail(source, f"{where}: at_s {ev.at_s} outside [0, {s.duration_s}]")
        if ev.at_s < last_at:
            _fail(source, f"{where}: events must be time-ordered")
        last_at = ev.at_s
        if ev.action in ("link-up", "link-down"):
            if ev.link is None:
                _fail(source, f"{where}: {ev.action} needs a link")
            key = tuple(sorted(ev.link))
            if key not in seen_links:
                _fail(source, f"{where}: unknown link {ev.link}")
        elif ev.flow not in flow_ids:  # start-flow or stop-flow
            _fail(source, f"{where}: unknown flow {ev.flow!r}")

    if s.measure is not None:
        m = s.measure
        if m.event_at_s > s.duration_s:
            _fail(source, f"measure: event_at_s {m.event_at_s} outside [0, {s.duration_s}]")
        for w in m.wmrs:
            if w not in wmr_ids:
                _fail(source, f"measure: unknown wmr {w!r}")
        if m.probe is not None and m.probe not in ping_ids:
            _fail(source, f"measure: unknown probe {m.probe!r}")
        if m.flow is not None and m.flow not in flow_ids:
            _fail(source, f"measure: unknown flow {m.flow!r}")
