"""The scenario reader's table, pinned: what each record reads from a document.

For every record a scenario document is read into, the table gives each
document key with the field it fills and the reader it goes through, the keys
that must be given, and the value each other field takes when its key is
omitted.  The literal below was taken from the reader before its records
stopped being dataclasses, so a change in how the records are declared
cannot quietly change what a document means.  Since then, each timer, time,
delay and rate reads as its unit (``Seconds``, ``Period``, ``Millis`` or
``Mbps``) and each event action and measure kind as one of its choices.
"""
from functools import partial
from ipaddress import IPv4Address, IPv4Network

import pytest

from meshsdn import scenario as sc
from meshsdn.controller import ControllerConfig
from meshsdn.eftm import EftmConfig
from meshsdn.olsr import OlsrConfig
from meshsdn.switch import SwitchConfig
from meshsdn.traffic import FlowSpec, PingSpec

RECORDS = {
    cls.__name__: cls
    for cls in (
        sc.Scenario,
        OlsrConfig,
        EftmConfig,
        ControllerConfig,
        SwitchConfig,
        sc.Defaults,
        sc.LinkDefaults,
        sc.WmrSpec,
        sc.AccessNetSpec,
        sc.ControllerSpec,
        sc.PathOverride,
        sc.HostSpec,
        sc.LinkSpec,
        PingSpec,
        FlowSpec,
        sc.EventSpec,
        sc.MeasureSpec,
    )
}

OLSR = {
    "hello_interval_s": 5.0,
    "hellos_to_up": 3,
    "hello_loss_intervals_to_down": 3,
    "tc_interval_s": 5.0,
    "jitter": 0.1,
    "randomize_phase": True,
}
EFTM = {
    "poll_period_s": 3.0,
    "connect_timeout_s": 2.0,
    "keepalive_interval_s": 1.0,
    "controller_range": "10.0.255.0/24",
    "hysteresis_hold_s": 0.0,
    "emergency_policy": "control-only",
    "selective_prefixes": [],
    "priority_override": None,
    "randomize_phase": True,
}
CONTROLLER = {
    "flush_on_connect": True,
    "rule_idle_timeout_s": 30.0,
    "rule_priority": 100,
    "refresh_interval_s": 5.0,
    "unknown_dst_hard_timeout_s": 5.0,
    "switch_timeout_s": 5.0,
}
SWITCH = {"buffer_timeout_s": 1.0, "sweep_interval_s": 1.0}
DEFAULTS = {
    "mesh_link": {"capacity_mbps": 10.0, "delay_ms": 2.0},
    "attach_link": {"capacity_mbps": 100.0, "delay_ms": 0.5},
}


def same(**readers):
    """Keys that fill the field of their own name."""
    return {key: (key, read) for key, read in readers.items()}


# Per record: (key -> (field, reader), required keys, field -> default).
SCHEMA = {
    "Scenario": (
        same(
            name="str",
            duration_s="Period",
            control_subnet="IPv4Network",
            olsr="OlsrConfig or its default",
            eftm="EftmConfig or its default",
            controller="ControllerConfig or its default",
            switch="SwitchConfig or its default",
            defaults="Defaults or its default",
            wmrs="list of WmrSpec",
            controllers="list of ControllerSpec",
            hosts="list of HostSpec",
            links="list of LinkSpec",
            pings="list of PingSpec",
            flows="list of FlowSpec",
            events="list of EventSpec",
            measure="MeasureSpec or null",
        ),
        ["duration_s", "name"],
        {
            "control_subnet": "10.0.0.0/16",
            "olsr": OLSR,
            "eftm": EFTM,
            "controller": CONTROLLER,
            "switch": SWITCH,
            "defaults": DEFAULTS,
            "wmrs": [],
            "controllers": [],
            "hosts": [],
            "links": [],
            "pings": [],
            "flows": [],
            "events": [],
            "measure": None,
        },
    ),
    "OlsrConfig": (
        same(
            hello_interval_s="Period",
            hellos_to_up="int",
            hello_loss_intervals_to_down="int",
            tc_interval_s="Period",
            jitter="float",
            randomize_phase="bool",
        ),
        [],
        OLSR,
    ),
    "EftmConfig": (
        same(
            poll_period_s="Period",
            connect_timeout_s="Period",
            keepalive_interval_s="Period",
            controller_range="IPv4Network",
            hysteresis_hold_s="Seconds",
            emergency_policy="one of control-only|allow-all|selective",
            selective_prefixes="list of IPv4Network",
            priority_override="list of IPv4Address or null",
            randomize_phase="bool",
        ),
        [],
        EFTM,
    ),
    "ControllerConfig": (
        same(
            flush_on_connect="bool",
            rule_idle_timeout_s="Seconds",
            rule_priority="int",
            refresh_interval_s="Period",
            unknown_dst_hard_timeout_s="Seconds",
            switch_timeout_s="Seconds",
        ),
        [],
        CONTROLLER,
    ),
    "SwitchConfig": (same(buffer_timeout_s="Seconds", sweep_interval_s="Period"), [], SWITCH),
    "Defaults": (
        same(mesh_link="LinkDefaults or its default", attach_link="LinkDefaults or its default"),
        [],
        DEFAULTS,
    ),
    "LinkDefaults": (
        same(capacity_mbps="Mbps", delay_ms="Millis"),
        [],
        {"capacity_mbps": 10.0, "delay_ms": 2.0},
    ),
    "WmrSpec": (
        same(id="str", mesh_addr="IPv4Address", access="list of AccessNetSpec", gateway="bool"),
        ["id", "mesh_addr"],
        {"access": [], "gateway": False},
    ),
    "AccessNetSpec": (same(subnet="IPv4Network", addr="IPv4Address"), ["addr", "subnet"], {}),
    "ControllerSpec": (
        same(id="str", addr="IPv4Address", attach="str", path_overrides="_path_overrides"),
        ["addr", "attach", "id"],
        {"path_overrides": {}},
    ),
    "PathOverride": (same(dst="IPv4Network", path="list of str"), ["dst", "path"], {}),
    "HostSpec": (same(id="str", addr="IPv4Address", attach="str"), ["addr", "attach", "id"], {}),
    "LinkSpec": (
        {
            **same(a="str", b="str", capacity_mbps="Mbps", delay_ms="Millis"),
            "initial": ("initial_up", "_up_or_down"),
        },
        ["a", "b", "capacity_mbps", "delay_ms"],
        {"initial_up": True},
    ),
    "PingSpec": (
        same(id="str", src="str", dst="IPv4Address", interval_s="Period", start_s="Seconds"),
        ["dst", "id", "src"],
        {"interval_s": 1.0, "start_s": 0.0},
    ),
    "FlowSpec": (
        same(
            id="str",
            src="str",
            dst="IPv4Address",
            demand_mbps="Mbps or null",
            start_s="Seconds",
            stop_s="Seconds or null",
            loss_recovery_s="Seconds",
        ),
        ["dst", "id", "src"],
        {"demand_mbps": None, "start_s": 0.0, "stop_s": None, "loss_recovery_s": 1.0},
    ),
    "EventSpec": (
        same(
            at_s="Seconds",
            action="one of link-up|link-down|start-flow|stop-flow",
            link="_wmr_pair or null",
            flow="str or null",
        ),
        ["action", "at_s"],
        {"link": None, "flow": None},
    ),
    "MeasureSpec": (
        same(
            kind="one of merge|partition",
            event_at_s="Seconds",
            wmrs="list of str",
            probe="str or null",
            flow="str or null",
        ),
        ["event_at_s", "kind"],
        {"wmrs": [], "probe": None, "flow": None},
    ),
}

SCALARS = {read: getattr(hint, "__name__", hint) for hint, read in sc._SCALARS.items()}
# A value of each reader a required key goes through, to build the record.
REQUIRED_SAMPLES = {
    "float": 1.0,
    "str": "x",
    "IPv4Address": "10.0.0.1",
    "IPv4Network": "10.0.0.0/24",
    "list of str": [],
    "Period": 1.0,
    "Seconds": 1.0,
    "Mbps": 1.0,
    "Millis": 1.0,
    "one of link-up|link-down|start-flow|stop-flow": "link-up",
    "one of merge|partition": "merge",
}


def describe(read):
    """A reader, named by what it reads."""
    if read in SCALARS:
        return SCALARS[read]
    if isinstance(read, partial):
        name, args = read.func.__name__, read.args
        if name == "_read":
            return args[0].__name__
        if name == "_nested":
            return f"{args[0].__name__} or its default"
        if name == "_one_of":
            return "one of " + "|".join(args[0])
    cells = dict(zip(read.__code__.co_freevars, (c.cell_contents for c in read.__closure__ or ())))
    if "read_list" in read.__qualname__:
        return f"list of {describe(cells['read'])}"
    if "<lambda>" in read.__qualname__:
        return f"{describe(cells['read'])} or null"
    return read.__name__


def plain(value):
    """``value`` as literals: a record as a dict of its fields, a sequence as
    a list (an omitted list key reads as an empty sequence either way)."""
    if type(value).__module__.startswith("meshsdn"):
        readers, _ = sc._schema(type(value))
        return {name: plain(getattr(value, name)) for name, _ in readers.values()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {plain(k): plain(v) for k, v in value.items()}
    if isinstance(value, (IPv4Address, IPv4Network)):
        return str(value)
    return value


def reader_table(cls):
    readers, required = sc._schema(cls)
    keys = {key: (name, describe(read)) for key, (name, read) in readers.items()}
    given = {key: REQUIRED_SAMPLES[keys[key][1]] for key, _ in required}
    record = (
        sc.scenario_from_mapping(given, source="t")
        if cls is sc.Scenario
        else sc._read(cls, given, "t")
    )
    omitted = [name for name, _ in readers.values() if name not in {n for _, n in required}]
    return keys, sorted(given), {name: plain(getattr(record, name)) for name in omitted}


def test_every_record_is_pinned():
    assert set(SCHEMA) == set(RECORDS)


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_reader_table_matches_snapshot(name):
    keys, required, defaults = reader_table(RECORDS[name])
    expected_keys, expected_required, expected_defaults = SCHEMA[name]
    assert keys == expected_keys
    assert list(keys) == list(expected_keys)  # the order keys are read in
    assert required == expected_required
    assert defaults == expected_defaults
