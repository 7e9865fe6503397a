"""Scenario parsing and validation: shipped files, overrides, rejections."""
import copy
import json
from ipaddress import IPv4Address, IPv4Network
import os
import subprocess
import sys
import types
from pathlib import Path
from typing import Union, get_args, get_origin

import pytest

import meshsdn
from meshsdn.engine import Mbps, Millis, Period, Seconds
from meshsdn.scenario import (
    Scenario,
    ScenarioError,
    _hint,
    _schema,
    apply_overrides,
    load_scenario,
    scenario_from_mapping,
)

from support import builtin_doc


def valid_doc():
    return copy.deepcopy(
        {
            "name": "tiny",
            "duration_s": 30.0,
            "wmrs": [
                {
                    "id": "wmr1",
                    "mesh_addr": "10.0.0.1",
                    "access": [{"subnet": "192.168.1.0/24", "addr": "192.168.1.1"}],
                },
                {"id": "wmr2", "mesh_addr": "10.0.0.2"},
            ],
            "controllers": [{"id": "ctrl1", "addr": "10.0.255.1", "attach": "wmr2"}],
            "hosts": [{"id": "h1", "addr": "192.168.1.10", "attach": "wmr1"}],
            "links": [{"a": "wmr1", "b": "wmr2"}],
            "pings": [{"id": "ping1", "src": "h1", "dst": "ctrl1"}],
            "flows": [{"id": "flow1", "src": "h1", "dst": "10.0.0.2", "start_s": 5.0}],
            "events": [
                {"at_s": 10.0, "action": "link-down", "link": ["wmr1", "wmr2"]},
                {"at_s": 20.0, "action": "link-up", "link": ["wmr2", "wmr1"]},
            ],
            "measure": {
                "kind": "merge",
                "event_at_s": 20.0,
                "wmrs": ["wmr1"],
                "probe": "ping1",
            },
        }
    )


def test_valid_doc_parses_and_resolves_names():
    s = scenario_from_mapping(valid_doc(), source="t")
    assert s.name == "tiny"
    assert str(s.pings[0].dst) == "10.0.255.1"  # controller id resolved
    assert str(s.flows[0].dst) == "10.0.0.2"
    assert s.links[0].capacity_mbps == 10.0  # mesh link default
    assert s.measure.kind == "merge"


def test_keys_written_otherwise_than_their_fields():
    doc = valid_doc()
    doc["defaults"] = {"mesh_link": {"delay_ms": 5.0}, "attach_link": {"capacity_mbps": 50.0}}
    doc["links"][0]["initial"] = "down"
    doc["controllers"][0]["path_overrides"] = [{"dst": "192.168.1.0/24", "path": ["wmr2", "wmr1"]}]
    doc["flows"][0]["dst"] = "h1"
    s = scenario_from_mapping(doc, source="t")
    # Omitted link fields come from the defaults that apply to the link.
    assert (s.links[0].capacity_mbps, s.links[0].delay_ms) == (10.0, 5.0)
    assert (s.defaults.attach_link.capacity_mbps, s.defaults.attach_link.delay_ms) == (50.0, 0.5)
    assert s.links[0].initial_up is False
    assert s.controllers[0].path_overrides == {IPv4Network("192.168.1.0/24"): ["wmr2", "wmr1"]}
    assert s.flows[0].dst == IPv4Address("192.168.1.10")  # a node's name reads as its address


def test_shipped_scenarios_validate():
    merge = scenario_from_mapping(builtin_doc("merge"), source="merge")
    partition = scenario_from_mapping(builtin_doc("partition"), source="partition")
    assert (merge.duration_s, partition.duration_s) == (90.0, 150.0)
    assert merge.measure.kind == "merge" and partition.measure.kind == "partition"
    assert partition.flows[0].stop_s == 145.0


def test_load_scenario_reads_yaml_and_reports_syntax(tmp_path):
    good = tmp_path / "good.yaml"
    good.write_text("name: t\nduration_s: 5.0\n")
    assert load_scenario(good).duration_s == 5.0
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(bad)


def test_load_scenario_reports_a_file_it_cannot_read(tmp_path):
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(b"name: t\xff\nduration_s: 5.0\n")
    with pytest.raises(ScenarioError, match=r"\.yaml: not UTF-8 text: invalid start byte at byte 7$"):
        load_scenario(latin1)
    with pytest.raises(ScenarioError, match=r": cannot read: Is a directory$"):
        load_scenario(tmp_path)


# Run in a fresh interpreter, so that nothing imported by the test session
# counts: the document arrives as JSON in argv[1], a YAML file's path in argv[2].
# Nor may the run load dataclasses or inspect: importing them and decorating
# records with them once took a third of meshsdn's import.
YAML_ON_DEMAND = """
import json, sys
import meshsdn
from meshsdn.scenario import scenario_from_mapping
result = meshsdn.run_scenario(scenario_from_mapping(json.loads(sys.argv[1]), source="inline"), 0)
assert result.log.records, "the run logged nothing"
assert "yaml" not in sys.modules, "a run built from a mapping imported PyYAML"
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, f"a run built from a mapping imported {name}"
assert meshsdn.load_scenario(sys.argv[2]).duration_s == 5.0
assert "yaml" in sys.modules
"""


def test_pyyaml_is_imported_only_to_parse_yaml(tmp_path):
    path = tmp_path / "short.yaml"
    path.write_text("name: t\nduration_s: 5.0\n")
    src = str(Path(meshsdn.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", YAML_ON_DEMAND, json.dumps(valid_doc()), str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def drop_measure(doc):
    del doc["measure"]
    del doc["events"]
    return doc


def _set(path, value):
    def mutate(doc):
        cursor = doc
        for part in path[:-1]:
            cursor = cursor[part]
        cursor[path[-1]] = value
        return doc

    return mutate


def _append(path, item):
    def mutate(doc):
        cursor = doc
        for part in path:
            cursor = cursor[part]
        cursor.append(item)
        return doc

    return mutate


def _del(path):
    def mutate(doc):
        cursor = doc
        for part in path[:-1]:
            cursor = cursor[part]
        del cursor[path[-1]]
        return doc

    return mutate


def _was(old_match, mutate, match):
    """A case whose message has changed, under the id its old ``match`` gave
    it, so that the case keeps its name."""
    return pytest.param(mutate, match, id=f"mutate-{old_match}")


REJECTIONS = [
    (lambda doc: {}, "name and duration_s are required"),
    (lambda doc: "not a mapping", "expected a mapping"),
    (_set(["bogus"], 1), "unknown keys: bogus"),
    _was(
        "duration_s must be positive",
        _set(["duration_s"], 0),
        r"^t\.duration_s: must be positive, got 0$",
    ),
    (_set(["olsr"], {"no_such_knob": 1}), "unknown keys: no_such_knob"),
    (_set(["wmrs", 1, "id"], "wmr1"), "duplicate node id 'wmr1'"),
    (_set(["wmrs", 1, "mesh_addr"], "11.0.0.2"), "outside control subnet"),
    (_set(["wmrs", 1, "mesh_addr"], "10.0.255.9"), "inside controller range"),
    (_set(["wmrs", 1, "mesh_addr"], "10.0.0.1"), "already assigned"),
    (_set(["wmrs", 1, "mesh_addr"], "not-an-ip"), "bad address"),
    (
        _set(["wmrs", 0, "access", 0, "subnet"], "10.0.3.0/24"),
        "overlaps control subnet",
    ),
    (
        _set(["wmrs", 0, "access", 0, "addr"], "192.168.9.1"),
        r"outside 192\.168\.1\.0/24",
    ),
    (_set(["controllers", 0, "addr"], "10.0.1.1"), "outside controller range"),
    (_set(["controllers", 0, "attach"], "h1"), "attach target 'h1' is not a wmr"),
    (_set(["hosts", 0, "addr"], "192.168.2.10"), "not in any access subnet"),
    (_set(["hosts", 0, "attach"], "wmr2"), "not in any access subnet of wmr2"),
    (_set(["links", 0, "b"], "ctrl1"), "must join two wmrs"),
    (_set(["links", 0, "b"], "wmr1"), "self-link"),
    (
        lambda doc: _set(["links"], doc["links"] * 2)(doc),
        "duplicate link",
    ),
    _was(
        "capacity must be positive",
        _set(["links", 0, "capacity_mbps"], 0),
        r"^t\.links\[0\]\.capacity_mbps: must be positive, got 0$",
    ),
    (_set(["links", 0, "initial"], "sideways"), "initial must be up or down"),
    (_set(["events", 0, "at_s"], 99.0), r"outside \[0, 30\.0\]"),
    (_set(["events", 1, "at_s"], 5.0), "must be time-ordered"),
    (
        _set(["events", 0, "link"], ["wmr1", "wmr9"]),
        "unknown link",
    ),
    _was(
        "unknown action 'explode'",
        _set(["events", 0, "action"], "explode"),
        r"^t\.events\[0\]\.action: expected one of 'link-up', 'link-down', 'start-flow',"
        r" 'stop-flow', got 'explode'$",
    ),
    (
        _set(["events", 0], {"at_s": 10.0, "action": "start-flow", "flow": "nope"}),
        "unknown flow 'nope'",
    ),
    (_set(["pings", 0, "src"], "ghost"), "unknown src 'ghost'"),
    (_set(["flows", 0, "src"], "wmr1"), "src 'wmr1' is not a host"),
    # Pings start at hosts, as flows do; a router or controller source used
    # to pass validation and crash the run when the ping fired.
    (_set(["pings", 0, "src"], "wmr1"), r"^t: ping ping1: src 'wmr1' is not a host$"),
    (_set(["pings", 0, "src"], "ctrl1"), r"^t: ping ping1: src 'ctrl1' is not a host$"),
    _was(
        "must be merge or partition",
        _set(["measure", "kind"], "sideways"),
        r"^t\.measure\.kind: expected one of 'merge', 'partition', got 'sideways'$",
    ),
    # The measured event lies inside the run, as every event does.
    (_set(["measure", "event_at_s"], -5), r"^t\.measure\.event_at_s: must be >= 0, got -5$"),
    (_set(["measure", "event_at_s"], 99.0), r"^t: measure: event_at_s 99\.0 outside \[0, 30\.0\]$"),
    (_set(["measure", "wmrs"], ["wmr9"]), "unknown wmr 'wmr9'"),
    (_set(["measure", "probe"], "ping9"), "unknown probe 'ping9'"),
    (_set(["measure", "flow"], "flow9"), "unknown flow 'flow9'"),
    (
        _set(["eftm"], {"controller_range": "172.16.0.0/24"}),
        "must lie inside control_subnet",
    ),
    # Hostile values name the offending path instead of escaping as a
    # KeyError, TypeError or plain ValueError.
    (_del(["wmrs", 1, "id"]), r"^t\.wmrs\[1\]: missing required key 'id'$"),
    (
        _set(["links", 0, "capacity_mbps"], "fast"),
        r"^t\.links\[0\]\.capacity_mbps: expected a number, got 'fast'$",
    ),
    (_set(["duration_s"], "long"), r"^t\.duration_s: expected a number, got 'long'$"),
    (_set(["events", 0, "link"], "ab"), r"^t\.events\[0\]\.link: expected a list of two"),
    (_set(["wmrs"], 5), r"^t\.wmrs: expected a list, got int$"),
    # Numbers that would hang a run, fail at build time or log negative
    # throughput are refused up front.
    *(
        _was(
            r"^t: pings\[0\]: interval_s must be positive$",
            _set(["pings", 0, "interval_s"], value),
            rf"^t\.pings\[0\]\.interval_s: must be positive, got {value}$",
        )
        for value in (0, -1)
    ),
    _was(
        r"^t: flows\[0\]: demand_mbps must be positive$",
        _set(["flows", 0, "demand_mbps"], -3),
        r"^t\.flows\[0\]\.demand_mbps: must be positive, got -3$",
    ),
    # A positive interval below 0.5 us rounds to 0 us, and a timer with a
    # zero period fires at one instant forever.
    _was(
        r"^t: pings\[0\]: interval_s must be at least 1 us$",
        _set(["pings", 0, "interval_s"], 1e-7),
        r"^t\.pings\[0\]\.interval_s: must be at least 1 us, got 1e-07$",
    ),
    *(
        _was(
            r"^t\.olsr: timer intervals must be at least 1 us$",
            _set(["olsr"], {key: 1e-7}),
            rf"^t\.olsr\.{key}: must be at least 1 us, got 1e-07$",
        )
        for key in ("hello_interval_s", "tc_interval_s")
    ),
    *(
        _was(
            r"^t\.eftm: poll period, connect timeout and keepalive interval must be at least"
            r" 1 us$",
            _set(["eftm"], {key: 1e-7}),
            rf"^t\.eftm\.{key}: must be at least 1 us, got 1e-07$",
        )
        for key in ("poll_period_s", "connect_timeout_s", "keepalive_interval_s")
    ),
    _was(
        r"^t\.switch: sweep interval must be at least 1 us$",
        _set(["switch"], {"sweep_interval_s": 1e-7}),
        r"^t\.switch\.sweep_interval_s: must be at least 1 us, got 1e-07$",
    ),
    _was(
        r"^t\.controller: refresh interval must be at least 1 us$",
        _set(["controller"], {"refresh_interval_s": 1e-7}),
        r"^t\.controller\.refresh_interval_s: must be at least 1 us, got 1e-07$",
    ),
    *(
        _was(
            rf"^t: {section}\[0\]: start_s must be >= 0$",
            _set([section, 0, "start_s"], -1),
            rf"^t\.{section}\[0\]\.start_s: must be >= 0, got -1$",
        )
        for section in ("pings", "flows")
    ),
    (_set(["flows", 0, "stop_s"], 2.0), r"^t: flows\[0\]: stop_s must be after start_s$"),
    (_set(["flows", 0, "stop_s"], 5.0), r"^t: flows\[0\]: stop_s must be after start_s$"),
    _was(
        r"^t: flows\[0\]: loss_recovery_s must be >= 0$",
        _set(["flows", 0, "loss_recovery_s"], -1),
        r"^t\.flows\[0\]\.loss_recovery_s: must be >= 0, got -1$",
    ),
    (
        _set(["links", 0, "capacity_mbps"], float("nan")),
        r"^t\.links\[0\]\.capacity_mbps: expected a finite number, got nan$",
    ),
    (_set(["duration_s"], float("inf")), r"^t\.duration_s: expected a finite number, got inf$"),
    _was(
        r"^t: links\[0\]: delay must be >= 0$",
        _set(["links", 0, "delay_ms"], -1),
        r"^t\.links\[0\]\.delay_ms: must be >= 0, got -1$",
    ),
    _was(
        r"^t: defaults\.attach_link: capacity must be positive$",
        _set(["defaults"], {"attach_link": {"capacity_mbps": 0}}),
        r"^t\.defaults\.attach_link\.capacity_mbps: must be positive, got 0$",
    ),
    (
        _set(["olsr"], {"hello_interval_s": float("nan")}),
        r"^t\.olsr\.hello_interval_s: expected a finite number, got nan$",
    ),
    _was(
        r"^t\.switch: sweep interval must be positive",
        _set(["switch"], {"sweep_interval_s": 0}),
        r"^t\.switch\.sweep_interval_s: must be positive, got 0$",
    ),
    _was(
        r"^t\.switch: .*buffer timeout >= 0$",
        _set(["switch"], {"buffer_timeout_s": -1}),
        r"^t\.switch\.buffer_timeout_s: must be >= 0, got -1$",
    ),
    _was(
        r"^t\.controller: refresh interval must be positive$",
        _set(["controller"], {"refresh_interval_s": 0}),
        r"^t\.controller\.refresh_interval_s: must be positive, got 0$",
    ),
    _was(
        r"^t\.controller: timeouts must be >= 0$",
        _set(["controller"], {"switch_timeout_s": -1}),
        r"^t\.controller\.switch_timeout_s: must be >= 0, got -1$",
    ),
    # Every key is read as the type its record declares: a value of another
    # type used to pass, and run as something else or fail mid-run.
    (
        _set(["eftm"], {"emergency_policy": "allow_all"}),
        r"^t\.eftm\.emergency_policy: expected one of 'control-only', 'allow-all', 'selective',"
        r" got 'allow_all'$",
    ),
    (
        _set(["controller"], {"rule_priority": "high"}),
        r"^t\.controller\.rule_priority: expected an integer, got 'high'$",
    ),
    (_set(["olsr"], {"hellos_to_up": 2.5}), r"^t\.olsr\.hellos_to_up: expected an integer, got 2\.5$"),
    (
        _set(["olsr"], {"randomize_phase": "no"}),
        r"^t\.olsr\.randomize_phase: expected true or false, got 'no'$",
    ),
    (
        _set(["wmrs", 1, "gateway"], "false"),
        r"^t\.wmrs\[1\]\.gateway: expected true or false, got 'false'$",
    ),
    (_set(["hosts", 0, "id"], ["a"]), r"^t\.hosts\[0\]\.id: expected a string, got \['a'\]$"),
    (_del(["wmrs", 1, "mesh_addr"]), r"^t\.wmrs\[1\]: missing required key 'mesh_addr'$"),
    # Ping and flow ids name what the log and the measure section refer to,
    # so each must be unique, as node ids are.
    (
        _append(["pings"], {"id": "ping1", "src": "h1", "dst": "wmr2", "interval_s": 0.5}),
        r"^t: duplicate ping id 'ping1'$",
    ),
    (
        _append(["flows"], {"id": "flow1", "src": "h1", "dst": "10.0.0.2", "start_s": 6.0}),
        r"^t: duplicate flow id 'flow1'$",
    ),
    *(
        (_set(["olsr"], {key: 0}), r"^t\.olsr: hello thresholds must be >= 1$")
        for key in ("hellos_to_up", "hello_loss_intervals_to_down")
    ),
    *(
        (_set(["olsr"], {"jitter": value}), r"^t\.olsr: jitter must be in \[0, 0\.5\)$")
        for value in (0.5, -0.1)
    ),
    (_set(["hosts", 0, "attach"], "ctrl1"), r"^t: host h1: attach target 'ctrl1' is not a wmr$"),
    (
        _set(
            ["controllers", 0, "path_overrides"],
            [{"dst": "192.168.1.0/24", "path": ["wmr2", "h1"]}],
        ),
        r"^t: controller ctrl1: override 192\.168\.1\.0/24 names non-wmr \['h1'\]$",
    ),
    (
        _set(["events", 0], {"at_s": 10.0, "action": "link-up"}),
        r"^t: events\[0\]: link-up needs a link$",
    ),
]


@pytest.mark.parametrize("mutate,match", REJECTIONS)
def test_rejects_bad_documents(mutate, match):
    with pytest.raises(ScenarioError, match=match):
        scenario_from_mapping(mutate(valid_doc()), source="t")


def _unit_keys(cls, keys=()):
    """The key path and unit of each field that record ``cls``, or a record
    nested in it, reads as a unit; a list is entered at its first item."""
    readers, _ = _schema(cls)
    scope = vars(sys.modules[cls.__module__])
    for key, (name, _) in readers.items():
        hint, at = _hint(cls.__annotations__[name], scope), (*keys, key)
        while get_origin(hint) in (list, Union, types.UnionType):
            if get_origin(hint) is list:
                at = (*at, 0)
            (hint,) = (a for a in get_args(hint) if a is not type(None))
        if hint in (Seconds, Period, Millis, Mbps):
            yield at, hint
        elif hasattr(hint, "_fields"):
            yield from _unit_keys(hint, at)


def _dotted(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


UNIT_KEYS = list(_unit_keys(Scenario))


def test_the_unit_walk_reaches_every_section():
    assert {
        ".duration_s",
        ".olsr.hello_interval_s",
        ".eftm.hysteresis_hold_s",
        ".controller.switch_timeout_s",
        ".switch.sweep_interval_s",
        ".defaults.mesh_link.capacity_mbps",
        ".defaults.attach_link.delay_ms",
        ".links[0].delay_ms",
        ".pings[0].interval_s",
        ".flows[0].demand_mbps",
        ".flows[0].stop_s",
        ".events[0].at_s",
        ".measure.event_at_s",
    } <= {_dotted(keys) for keys, _ in UNIT_KEYS}


@pytest.mark.parametrize("keys,unit", UNIT_KEYS, ids=[_dotted(k)[1:] for k, _ in UNIT_KEYS])
def test_every_unit_field_refuses_a_value_it_cannot_run(keys, unit):
    # A number whose whole us or bit/s overflow used to pass the reader and
    # end the run in an OverflowError; a negative one, or a zero or
    # sub-microsecond period, would run as nonsense or hang.
    path = "t" + _dotted(keys)
    for value in (1.0e308, -1, *((0, 1e-7) if unit is Period else ())):
        doc = valid_doc()
        cursor = doc
        for part in keys[:-1]:
            cursor = cursor[part] if isinstance(part, int) else cursor.setdefault(part, {})
        cursor[keys[-1]] = value
        with pytest.raises(ScenarioError) as caught:
            scenario_from_mapping(doc, source="t")
        message = str(caught.value)
        assert message.startswith(f"{path}: ") and "\n" not in message, message
        assert ("too large" in message) == (value == 1.0e308), message


def test_overrides_reach_nested_and_top_level_keys():
    doc = valid_doc()
    apply_overrides(
        doc,
        {
            "name": "renamed",
            "duration_s": 45.0,
            "eftm.poll_period_s": 2.5,
            "measure.event_at_s": 21.0,
        },
    )
    s = scenario_from_mapping(doc, source="t")
    assert s.name == "renamed"
    assert s.duration_s == 45.0
    assert s.eftm.poll_period_s == 2.5
    assert s.measure.event_at_s == 21.0


def test_overrides_refuse_to_traverse_non_mappings():
    doc = valid_doc()
    with pytest.raises(ScenarioError, match="override"):
        apply_overrides(doc, {"name.sub": 1})


def test_override_can_create_missing_sections():
    doc = drop_measure(valid_doc())
    assert "olsr" not in doc
    apply_overrides(doc, {"olsr.hello_interval_s": 2.0})
    s = scenario_from_mapping(doc, source="t")
    assert s.olsr.hello_interval_s == 2.0
