"""Immutable value records: messages, routes, actions, results.

They are named tuples, which are cheap to define and to build.  A named tuple
compares as a plain tuple, so records of two types with equal fields are
equal; the simulator tells them apart by type, never by value.
"""
import inspect
from ipaddress import IPv4Address, IPv4Network

import pytest

from meshsdn import control_plane as cp
from meshsdn.metrics import RecoveryAnalysis, SummaryRow
from meshsdn.olsr import FloodMsg, HelloMsg, RouteEntry, TopologySnapshot
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.switch import DeliverLocal, DropAction, FlowRule, ForwardTo, Packet

from support import TWO_ROUTERS

MESSAGES = [
    cls for _, cls in inspect.getmembers(cp, inspect.isclass) if cls.__module__ == cp.__name__
]
NET = IPv4Network("10.0.0.0/24")
# One instance of every record, all of whose fields are hashable but the
# snapshot's.
SAMPLES = [
    *(cls(*("x",) * len(cls._fields)) for cls in MESSAGES),
    HelloMsg("wmr1", IPv4Address("10.0.0.1")),
    FloodMsg("wmr1", 3, (IPv4Address("10.0.0.1"),), ("wmr2",), (NET,), 15_000_000),
    RouteEntry("wmr2", 1, "wmr2"),
    TopologySnapshot(0, {"wmr1": ("wmr2",)}, {"wmr1": (IPv4Address("10.0.0.1"),)}, ()),
    ForwardTo("wmr2"),
    RecoveryAnalysis(1e7, 5, 7, 2),
    SummaryRow(0, "merge", 1, None, 3),
]


def test_every_value_record_is_a_named_tuple():
    assert len(MESSAGES) == 12
    assert len({type(r) for r in SAMPLES}) == 19
    for record in SAMPLES:
        assert isinstance(record, tuple) and type(record)._fields, type(record).__name__


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records_of_one_type(record):
    twin = type(record)(*record)
    assert twin == record and twin is not record
    if type(record) is not TopologySnapshot:  # holds dicts, like the dataclass did
        assert hash(twin) == hash(record)
        assert len({twin, record}) == 1


def test_defaults_and_methods_survive():
    rule = FlowRule(10, NET, ForwardTo("wmr2"), "eftm")
    assert (rule.src_prefix, rule.idle_timeout_us, rule.hard_timeout_us) == (None, 0, 0)
    assert RecoveryAnalysis(1e7, 5, 7, 2).recovery_after_event == 5
    assert RecoveryAnalysis(1e7, 5, None, 2).recovery_after_event is None
    assert SummaryRow(4, "a,b", 1_500_000, None, 2).as_csv_line() == '4,"a,b",1.500000,,0.000002'


def test_handlers_dispatch_by_type_not_by_value():
    sim = Simulation(scenario_from_mapping(TWO_ROUTERS, source="t"))
    runtimes = (sim.wmrs["wmr1"], sim.controllers["ctrl1"], sim.hosts["h1"])
    # With every field "x", all two-field requests are equal tuples.
    requests = (cp.ProbeRequest, cp.ConnectRequest, cp.KeepaliveRequest)
    assert len({cls("x", "x") for cls in requests}) == 1
    for runtime in runtimes:
        seen = []
        runtime.handlers = {
            cls: lambda msg, src, cls=cls: seen.append((cls, type(msg))) for cls in runtime.handlers
        }
        for cls in runtime.handlers:
            msg = cls(*("x",) * len(cls._fields))
            runtime._dispatch(Packet(IPv4Address("10.0.0.9"), runtime.address, "control", msg))
        assert seen == [(cls, cls) for cls in runtime.handlers]


def test_actions_without_fields_keep_distinct_types():
    assert DeliverLocal() == DeliverLocal() and DropAction() == DropAction()
    assert DeliverLocal() != DropAction() and DropAction() != DeliverLocal()
    for action in (DeliverLocal(), DropAction()):
        assert action != () and () != action
        assert action != ForwardTo("wmr2") and ForwardTo("wmr2") != action
        assert hash(action) == hash(type(action)())
    assert len({DeliverLocal(), DeliverLocal(), DropAction(), DropAction(), ForwardTo("wmr2")}) == 3


def test_rule_summary_names_each_action():
    def summary(action, src=None):
        return FlowRule(10, NET, action, "eftm", src_prefix=src).summary()

    assert summary(ForwardTo("wmr2")) == "p=10 dst=10.0.0.0/24 src=* -> fwd:wmr2 [eftm]"
    assert summary(DeliverLocal(), NET) == "p=10 dst=10.0.0.0/24 src=10.0.0.0/24 -> local [eftm]"
    assert summary(DropAction()) == "p=10 dst=10.0.0.0/24 src=* -> drop [eftm]"
