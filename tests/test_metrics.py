"""Log format and the pure metric functions, frozen against hand-built streams.

Expected values below were worked out by hand from the record definitions:
each stream is small enough to evaluate without running anything.
"""
import ast
from ipaddress import IPv4Address
from pathlib import Path

import pytest

import meshsdn
from meshsdn.engine import Simulator, to_us
from meshsdn.metrics import (
    SUMMARY_COLUMNS,
    MetricLog,
    MetricRecord,
    OnlineMetrics,
    SummaryRow,
    master_selection_delay,
    network_connectivity_time,
    throughput_recovery,
    throughput_series,
)
from meshsdn.simulation import run_scenario

from support import builtin_scenario

_SEQ = iter(range(10_000))


def rec(t_s, kind, **data):
    return MetricRecord(to_us(t_s), next(_SEQ), kind, data)


def transition(t_s, node, to, master=None, **extra):
    data = {"node": node, "from": "x", "to": to, "master": master}
    data.update(extra)
    return rec(t_s, "EftmTransition", **data)


def test_log_rejects_unknown_kind_and_notifies_observers():
    sim = Simulator()
    log = MetricLog(sim)
    seen = []
    log.observers.append(seen.append)
    log.append("PingResult", {"probe": "p1", "seq": 0, "rtt_us": 2000})
    with pytest.raises(ValueError, match="unknown record kind"):
        log.append("Bogus", {})
    assert [r.kind for r in log.records] == ["PingResult"]
    assert seen == log.records
    assert log.records[0].seq == 0


def test_record_json_is_canonical():
    record = MetricRecord(
        to_us(12.345678), 3, "PingResult", {"probe": "p1", "rtt_us": 2000}
    )
    assert (
        record.to_json()
        == '{"data":{"probe":"p1","rtt_us":2000},"kind":"PingResult","seq":3,"t":"12.345678"}'
    )


def test_ndjson_is_one_line_per_record_with_trailing_newline():
    sim = Simulator()
    log = MetricLog(sim)
    log.append("PingResult", {"probe": "p1", "seq": 0, "rtt_us": 1})
    log.append("LinkEvent", {"link": "wmr1-wmr2", "up": False})
    text = log.to_ndjson()
    assert text.endswith("\n") and len(text.splitlines()) == 2


def test_connectivity_is_first_probe_round_trip_after_event():
    records = [
        rec(59.5, "PingResult", probe="ping1", seq=58, rtt_us=4000),
        rec(61.0, "PingResult", probe="other", seq=60, rtt_us=4000),
        rec(63.2, "PingResult", probe="ping1", seq=62, rtt_us=4000),
        rec(64.2, "PingResult", probe="ping1", seq=63, rtt_us=4000),
    ]
    assert network_connectivity_time(records, to_us(60.0), "ping1") == to_us(3.2)
    assert network_connectivity_time(records, to_us(65.0), "ping1") is None
    # A reply landing exactly at the event instant predates it.
    assert network_connectivity_time(records, to_us(63.2), "ping1") == to_us(1.0)


SELECTION_STREAM = [
    transition(10.0, "wmr1", "connected", master="10.0.255.1"),
    transition(5.0, "wmr2", "connected", master="10.0.255.2"),
    transition(61.8, "wmr1", "disconnected"),
    # Decoy: wmr1 briefly returns to the master it already had.
    transition(62.0, "wmr1", "connected", master="10.0.255.1"),
    transition(63.0, "wmr2", "connected", master="10.0.255.3"),
    transition(64.5, "wmr1", "connected", master="10.0.255.2"),
]


def test_selection_delay_is_worst_changed_master_completion():
    got = master_selection_delay(
        SELECTION_STREAM, to_us(60.0), ["wmr1", "wmr2"], reference=to_us(61.0)
    )
    assert got == to_us(3.5)  # wmr1 completes last, at 64.5


def test_selection_delay_can_be_negative_against_late_reference():
    got = master_selection_delay(
        SELECTION_STREAM, to_us(60.0), ["wmr2"], reference=to_us(65.0)
    )
    assert got == to_us(-2.0)


def test_selection_delay_undefined_until_every_router_moves():
    records = SELECTION_STREAM[:-2]  # wmr2 and wmr1 never leave their masters
    assert (
        master_selection_delay(records, to_us(60.0), ["wmr1", "wmr2"], to_us(60.0))
        is None
    )


THROUGHPUT_STREAM = (
    [rec(110.0 + i, "ThroughputSample", flow="flow1", bps=10e6) for i in range(10)]
    + [
        rec(120.1, "ThroughputSample", flow="flow1", bps=10e6),  # stale rules
        rec(124.3, "ThroughputSample", flow="flow1", bps=0.0),
        rec(124.4, "ThroughputSample", flow="flow1", bps=0.0),
        rec(125.0, "ThroughputSample", flow="flow1", bps=3e6),
        rec(125.4, "ThroughputSample", flow="flow1", bps=9e6),
        rec(126.0, "ThroughputSample", flow="flow1", bps=10e6),
    ]
)


def test_recovery_finds_dip_then_90_percent_return():
    analysis = throughput_recovery(
        THROUGHPUT_STREAM, "flow1", to_us(120.0), steady_window=to_us(5.0)
    )
    assert analysis.steady_bps == 10e6
    assert analysis.dip_at == to_us(124.3)
    # The full-rate sample at 120.1 precedes the dip, so it is not recovery;
    # 9 Mbit/s at 125.4 is the first sample at or above 90% of steady.
    assert analysis.recovered_at == to_us(125.4)
    assert analysis.recovery_after_event == to_us(5.4)


def test_recovery_without_dip_reports_nothing():
    records = [r for r in THROUGHPUT_STREAM if r.data["bps"] > 0.0]
    analysis = throughput_recovery(records, "flow1", to_us(120.0), to_us(5.0))
    assert analysis.dip_at is None
    assert analysis.recovered_at is None
    assert analysis.recovery_after_event is None


def test_recovery_with_empty_steady_window_never_recovers():
    records = THROUGHPUT_STREAM[10:]  # nothing before the event
    analysis = throughput_recovery(records, "flow1", to_us(120.0), to_us(5.0))
    assert analysis.steady_bps == 0.0
    assert analysis.recovered_at is None


def test_summary_row_formats_and_blanks():
    row = SummaryRow(3, "merge", to_us(13.2), to_us(1.491), None)
    assert row.as_csv_line() == "3,merge,13.200000,1.491000,"
    empty = SummaryRow(0, "x", None, None, None)
    assert empty.as_csv_line() == "0,x,,,"
    assert SUMMARY_COLUMNS == (
        "seed",
        "scenario",
        "connectivity_time_s",
        "selection_delay_s",
        "throughput_gap_s",
    )


def synthetic_stream():
    pings = [
        rec(59.0, "PingResult", probe="ping1", seq=0, rtt_us=4000),
        rec(62.4, "PingResult", probe="ping1", seq=1, rtt_us=4000),
    ]
    samples = [
        rec(100.0 + i * 0.5, "ThroughputSample", flow="flow1", bps=b)
        for i, b in enumerate([10e6, 10e6, 0.0, 5e6, 10e6])
    ]
    return sorted(
        SELECTION_STREAM + pings + samples, key=lambda r: (r.time, r.seq)
    )


def test_online_metrics_match_post_hoc_functions():
    records = synthetic_stream()
    online = OnlineMetrics(to_us(60.0), "ping1", ["wmr1", "wmr2"], "flow1")
    for record in records:
        online.feed(record)
    assert online.connectivity_time() == network_connectivity_time(
        records, to_us(60.0), "ping1"
    )
    reference = to_us(60.0) + online.connectivity_time()
    assert online.selection_delay(reference) == master_selection_delay(
        records, to_us(60.0), ["wmr1", "wmr2"], reference
    )
    assert online.samples == throughput_series(records, "flow1")


def test_real_run_metrics_recompute_from_log_alone():
    # Log sufficiency on an actual run: the streaming observer, the run
    # summary, and a cold recompute from saved records must agree.
    result = run_scenario(builtin_scenario("merge"), seed=3)
    records = result.log.records
    event_at = to_us(60.0)
    connectivity = network_connectivity_time(records, event_at, "ping1")
    assert connectivity is not None
    assert result.connectivity_us == connectivity
    assert result.online.connectivity_time() == connectivity
    reference = event_at + connectivity
    selection = master_selection_delay(
        records, event_at, ["wmr1", "wmr2"], reference
    )
    assert result.selection_us == selection
    assert result.online.selection_delay(reference) == selection
    assert result.summary.connectivity_time_us == connectivity
    assert result.summary.selection_delay_us == selection
    assert result.summary.throughput_gap_us is None  # merge has no bulk flow


def test_ping_addresses_resolve():
    # Guard for the synthetic streams above: the probe target used across
    # these tests is a real controller address in the shipped scenario.
    scenario = builtin_scenario("merge")
    assert scenario.pings[0].id == "ping1"
    assert scenario.pings[0].dst == IPv4Address("10.0.255.1")


DATA_MUTATORS = {"update", "pop", "setdefault", "clear"}


def writes_through_data(source):
    """The line of each statement that changes a dict reached as ``.data``:
    item assignment or deletion, or a call of a mutating dict method."""
    def through_data(node):
        return isinstance(node, ast.Attribute) and node.attr == "data"

    def unpacked(targets):
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from unpacked(target.elts)
            elif isinstance(target, ast.Starred):
                yield from unpacked([target.value])
            else:
                yield target

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            hit = any(
                isinstance(target, ast.Subscript) and through_data(target.value)
                for target in unpacked(targets)
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in DATA_MUTATORS and through_data(node.func.value)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_code_writes_through_record_data():
    # Sample data is logged again while a flow's rate holds, so one dict can
    # be the data of many records: a write through one would change them all.
    writes = [
        'r.data["bps"] = 0.0',
        'r.data["n"] += 1',
        'del r.data["bps"]',
        "a, r.data['x'] = 1, 2",
        "r.data.update(x=1)",
        'r.data.pop("bps")',
        'self.data.setdefault("x", 1)',
        "r.data.clear()",
    ]
    reads = [
        'x = r.data["bps"]',
        'r.data.get("bps")',
        "self.data = data = {}",
        'data["x"] = 1',
        'seen[r.data["flow"]] = 1',
    ]
    assert [bool(writes_through_data(line)) for line in writes] == [True] * len(writes)
    assert [bool(writes_through_data(line)) for line in reads] == [False] * len(reads)
    found = {
        path.name: lines
        for path in sorted(Path(meshsdn.__file__).parent.rglob("*.py"))
        if (lines := writes_through_data(path.read_text()))
    }
    assert found == {}
