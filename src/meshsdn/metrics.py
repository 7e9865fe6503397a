"""Run log and the metrics recomputed from it.

Every observable event of a run lands in one strictly-ordered
:class:`MetricLog`.  The log is the ground truth: each headline metric
(connectivity time, master selection delay, throughput recovery) has a pure
function here that derives it from the records alone, so results can be
recomputed offline from a saved log file and compared byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
from typing import Callable, Iterable, NamedTuple

from .engine import SimTime, Simulator, fmt_time

KINDS = (
    "LinkEvent",
    "OlsrRouteChange",
    "EftmTransition",
    "ControllerAction",
    "PingResult",
    "ThroughputSample",
    "RuleEvent",
    "PacketDrop",  # diagnostic extension; not consumed by any metric
)
_KIND_SET = frozenset(KINDS)


class MetricRecord(NamedTuple):
    """One log record.  A named tuple: immutable, and cheap to build for
    every record of a run."""

    time: SimTime
    seq: int
    kind: str
    data: dict

    def to_json(self) -> str:
        return json.dumps(
            {"t": fmt_time(self.time), "seq": self.seq, "kind": self.kind, "data": self.data},
            sort_keys=True,
            separators=(",", ":"),
        )


class MetricLog:
    """Append-only record stream ordered by (time, append sequence)."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self.records: list[MetricRecord] = []
        self.observers: list[Callable[[MetricRecord], None]] = []

    def append(self, kind: str, data: dict) -> None:
        if kind not in _KIND_SET:
            raise ValueError(f"unknown record kind {kind!r}")
        records = self.records
        # Built as the bare tuple it is: the named tuple's own __new__ is a
        # Python-level call, and every record of a run passes through here.
        record = tuple.__new__(MetricRecord, (self._sim.now(), len(records), kind, data))
        records.append(record)
        if self.observers:
            for observer in self.observers:
                observer(record)

    def to_ndjson(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + "\n"


# -- derived metrics --------------------------------------------------------


def network_connectivity_time(
    records: Iterable[MetricRecord], event_at: SimTime, probe_id: str
) -> SimTime | None:
    """Delay from ``event_at`` to the first completed probe round trip after it."""
    for record in records:
        if record.kind != "PingResult" or record.data.get("probe") != probe_id:
            continue
        if record.time > event_at:
            return record.time - event_at
    return None


def master_selection_delay(
    records: Iterable[MetricRecord],
    event_at: SimTime,
    wmrs: list[str],
    reference: SimTime,
) -> SimTime | None:
    """Worst-case handover completion across ``wmrs``, relative to ``reference``.

    For each router the relevant instant is its first transition to Connected
    with a master different from the one held at ``event_at``.  Returns None
    if any router in the set never completes such a transition.
    """
    held: dict[str, str | None] = dict.fromkeys(wmrs)  # master at event_at
    completed: dict[str, SimTime] = {}
    for record in sorted(records, key=lambda r: (r.time, r.seq)):
        if record.kind != "EftmTransition":
            continue
        wmr = record.data.get("node")
        if wmr not in held or wmr in completed:
            continue
        master = record.data.get("master") if record.data.get("to") == "connected" else None
        if record.time <= event_at:
            held[wmr] = master
        elif record.data.get("to") == "connected" and master != held[wmr]:
            completed[wmr] = record.time
    if not wmrs or len(completed) < len(held):
        return None
    return max(completed.values()) - reference


def throughput_series(
    records: Iterable[MetricRecord], flow_id: str
) -> list[tuple[SimTime, float]]:
    return [
        (r.time, float(r.data["bps"]))
        for r in records
        if r.kind == "ThroughputSample" and r.data.get("flow") == flow_id
    ]


class RecoveryAnalysis(NamedTuple):
    steady_bps: float
    dip_at: SimTime | None  # first zero sample after the event
    recovered_at: SimTime | None  # first sample back at >= 90% of steady
    event_at: SimTime

    @property
    def recovery_after_event(self) -> SimTime | None:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.event_at


def throughput_recovery(
    records: Iterable[MetricRecord],
    flow_id: str,
    event_at: SimTime,
    steady_window: SimTime,
    threshold: float = 0.9,
) -> RecoveryAnalysis:
    """Locate the outage dip and the return to steady state around ``event_at``.

    Steady state is the mean of samples in the window just before the event.
    Recovery is the first sample at or above ``threshold`` of steady that
    comes after the first zero sample following the event.
    """
    series = throughput_series(records, flow_id)
    window = [bps for t, bps in series if event_at - steady_window <= t < event_at]
    steady = sum(window) / len(window) if window else 0.0
    dip_at: SimTime | None = None
    recovered_at: SimTime | None = None
    for t, bps in series:
        if t < event_at:
            continue
        if dip_at is None:
            if bps == 0.0:
                dip_at = t
            continue
        if recovered_at is None and steady > 0 and bps >= threshold * steady:
            recovered_at = t
            break
    return RecoveryAnalysis(steady, dip_at, recovered_at, event_at)


# -- summary rows -----------------------------------------------------------

SUMMARY_COLUMNS = (
    "seed",
    "scenario",
    "connectivity_time_s",
    "selection_delay_s",
    "throughput_gap_s",
)


class SummaryRow(NamedTuple):
    seed: int
    scenario: str
    connectivity_time_us: SimTime | None
    selection_delay_us: SimTime | None
    throughput_gap_us: SimTime | None

    def as_csv_values(self) -> list[str]:
        def cell(value: SimTime | None) -> str:
            return fmt_time(value) if value is not None else ""

        return [
            str(self.seed),
            self.scenario,
            cell(self.connectivity_time_us),
            cell(self.selection_delay_us),
            cell(self.throughput_gap_us),
        ]

    def as_csv_line(self) -> str:
        """The row as one CSV line without terminator; a cell holding a comma
        (a swept scenario's name, say) is quoted."""
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(self.as_csv_values())
        return line.getvalue()


class OnlineMetrics:
    """Streaming computation of the same metrics, fed record by record.

    Exists to prove log sufficiency: tests assert these running results match
    the pure post-hoc functions applied to the full log.
    """

    def __init__(
        self,
        event_at: SimTime | None,
        probe_id: str | None,
        wmrs: list[str],
        flow_id: str | None,
    ) -> None:
        self.event_at = event_at
        self.probe_id = probe_id
        self.wmrs = wmrs
        self.flow_id = flow_id
        self.first_ping_after: SimTime | None = None
        self._pre_masters: dict[str, str | None] = {}
        self._current_masters: dict[str, str | None] = {w: None for w in wmrs}
        self.handover_done: dict[str, SimTime] = {}
        self.samples: list[tuple[SimTime, float]] = []

    def feed(self, record: MetricRecord) -> None:
        if self.event_at is None:
            return
        before_event = record.time <= self.event_at
        if record.kind == "EftmTransition" and record.data.get("node") in self._current_masters:
            wmr = record.data["node"]
            master = (
                record.data.get("master") if record.data.get("to") == "connected" else None
            )
            if before_event:
                self._current_masters[wmr] = master
            else:
                if wmr not in self._pre_masters:
                    self._pre_masters[wmr] = self._current_masters[wmr]
                if (
                    wmr not in self.handover_done
                    and record.data.get("to") == "connected"
                    and master != self._pre_masters[wmr]
                ):
                    self.handover_done[wmr] = record.time
        elif record.kind == "PingResult" and record.data.get("probe") == self.probe_id:
            if not before_event and self.first_ping_after is None:
                self.first_ping_after = record.time
        elif record.kind == "ThroughputSample" and record.data.get("flow") == self.flow_id:
            self.samples.append((record.time, float(record.data["bps"])))

    def connectivity_time(self) -> SimTime | None:
        if self.first_ping_after is None or self.event_at is None:
            return None
        return self.first_ping_after - self.event_at

    def selection_delay(self, reference: SimTime) -> SimTime | None:
        # Defined only once every tracked router has completed its handover.
        if not self.wmrs or any(w not in self.handover_done for w in self.wmrs):
            return None
        return max(self.handover_done[w] for w in self.wmrs) - reference
