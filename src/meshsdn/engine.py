"""Discrete-event core: virtual clock, event queue, per-node RNG streams.

Time is kept as an integer count of microseconds so that event ordering is
exact and runs never accumulate float drift.  Events with equal fire times
run in insertion order, which makes every run with the same seed replay
identically.
"""
from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from typing import Callable, NewType

US_PER_S = 1_000_000

# Simulation timestamps and durations are integer microseconds.
SimTime = int

# The units a scenario states its figures in.  Each is a plain float at run
# time; the scenario reader holds a value of each to its bound, and to a
# figure that stays finite once converted to whole us or bit/s.
Seconds = NewType("Seconds", float)  # an instant or a duration, >= 0
Period = NewType("Period", float)  # a timer's period, > 0 and at least 1 us
Millis = NewType("Millis", float)  # a link delay, >= 0
Mbps = NewType("Mbps", float)  # a rate, > 0


def to_us(seconds: float) -> SimTime:
    """Convert a duration in seconds to integer microseconds."""
    return round(seconds * US_PER_S)


def fmt_time(t: SimTime) -> str:
    """Exact decimal rendering of a timestamp, e.g. ``12.345678``."""
    sign = "-" if t < 0 else ""
    t = abs(t)
    return f"{sign}{t // US_PER_S}.{t % US_PER_S:06d}"


class Event:
    """A scheduled callback; also acts as its own cancellation handle.

    Its instant and sequence number live in the queue entry beside it.
    Only :meth:`Simulator.schedule` builds one, and it sets both slots:
    ``callback``, None once the event fired or was cancelled, and
    ``cancelled``.
    """

    __slots__ = ("callback", "cancelled")

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = None


# Builds an Event with its slots unset; ``Simulator.schedule`` sets them.
_new_event = object.__new__


class Simulator:
    """Virtual clock plus event queue.

    ``seed`` feeds the per-node RNG streams: every node draws jitter from its
    own stream derived from ``(seed, node_id)``, so adding a node to a
    scenario does not perturb the draws of existing nodes.

    Events scheduled with a delay of exactly ``lane_delay`` wait in a FIFO
    lane instead of the heap.  The clock never goes back, so each of them
    fires no earlier than the one scheduled before it and has a larger
    sequence number: the lane is always in firing order, and merging its
    head with the heap's fires every event in the same order as the heap
    alone would.  An owner that schedules most events with one delay, such
    as a transport whose links share a delay, saves a heap push and pop on
    each of them.  The lane delay is fixed at construction: changing it
    while the lane holds events would break that order.
    """

    def __init__(self, seed: int = 0, lane_delay: SimTime | None = None) -> None:
        self.seed = seed
        self.lane_delay = lane_delay
        self._now: SimTime = 0
        self._seq = 0
        self._queue: list[tuple[SimTime, int, Event]] = []
        self._lane: deque[tuple[SimTime, int, Event]] = deque()
        self._rngs: dict[str, random.Random] = {}

    def now(self) -> SimTime:
        return self._now

    def schedule(
        self,
        delay: SimTime,
        callback: Callable[[], None],
        *,
        target: str = "",
        kind: str = "",
    ) -> Event:
        """Schedule ``callback`` after ``delay`` microseconds; returns a handle.

        A zero delay fires at the current time but strictly after the event
        being processed now.  Negative delays are rejected.  ``kind`` names
        the event for an observer that wraps this method; the engine does not
        keep it.  No caller in meshsdn passes ``target``: the keyword stays
        only because ``bench/tracing.py`` forwards it.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} us in the past")
        fire_at = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.callback = callback
        event.cancelled = False
        if delay == self.lane_delay:
            self._lane.append((fire_at, seq, event))
        else:
            heappush(self._queue, (fire_at, seq, event))
        return event

    def run_until(self, end: SimTime) -> None:
        """Process every event with ``fire_at <= end``; clock lands on ``end``."""
        if end < self._now:
            raise ValueError(f"run_until({end}) is before now ({self._now})")
        heap, lane = self._queue, self._lane
        while True:
            if lane and (not heap or lane[0] < heap[0]):
                if lane[0][0] > end:
                    break
                fire_at, _, event = lane.popleft()
            elif heap and heap[0][0] <= end:
                fire_at, _, event = heappop(heap)
            else:
                break
            callback = event.callback
            if callback is None:  # cancelled
                continue
            self._now = fire_at
            event.callback = None
            callback()
        self._now = end

    def node_rng(self, node_id: str) -> random.Random:
        """Dedicated RNG stream for one node, stable across processes."""
        rng = self._rngs.get(node_id)
        if rng is None:
            # str seeding hashes via sha512, so this does not depend on
            # PYTHONHASHSEED the way hash() would.
            rng = random.Random(f"{self.seed}/{node_id}")
            self._rngs[node_id] = rng
        return rng
