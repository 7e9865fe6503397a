"""Reading the host's speed while the benchmark runs.

The host this benchmark was built on runs the same code at two speeds,
about 1.7x apart, and switches between them on every time scale from
milliseconds to tens of seconds (CPU time splits the same way, so it is not
the program).  A wall-clock median then depends on how much of a run fell
in the slow phase, and two sets of runs disagree.

So the benchmark times a fixed calibration workload right before and after
every chunk of about 20 ms of timed work.  The workload does the kinds of
work the simulator spends its time on: heap operations on small objects,
dict updates, and parsing and matching IPv4 prefixes.  It is benchmark
code, so no change to meshsdn makes it faster.  A chunk's time divided by
the calibration time around it is its cost in calibration units, which
the phase moves far less than it moves wall time.  Multiplied by
REFERENCE_S, about the calibration time at this host's full speed, it
becomes seconds at that reference speed.
"""
from __future__ import annotations

import heapq
from ipaddress import IPv4Address, IPv4Network
from time import perf_counter

# Calibration time at full speed on the 2-vCPU host the benchmark was built
# on; it only scales the reported figures, it does not select anything.
REFERENCE_S = 0.0005

_PREFIXES = [f"10.{i}.{j}.0/24" for i in range(3) for j in range(10)]
_ADDRESSES = [IPv4Address(f"10.{i % 3}.{i % 10}.{i % 250 + 1}") for i in range(60)]


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: str, weight: int) -> None:
        self.key = key
        self.weight = weight


class HostClock:
    """Calibration timings of one process."""

    WARMUP = 20

    def __init__(self) -> None:
        for _ in range(self.WARMUP):  # let the interpreter specialise the code
            _work()

    def calibrate(self) -> float:
        start = perf_counter()
        _work()
        return perf_counter() - start


def _work() -> int:
    queue: list[tuple[int, int, _Item]] = []
    totals: dict[str, int] = {}
    for i in range(300):
        heapq.heappush(queue, ((i * 7919) % 1000, i, _Item(f"k{i % 61}", i)))
    while queue:
        _, _, item = heapq.heappop(queue)
        totals[item.key] = totals.get(item.key, 0) + item.weight
    networks = [IPv4Network(p) for p in _PREFIXES]
    return sum(1 for a in _ADDRESSES for n in networks[:10] if a in n) + len(totals)


def units(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` seconds in calibration units, given the calibrations
    taken just before and just after it."""
    return elapsed / ((before + after) / 2)
