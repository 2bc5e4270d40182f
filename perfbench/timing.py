"""Host time of the benchmark's work, and the host's speed at the same moments.

On a shared machine the process runs faster or slower as other tenants come
and go: on a 2-core shared host the same pass took anywhere from 2.7 s to
4.4 s within half an hour, in phases lasting tens of seconds. A median over
one run cannot remove drift that slow. So between segments of its own work
the benchmark times a fixed reference kernel, and reports work in units of
that kernel's time measured during the same pass ("ref"). The kernel is a
fixed part of the benchmark: it does not change with the simulator, so a
faster simulator costs fewer refs.
"""

from __future__ import annotations

import hashlib
import heapq
import statistics
import time
from typing import Callable

REF_ITERATIONS = 1000  # about 2 ms on the host the baseline was taken on
REF_EVERY_S = 0.05  # one reference sample per 50 ms of work, ~4 % extra


def reference_kernel() -> bytes:
    """A fixed mix of the interpreter work the simulator does: heap pushes
    and pops of tuples, tab-separated line formatting, dict stores and
    blake2b hashing."""
    heap: list = []
    table = {}
    h = hashlib.blake2b(digest_size=32)
    for i in range(REF_ITERATIONS):
        heapq.heappush(heap, (i * 7919 % 1009, i, ("deliver", i & 15)))
        line = f"{i * 10}\t{i}\tstatus\t{i & 31}\t*\t{120 + (i & 63)}"
        table[i & 255] = line
        if len(heap) > 256:
            heapq.heappop(heap)
        if i & 7 == 0:
            h.update(line.encode())
    return h.digest()


class Stopwatch:
    """Times consecutive segments of one pass, run by run, and samples the
    reference kernel after every ``REF_EVERY_S`` of timed work."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.runs: list[list[float]] = []
        self.refs: list[float] = []
        self._since_ref = 0.0

    def start_run(self) -> None:
        self.runs.append([])

    def drop_run(self) -> None:
        """Forget the segments of a run that raised."""
        self.runs[-1] = []

    def time(self, fn: Callable, *args, **kwargs):
        start = self.clock()
        out = fn(*args, **kwargs)
        elapsed = self.clock() - start
        self.runs[-1].append(elapsed)
        self._since_ref += elapsed
        if self._since_ref >= REF_EVERY_S:
            self.sample_reference()
        return out

    def sample_reference(self) -> None:
        self._since_ref = 0.0
        start = self.clock()
        reference_kernel()
        self.refs.append(self.clock() - start)

    def ref_s(self) -> float:
        """The reference kernel's typical time during this pass."""
        if not self.refs:
            self.sample_reference()
        return statistics.median(self.refs)


def run_costs(watches: list[Stopwatch], normalise: bool) -> list[float]:
    """Cost of each run that did not raise: the sum over its segments of the
    segment's median across passes. With ``normalise`` each sample is first
    divided by its pass's reference time, giving refs instead of seconds.

    Short segments sampled at different moments damp the bursts in which
    other tenants slow the host; the reference removes the slower drift.
    """
    costs = []
    for i in range(len(watches[0].runs)):
        samples = []
        for w in watches:
            if w.runs[i]:
                unit = w.ref_s() if normalise else 1.0
                samples.append([s / unit for s in w.runs[i]])
        if samples:
            costs.append(sum(statistics.median(column)
                             for column in zip(*samples)))
    return costs
