"""In-memory span recorder and the layer boundaries it wraps.

A span covers one call into a layer. Spans nest by a stack: a span's self
time is its duration minus the durations of the spans opened inside it, so
the self times of a span tree add up to the duration of its root. The
recorder keeps per-name totals, not individual spans, so memory stays flat
however many calls a run makes.

``instrument`` swaps the module and class attributes the simulator calls
through for timed wrappers and puts the originals back on exit; the
simulator's source is not touched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # root span name -> summed self time of every span in its trees
        self.tree_self_s: dict[str, float] = {}
        self.peak_pending = 0
        # open spans: [name, start, child time, root name]
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        root = self._stack[-1][3] if self._stack else name
        self._stack.append([name, self.clock(), 0.0, root])

    def exit(self) -> None:
        name, start, child, root = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child
        self.tree_self_s[root] = (self.tree_self_s.get(root, 0.0)
                                  + duration - child)
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        def spanned(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return spanned

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


@contextmanager
def instrument(rec: SpanRecorder) -> Iterator[None]:
    """Route the simulator's layer boundaries through ``rec`` for the
    duration of the block."""
    from ansim import kernel, metrics, protocol, runner, scenario, security

    saved = []

    def swap(owner, attr: str, new) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def spanned(owner, attr: str, name: str) -> None:
        swap(owner, attr, rec.wrap(name, vars(owner)[attr]))

    plain_schedule = kernel.Engine.schedule

    def schedule_tracking_peak(engine, *args, **kwargs):
        ev = plain_schedule(engine, *args, **kwargs)
        pending = engine.pending()
        if pending > rec.peak_pending:
            rec.peak_pending = pending
        return ev

    timed_build = rec.wrap("runner.build", runner.build_simulation)

    def build_then_wrap_callbacks(*args, **kwargs):
        built = timed_build(*args, **kwargs)
        engine = built[0]
        engine.on_deliver = rec.wrap("protocol.deliver", engine.on_deliver)
        engine.on_timer = rec.wrap("protocol.timer", engine.on_timer)
        return built

    from_run = vars(metrics.RunReport)["from_run"]
    try:
        spanned(scenario, "parse_scenario", "scenario.parse")
        spanned(security, "wrap", "security.wrap")
        spanned(security, "unwrap", "security.unwrap")
        spanned(protocol, "tota_response", "security.tota")
        spanned(protocol, "tota_verify", "security.tota")
        swap(kernel.Engine, "schedule",
             rec.wrap("kernel.schedule", schedule_tracking_peak))
        spanned(kernel.Engine, "send", "kernel.send")
        spanned(kernel.Engine, "run_until", "kernel.run_until")
        spanned(metrics.Recorder, "record_send", "metrics.record")
        swap(metrics.RunReport, "from_run",
             classmethod(rec.wrap("metrics.report", from_run.__func__)))
        swap(runner, "build_simulation", build_then_wrap_callbacks)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
