"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from ansim import kernel, protocol, runner, scenario, security  # noqa: E402


def test_workload_names_match():
    assert tuple(workloads.GENERATORS) == run.WORKLOADS


@pytest.mark.parametrize("churn", [False, True])
def test_synthetic_scenario_parses_and_repeats(churn):
    def make(seed):
        return workloads.synthetic_scenario(
            "x", seed, nodes=30, profile="auth-encap", loss=0.02,
            jitter_ms=5, churn=churn)

    text = make(3)
    assert make(3) == text
    assert make(4) != text
    cfg = scenario.parse_scenario(text)
    assert len(cfg.nodes) == 30
    assert len(cfg.faults) == (4 if churn else 0)


def test_churn_crashes_the_administrator():
    cfg = scenario.parse_scenario(workloads.synthetic_scenario(
        "x", 5, nodes=30, profile="plain", loss=0.0, jitter_ms=0, churn=True))
    admin = min(cfg.nodes, key=lambda n: (-n.processing_power, n.id)).id
    crash = [f for f in cfg.faults if f.kind == "crash"]
    assert [f.target for f in crash] == [admin]


def test_bundled_sweep_has_at_least_100_runs():
    wl = workloads.build("bundled-sweep", 0)
    assert len(wl.runs) == 105
    assert {r.seed for r in wl.runs} == set(range(1, 8))


class _Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_child():
    rec = spans.SpanRecorder(clock=_Clock(0.0, 1.0, 4.0, 5.0, 5.5, 10.0))
    inner = rec.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    rec.wrap("outer", outer_body)()
    assert rec.get("outer").total_s == 10.0
    assert rec.get("outer").self_s == pytest.approx(10.0 - 3.0 - 0.5)
    assert rec.get("inner").calls == 2
    assert rec.get("inner").self_s == pytest.approx(3.5)
    assert rec.tree_self_s["outer"] == pytest.approx(10.0)


def test_span_closes_when_the_call_raises():
    rec = spans.SpanRecorder(clock=_Clock(0.0, 2.0))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.get("boom").calls == 1
    assert rec._stack == []


def test_instrument_restores_every_attribute():
    before = [security.wrap, security.unwrap, protocol.tota_response,
              protocol.tota_verify, runner.build_simulation,
              scenario.parse_scenario, vars(kernel.Engine)["send"],
              vars(kernel.Engine)["schedule"],
              vars(kernel.Engine)["run_until"]]
    with spans.instrument(spans.SpanRecorder()):
        assert security.wrap is not before[0]
    after = [security.wrap, security.unwrap, protocol.tota_response,
             protocol.tota_verify, runner.build_simulation,
             scenario.parse_scenario, vars(kernel.Engine)["send"],
             vars(kernel.Engine)["schedule"],
             vars(kernel.Engine)["run_until"]]
    assert after == before


def _paper_case1():
    wl = workloads.build("bundled-sweep", 0)
    return wl.runs[0]


def test_stepped_run_matches_run_scenario():
    one = _paper_case1()
    expected = runner.run_scenario(one.cfg, profile=one.profile,
                                   seed=one.seed, with_trace=True)
    watch = timing.Stopwatch()
    watch.start_run()
    report, trace, engine, report_json, trace_text = run.execute(one, watch)
    assert report.to_json_dict() == expected.report.to_json_dict()
    assert trace == expected.trace
    assert engine.stats.dispatched == expected.engine.stats.dispatched


def test_span_pass_reproduces_bare_pass():
    wl = workloads.Workload("one", (_paper_case1(),), workloads.ALL_AUDITS)
    bare = run.run_pass(wl)
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        spanned = run.run_pass(wl, rec)
    assert bare.failed == spanned.failed == 0
    assert bare.digests == spanned.digests
    assert rec.get("protocol.deliver").calls > 0
    assert run.span_residual(rec) == pytest.approx(0.0, abs=1e-9)


def test_gate_passes_a_real_run_and_flags_a_doctored_one():
    one = _paper_case1()
    result = runner.run_scenario(one.cfg, profile=one.profile, seed=one.seed,
                                 with_trace=True)
    assert gate.problems(result.report, result.trace,
                         workloads.ALL_AUDITS) == []
    doctored = dataclasses.replace(result.report,
                                   sent=result.report.sent + 1)
    found = gate.problems(doctored, result.trace, workloads.ALL_AUDITS)
    assert any("delivered" in p for p in found)
    shrunk = dataclasses.replace(result.report, wire_bytes=0)
    assert gate.problems(shrunk, result.trace, workloads.LOSS_SAFE_AUDITS)


def test_run_costs_take_segment_medians_and_normalise():
    def watch(segments, ref):
        w = timing.Stopwatch(clock=_Clock())
        w.runs = [list(segments)]
        w.refs = [ref]
        return w

    # the host runs twice as slow in the second pass, and so does the kernel
    passes = [watch([1.0, 2.0], 0.5), watch([2.0, 4.0], 1.0),
              watch([1.2, 2.2], 0.5)]
    assert timing.run_costs(passes, normalise=False) == [pytest.approx(3.4)]
    assert timing.run_costs(passes, normalise=True) == [pytest.approx(6.0)]


def test_stopwatch_samples_the_reference_between_segments():
    w = timing.Stopwatch()
    w.start_run()
    w.time(time.sleep, timing.REF_EVERY_S)
    w.time(lambda: None)
    assert len(w.runs[0]) == 2
    assert len(w.refs) == 1
    w.drop_run()
    assert w.runs == [[]]
