#!/usr/bin/env python3
"""Benchmark for the ansim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in workloads.py, or ``all`` to run each of
them in its own process. With ``--trace 0`` the benchmark repeats the
workload for about ``S`` seconds with no instrumentation and reports the
end-to-end metrics; times are in units of a reference kernel timed during
the same pass (see timing.py), and the same figures in seconds are printed
but not bounded. With ``--trace 1`` it alternates an uninstrumented pass
with a span pass (see spans.py) and reports the per-layer metrics. Every run
goes through the correctness gate in gate.py, and every pass must reproduce
the first pass's output byte for byte.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
simulator is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from timing import Stopwatch, run_costs

THIS = Path(__file__).resolve()
SRC = THIS.parent.parent / "src"
WORKLOADS = ("bundled-sweep", "fanout-plain", "secure-churn")
SETUP_PROBES = 8  # fresh processes timing set-up, besides this one
PROBE_TIMEOUT_S = 120


# Modules that import ansim (workloads, gate, spans) are imported inside the
# functions that need them, so that set-up timing covers the ansim import.


class SetupError(Exception):
    pass


def setup(workload: str, seed: int):
    """Import ansim from the checkout, then generate and parse every
    scenario of the workload. Returns the workload and the seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import ansim
    except ImportError as exc:
        raise SetupError(f"cannot import ansim from {SRC}: {exc}") from exc
    if SRC not in Path(ansim.__file__).resolve().parents:
        raise SetupError(f"ansim was imported from {ansim.__file__}, "
                         f"not from {SRC}")
    import workloads
    wl = workloads.build(workload, seed)
    return wl, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import is cold."""
    out = subprocess.run(
        [sys.executable, str(THIS), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ passes

STEP_MS = 10_000  # simulated time covered by one timed slice of run_until


@dataclass
class Pass:
    """One execution of every run of a workload.

    Each run is timed in segments: the build, one segment per ``STEP_MS``
    of simulated time, and the report. A run that raised has no segments.
    """

    watch: Stopwatch = field(default_factory=Stopwatch)
    digests: list[Optional[str]] = field(default_factory=list)
    failed: int = 0
    check_s: float = 0.0
    events: int = 0
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    wire_bytes: int = 0


def _serialise(report, trace: list[str]) -> tuple[str, str]:
    """The report and trace text exactly as ``ansim run --trace`` writes
    them."""
    report_json = json.dumps(report.to_json_dict(), indent=2)
    trace_text = "".join(line + "\n" for line in trace)
    return report_json, trace_text


def execute(run, watch: Stopwatch, serialise=_serialise):
    """What ``runner.run_scenario(..., with_trace=True)`` does, followed by
    serialisation, with ``run_until`` advanced in ``STEP_MS`` slices, each
    step timed by ``watch``."""
    from ansim import metrics, runner

    cfg = run.cfg

    def report_and_serialise():
        report = metrics.RunReport.from_run(
            scenario=cfg.name,
            profile=cfg.security_profile(run.profile).kind.value,
            seed=cfg.seed if run.seed is None else run.seed,
            duration_ms=cfg.duration_ms, recorder=recorder, network=network)
        return (report, *serialise(report, trace))

    engine, network, recorder, trace = watch.time(
        runner.build_simulation, cfg, profile=run.profile, seed=run.seed,
        with_trace=True)
    for stop in [*range(STEP_MS, cfg.duration_ms, STEP_MS), cfg.duration_ms]:
        watch.time(engine.run_until, stop)
    report, report_json, trace_text = watch.time(report_and_serialise)
    return report, trace, engine, report_json, trace_text


def run_pass(wl, rec=None) -> Pass:
    import gate

    serialise = rec.wrap("metrics.report", _serialise) if rec else _serialise
    p = Pass()
    for run in wl.runs:
        p.watch.start_run()
        try:
            report, trace, engine, report_json, trace_text = execute(
                run, p.watch, serialise)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            p.watch.drop_run()
            p.failed += 1
            p.digests.append(None)
            continue
        check_start = time.perf_counter()
        found = gate.problems(report, trace, wl.audits)
        p.digests.append(gate.digest(report_json, trace_text))
        p.check_s += time.perf_counter() - check_start
        if found:
            print(f"gate: {report.scenario} profile {report.profile} seed "
                  f"{report.seed}: {found[:3]}", file=sys.stderr)
            p.failed += 1
        p.events += engine.stats.dispatched
        p.sent += report.sent
        p.delivered += report.delivered
        p.lost += report.lost
        p.wire_bytes += report.wire_bytes
    return p


def pass_digest(p: Pass) -> str:
    """One sha256 over the per-run digests of a pass, in run order."""
    return hashlib.sha256(
        "\n".join(d or "failed" for d in p.digests).encode()).hexdigest()


def count_mismatches(reference: Pass, other: Pass) -> int:
    """Runs whose output differs from the reference pass, not counting runs
    that already failed."""
    return sum(1 for ref, got in zip(reference.digests, other.digests)
               if got is not None and got != ref)


def measure(wl, seconds: float, trace: bool):
    """Repeat the workload until another iteration would overrun
    ``seconds``. Returns the uninstrumented passes, the span passes and
    their recorders."""
    from spans import SpanRecorder, instrument

    bare, spanned, recorders = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        bare.append(run_pass(wl))
        if trace:
            gc.collect()
            rec = SpanRecorder()
            with instrument(rec):
                spanned.append(run_pass(wl, rec))
            recorders.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed * (len(bare) + 1) / len(bare) > seconds:
            return bare, spanned, recorders


# ----------------------------------------------------------------- metrics

def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(bare: list[Pass], setups: list[float]) -> tuple[list, list]:
    """(name, value, unit, sample note) for every end-to-end metric, and
    the same figures in seconds, which are printed but not bounded."""
    note = f"segment medians over {len(bare)} passes"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(costs: list[float], unit: str, run_unit: str, scale: float):
        wall = sum(costs)
        per_run = [c * scale for c in costs]
        runs = f"{len(per_run)} runs, {note}"
        return [
            (f"wall_{unit}", wall, unit, note),
            (f"events_per_{unit}", bare[0].events / wall, f"1/{unit}", note),
            (f"run_{run_unit}_p50", statistics.median(per_run), run_unit, runs),
            (f"run_{run_unit}_p90", percentile(per_run, 90), run_unit, runs),
        ]

    bounded = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups"),
        *figures(run_costs([p.watch for p in bare], normalise=True),
                 "ref", "ref", 1.0),
        ("peak_rss_mb", rss_mb, "MB", "whole process"),
    ]
    seconds = figures(run_costs([p.watch for p in bare], normalise=False),
                      "s", "ms", 1000.0)
    return bounded, seconds


def per_layer(bare: list[Pass], spanned: list[Pass], recorders: list,
              parse_s: float) -> list[tuple]:
    """(name, value, unit, sample note) for every per-layer metric; times
    and counts are per pass, medians over the span passes."""
    def med(fn) -> float:
        return statistics.median(fn(r) for r in recorders)

    def total(name):
        return med(lambda r: r.get(name).total_s)

    def self_(name):
        return med(lambda r: r.get(name).self_s)

    def calls(name):
        return med(lambda r: r.get(name).calls)

    first = bare[0]
    n = f"median of {len(recorders)} span passes"
    overhead = (sum(run_costs([p.watch for p in spanned], normalise=False))
                - sum(run_costs([p.watch for p in bare], normalise=False)))
    return [
        ("scenario.parse_s", parse_s, "s", "one set-up"),
        ("runner.build_s", total("runner.build"), "s", n),
        ("kernel.run_until_s", total("kernel.run_until"), "s", n),
        ("kernel.loop_self_s", self_("kernel.run_until"), "s", n),
        ("kernel.schedule_s", total("kernel.schedule"), "s", n),
        ("kernel.schedule_calls", calls("kernel.schedule"), "count", n),
        ("kernel.send_self_s", self_("kernel.send"), "s", n),
        ("kernel.send_calls", calls("kernel.send"), "count", n),
        ("kernel.events", first.events, "count", "per pass"),
        ("kernel.lost", first.lost, "count", "per pass"),
        ("kernel.peak_pending", med(lambda r: r.peak_pending), "count", n),
        ("protocol.deliver_self_s", self_("protocol.deliver"), "s", n),
        ("protocol.deliver_calls", calls("protocol.deliver"), "count", n),
        ("protocol.timer_self_s", self_("protocol.timer"), "s", n),
        ("protocol.timer_calls", calls("protocol.timer"), "count", n),
        ("security.wrap_s", total("security.wrap"), "s", n),
        ("security.wrap_calls", calls("security.wrap"), "count", n),
        ("security.unwrap_s", total("security.unwrap"), "s", n),
        ("security.unwrap_calls", calls("security.unwrap"), "count", n),
        ("security.unwraps_per_wrap",
         med(lambda r: r.get("security.unwrap").calls
             / max(1, r.get("security.wrap").calls)), "ratio", n),
        ("security.tota_s", total("security.tota"), "s", n),
        ("security.tota_calls", calls("security.tota"), "count", n),
        ("metrics.record_s", total("metrics.record"), "s", n),
        ("metrics.record_calls", calls("metrics.record"), "count", n),
        ("metrics.report_s", total("metrics.report"), "s", n),
        ("audit.check_s", statistics.median(p.check_s for p in bare),
         "s", f"median of {len(bare)} passes"),
        ("span_overhead_s", overhead, "s",
         f"span minus bare, over {len(spanned)} passes each"),
    ]


def span_residual(rec) -> float:
    """How far the self times inside ``run_until`` miss its duration."""
    return (rec.get("kernel.run_until").total_s
            - rec.tree_self_s.get("kernel.run_until", 0.0))


# -------------------------------------------------------------------- main

def run_workload(args) -> int:
    try:
        wl, first_setup = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    from spans import SpanRecorder, instrument
    import workloads

    parse_s = 0.0
    if args.trace:
        rec = SpanRecorder()
        with instrument(rec):
            workloads.build(args.workload, args.seed)
        parse_s = rec.get("scenario.parse").total_s
        setups = [first_setup]
    else:
        setups = [first_setup] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]

    bare, spanned, recorders = measure(wl, args.seconds, bool(args.trace))
    if not run_costs([p.watch for p in bare], normalise=False):
        print("error: every run raised", file=sys.stderr)
        return 1
    reference = bare[0]
    passes = bare + spanned
    attempted = sum(len(p.digests) for p in passes)
    failed = sum(p.failed + count_mismatches(reference, p) for p in passes)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(wl.runs)} runs a pass, {len(bare)} bare passes, "
          f"{len(spanned)} span passes")
    print(f"  identity sim.sent={reference.sent} "
          f"sim.delivered={reference.delivered} sim.lost={reference.lost} "
          f"sim.wire_bytes={reference.wire_bytes} "
          f"sim.events={reference.events} "
          f"sha256={pass_digest(reference)}")
    print(f"  attempted {attempted} runs, failed {failed}, fail_share "
          f"{failed / attempted:.4f}")
    ref_ms = statistics.median(p.watch.ref_s() for p in passes) * 1000.0
    print(f"  host speed: reference kernel {ref_ms:.4g} ms (median over "
          f"passes; 1 ref = that time)")
    unbounded = []
    if args.trace:
        metrics = per_layer(bare, spanned, recorders, parse_s)
        worst = max(abs(span_residual(r)) for r in recorders)
        print(f"  span self times inside kernel.run_until miss its duration "
              f"by at most {worst:.3g} s")
    else:
        metrics, unbounded = end_to_end(bare, setups)
    for name, value, unit, note in metrics:
        print(f"  {name:<26} {value:>14.6g} {unit:<6} ({note})")
    for name, value, unit, note in unbounded:
        print(f"  {name:<26} {value:>14.6g} {unit:<6} ({note}; host-speed "
              f"dependent, not bounded)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(THIS),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
            timeout=4 * args.seconds + 300)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"error: workload {name} exited {out.returncode}",
                  file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
