"""Command-line entry points: run, compare, validate.

Exit codes classify the outcome: 0 for a clean run, 1 for configuration or
usage errors. Stdout carries exactly one JSON document; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

from .metrics import ComparisonReport, run_report_to_csv
from .runner import compare_profiles, run_scenario
from .scenario import (
    PROFILE_NAMES,
    ScenarioError,
    load_scenario,
    scenario_to_json,
)

SEED_ENV_VAR = "AN_SIM_SEED"
PAPER_CASES = ("paper-case1", "paper-case2", "paper-case3")


class _CliError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ansim",
        description="Deterministic simulator for role-based mutual "
                    "monitoring in a lossy sensor network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, positional: bool = True):
        if positional:
            p.add_argument("scenario_name", nargs="?", metavar="SCENARIO",
                           help="bundled scenario name or path to a JSON file")
        p.add_argument("--scenario", metavar="PATH",
                       help="scenario file path (alternative to the "
                            "positional name)")
        p.add_argument("--seed", metavar="U64",
                       help=f"seed override ({SEED_ENV_VAR} is the fallback)")
        p.add_argument("--out", metavar="PATH",
                       help="also write the report to this file")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="format for --out (stdout is always JSON)")

    p_run = sub.add_parser("run", help="run one scenario under one profile")
    add_common(p_run)
    p_run.add_argument("--profile", choices=sorted(PROFILE_NAMES),
                       help="security profile override")
    p_run.add_argument("--trace", metavar="PATH",
                       help="write the event trace to this file")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="run one scenario under all three profiles")
    add_common(p_cmp)
    p_cmp.add_argument("--paper-cases", action="store_true",
                       help="compare the three bundled reference scenarios "
                            "instead of one scenario under three profiles")
    p_cmp.add_argument("--normalize-nodes", action="store_true",
                       help="with --paper-cases: run every case on the first "
                            "case's topology so node counts match")
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate", help="parse and echo a scenario")
    add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def _resolve_scenario_arg(args) -> str:
    positional = getattr(args, "scenario_name", None)
    flag = args.scenario
    if positional and flag:
        raise _CliError("give either a positional scenario or --scenario, "
                        "not both")
    target = positional or flag
    if not target:
        raise _CliError("a scenario is required (positional name or "
                        "--scenario PATH)")
    return target


def _resolve_seed(args) -> Optional[int]:
    raw = args.seed if args.seed is not None else os.environ.get(SEED_ENV_VAR)
    if raw in (None, ""):
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _CliError(f"seed must be an integer, got {raw!r}")
    if not 0 <= value < 2 ** 64:
        raise _CliError("seed must fit in an unsigned 64-bit integer")
    return value


def _emit(doc: str, out_path: Optional[str], out_text: Optional[str] = None) -> None:
    """Print the JSON document to stdout; optionally write a file copy."""
    if out_text is not None and not out_path:
        raise _CliError("--format csv needs --out PATH to receive the table")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(out_text if out_text is not None else doc)
            fh.write("\n")
    print(doc)


def _cmd_run(args) -> int:
    cfg = load_scenario(_resolve_scenario_arg(args))
    seed = _resolve_seed(args)
    result = run_scenario(cfg, profile=args.profile, seed=seed,
                          with_trace=args.trace is not None)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for line in result.trace:
                fh.write(line + "\n")
    doc = json.dumps(result.report.to_json_dict(), indent=2)
    out_text = (run_report_to_csv(result.report)
                if args.format == "csv" else None)
    _emit(doc, args.out, out_text)
    return 0


def _paper_case_comparison(args, seed: Optional[int]) -> ComparisonReport:
    cfgs = [load_scenario(name) for name in PAPER_CASES]
    counts = {cfg.name: len(cfg.nodes) for cfg in cfgs}
    if len(set(counts.values())) > 1 and not args.normalize_nodes:
        print(f"warning: node counts differ across bundled cases ({counts}); "
              f"pass --normalize-nodes to compare on equal topologies",
              file=sys.stderr)
    if args.normalize_nodes:
        base = cfgs[0]
        cfgs = [dataclasses.replace(cfg, nodes=base.nodes, links=base.links,
                                    timers=base.timers,
                                    duration_ms=base.duration_ms)
                for cfg in cfgs]
    runs = {}
    for cfg in cfgs:
        report = run_scenario(cfg, seed=seed).report
        runs[cfg.security.profile] = report
    return ComparisonReport(
        scenario="+".join(cfg.name for cfg in cfgs),
        seed=seed if seed is not None else cfgs[0].seed, runs=runs)


def _cmd_compare(args) -> int:
    seed = _resolve_seed(args)
    if args.paper_cases:
        if args.scenario_name or args.scenario:
            raise _CliError("--paper-cases compares the bundled reference "
                            "scenarios and takes no scenario")
        comp = _paper_case_comparison(args, seed)
    else:
        if args.normalize_nodes:
            raise _CliError("--normalize-nodes needs --paper-cases")
        cfg = load_scenario(_resolve_scenario_arg(args))
        comp = compare_profiles(cfg, seed=seed)
    doc = json.dumps(comp.to_json_dict(), indent=2)
    out_text = comp.to_csv() if args.format == "csv" else None
    _emit(doc, args.out, out_text)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_scenario(_resolve_scenario_arg(args))
    if args.format == "csv":
        raise _CliError("validate emits JSON only")
    _emit(scenario_to_json(cfg), args.out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; every usage error exits 1 here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
