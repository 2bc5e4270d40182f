#!/usr/bin/env python3
"""Lose each send of each bundled run alone, and report the losses that
break liveness.

For every distinct bundled scenario under every profile, the sends of the
undisturbed run are numbered 1 to N as the recorder sees them. The scenario
is then run N more times, each losing one of those sends through
``Engine.force_lose``. A scenario that differs from an earlier one only in
its name, description and default profile is skipped, since every profile
is run anyway: its runs would repeat the earlier scenario's. Per run, the
script prints each send whose loss fails
``audit.audit_crashed_nodes_removed`` or removes a node that never had a
fault. It ends with one sha256 over every outcome's report and trace, so
two trees meant to behave alike can be compared by one line.

    python3 scripts/loss_sweep.py

The simulator is imported from ``src/`` of the checkout this file sits in,
whatever ``PYTHONPATH`` or an installed ``ansim`` would provide.
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ansim import audit  # noqa: E402
from ansim.metrics import RunReport  # noqa: E402
from ansim.model import Cause  # noqa: E402
from ansim.runner import PROFILE_ORDER, build_simulation  # noqa: E402
from ansim.scenario import builtin_scenario_names, load_scenario  # noqa: E402


def lose_one(cfg, profile, seq=None):
    """The report and trace of ``cfg`` under ``profile`` with send ``seq``
    lost, or none with ``seq`` None."""
    engine, network, recorder, trace = build_simulation(
        cfg, profile=profile, with_trace=True)
    if seq is not None:
        engine.force_lose(seq)
    engine.run_until(cfg.duration_ms)
    report = RunReport.from_run(
        scenario=cfg.name, profile=network.profile.kind.value, seed=cfg.seed,
        duration_ms=cfg.duration_ms, recorder=recorder, network=network)
    return report, trace


def outcome_text(report, trace) -> str:
    """The report JSON as ``ansim run`` prints it, then the trace as
    ``ansim run --trace`` writes it."""
    return (json.dumps(report.to_json_dict(), indent=2) + "\n"
            + "".join(line + "\n" for line in trace))


def liveness_faults(report, cfg) -> list[str]:
    """What ``audit_crashed_nodes_removed`` finds, then each node removed
    that never had a fault."""
    faulted = {f.target for f in cfg.faults}
    live = sorted({n.subject for n in report.notifications
                   if n.cause is Cause.REMOVAL and n.subject not in faulted})
    found = audit.audit_crashed_nodes_removed(report, cfg)
    if live:
        found.append(f"removed live nodes {live}")
    return found


def distinct_scenarios():
    """Each bundled scenario's name and config, less those that repeat an
    earlier one apart from name, description and default profile; a line
    names each one skipped. ``scripts/regen_golden.py`` pins the runs of
    the same scenarios."""
    first = {}
    for name in builtin_scenario_names():
        cfg = load_scenario(name)
        key = dataclasses.replace(
            cfg, name="", description="",
            security=dataclasses.replace(cfg.security, profile=""))
        same = first.setdefault(key, name)
        if same != name:
            print(f"{name}: skipped, the same runs as {same}")
            continue
        yield name, cfg


def main() -> int:
    digest = hashlib.sha256()
    outcomes = 0
    for name, cfg in distinct_scenarios():
        for profile in PROFILE_ORDER:
            sends = lose_one(cfg, profile)[0].sent
            breaking = []
            for seq in range(1, sends + 1):
                report, trace = lose_one(cfg, profile, seq)
                digest.update(outcome_text(report, trace).encode())
                outcomes += 1
                found = liveness_faults(report, cfg)
                if found:
                    breaking.append((seq, found))
            print(f"{name}/{profile}: {sends} sends, "
                  f"{len(breaking)} break liveness")
            for seq, found in breaking:
                print(f"  send {seq}: {'; '.join(found)}")
    print(f"sha256 {digest.hexdigest()} over {outcomes} outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
