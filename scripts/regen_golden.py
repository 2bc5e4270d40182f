#!/usr/bin/env python3
"""Regenerate the golden files under tests/data/.

Run this only after an intentional behaviour change, then review the diff.
The golden trace pins the exact event sequence of one bundled fault
scenario; golden_digests.json pins the sha256 of the report and trace of
every bundled scenario under every profile, plus two synthetic networks
that reach paths the bundled scenarios do not (per-receiver key failures on
broadcasts, lossy and jittery links at fifty nodes).
"""

import hashlib
import json
import pathlib
import sys

from ansim.runner import PROFILE_ORDER, run_scenario
from ansim.scenario import builtin_scenario_names, load_scenario, parse_scenario

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
GOLDEN_SCENARIOS = ("fire-sensor-dropout",)
DIGESTS_FILE = DATA_DIR / "golden_digests.json"


def _synthetic(name: str, n_nodes: int, *, unregistered=(), loss=0.0,
               jitter_ms=0, duration_ms=600000) -> str:
    nodes = [{"id": i, "hardware_id": 9000 + i,
              "processing_power": 50 + (37 * i) % 200,
              "registered": i not in unregistered}
             for i in range(1, n_nodes + 1)]
    return json.dumps({
        "name": name, "seed": 5, "duration_ms": duration_ms, "nodes": nodes,
        "links": {"latency_ms": 10, "jitter_ms": jitter_ms,
                  "loss_probability": loss},
        "security": {"profile": "auth-encap"},
    })


def digest_cases():
    """(key, scenario, profile) for every run whose digest is pinned."""
    for name in builtin_scenario_names():
        cfg = load_scenario(name)
        for profile in PROFILE_ORDER:
            yield f"{name}/{profile}", cfg, profile
    # node 1 holds no group key, so every broadcast it hears fails for it
    yield ("unregistered-3/auth-encap",
           parse_scenario(_synthetic("unregistered-3", 3, unregistered={1},
                                     duration_ms=120000)), None)
    yield ("lossy-50/auth-encap",
           parse_scenario(_synthetic("lossy-50", 50, loss=0.02,
                                     jitter_ms=5)), None)


def run_digest(cfg, profile) -> str:
    """sha256 of the report JSON as ``ansim run`` prints it, followed by the
    trace as ``ansim run --trace`` writes it."""
    result = run_scenario(cfg, profile=profile, with_trace=True)
    text = (json.dumps(result.report.to_json_dict(), indent=2) + "\n"
            + "".join(line + "\n" for line in result.trace))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests() -> dict[str, str]:
    return {key: run_digest(cfg, profile)
            for key, cfg, profile in digest_cases()}


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_SCENARIOS:
        cfg = load_scenario(name)
        result = run_scenario(cfg, with_trace=True)
        path = DATA_DIR / f"{name}.trace"
        path.write_text("\n".join(result.trace) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(result.trace)} lines)")
    digests = golden_digests()
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2) + "\n",
                            encoding="utf-8")
    print(f"wrote {DIGESTS_FILE} ({len(digests)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
