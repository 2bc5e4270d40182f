"""Benchmark workloads: scenario JSON generated from the benchmark seed.

The simulator only ever sees the generated JSON text, parsed through
``ansim.scenario.parse_scenario``. The same workload name and seed always
give the same texts, and so the same runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import ansim
from ansim import scenario
from ansim.scenario import ScenarioConfig

PROFILES = ("plain", "auth", "auth-encap")
BUNDLED = ("paper-case1", "paper-case2", "paper-case3",
           "fire-sensor-dropout", "admin-failover")
SEEDS_PER_CELL = 7  # 5 scenarios x 3 profiles x 7 seeds = 105 runs

FANOUT_NODES = 400
CHURN_NODES = 300
SIM_DURATION_MS = 600_000

# Audit sets, see gate.py. "all" is only valid on lossless, jitter-free links.
ALL_AUDITS = "all"
LOSS_SAFE_AUDITS = "loss-safe"


@dataclass(frozen=True)
class Run:
    """One call of ``run_scenario``; ``None`` keeps the scenario's own value."""

    cfg: ScenarioConfig
    profile: Optional[str] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[Run, ...]
    audits: str


def synthetic_scenario(name: str, seed: int, *, nodes: int, profile: str,
                       loss: float, jitter_ms: int,
                       churn: bool = False) -> str:
    """A random network of ``nodes`` sensors as scenario JSON.

    Hardware ids and processing powers are drawn from ``seed``. With
    ``churn`` the administrator crashes at 120 s and is restored at 300 s,
    and one sensor loses its next three data packets from 60 s until it is
    restored at 200 s.
    """
    rng = random.Random(f"{name}/{seed}")
    hardware = rng.sample(range(100_000, 100_000 + 100 * nodes), nodes)
    power = [rng.randint(50, 250) for _ in range(nodes)]
    ids = list(range(1, nodes + 1))
    # the protocol makes the strongest node administrator, ties to lower id
    admin = min(ids, key=lambda i: (-power[i - 1], i))
    faults = []
    if churn:
        sensor = rng.choice([i for i in ids if i != admin])
        faults = [
            {"target": sensor, "kind": "drop_next_n", "at_ms": 60_000, "n": 3},
            {"target": admin, "kind": "crash", "at_ms": 120_000},
            {"target": sensor, "kind": "restore", "at_ms": 200_000},
            {"target": admin, "kind": "restore", "at_ms": 300_000},
        ]
    doc = {
        "name": f"{name}-{nodes}",
        "seed": seed,
        "duration_ms": SIM_DURATION_MS,
        "nodes": [{"id": i, "hardware_id": hardware[i - 1],
                   "processing_power": power[i - 1]} for i in ids],
        "links": {"latency_ms": 10, "jitter_ms": jitter_ms,
                  "loss_probability": loss},
        "security": {"profile": profile},
        "faults": faults,
    }
    return json.dumps(doc, indent=1)


def bundled_texts() -> dict[str, str]:
    """The bundled scenario files, read as the JSON text they ship as."""
    root = Path(ansim.__file__).parent / "scenarios"
    return {name: (root / f"{name}.json").read_text(encoding="utf-8")
            for name in BUNDLED}


def _bundled_sweep(seed: int) -> Workload:
    seeds = [SEEDS_PER_CELL * seed + k for k in range(1, SEEDS_PER_CELL + 1)]
    runs = []
    for text in bundled_texts().values():
        cfg = scenario.parse_scenario(text)
        runs += [Run(cfg, profile, s) for profile in PROFILES for s in seeds]
    return Workload("bundled-sweep", tuple(runs), ALL_AUDITS)


def _fanout_plain(seed: int) -> Workload:
    text = synthetic_scenario("fanout-plain", seed, nodes=FANOUT_NODES,
                              profile="plain", loss=0.0, jitter_ms=0)
    return Workload("fanout-plain", (Run(scenario.parse_scenario(text)),),
                    ALL_AUDITS)


def _secure_churn(seed: int) -> Workload:
    text = synthetic_scenario("secure-churn", seed, nodes=CHURN_NODES,
                              profile="auth-encap", loss=0.02, jitter_ms=5,
                              churn=True)
    return Workload("secure-churn", (Run(scenario.parse_scenario(text)),),
                    LOSS_SAFE_AUDITS)


GENERATORS = {
    "bundled-sweep": _bundled_sweep,
    "fanout-plain": _fanout_plain,
    "secure-churn": _secure_churn,
}


def build(name: str, seed: int) -> Workload:
    """Generate and parse every scenario of one workload."""
    return GENERATORS[name](seed)
