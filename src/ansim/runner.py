"""Assembles a scenario into a runnable simulation and drives it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import Engine
from .metrics import ComparisonReport, Recorder, RunReport
from .model import CMU_ID
from .protocol import Network
from .scenario import ScenarioConfig
from .security import KeyRegistry

PROFILE_ORDER = ("plain", "auth", "auth-encap")


@dataclass
class RunResult:
    report: RunReport
    trace: list[str]
    network: Network
    engine: Engine


def build_simulation(cfg: ScenarioConfig, *, profile: Optional[str] = None,
                     seed: Optional[int] = None, with_trace: bool = False):
    """Construct engine, network and recorder for one run without running it."""
    prof = cfg.security_profile(profile)
    run_seed = cfg.seed if seed is None else seed
    recorder = Recorder()
    trace: list[str] = [] if with_trace else None
    engine = Engine(seed=run_seed, links=cfg.links,
                    node_ids=[CMU_ID, *cfg.node_ids()],
                    recorder=recorder, trace=trace)
    keys = KeyRegistry(
        seed=run_seed,
        registered_hardware_ids={n.hardware_id for n in cfg.nodes
                                 if n.registered})
    network = Network(
        engine, nodes=list(cfg.nodes), profile=prof, keys=keys,
        timers=cfg.timers, security=cfg.security)
    for fault in cfg.faults:
        engine.inject(fault)
    network.start()
    return engine, network, recorder, trace


def run_scenario(cfg: ScenarioConfig, *, profile: Optional[str] = None,
                 seed: Optional[int] = None,
                 with_trace: bool = False) -> RunResult:
    engine, network, recorder, trace = build_simulation(
        cfg, profile=profile, seed=seed, with_trace=with_trace)
    engine.run_until(cfg.duration_ms)
    report = RunReport.from_run(
        scenario=cfg.name, profile=network.profile.kind.value,
        seed=cfg.seed if seed is None else seed,
        duration_ms=cfg.duration_ms, recorder=recorder, network=network)
    return RunResult(report=report, trace=trace if trace is not None else [],
                     network=network, engine=engine)


def compare_profiles(cfg: ScenarioConfig, *,
                     seed: Optional[int] = None) -> ComparisonReport:
    """Run the same scenario and seed once under each security profile."""
    runs = {}
    for name in PROFILE_ORDER:
        runs[name] = run_scenario(cfg, profile=name, seed=seed).report
    return ComparisonReport(
        scenario=cfg.name, seed=cfg.seed if seed is None else seed, runs=runs)
