"""What several test modules share: the scripts under ``scripts/`` loaded
as modules, a small network, the digests of the distinct bundled runs and
of every single lost send of the small network, and those digests through
the straight paths, computed once per session."""

import functools
import hashlib
import importlib.util
import pathlib

import pytest

from ansim.runner import PROFILE_ORDER
from ansim.scenario import (
    LinksConfig,
    NodeSpec,
    ScenarioConfig,
    SecurityConfig,
    load_scenario,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_script(name):
    """A fresh module of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = load_script("loss_sweep")
regen = load_script("regen_golden")

# (scenario name, profile) of every distinct bundled run: a scenario that
# repeats an earlier one apart from name, description and default profile
# has the same runs as the earlier one
DISTINCT_RUNS = [(name, profile) for name, _ in sweep.distinct_scenarios()
                 for profile in PROFILE_ORDER]


def five_nodes(profile):
    """Five nodes on quiet 10 ms links for 200 s; node 1 is the
    administrator. About 130 to 150 sends, so every one of them can be
    lost in turn within a second or so."""
    nodes = tuple(NodeSpec(id=i, hardware_id=9000 + i,
                           processing_power=120 if i == 1 else 100)
                  for i in range(1, 6))
    return ScenarioConfig(name="t", seed=3, duration_ms=200000, nodes=nodes,
                          links=LinksConfig(latency_ms=10),
                          security=SecurityConfig(profile=profile))


def bundled_digests(name, profile):
    """The run digest and the wire digest of bundled scenario ``name``
    under ``profile``, as ``scripts/regen_golden.py`` pins them."""
    cfg = load_scenario(name)
    return regen.run_digest(cfg, profile), regen.wire_digest(cfg, profile)


def single_loss_digests(profile):
    """Per send of the undisturbed run of ``five_nodes(profile)``, with
    that send lost: the sha256 of the report and trace as
    ``scripts/loss_sweep.py`` hashes them, and the sha256 of every send,
    each as its full envelope."""
    cfg = five_nodes(profile)
    build = sweep.build_simulation
    wire = []

    def hashing_sends(*args, **kwargs):
        engine, network, recorder, trace = build(*args, **kwargs)
        h = hashlib.sha256()
        wire.append(h)
        record = recorder.record_send

        def hashing(seq, env, delivered):
            h.update(f"{seq}\t{env!r}\t{delivered}\n".encode())
            record(seq, env, delivered)

        recorder.record_send = hashing
        return engine, network, recorder, trace

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "build_simulation", hashing_sends)
        sends = sweep.lose_one(cfg, profile)[0].sent
        assert sends > 100
        digests = []
        for seq in range(1, sends + 1):
            text = sweep.outcome_text(*sweep.lose_one(cfg, profile, seq))
            digests.append((hashlib.sha256(text.encode()).hexdigest(),
                            wire[-1].hexdigest()))
    # a tuple, since the cached baseline is handed to every test that asks
    return tuple(digests)


# The baselines that each reference path is compared against: the digests
# above through the straight paths, computed when first asked for and kept
# for the session. A test asks for its baseline before it patches anything.
straight_bundled_digests = functools.cache(bundled_digests)
straight_single_loss_digests = functools.cache(single_loss_digests)
