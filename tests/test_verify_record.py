"""Verifying against the record of a tag changes no outcome.

``security.wrap`` records the inputs of every tag it computes in
``KeyRegistry.unchecked``, and ``security.unwrap`` passes an envelope whose
signed fields are the recorded objects without hashing them again. A
registry whose record keeps nothing makes ``unwrap`` hash every tag again.
Both must give the same report, trace and sends, byte for byte, on the
bundled runs and on every single lost send of a small network, and the
record must hold only envelopes still in flight.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from ansim import security
from ansim.kernel import FaultKind, FaultSpec
from ansim.model import DATA_PACKET_KINDS
from ansim.runner import PROFILE_ORDER, build_simulation
from ansim.scenario import (
    LinksConfig,
    NodeSpec,
    ScenarioConfig,
    SecurityConfig,
    builtin_scenario_names,
    load_scenario,
)
from ansim.security import KeyRegistry

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIGNED = [profile for profile in PROFILE_ORDER if profile != "plain"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = load_script("regen_golden")
sweep = load_script("loss_sweep")


class Unrecorded(dict):
    """A record of tags that keeps nothing."""

    def __setitem__(self, tag, signed):
        pass


def recompute_every_tag(monkeypatch):
    """Give every registry built from now on a record that keeps nothing,
    so ``unwrap`` hashes every tag again."""
    init = KeyRegistry.__init__

    def unrecorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.unchecked = Unrecorded()

    monkeypatch.setattr(KeyRegistry, "__init__", unrecorded)


def count_tags(monkeypatch):
    """Count every tag computed from now on; returns the counter."""
    tag_for = security._tag_for
    counted = {"tags": 0}

    def counting(*args):
        counted["tags"] += 1
        return tag_for(*args)

    monkeypatch.setattr(security, "_tag_for", counting)
    return counted


@pytest.mark.parametrize("name,profile", [
    (name, profile) for name in builtin_scenario_names()
    for profile in PROFILE_ORDER])
def test_bundled_runs_are_unchanged_by_hashing_every_tag(name, profile,
                                                         monkeypatch):
    cfg = load_scenario(name)
    counted = count_tags(monkeypatch)
    recorded = (regen.run_digest(cfg, profile), regen.wire_digest(cfg, profile))
    tags = counted["tags"]
    recompute_every_tag(monkeypatch)
    counted["tags"] = 0
    assert (regen.run_digest(cfg, profile),
            regen.wire_digest(cfg, profile)) == recorded
    # the record spared a hash per verified envelope it vouched for
    if profile == "plain":
        assert counted["tags"] == tags == 0
    else:
        assert counted["tags"] > tags > 0


def five_nodes(profile):
    nodes = tuple(NodeSpec(id=i, hardware_id=9000 + i,
                           processing_power=120 if i == 1 else 100)
                  for i in range(1, 6))
    return ScenarioConfig(name="t", seed=3, duration_ms=200000, nodes=nodes,
                          links=LinksConfig(latency_ms=10),
                          security=SecurityConfig(profile=profile))


def single_loss_digests(cfg, profile, monkeypatch):
    """Per send of the undisturbed run, the sha256 of the report and trace
    and the sha256 of every send, with that send lost."""
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

    monkeypatch.setattr(sweep, "build_simulation", hashing_sends)
    sends = sweep.lose_one(cfg, profile)[0].sent
    assert sends > 100
    digests = []
    for seq in range(1, sends + 1):
        text = sweep.outcome_text(*sweep.lose_one(cfg, profile, seq))
        digests.append((hashlib.sha256(text.encode()).hexdigest(),
                        wire[-1].hexdigest()))
    return digests


@pytest.mark.parametrize("profile", SIGNED)
def test_every_single_loss_is_unchanged_by_hashing_every_tag(profile,
                                                             monkeypatch):
    cfg = five_nodes(profile)
    counted = count_tags(monkeypatch)
    recorded = single_loss_digests(cfg, profile, monkeypatch)
    tags = counted["tags"]
    recompute_every_tag(monkeypatch)
    counted["tags"] = 0
    assert single_loss_digests(cfg, profile, monkeypatch) == recorded
    assert counted["tags"] > tags > 0


def test_the_record_holds_only_envelopes_in_flight():
    nodes = tuple(NodeSpec(id=i, hardware_id=9000 + i,
                           processing_power=120 if i == 1 else 100)
                  for i in range(1, 13))
    cfg = ScenarioConfig(
        name="t", seed=3, duration_ms=400000, nodes=nodes,
        links=LinksConfig(latency_ms=10, jitter_ms=5, loss_probability=0.05),
        security=SecurityConfig(profile="auth-encap"),
        faults=(FaultSpec(target=5, kind=FaultKind.DROP_NEXT_N,
                          at_ms=40000, n=3),
                FaultSpec(target=5, kind=FaultKind.RESTORE, at_ms=150000),
                FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=90000),
                FaultSpec(target=1, kind=FaultKind.RESTORE, at_ms=220000)))
    engine, network, recorder, _ = build_simulation(cfg)
    forced = range(700, 720)
    engine.force_lose(*forced)
    sends = []
    in_flight = {}
    record = recorder.record_send

    def tracking(seq, env, delivered):
        sends.append((seq, env, delivered))
        if delivered:
            in_flight[id(env)] = env
        record(seq, env, delivered)

    deliver = engine.on_deliver
    held = []

    def arriving(env):
        del in_flight[id(env)]
        deliver(env)
        unchecked = network.keys.unchecked
        assert set(unchecked) <= {env.tag for env in in_flight.values()}
        held.append(len(unchecked))

    recorder.record_send = tracking
    engine.on_deliver = arriving
    engine.run_until(cfg.duration_ms)
    assert max(held) > 0
    lost = {seq for seq, env, delivered in sends
            if not delivered and env.tag is not None}
    # the forced losses, node 5's three dropped data packets and random
    # losses each lost signed envelopes
    assert set(forced) <= lost
    dropped = [seq for seq, env, _ in sends
               if env.sender == 5 and env.sent_at >= 40000
               and env.kind in DATA_PACKET_KINDS][:3]
    assert len(dropped) == 3 and set(dropped) <= lost
    assert len(lost) > len(forced) + len(dropped)
