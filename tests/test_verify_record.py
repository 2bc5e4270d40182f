"""Verifying against the record of a tag changes no outcome.

``security.wrap`` hands every signed envelope a record of what its tag was
computed from, and ``security.unwrap`` passes an envelope whose tag and
signed fields are the recorded objects without hashing them again.
Building every envelope without the record makes ``unwrap`` hash every tag
again. Both must give the same report, trace and sends, byte for byte, on
the bundled runs and on every single lost send of a small network, and
with the record each tag is computed exactly once, when it is signed.
"""

import pytest

from ansim import security
from ansim.model import Envelope
from ansim.runner import PROFILE_ORDER
from ansim.scenario import builtin_scenario_names, load_scenario

from helpers import five_nodes, load_script, single_loss_digests

SIGNED = [profile for profile in PROFILE_ORDER if profile != "plain"]

regen = load_script("regen_golden")


def strip_the_record(monkeypatch):
    """Build every envelope from now on without the record ``wrap`` hands
    it, so ``unwrap`` hashes every tag again."""

    def unrecorded(*args, _signed=None, **kwargs):
        return Envelope(*args, **kwargs)

    monkeypatch.setattr(security, "Envelope", unrecorded)


def count_tags(monkeypatch):
    """Count from now on every tag computed and every signed envelope
    wrapped; returns the counter."""
    tag_for = security._tag_for
    wrap = security.wrap
    counted = {"tags": 0, "signed": 0}

    def counting(*args):
        counted["tags"] += 1
        return tag_for(*args)

    def signing(*args):
        env = wrap(*args)
        counted["signed"] += env.tag is not None
        return env

    monkeypatch.setattr(security, "_tag_for", counting)
    monkeypatch.setattr(security, "wrap", signing)
    return counted


@pytest.mark.parametrize("name,profile", [
    (name, profile) for name in builtin_scenario_names()
    for profile in PROFILE_ORDER])
def test_bundled_runs_are_unchanged_by_hashing_every_tag(name, profile,
                                                         monkeypatch):
    cfg = load_scenario(name)
    counted = count_tags(monkeypatch)
    recorded = (regen.run_digest(cfg, profile), regen.wire_digest(cfg, profile))
    tags, signed = counted["tags"], counted["signed"]
    strip_the_record(monkeypatch)
    counted["tags"] = 0
    assert (regen.run_digest(cfg, profile),
            regen.wire_digest(cfg, profile)) == recorded
    # the record spared the hash of every verification: each tag was
    # computed once, when it was signed
    if profile == "plain":
        assert counted["tags"] == tags == signed == 0
    else:
        assert counted["tags"] > tags == signed > 0


@pytest.mark.parametrize("profile", SIGNED)
def test_every_single_loss_is_unchanged_by_hashing_every_tag(profile,
                                                             monkeypatch):
    cfg = five_nodes(profile)
    counted = count_tags(monkeypatch)
    recorded = single_loss_digests(cfg, profile)
    tags, signed = counted["tags"], counted["signed"]
    strip_the_record(monkeypatch)
    counted["tags"] = 0
    assert single_loss_digests(cfg, profile) == recorded
    assert counted["tags"] > tags == signed > 0
