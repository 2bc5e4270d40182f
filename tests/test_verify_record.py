"""Verifying against the record of a tag changes no outcome.

``security.wrap`` hands every signed envelope a record of what its tag is
computed from, and computes no tag: ``Envelope.tag`` does, when it is first
read. ``security.unwrap`` passes an envelope whose signed fields are the
recorded objects, and whose tag is unread or the one the record computed,
without hashing. The reference path computes every tag as the envelope is
built and carries no record, so ``unwrap`` hashes every tag again. Both
must give the same report, trace and sends, byte for byte, on the bundled
runs and on every single lost send of a small network. With the record, a
run computes no tag unless something reads one, and the wire digest, which
reads every tag, computes each exactly once.
"""

import dataclasses

import pytest

from ansim import security
from ansim.model import Envelope
from ansim.runner import PROFILE_ORDER
from ansim.scenario import builtin_scenario_names, load_scenario

from helpers import five_nodes, load_script, single_loss_digests

SIGNED = [profile for profile in PROFILE_ORDER if profile != "plain"]

regen = load_script("regen_golden")


def strip_the_record(monkeypatch):
    """Build every envelope from now on with its tag computed at once and
    without the record ``wrap`` hands it, so ``unwrap`` hashes every tag
    again."""

    def unrecorded(*args, **kwargs):
        # replace reads every field, the tag included, and copies fields
        # only
        return dataclasses.replace(Envelope(*args, **kwargs))

    monkeypatch.setattr(security, "Envelope", unrecorded)


def count_tags(monkeypatch):
    """Count from now on every tag computed and every signed envelope
    wrapped; returns the counter. A wrap is counted by its record, since
    reading its tag would compute it."""
    tag_for = security._tag_for
    wrap = security.wrap
    counted = {"tags": 0, "signed": 0}

    def counting(*args):
        counted["tags"] += 1
        return tag_for(*args)

    def signing(*args):
        env = wrap(*args)
        counted["signed"] += env._signed is not None
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
    run = regen.run_digest(cfg, profile)
    # nothing in a report-and-trace run reads a tag, so none is computed
    assert counted["tags"] == 0
    signed = counted["signed"]
    wire = regen.wire_digest(cfg, profile)
    # the wire digest reads every tag as it is sent: each is computed once,
    # and every verification after it is spared the hash
    assert counted["tags"] == counted["signed"] - signed == signed
    strip_the_record(monkeypatch)
    counted["tags"] = 0
    assert (regen.run_digest(cfg, profile),
            regen.wire_digest(cfg, profile)) == (run, wire)
    # both runs compute each tag as it is signed and again as it is
    # verified
    if profile == "plain":
        assert counted["tags"] == signed == 0
    else:
        assert counted["tags"] > 2 * signed > 0


@pytest.mark.parametrize("profile", SIGNED)
def test_every_single_loss_is_unchanged_by_hashing_every_tag(profile,
                                                             monkeypatch):
    cfg = five_nodes(profile)
    counted = count_tags(monkeypatch)
    recorded = single_loss_digests(cfg, profile)
    # the sweep hashes every send as its full envelope, so reads every tag
    signed = counted["signed"]
    assert counted["tags"] == signed > 0
    strip_the_record(monkeypatch)
    counted["tags"] = 0
    assert single_loss_digests(cfg, profile) == recorded
    # the same sends, each tag computed as it is signed and again as it is
    # verified
    assert counted["tags"] > signed
