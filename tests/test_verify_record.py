"""Verifying against the record of a tag changes no outcome.

``security.wrap`` hands every signed envelope a record of what its tag is
computed from, and computes no tag: ``Envelope.tag`` does, when it is first
read. ``security.unwrap`` passes an envelope whose signed fields are the
recorded objects, and whose tag is unread or the one the record computed,
without hashing. The reference path computes every tag as the envelope is
built and carries no record, so ``unwrap`` hashes every tag again. Both
must give the same report, trace and sends, byte for byte, on the distinct
bundled runs and on every single lost send of a small network. That a run
with the record computes no tag is pinned by
``test_protocol.py::test_signature_tags_computed_once_per_delivered_envelope``,
and that a tag once read is computed once and verified without a hash by
``test_security.py::test_a_tag_read_late_is_the_tag_of_the_wrapped_fields``.
"""

import dataclasses

import pytest

from ansim import security
from ansim.runner import PROFILE_ORDER

from helpers import (
    DISTINCT_RUNS,
    bundled_digests,
    single_loss_digests,
    straight_bundled_digests,
    straight_single_loss_digests,
)

SIGNED = [profile for profile in PROFILE_ORDER if profile != "plain"]


def strip_the_record(monkeypatch):
    """Build every envelope from now on with its tag computed at once and
    without the record ``wrap`` hands it, so ``unwrap`` hashes every tag
    again. Returns a counter of the tags computed and the envelopes signed
    from now on."""
    tag_for, wrap = security._tag_for, security.wrap
    counted = {"tags": 0, "signed": 0}

    def counting(*args):
        counted["tags"] += 1
        return tag_for(*args)

    def unrecorded(*args, **kwargs):
        env = wrap(*args, **kwargs)
        counted["signed"] += env._signed is not None
        # replace reads every field, the tag included, and copies fields
        # only
        env = dataclasses.replace(env)
        assert env._signed is None
        return env

    monkeypatch.setattr(security, "_tag_for", counting)
    monkeypatch.setattr(security, "wrap", unrecorded)
    return counted


@pytest.mark.parametrize("name,profile", DISTINCT_RUNS)
def test_bundled_runs_are_unchanged_by_hashing_every_tag(name, profile,
                                                         monkeypatch):
    recorded = straight_bundled_digests(name, profile)
    counted = strip_the_record(monkeypatch)
    assert bundled_digests(name, profile) == recorded
    # both runs compute each tag as it is signed and again as it is
    # verified
    if profile == "plain":
        assert counted["tags"] == counted["signed"] == 0
    else:
        assert counted["tags"] > counted["signed"] > 0


@pytest.mark.parametrize("profile", SIGNED)
def test_every_single_loss_is_unchanged_by_hashing_every_tag(profile,
                                                             monkeypatch):
    recorded = straight_single_loss_digests(profile)
    counted = strip_the_record(monkeypatch)
    assert single_loss_digests(profile) == recorded
    # the same sends, each tag computed as it is signed and again as it is
    # verified
    assert counted["tags"] > counted["signed"] > 0
