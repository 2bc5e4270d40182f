"""Core vocabulary: roles, envelopes, notifications."""

import copy
import dataclasses
import functools
import inspect
import json
import os
import pathlib
import pickle
import platform
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ansim
from ansim.model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CATEGORY_BY_KIND,
    CMU_ID,
    Category,
    Cause,
    Envelope,
    EnvelopeKind,
    Notification,
    NodeStatus,
    Role,
    Severity,
    SUBJECT_KINDS,
    SimError,
    is_lrn,
    make_payload,
)
from ansim.security import KeyRegistry, SecurityProfile, wrap

PROFILES = {
    "plain": SecurityProfile.plain(),
    "auth": SecurityProfile.auth_only(40),
    "auth-encap": SecurityProfile.auth_encap(40, 320, 64),
}


def _keys():
    """Keys with a session between nodes 1 and 2 and between node 1 and
    the management unit."""
    keys = KeyRegistry(7, {1, 2})
    keys.establish(1, 2)
    keys.establish(1, CMU_ID)
    return keys


def _wrapped(profile, kind=EnvelopeKind.SENSOR_DATA, receiver=2):
    return wrap(PROFILES[profile], _keys(), kind, 1, receiver, b"x" * 16, 0)


# envelopes as ``wrap`` builds them: (id, profile, kind, receiver, signed)
WRAPPED = [
    ("wrap-plain", "plain", EnvelopeKind.SENSOR_DATA, 2, False),
    ("wrap-auth", "auth", EnvelopeKind.SENSOR_DATA, 2, True),
    ("wrap-pair-sealed", "auth-encap", EnvelopeKind.SENSOR_DATA, 2, True),
    ("wrap-group-sealed", "auth-encap", EnvelopeKind.STATUS_BROADCAST,
     BROADCAST, True),
    ("wrap-bootstrap", "auth-encap", EnvelopeKind.KEY_EXCHANGE, 2, False),
]


def test_rank_partition():
    # the administrator is the only role above the low rank
    assert {r for r in Role if is_lrn(r)} == {Role.FIRE_SENSOR, Role.LOW_RANK}
    assert {r for r in Role if not is_lrn(r)} == {Role.ADMINISTRATOR}


def test_category_map_is_total_and_kind_pure():
    assert set(CATEGORY_BY_KIND) == set(EnvelopeKind)
    assert CATEGORY_BY_KIND[EnvelopeKind.SENSOR_DATA] is Category.DATA
    assert CATEGORY_BY_KIND[EnvelopeKind.DIAGNOSTIC_PROBE] is Category.DIAGNOSTIC
    security_kinds = {k for k, c in CATEGORY_BY_KIND.items()
                      if c is Category.SECURITY}
    assert security_kinds == {
        EnvelopeKind.AUTH_CHALLENGE, EnvelopeKind.AUTH_RESPONSE,
        EnvelopeKind.KEY_EXCHANGE, EnvelopeKind.AUTHORIZATION_REQUEST,
        EnvelopeKind.AUTHORIZATION_GRANT}
    assert CATEGORY_BY_KIND[EnvelopeKind.STATUS_BROADCAST] is Category.CONTROL
    assert CATEGORY_BY_KIND[EnvelopeKind.WARNING] is Category.CONTROL


def test_bootstrap_kinds_are_security_category():
    for kind in BOOTSTRAP_KINDS:
        assert CATEGORY_BY_KIND[kind] is Category.SECURITY


def test_envelope_subject_requirement():
    with pytest.raises(SimError):
        Envelope(kind=EnvelopeKind.WARNING, sender=2, receiver=CMU_ID,
                 payload=b"x" * 32, sent_at=100)
    env = Envelope(kind=EnvelopeKind.WARNING, sender=2, receiver=CMU_ID,
                   payload=b"x" * 32, sent_at=100, subject=5)
    assert env.subject == 5
    assert len(env.payload) == 32
    assert env.receiver != BROADCAST
    bc = Envelope(kind=EnvelopeKind.STATUS_BROADCAST, sender=1,
                  receiver=BROADCAST, payload=b"y" * 8, sent_at=0)
    assert bc.receiver == BROADCAST


def test_envelope_is_immutable_and_replace_rechecks_the_subject():
    env = Envelope(kind=EnvelopeKind.ALERT, sender=2, receiver=CMU_ID,
                   payload=b"a" * 32, sent_at=7, subject=5)
    for name, value in (("wire_len", 99), ("subject", None),
                        ("kind", EnvelopeKind.PING), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(env, name, value)
    assert env.wire_len == -1 and env.subject == 5

    wired = dataclasses.replace(env, wire_len=72, profile_name="auth",
                                tag=b"t" * 40)
    assert (wired.wire_len, wired.profile_name, wired.tag) == (
        72, "auth", b"t" * 40)
    assert dataclasses.astuple(wired)[:5] == dataclasses.astuple(env)[:5]
    assert wired == dataclasses.replace(env, wire_len=72,
                                        profile_name="auth", tag=b"t" * 40)
    assert hash(wired) == hash(dataclasses.replace(wired))
    with pytest.raises(SimError):
        dataclasses.replace(env, subject=None)


def test_the_tag_is_a_non_data_descriptor_and_envelope_has_no_getattr():
    # on CPython 3.11 a class __getattr__ or __getattribute__ stops every
    # attribute read on the class from being specialised, and every send
    # and delivery reads envelope fields
    assert not hasattr(Envelope, "__getattr__")
    assert Envelope.__getattribute__ is object.__getattribute__
    tag = inspect.getattr_static(Envelope, "tag")
    assert inspect.ismethoddescriptor(tag)
    assert not inspect.isdatadescriptor(tag)
    # read off the class it is the field's default; an unsigned envelope
    # holds its tag in its own dict, so reading it never calls the
    # descriptor
    assert Envelope.tag is None
    assert [f.default for f in dataclasses.fields(Envelope)
            if f.name == "tag"] == [None]
    for tag in (None, b"t" * 40):
        env = Envelope(EnvelopeKind.PING, 1, 2, b"x", 0, tag=tag)
        assert vars(env)["tag"] is tag


def test_every_envelope_dict_has_one_key_order_with_the_tag_last():
    # a signed envelope's dict gains its tag only when the tag is read, so
    # every envelope stores the tag last to keep one key order for all
    class Head:
        def tag_of(self, record):
            return b"t" * 40

    order = [*(f.name for f in dataclasses.fields(Envelope)
               if f.name != "tag"), "_signed", "tag"]
    unsigned = Envelope(EnvelopeKind.PING, 1, 2, b"x", 0, tag=b"t" * 40)
    assert list(vars(unsigned)) == order
    signed = Envelope(EnvelopeKind.PING, 1, 2, b"x", 0, _signed=[Head()])
    assert "tag" not in vars(signed)
    assert signed.tag == b"t" * 40
    assert list(vars(signed)) == order
    assert signed == unsigned and hash(signed) == hash(unsigned)
    # wrap builds its own dicts, in the same order
    for case, profile, kind, receiver, is_signed in WRAPPED:
        env = _wrapped(profile, kind, receiver)
        if is_signed:
            assert list(vars(env)) == order[:-1], case
            assert env.tag is not None
        assert list(vars(env)) == order, case


class _Head:
    def tag_of(self, record):
        return b"t" * 40


def _signed_envelope():
    return Envelope(EnvelopeKind.PING, 1, 2, b"x", 0, 1, None, None, "auth",
                    None, None, [_Head()])


def _unsigned():
    return Envelope(EnvelopeKind.PING, 1, 2, b"x", 0, tag=b"t" * 40)


def _signed_before_its_tag_is_read():
    env = _signed_envelope()
    assert "tag" not in vars(env)
    return env


def _signed_after_its_tag_is_read():
    env = _signed_envelope()
    assert env.tag == b"t" * 40
    return env


def _replaced():
    return dataclasses.replace(_signed_after_its_tag_is_read(), sent_at=1)


def _pickled():
    return pickle.loads(pickle.dumps(_wrapped("auth-encap")))


def _deep_copied():
    return copy.deepcopy(_wrapped("auth-encap"))


def _wrapped_maker(profile, kind, receiver, read_tag):
    def make():
        env = _wrapped(profile, kind, receiver)
        if read_tag:
            assert env.tag is not None and "tag" in vars(env)
        return env
    return make


# (id, maker) of every way an envelope is built, in the order the layout
# pin builds them
LAYOUT_CASES = [
    ("unsigned", _unsigned),
    ("signed", _signed_before_its_tag_is_read),
    ("signed-tag-read", _signed_after_its_tag_is_read),
    ("replaced", _replaced),
    ("pickled", _pickled),
    ("deep-copied", _deep_copied),
    *((case + ("-tag-read" if read_tag else ""),
       _wrapped_maker(profile, kind, receiver, read_tag))
      for case, profile, kind, receiver, signed in WRAPPED
      for read_tag in ((False, True) if signed else (False,)))]


def layouts():
    """Per case of ``LAYOUT_CASES``, the size of its envelope's dict and
    of that dict's copy."""
    sizes = {}
    for case, make in LAYOUT_CASES:
        env = make()
        sizes[case] = (sys.getsizeof(vars(env)),
                       sys.getsizeof(dict(vars(env))))
    return sizes


@functools.cache
def layouts_in_a_fresh_interpreter():
    """``layouts()`` as one new interpreter reports it. Once many envelopes
    have been built whole and read, as a test run builds them, CPython
    3.11 makes even a dict filled key by key a combined table, so only a
    fresh process shows how a case fills its dict."""
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (
        pathlib.Path(ansim.__file__).resolve().parent.parent, here)))
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, test_model; print(json.dumps(test_model.layouts()))"],
        env=dict(os.environ, PYTHONPATH=path), cwd=here,
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="the instance dict layout is CPython's")
@pytest.mark.parametrize("case", [case for case, _ in LAYOUT_CASES])
def test_every_envelope_dict_is_one_combined_table(case):
    # CPython 3.11 specialises an attribute read on a combined instance
    # dict, and reads a split (shared-key) one several times slower.
    # A dict filled key by key on a fresh instance is split, and smaller
    # than its copy, which is always combined
    size, copy_size = layouts_in_a_fresh_interpreter()[case]
    assert size >= copy_size


def test_every_subject_kind_requires_a_subject():
    for kind in SUBJECT_KINDS:
        with pytest.raises(SimError, match=kind.value):
            Envelope(kind, 1, CMU_ID, b"x", 0)
        assert Envelope(kind, 1, CMU_ID, b"x", 0, subject=0).subject == 0
    for kind in set(EnvelopeKind) - SUBJECT_KINDS:
        assert Envelope(kind, 1, CMU_ID, b"x", 0).subject is None
    # wrap builds its envelopes without the class call, and checks the same
    for profile in PROFILES.values():
        for kind in SUBJECT_KINDS:
            with pytest.raises(SimError, match=kind.value):
                wrap(profile, _keys(), kind, 1, CMU_ID, b"x", 0)
            assert wrap(profile, _keys(), kind, 1, CMU_ID, b"x", 0,
                        subject=0).subject == 0
        for kind in set(EnvelopeKind) - SUBJECT_KINDS:
            assert wrap(profile, _keys(), kind, 1, CMU_ID, b"x",
                        0).subject is None


def test_hot_path_enums_hash_by_identity():
    from ansim.security import ProfileKind
    for enum in (EnvelopeKind, Category, ProfileKind, Role, NodeStatus,
                 Severity, Cause):
        assert enum.__hash__ is object.__hash__


def test_make_payload_deterministic():
    a = make_payload(EnvelopeKind.SENSOR_DATA, 3, 1000, 120)
    b = make_payload(EnvelopeKind.SENSOR_DATA, 3, 1000, 120)
    c = make_payload(EnvelopeKind.SENSOR_DATA, 4, 1000, 120)
    assert a == b
    assert a != c
    assert len(a) == 120


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(EnvelopeKind)),
       sender=st.integers(0, 10**6), at=st.integers(0, 10**9),
       offset=st.integers(-40, 200))
@example(kind=EnvelopeKind.PING, sender=3, at=1000, offset=-1)
@example(kind=EnvelopeKind.PING, sender=3, at=1000, offset=0)
@example(kind=EnvelopeKind.PING, sender=3, at=1000, offset=1)
def test_make_payload_bytes(kind, sender, at, offset):
    # payload bytes reach no report or trace, so only this pins them: the
    # head, cut to a length below its own or zero-padded to one above it
    head = f"{kind.value}|{sender}|{at}|".encode()
    length = max(0, len(head) + offset)
    expected = (head[:length] if length <= len(head)
                else head + b"\0" * (length - len(head)))
    assert make_payload(kind, sender, at, length) == expected


def test_notification_severity_is_fixed_per_cause():
    Notification(severity=Severity.ALERT, subject=3, cause=Cause.TRIPLE_LOSS,
                 at=10)
    Notification(severity=Severity.WARNING, subject=3, cause=Cause.SINGLE_LOSS,
                 at=10)
    with pytest.raises(SimError):
        Notification(severity=Severity.WARNING, subject=3,
                     cause=Cause.TRIPLE_LOSS, at=10)
    with pytest.raises(SimError):
        Notification(severity=Severity.ALERT, subject=3,
                     cause=Cause.SINGLE_LOSS, at=10)
