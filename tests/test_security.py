"""Security envelopes: profiles, wrapping, sessions, one-time auth."""

import copy
import dataclasses
import pickle
import random
from typing import NamedTuple, Optional

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ansim import security
from ansim.model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CMU_ID,
    Cause,
    Envelope,
    EnvelopeKind,
    Role,
    SimError,
)
from ansim.security import (
    GROUP_KEY_ID,
    KeyRegistry,
    NoSessionKey,
    ProfileKind,
    ProfileMismatch,
    SecurityProfile,
    TagMismatch,
    TOTA_RESPONSE_LEN,
    TotaOutcome,
    TotaState,
    WrongSessionKey,
    _digest,
    _tag_for,
    fresh_nonce,
    key_holders,
    tota_response,
    tota_verify,
    unwrap,
    wrap,
)

PROFILES = {
    "plain": SecurityProfile.plain(),
    "auth": SecurityProfile.auth_only(40),
    "auth-encap": SecurityProfile.auth_encap(40, 320, 64),
}


def fresh_keys(members=(1, 2, 3)):
    keys = KeyRegistry(seed=11, registered_hardware_ids={900, 901})
    for m in members:
        keys.provision_member(m)
    return keys


class Message(NamedTuple):
    """The fields ``wrap`` takes after the profile and the keys."""

    kind: EnvelopeKind
    sender: int
    receiver: int
    payload: bytes
    sent_at: int
    subject: Optional[int] = None
    detail: object = None


def msg_of(kind=EnvelopeKind.SENSOR_DATA, sender=1, receiver=2, length=120,
           sent_at=1000, subject=None, detail=None):
    return Message(kind, sender, receiver, b"s" * length, sent_at, subject,
                   detail)


# each shape a detail takes, with the digest parts it is signed as
DETAILS = [
    (None, [None]),
    (7, [7]),
    ("rtt", ["rtt"]),
    (Cause.TRIPLE_LOSS, ["triple_loss"]),
    ((Role.ADMINISTRATOR, None), ["administrator", None]),
    ((Role.LOW_RANK, 5), ["low_rank", 5]),
]
DETAIL_VALUES = [detail for detail, _ in DETAILS]


# ------------------------------------------------------------------ profiles

def test_profile_variant_invariants():
    with pytest.raises(SimError):
        SecurityProfile(kind=ProfileKind.PLAIN, sig_len=40)
    with pytest.raises(SimError):
        SecurityProfile(kind=ProfileKind.AUTH, sig_len=0)
    with pytest.raises(SimError):
        SecurityProfile(kind=ProfileKind.AUTH, sig_len=40, encap_overhead=320)
    with pytest.raises(SimError):
        SecurityProfile(kind=ProfileKind.AUTH_ENCAP, sig_len=40,
                        encap_overhead=320, handshake_msg_len=0)


def wire_len(profile_name, kind=EnvelopeKind.SENSOR_DATA, receiver=2,
             length=120):
    keys = fresh_keys()
    keys.establish(1, 2)
    return wrap(PROFILES[profile_name], keys,
                *msg_of(kind=kind, receiver=receiver, length=length,
                        subject=3)).wire_len


def test_wire_length_additivity_exact():
    # oracle: plain p, signed p+40, sealed p+40+320, stated as arithmetic,
    # for every kind, unicast and broadcast, from an empty payload to one
    # whose length needs more than two bytes of its prefix
    for kind in EnvelopeKind:
        for receiver in (2, BROADCAST):
            for p in (0, 1, 16, 120, 4096, 70000):
                if kind in BOOTSTRAP_KINDS:
                    expected = {name: p for name in PROFILES}
                else:
                    expected = {"plain": p, "auth": p + 40,
                                "auth-encap": p + 40 + 320}
                assert {name: wire_len(name, kind, receiver, p)
                        for name in PROFILES} == expected


@given(st.integers(min_value=1, max_value=10000))
@settings(max_examples=50, deadline=None)
def test_overhead_identity_for_any_payload(p):
    plain = wire_len("plain", length=p)
    auth = wire_len("auth", length=p)
    encap = wire_len("auth-encap", length=p)
    assert encap - auth == 320
    assert auth - plain == 40


# ------------------------------------------------------------------ wrapping

def test_roundtrip_all_profiles():
    keys = fresh_keys()
    keys.establish(1, 2)
    for name, profile in PROFILES.items():
        msg = msg_of()
        wrapped = wrap(profile, keys, *msg)
        assert wrapped.wire_len == len(msg.payload) + profile.overhead
        assert wrapped.profile_name == name
        assert unwrap(wrapped, profile, keys) == msg.payload
        assert 2 in (key_holders(wrapped, profile, keys) or {2})


@pytest.mark.parametrize("profile_name", list(PROFILES))
def test_wrap_builds_the_wire_envelope_with_subject_and_detail(profile_name):
    profile = PROFILES[profile_name]
    keys = fresh_keys()
    keys.establish(1, CMU_ID)
    msg = msg_of(kind=EnvelopeKind.WARNING, receiver=CMU_ID, length=32,
                 subject=2, detail=Cause.SINGLE_LOSS)
    wrapped = wrap(profile, keys, *msg)
    assert type(wrapped) is Envelope
    assert tuple(getattr(wrapped, f) for f in Message._fields) == msg
    assert wrapped.subject == 2 and wrapped.detail is Cause.SINGLE_LOSS
    assert wrapped.wire_len == 32 + profile.overhead
    assert wrapped.profile_name == profile_name
    assert unwrap(wrapped, profile, keys) == msg.payload
    assert CMU_ID in (key_holders(wrapped, profile, keys) or {CMU_ID})
    # a notification kind still needs its subject
    with pytest.raises(SimError):
        wrap(profile, keys, *msg._replace(subject=None))


def test_bootstrap_kinds_never_wrapped():
    keys = fresh_keys()
    for profile in PROFILES.values():
        msg = msg_of(kind=EnvelopeKind.AUTHORIZATION_REQUEST, receiver=CMU_ID,
                     length=16)
        wrapped = wrap(profile, keys, *msg)
        assert wrapped.wire_len == 16
        assert wrapped.tag is None
        assert unwrap(wrapped, profile, keys) == msg.payload
        # every receiver reads a bootstrap kind
        assert key_holders(wrapped, profile, keys) is None


def test_encap_unicast_requires_session():
    keys = fresh_keys()
    with pytest.raises(NoSessionKey):
        wrap(PROFILES["auth-encap"], keys, *msg_of())
    keys.establish(1, 2)
    wrapped = wrap(PROFILES["auth-encap"], keys, *msg_of())
    assert wrapped.sealed_key_id == "1:2"


def test_encap_broadcast_uses_group_key():
    keys = fresh_keys(members=(1, 2))
    msg = msg_of(kind=EnvelopeKind.STATUS_BROADCAST, receiver=BROADCAST)
    wrapped = wrap(PROFILES["auth-encap"], keys, *msg)
    assert wrapped.sealed_key_id == GROUP_KEY_ID
    assert unwrap(wrapped, PROFILES["auth-encap"], keys) == msg.payload
    assert 2 in key_holders(wrapped, PROFILES["auth-encap"], keys)
    # node 3 was never provisioned with the group key
    keys.group_members.discard(3)
    assert 3 not in key_holders(wrapped, PROFILES["auth-encap"], keys)


def test_non_holder_cannot_open_pair_sealed_envelope():
    keys = fresh_keys()
    keys.establish(1, 2)
    wrapped = wrap(PROFILES["auth-encap"], keys, *msg_of())
    assert key_holders(wrapped, PROFILES["auth-encap"], keys) == {1, 2}
    with pytest.raises(WrongSessionKey):
        unwrap(dataclasses.replace(wrapped, sealed_key_id=None),
               PROFILES["auth-encap"], keys)


def test_profile_mismatch_detected():
    keys = fresh_keys()
    wrapped = wrap(PROFILES["auth"], keys, *msg_of())
    with pytest.raises(ProfileMismatch):
        unwrap(wrapped, PROFILES["plain"], keys)


def flip_bit(data: bytes, bit_index: int) -> bytes:
    byte_index, bit = divmod(bit_index, 8)
    out = bytearray(data)
    out[byte_index] ^= 1 << bit
    return bytes(out)


@pytest.mark.parametrize("profile_name", ["auth", "auth-encap"])
def test_hundred_single_bit_tamperings_rejected(profile_name):
    profile = PROFILES[profile_name]
    keys = fresh_keys()
    keys.establish(1, 2)
    rng = random.Random(13)
    wrapped = wrap(profile, keys, *msg_of())
    total_bits = (len(wrapped.payload) + len(wrapped.tag)) * 8
    for _ in range(100):
        bit = rng.randrange(total_bits)
        payload_bits = len(wrapped.payload) * 8
        if bit < payload_bits:
            bad = dataclasses.replace(
                wrapped, payload=flip_bit(wrapped.payload, bit))
        else:
            bad = dataclasses.replace(
                wrapped, tag=flip_bit(wrapped.tag, bit - payload_bits))
        with pytest.raises(TagMismatch):
            unwrap(bad, profile, keys)


def test_forged_sender_identity_rejected():
    # node 3 cannot produce node 1's tag because signing keys differ
    keys = fresh_keys()
    wrapped = wrap(PROFILES["auth"], keys, *msg_of(sender=1))
    fake_tag = wrap(PROFILES["auth"], keys, *msg_of(sender=3, receiver=2)).tag
    forged = dataclasses.replace(wrapped, tag=fake_tag)
    with pytest.raises(TagMismatch):
        unwrap(forged, PROFILES["auth"], keys)


def test_readerless_unwrap_leaves_the_key_check_to_key_holders():
    keys = fresh_keys()
    keys.establish(1, 2)
    sealed = wrap(PROFILES["auth-encap"], keys, *msg_of())
    assert unwrap(sealed, PROFILES["auth-encap"], keys) == sealed.payload
    assert key_holders(sealed, PROFILES["auth-encap"], keys) == {1, 2}
    signed = wrap(PROFILES["auth"], keys, *msg_of())
    assert key_holders(signed, PROFILES["auth"], keys) is None
    with pytest.raises(TagMismatch):
        unwrap(dataclasses.replace(sealed, tag=flip_bit(sealed.tag, 0)),
               PROFILES["auth-encap"], keys)


@pytest.mark.parametrize("field", ["kind", "sender", "receiver", "payload",
                                   "sent_at", "tag"])
@pytest.mark.parametrize("profile_name", ["auth", "auth-encap"])
def test_changing_any_signed_field_fails_the_tag(profile_name, field):
    profile = PROFILES[profile_name]
    keys = fresh_keys()
    keys.establish(1, 2)
    wrapped = wrap(profile, keys, *msg_of())
    changed = {
        "kind": EnvelopeKind.STATUS_BROADCAST,
        "sender": 3,
        "receiver": 3,
        "payload": b"t" + wrapped.payload[1:],
        "sent_at": wrapped.sent_at + 1,
        "tag": flip_bit(wrapped.tag, 0),
    }[field]
    tampered = dataclasses.replace(wrapped, **{field: changed})
    with pytest.raises(TagMismatch):
        unwrap(tampered, profile, keys)


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("profile_name", ["auth", "auth-encap"])
def test_a_forged_subject_or_role_fails_the_tag(profile_name, in_place):
    # an alert blamed on another node, and a role assignment that makes
    # its node the administrator, as the management unit sends them
    profile = PROFILES[profile_name]
    keys = keys_with_every_session()
    alert = wrap(profile, keys, *msg_of(
        kind=EnvelopeKind.ALERT, sender=1, receiver=CMU_ID, length=32,
        subject=3, detail=Cause.TRIPLE_LOSS))
    assignment = wrap(profile, keys, *msg_of(
        kind=EnvelopeKind.ROLE_ASSIGNMENT, sender=CMU_ID, receiver=2,
        length=32, subject=2, detail=(Role.LOW_RANK, 3)))
    for env, field, value in [(alert, "subject", 2),
                              (assignment, "detail",
                               (Role.ADMINISTRATOR, None))]:
        assert unwrap(env, profile, keys) == env.payload
        if in_place:
            # the record no longer vouches for the envelope
            object.__setattr__(env, field, value)
            forged = env
        else:
            forged = dataclasses.replace(env, **{field: value})
        with pytest.raises(TagMismatch):
            unwrap(forged, profile, keys)


SIGNED_KINDS = [kind for kind in EnvelopeKind if kind not in BOOTSTRAP_KINDS]
PARTIES = [CMU_ID, 1, 2, 3]


def keys_with_every_session():
    keys = fresh_keys()
    for a in PARTIES:
        for b in PARTIES:
            if a < b:
                keys.establish(a, b)
    return keys


def verdict(env, profile, keys):
    """``unwrap``'s verdict on ``env`` and how many tags it hashed."""
    tag_for = security._tag_for
    hashed = 0

    def counting(*args):
        nonlocal hashed
        hashed += 1
        return tag_for(*args)

    security._tag_for = counting
    try:
        unwrap(env, profile, keys)
    except TagMismatch:
        return "mismatch", hashed
    finally:
        security._tag_for = tag_for
    return "ok", hashed


@settings(max_examples=300, deadline=None)
@given(profile_name=st.sampled_from(["auth", "auth-encap"]),
       kind=st.sampled_from(SIGNED_KINDS), sender=st.sampled_from(PARTIES),
       receiver=st.sampled_from(PARTIES + [BROADCAST]),
       payload=st.binary(max_size=64), sent_at=st.integers(0, 10**12),
       detail=st.sampled_from(DETAIL_VALUES),
       change=st.sampled_from(["kind", "sender", "receiver", "payload",
                               "sent_at", "sent_at_as_float", "subject",
                               "detail", "tag"]),
       data=st.data())
def test_the_record_of_a_tag_changes_no_verification_outcome(
        profile_name, kind, sender, receiver, payload, sent_at, detail,
        change, data):
    assume(sender != receiver)
    profile = PROFILES[profile_name]
    signer = keys_with_every_session()
    msg = Message(kind, sender, receiver, payload, sent_at, 2, detail)
    genuine = wrap(profile, signer, *msg)
    other = wrap(profile, signer, *msg._replace(sent_at=sent_at + 1))
    if change == "tag":
        # a forgery that carries another genuine tag
        value = other.tag
    elif change == "sent_at_as_float":
        # equal to the signed sent_at, yet framed as other bytes
        change, value = "sent_at", float(sent_at)
    else:
        value = {
            "kind": data.draw(st.sampled_from(
                [k for k in SIGNED_KINDS if k is not kind])),
            "sender": data.draw(st.sampled_from(
                [p for p in PARTIES if p != sender])),
            "receiver": data.draw(st.sampled_from(
                [p for p in PARTIES + [BROADCAST] if p != receiver])),
            "payload": payload + b"x",
            "sent_at": sent_at + 1,
            "subject": data.draw(st.sampled_from(
                [p for p in PARTIES if p != 2])),
            "detail": data.draw(st.sampled_from(
                [d for d in DETAIL_VALUES if d != detail])),
        }[change]
    # replace copies fields only, so the forgery carries no record
    forged = dataclasses.replace(genuine, **{change: value})
    # equal values in other objects: the record cannot vouch for them, the
    # hash does
    lookalike = dataclasses.replace(
        genuine, payload=bytes(bytearray(payload)), sent_at=int(str(sent_at)),
        detail=tuple(list(detail)) if type(detail) is tuple else detail)
    # the forgery before and after the genuine envelope is verified, then
    # the genuine envelope's replay
    envs = [forged, genuine, forged, genuine, lookalike, other]
    assert [verdict(env, profile, signer) for env in envs] == [
        ("mismatch", 1), ("ok", 0), ("mismatch", 1), ("ok", 0), ("ok", 1),
        ("ok", 0)]
    # a registry that signed none of them hashes every tag, though its keys
    # are the signer's; the tag of ``other`` is unread unless the forgery
    # took it, so the hashing fallback first computes it from the record
    stranger = keys_with_every_session()
    assert [verdict(env, profile, stranger) for env in envs] == [
        ("mismatch", 1), ("ok", 1), ("mismatch", 1), ("ok", 1), ("ok", 1),
        ("ok", 1 if change == "tag" else 2)]
    # a profile whose tags are one byte longer hashes, and the tag fails
    longer = dataclasses.replace(profile, sig_len=profile.sig_len + 1)
    assert verdict(genuine, longer, signer) == ("mismatch", 1)
    # the same change made in place keeps the record, which no longer
    # vouches for the envelope
    object.__setattr__(genuine, change, value)
    assert verdict(genuine, profile, signer) == ("mismatch", 1)


DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda env: pickle.loads(pickle.dumps(env)),
    "replace": dataclasses.replace,
}


@settings(max_examples=300, deadline=None)
@given(profile_name=st.sampled_from(["auth", "auth-encap"]),
       kind=st.sampled_from(SIGNED_KINDS), sender=st.sampled_from(PARTIES),
       receiver=st.sampled_from(PARTIES + [BROADCAST]),
       payload=st.binary(max_size=64), sent_at=st.integers(0, 10**12),
       detail=st.sampled_from(DETAIL_VALUES),
       point=st.sampled_from(["wrap", "unwrap", "forgery", *DUPLICATES]),
       bit=st.integers(0, 8 * 40 - 1))
def test_a_tag_read_late_is_the_tag_of_the_wrapped_fields(
        profile_name, kind, sender, receiver, payload, sent_at, detail,
        point, bit):
    assume(sender != receiver)
    profile = PROFILES[profile_name]
    keys = keys_with_every_session()
    msg = Message(kind, sender, receiver, payload, sent_at, 2, detail)
    expected = _tag_for(keys, profile.sig_len, *msg)
    wrapped = wrap(profile, keys, *msg)
    # wrap computes no tag
    assert "tag" not in vars(wrapped)
    if point == "wrap":
        read = wrapped
    elif point == "unwrap":
        # verified by its record, without a hash, and still unread
        assert verdict(wrapped, profile, keys) == ("ok", 0)
        assert "tag" not in vars(wrapped)
        read = wrapped
    elif point == "forgery":
        # replace reads the genuine envelope's tag to copy it
        read = dataclasses.replace(wrapped, payload=payload + b"x")
        assert verdict(read, profile, keys) == ("mismatch", 1)
    else:
        # the duplicate carries the bytes and no record, so it is hashed
        read = DUPLICATES[point](wrapped)
        assert read._signed is None
        assert verdict(read, profile, keys) == ("ok", 1)
    assert read.tag == expected
    assert wrapped.tag == expected and wrapped.tag is wrapped.tag
    # a tag that has been read is still vouched for without a hash
    assert verdict(wrapped, profile, keys) == ("ok", 0)
    # a tag written in place is hashed and refused, read or not
    unread = wrap(profile, keys, *msg)
    for env in (wrapped, unread):
        object.__setattr__(env, "tag", flip_bit(expected, bit))
        assert verdict(env, profile, keys) == ("mismatch", 1)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda env: pickle.loads(pickle.dumps(env))])
def test_a_copy_of_an_envelope_carries_no_record(duplicate):
    keys = fresh_keys()
    keys.establish(1, 2)
    for profile in PROFILES.values():
        wrapped = wrap(profile, keys, *msg_of())
        copied = duplicate(wrapped)
        assert copied == wrapped and copied._signed is None
        hashed = 1 if profile.sig_len else 0
        assert verdict(copied, profile, keys) == ("ok", hashed)
        assert verdict(wrapped, profile, keys) == ("ok", 0)


@pytest.mark.parametrize("profile_name", ["auth", "auth-encap"])
def test_envelopes_that_share_a_tag_each_keep_their_own_record(profile_name):
    # two sends of the same message in the same millisecond sign the same
    # bytes, so they share a tag; neither record displaces the other, and
    # one that is never verified (a lost envelope) costs the other nothing
    profile = PROFILES[profile_name]
    keys = fresh_keys()
    keys.establish(1, 2)
    msg = msg_of()
    first = wrap(profile, keys, *msg)
    second = wrap(profile, keys, *msg)
    lost = wrap(profile, keys, *msg)
    assert first.tag == second.tag == lost.tag
    assert first._signed is not second._signed
    assert [verdict(env, profile, keys) for env in (second, first, second)] \
        == [("ok", 0)] * 3
    # a forgery of the shared tag's fields is hashed between them, and
    # fails
    forged = dataclasses.replace(first, payload=msg.payload + b"x")
    assert verdict(forged, profile, keys) == ("mismatch", 1)
    assert verdict(first, profile, keys) == ("ok", 0)


def test_memoised_keys_match_a_fresh_derivation():
    keys = fresh_keys()
    root = _digest(b"key-root", 11)
    for node in (CMU_ID, 1, 2, 3, 1, CMU_ID):
        assert keys.signing_key(node) == _digest(root, "sign", node)
    assert keys.group_key == _digest(root, "group")


# ---------------------------------------------------------- tag derivation

node_ids = st.one_of(st.sampled_from([BROADCAST, CMU_ID]),
                     st.integers(1, 5000))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(EnvelopeKind)), sender=node_ids,
       receiver=node_ids, payload=st.binary(max_size=300),
       sent_at=st.integers(0, 10**9),
       subject=st.one_of(st.none(), node_ids), detail=st.sampled_from(DETAILS),
       sig_len=st.sampled_from([1, 40, 64, 65, 100]))
# a payload whose length needs more than two bytes of its prefix
@example(kind=EnvelopeKind.SENSOR_DATA, sender=1, receiver=BROADCAST,
         payload=b"s" * 70000, sent_at=1000, subject=None, detail=DETAILS[0],
         sig_len=40)
def test_tag_is_the_framed_digest_of_the_signed_fields(
        kind, sender, receiver, payload, sent_at, subject, detail, sig_len):
    keys = fresh_keys()
    detail, parts = detail
    msg = Message(kind, sender, receiver, payload, sent_at, subject, detail)
    expected = _digest(keys.signing_key(sender), kind.value, sender,
                       receiver, payload, sent_at, subject, *parts,
                       size=sig_len)
    assert _tag_for(keys, sig_len, *msg) == expected
    # nothing is kept between calls that could change the next tag
    assert _tag_for(keys, sig_len, *msg) == expected
    if sig_len >= 40:
        # shorter tags may collide by chance
        other = KeyRegistry(seed=12, registered_hardware_ids=set())
        assert _tag_for(other, sig_len, *msg) != expected


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1000), prover=node_ids,
       nonce=st.integers(0, 2**64 - 1), step=st.integers(0, 10**9))
def test_tota_response_is_the_framed_digest(seed, prover, nonce, step):
    # the network secret as the protocol derives it
    secret = (KeyRegistry(seed, set()).signing_key(CMU_ID) + b"/network")
    expected = _digest(secret, "tota", prover, nonce, step,
                       size=TOTA_RESPONSE_LEN)
    assert tota_response(secret, prover, nonce, step) == expected
    assert tota_response(secret, prover, nonce, step) == expected
    other = (KeyRegistry(seed + 1, set()).signing_key(CMU_ID) + b"/network")
    assert tota_response(other, prover, nonce, step) != expected


# ------------------------------------------------------------ session table

def test_session_lookup_ignores_pair_order():
    keys = fresh_keys()
    assert keys.sealing_key_id(1, 2) is None
    assert keys.sealing_key_id(2, 1) is None
    keys.establish(2, 1)
    assert keys.sealing_key_id(1, 2) is not None
    assert keys.sealing_key_id(2, 1) is not None
    assert keys.sealing_key_id(3, 1) is None
    assert keys.sealing_key_id(1, 2) == keys.sealing_key_id(2, 1) == "1:2"
    assert keys.sealing_key_id(1, 3) is None


def test_session_holders_of_a_pair_and_of_the_group():
    keys = fresh_keys(members=(1, 2))
    keys.establish(1, 2)
    keys.establish(CMU_ID, 2)
    assert keys.session_holders("1:2") == {1, 2}
    assert keys.session_holders(f"{CMU_ID}:2") == {CMU_ID, 2}
    # an id no established session has is held by nobody
    assert keys.session_holders("1:3") == set()
    assert keys.session_holders("2:1") == set()
    assert keys.session_holders(GROUP_KEY_ID) == {CMU_ID, 1, 2}
    keys.provision_member(3)
    assert keys.session_holders(GROUP_KEY_ID) == {CMU_ID, 1, 2, 3}


# ------------------------------------------------------------------ one-time

def test_tota_accept_then_replay():
    state = TotaState(secret=b"shared", time_step_ms=30000,
                      skew_steps=1)
    at = 65000
    step = state.step_at(at)
    resp = tota_response(b"shared", prover=3, nonce=77, step=step)
    assert tota_verify(state, 3, 77, resp, at) is TotaOutcome.ACCEPT
    assert tota_verify(state, 3, 77, resp, at) is TotaOutcome.REPLAY


def test_tota_accepts_within_skew_window():
    state = TotaState(secret=b"shared", time_step_ms=30000,
                      skew_steps=1)
    at = 65000
    current = state.step_at(at)
    for offset in (-1, 0, 1):
        resp = tota_response(b"shared", 3, 100 + offset, current + offset)
        assert tota_verify(state, 3, 100 + offset, resp, at) is TotaOutcome.ACCEPT


def test_tota_reports_skew_outside_window():
    state = TotaState(secret=b"shared", time_step_ms=30000,
                      skew_steps=1)
    at = 30000 * 200
    current = state.step_at(at)
    resp = tota_response(b"shared", 3, 5, current + 2)
    assert tota_verify(state, 3, 5, resp, at) is TotaOutcome.SKEW_EXCEEDED
    resp = tota_response(b"shared", 3, 6, current - 10)
    assert tota_verify(state, 3, 6, resp, at) is TotaOutcome.SKEW_EXCEEDED


def test_tota_rejects_wrong_secret_as_bad_digest():
    state = TotaState(secret=b"shared", time_step_ms=30000,
                      skew_steps=1)
    at = 65000
    resp = tota_response(b"not-shared", 3, 8, state.step_at(at))
    assert tota_verify(state, 3, 8, resp, at) is TotaOutcome.BAD_DIGEST


def test_tota_thousand_sequences_single_use():
    # oracle: an independent used-set mirror; every fresh pair accepts once,
    # every repeat replays, regardless of interleaving
    state = TotaState(secret=b"shared", time_step_ms=30000,
                      skew_steps=1)
    rng = random.Random(99)
    mirror: set[tuple[int, int]] = set()
    accepted = replayed = 0
    for i in range(1000):
        at = rng.randrange(0, 30000 * 100)
        current = state.step_at(at)
        offset = rng.choice((-1, 0, 1))
        step = max(0, current + offset)
        nonce = rng.randrange(0, 50)
        resp = tota_response(b"shared", 3, nonce, step)
        outcome = tota_verify(state, 3, nonce, resp, at)
        if (nonce, step) in mirror:
            assert outcome is TotaOutcome.REPLAY
            replayed += 1
        else:
            assert outcome is TotaOutcome.ACCEPT
            mirror.add((nonce, step))
            accepted += 1
    assert accepted > 0 and replayed > 0
    assert accepted + replayed == 1000


def test_fresh_nonce_is_seed_deterministic():
    assert fresh_nonce(random.Random(5)) == fresh_nonce(random.Random(5))
    assert fresh_nonce(random.Random(5)) != fresh_nonce(random.Random(6))
