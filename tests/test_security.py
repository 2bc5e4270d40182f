"""Security envelopes: profiles, wrapping, sessions, one-time auth."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ansim.model import BROADCAST, CMU_ID, Envelope, EnvelopeKind, SimError
from ansim.security import (
    GROUP_KEY_ID,
    KeyRegistry,
    NoSessionKey,
    ProfileKind,
    ProfileMismatch,
    SecurityProfile,
    TagMismatch,
    TotaOutcome,
    TotaState,
    WrongSessionKey,
    _digest,
    fresh_nonce,
    key_holders,
    tota_response,
    tota_verify,
    unwrap,
    wrap,
)

PROFILES = {
    "plain": SecurityProfile.plain(),
    "auth": SecurityProfile.auth_only(),
    "auth-encap": SecurityProfile.auth_encap(),
}


def fresh_keys(members=(1, 2, 3)):
    keys = KeyRegistry(seed=11, registered_hardware_ids={900, 901})
    for m in members:
        keys.provision_member(m)
    return keys


def env_of(kind=EnvelopeKind.SENSOR_DATA, sender=1, receiver=2, length=120,
           sent_at=1000):
    return Envelope(kind=kind, sender=sender, receiver=receiver,
                    payload=b"s" * length, sent_at=sent_at)


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
                        encap_overhead=320, handshake_msgs=0)


def test_wire_length_additivity_exact():
    # oracle: plain p, signed p+40, sealed p+40+320, stated as arithmetic
    for p in (1, 16, 120, 4096):
        assert PROFILES["plain"].wire_len_for(p, False) == p
        assert PROFILES["auth"].wire_len_for(p, False) == p + 40
        assert PROFILES["auth-encap"].wire_len_for(p, False) == p + 40 + 320
        for name in PROFILES:
            assert PROFILES[name].wire_len_for(p, True) == p


@given(st.integers(min_value=1, max_value=10000))
@settings(max_examples=50, deadline=None)
def test_overhead_identity_for_any_payload(p):
    plain = PROFILES["plain"].wire_len_for(p, False)
    auth = PROFILES["auth"].wire_len_for(p, False)
    encap = PROFILES["auth-encap"].wire_len_for(p, False)
    assert encap - auth == 320
    assert auth - plain == 40


# ------------------------------------------------------------------ wrapping

def test_roundtrip_all_profiles():
    keys = fresh_keys()
    keys.establish(1, 2)
    for name, profile in PROFILES.items():
        env = env_of()
        wrapped = wrap(env, profile, keys)
        assert wrapped.wire_len == profile.wire_len_for(env.payload_len, False)
        assert wrapped.profile_name == name
        assert unwrap(wrapped, profile, keys, reader=2) == env.payload


def test_bootstrap_kinds_never_wrapped():
    keys = fresh_keys()
    for profile in PROFILES.values():
        env = env_of(kind=EnvelopeKind.AUTHORIZATION_REQUEST, receiver=CMU_ID,
                     length=16)
        wrapped = wrap(env, profile, keys)
        assert wrapped.wire_len == 16
        assert wrapped.tag is None
        assert unwrap(wrapped, profile, keys, reader=CMU_ID) == env.payload


def test_encap_unicast_requires_session():
    keys = fresh_keys()
    with pytest.raises(NoSessionKey):
        wrap(env_of(), PROFILES["auth-encap"], keys)
    keys.establish(1, 2)
    wrapped = wrap(env_of(), PROFILES["auth-encap"], keys)
    assert wrapped.sealed_key_id == "1:2"


def test_encap_broadcast_uses_group_key():
    keys = fresh_keys(members=(1, 2))
    env = env_of(kind=EnvelopeKind.STATUS_BROADCAST, receiver=BROADCAST)
    wrapped = wrap(env, PROFILES["auth-encap"], keys)
    assert wrapped.sealed_key_id == GROUP_KEY_ID
    assert unwrap(wrapped, PROFILES["auth-encap"], keys, reader=2) == env.payload
    # node 3 was never provisioned with the group key
    keys.group_members.discard(3)
    with pytest.raises(WrongSessionKey):
        unwrap(wrapped, PROFILES["auth-encap"], keys, reader=3)


def test_non_holder_cannot_open_pair_sealed_envelope():
    keys = fresh_keys()
    keys.establish(1, 2)
    wrapped = wrap(env_of(), PROFILES["auth-encap"], keys)
    with pytest.raises(WrongSessionKey):
        unwrap(wrapped, PROFILES["auth-encap"], keys, reader=3)


def test_profile_mismatch_detected():
    keys = fresh_keys()
    wrapped = wrap(env_of(), PROFILES["auth"], keys)
    with pytest.raises(ProfileMismatch):
        unwrap(wrapped, PROFILES["plain"], keys, reader=2)


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
    env = env_of()
    wrapped = wrap(env, profile, keys)
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
            unwrap(bad, profile, keys, reader=2)


def test_forged_sender_identity_rejected():
    # node 3 cannot produce node 1's tag because signing keys differ
    keys = fresh_keys()
    env = env_of(sender=1)
    wrapped = wrap(env, PROFILES["auth"], keys)
    fake_tag = wrap(env_of(sender=3, receiver=2), PROFILES["auth"], keys).tag
    forged = dataclasses.replace(wrapped, tag=fake_tag)
    with pytest.raises(TagMismatch):
        unwrap(forged, PROFILES["auth"], keys, reader=2)


def test_readerless_unwrap_leaves_the_key_check_to_key_holders():
    keys = fresh_keys()
    keys.establish(1, 2)
    sealed = wrap(env_of(), PROFILES["auth-encap"], keys)
    assert unwrap(sealed, PROFILES["auth-encap"], keys) == sealed.payload
    assert key_holders(sealed, PROFILES["auth-encap"], keys) == {1, 2}
    signed = wrap(env_of(), PROFILES["auth"], keys)
    assert key_holders(signed, PROFILES["auth"], keys) is None
    with pytest.raises(TagMismatch):
        unwrap(dataclasses.replace(sealed, tag=flip_bit(sealed.tag, 0)),
               PROFILES["auth-encap"], keys)


def test_memoised_keys_match_a_fresh_derivation():
    keys = fresh_keys()
    root = _digest(b"key-root", 11)
    for node in (CMU_ID, 1, 2, 3, 1, CMU_ID):
        assert keys.signing_key(node) == _digest(root, "sign", node)
    assert keys.group_key == _digest(root, "group")


# ------------------------------------------------------------------ one-time

def test_tota_accept_then_replay():
    state = TotaState(secret=b"shared")
    at = 65000
    step = state.step_at(at)
    resp = tota_response(b"shared", prover=3, nonce=77, step=step)
    assert tota_verify(state, 3, 77, resp, at) is TotaOutcome.ACCEPT
    assert tota_verify(state, 3, 77, resp, at) is TotaOutcome.REPLAY


def test_tota_accepts_within_skew_window():
    state = TotaState(secret=b"shared", skew_steps=1)
    at = 65000
    current = state.step_at(at)
    for offset in (-1, 0, 1):
        resp = tota_response(b"shared", 3, 100 + offset, current + offset)
        assert tota_verify(state, 3, 100 + offset, resp, at) is TotaOutcome.ACCEPT


def test_tota_reports_skew_outside_window():
    state = TotaState(secret=b"shared", skew_steps=1)
    at = 30000 * 200
    current = state.step_at(at)
    resp = tota_response(b"shared", 3, 5, current + 2)
    assert tota_verify(state, 3, 5, resp, at) is TotaOutcome.SKEW_EXCEEDED
    resp = tota_response(b"shared", 3, 6, current - 10)
    assert tota_verify(state, 3, 6, resp, at) is TotaOutcome.SKEW_EXCEEDED


def test_tota_rejects_wrong_secret_as_bad_digest():
    state = TotaState(secret=b"shared")
    at = 65000
    resp = tota_response(b"not-shared", 3, 8, state.step_at(at))
    assert tota_verify(state, 3, 8, resp, at) is TotaOutcome.BAD_DIGEST


def test_tota_thousand_sequences_single_use():
    # oracle: an independent used-set mirror; every fresh pair accepts once,
    # every repeat replays, regardless of interleaving
    state = TotaState(secret=b"shared", skew_steps=1)
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
