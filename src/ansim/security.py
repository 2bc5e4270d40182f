"""Security envelopes and one-time authentication.

Three wrapping profiles cover the same traffic with increasing protection:

* plain: wire length equals payload length, no integrity or confidentiality.
* auth: every non-bootstrap envelope carries a signature tag of ``sig_len``
  bytes over (sender, receiver, kind, payload, sent_at).
* auth-encap: signature plus session-key encapsulation; only holders of the
  pair (or group) session key can read the payload, and each envelope grows
  by a further ``encap_overhead`` bytes.

The cryptography is modeled: keyed one-way digests stand in for signatures
and key agreement, with honest length accounting. The primitives are
deterministic given the run seed and are not interoperable with any real
cipher suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CMU_ID,
    Envelope,
    SimError,
)


class NoSessionKey(SimError):
    pass


class UnauthorizedSender(SimError):
    pass


class TagMismatch(SimError):
    pass


class WrongSessionKey(SimError):
    pass


class ProfileMismatch(SimError):
    pass


class HandshakeTimeout(SimError):
    pass


class ProfileKind(Enum):
    PLAIN = "plain"
    AUTH = "auth"
    AUTH_ENCAP = "auth-encap"


@dataclass(frozen=True)
class SecurityProfile:
    """Wrapping parameters for one run.

    Variant invariants are normalized at construction: the plain profile has
    no signature and no handshake, the auth profile signs but never
    encapsulates, and only auth-encap carries handshake parameters.
    """

    kind: ProfileKind
    sig_len: int = 0
    encap_overhead: int = 0
    handshake_msgs: int = 0
    handshake_msg_len: int = 0

    def __post_init__(self) -> None:
        if self.sig_len < 0 or self.encap_overhead < 0:
            raise SimError("profile overheads must be >= 0")
        if self.kind is ProfileKind.PLAIN:
            if self.sig_len or self.encap_overhead or self.handshake_msgs:
                raise SimError("plain profile carries no overhead parameters")
        elif self.kind is ProfileKind.AUTH:
            if self.sig_len <= 0:
                raise SimError("auth profile requires sig_len > 0")
            if self.encap_overhead or self.handshake_msgs:
                raise SimError("auth profile never encapsulates")
        else:
            if self.sig_len <= 0 or self.encap_overhead <= 0:
                raise SimError(
                    "auth-encap profile requires sig_len and encap_overhead")
            if self.handshake_msgs <= 0 or self.handshake_msg_len <= 0:
                raise SimError("auth-encap profile requires handshake parameters")

    @classmethod
    def plain(cls) -> "SecurityProfile":
        return cls(kind=ProfileKind.PLAIN)

    @classmethod
    def auth_only(cls, sig_len: int = 40) -> "SecurityProfile":
        return cls(kind=ProfileKind.AUTH, sig_len=sig_len)

    @classmethod
    def auth_encap(cls, sig_len: int = 40, encap_overhead: int = 320,
                   handshake_msgs: int = 2,
                   handshake_msg_len: int = 64) -> "SecurityProfile":
        return cls(kind=ProfileKind.AUTH_ENCAP, sig_len=sig_len,
                   encap_overhead=encap_overhead,
                   handshake_msgs=handshake_msgs,
                   handshake_msg_len=handshake_msg_len)

    def wire_len_for(self, payload_len: int, kind_is_bootstrap: bool) -> int:
        if kind_is_bootstrap or self.kind is ProfileKind.PLAIN:
            return payload_len
        if self.kind is ProfileKind.AUTH:
            return payload_len + self.sig_len
        return payload_len + self.sig_len + self.encap_overhead


def _digest(key: bytes, *parts: object, size: int = 32) -> bytes:
    h = hashlib.blake2b(key=key, digest_size=min(size, 64))
    for part in parts:
        raw = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    out = h.digest()
    while len(out) < size:
        out += hashlib.blake2b(out, digest_size=64).digest()
    return out[:size]


GROUP_KEY_ID = "group"


class KeyRegistry:
    """Keys and registered hardware ids for one run.

    Per-node signing keys and the broadcast group key are provisioned at
    deployment time (derived from the run seed); pair session keys appear
    only once the in-band handshake for that pair completes.
    """

    def __init__(self, seed: int, registered_hardware_ids: set[int]):
        self._root = _digest(b"key-root", seed)
        self.registered_hardware_ids = set(registered_hardware_ids)
        self._sessions: dict[frozenset[int], bytes] = {}
        self._signing: dict[int, bytes] = {}
        self.group_members: set[int] = {CMU_ID}
        self.group_key = _digest(self._root, "group")

    def signing_key(self, node: int) -> bytes:
        key = self._signing.get(node)
        if key is None:
            key = self._signing[node] = _digest(self._root, "sign", node)
        return key

    def provision_member(self, node: int) -> None:
        """Install the broadcast group key on a legitimate member node."""
        self.group_members.add(node)

    def pair_key(self, a: int, b: int) -> bytes:
        return _digest(self._root, "pair", min(a, b), max(a, b))

    def has_session(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._sessions

    def establish(self, a: int, b: int) -> bytes:
        key = self.pair_key(a, b)
        self._sessions[frozenset((a, b))] = key
        return key

    def session_holders(self, key_id: str) -> set[int]:
        if key_id == GROUP_KEY_ID:
            return self.group_members
        a, _, b = key_id.partition(":")
        return {int(a), int(b)}

    @staticmethod
    def pair_key_id(a: int, b: int) -> str:
        return f"{min(a, b)}:{max(a, b)}"


def _tag_for(env: Envelope, keys: KeyRegistry, sig_len: int) -> bytes:
    return _digest(keys.signing_key(env.sender), env.kind.value, env.sender,
                   env.receiver, env.payload, env.sent_at, size=sig_len)


def wrap(env: Envelope, profile: SecurityProfile, keys: KeyRegistry) -> Envelope:
    """Apply one profile to an envelope, producing the on-wire form.

    Bootstrap kinds (authorization, challenge-response, key exchange) are the
    securing machinery itself and go out at payload length in every profile.
    """
    is_boot = env.kind in BOOTSTRAP_KINDS
    wire = profile.wire_len_for(env.payload_len, is_boot)
    if is_boot or profile.kind is ProfileKind.PLAIN:
        return replace(env, wire_len=wire, profile_name=profile.kind.value,
                       tag=None, sealed_key_id=None)

    tag = _tag_for(env, keys, profile.sig_len)
    if profile.kind is ProfileKind.AUTH:
        return replace(env, wire_len=wire, profile_name=profile.kind.value,
                       tag=tag, sealed_key_id=None)

    if env.receiver == BROADCAST:
        key_id = GROUP_KEY_ID
    else:
        if not keys.has_session(env.sender, env.receiver):
            raise NoSessionKey(
                f"no session key for pair ({env.sender}, {env.receiver})")
        key_id = KeyRegistry.pair_key_id(env.sender, env.receiver)
    return replace(env, wire_len=wire, profile_name=profile.kind.value,
                   tag=tag, sealed_key_id=key_id)


def unwrap(env: Envelope, profile: SecurityProfile, keys: KeyRegistry,
           reader: Optional[int] = None) -> bytes:
    """Verify and open a wrapped envelope for ``reader``.

    Raises ProfileMismatch when the envelope was wrapped under a different
    profile, WrongSessionKey when it names no sealing key or the reader does
    not hold that key, and TagMismatch when the signature check fails.

    Without a ``reader`` only the checks that every receiver shares run, so
    a broadcast is verified once; ``key_holders`` then says which of its
    receivers can open it.
    """
    if env.kind in BOOTSTRAP_KINDS:
        return env.payload
    if env.profile_name != profile.kind.value:
        raise ProfileMismatch(
            f"envelope wrapped as {env.profile_name or 'unwrapped'}, "
            f"expected {profile.kind.value}")
    if profile.kind is ProfileKind.PLAIN:
        return env.payload

    if profile.kind is ProfileKind.AUTH_ENCAP:
        if env.sealed_key_id is None:
            raise WrongSessionKey("envelope carries no session key id")
        if (reader is not None
                and reader not in keys.session_holders(env.sealed_key_id)):
            raise WrongSessionKey(
                f"node {reader} does not hold key {env.sealed_key_id}")

    expected = _tag_for(env, keys, profile.sig_len)
    if env.tag != expected:
        raise TagMismatch("signature tag does not verify")
    return env.payload


def key_holders(env: Envelope, profile: SecurityProfile,
                keys: KeyRegistry) -> Optional[set[int]]:
    """The nodes that can open an envelope that ``unwrap`` verified without
    a reader: the holders of its sealing key, or None when the profile does
    not seal it and every receiver can."""
    if (profile.kind is not ProfileKind.AUTH_ENCAP
            or env.kind in BOOTSTRAP_KINDS):
        return None
    return keys.session_holders(env.sealed_key_id)


# ------------------------------------------------------------------ one-time
# Time-based one-time authentication: a challenge carries a fresh nonce, the
# response binds the prover identity and the verifier-side time step, and an
# accepted (nonce, step) pair can never be accepted again.

class TotaOutcome(Enum):
    ACCEPT = "accept"
    REPLAY = "replay"
    SKEW_EXCEEDED = "skew_exceeded"
    BAD_DIGEST = "bad_digest"


TOTA_RESPONSE_LEN = 32

# How far outside the acceptance window the verifier searches in order to
# report clock skew (rather than a corrupt digest) as the failure reason.
_SKEW_PROBE_DEPTH = 64


@dataclass
class TotaState:
    """Verifier state for the one-time authentication scheme."""

    secret: bytes
    time_step_ms: int = 30000
    skew_steps: int = 1
    used: set[tuple[int, int]] = field(default_factory=set)

    def step_at(self, at: int) -> int:
        return at // self.time_step_ms


def tota_response(secret: bytes, prover: int, nonce: int, step: int) -> bytes:
    return _digest(secret, "tota", prover, nonce, step,
                   size=TOTA_RESPONSE_LEN)


def tota_verify(state: TotaState, prover: int, nonce: int,
                response: bytes, at: int) -> TotaOutcome:
    """Check one response at verification time ``at``.

    Acceptance requires a digest match within +-skew_steps of the verifier's
    current step and a never-before-accepted (nonce, step) pair.
    """
    current = state.step_at(at)
    for step in range(current - state.skew_steps, current + state.skew_steps + 1):
        if step < 0:
            continue
        if tota_response(state.secret, prover, nonce, step) == response:
            if (nonce, step) in state.used:
                return TotaOutcome.REPLAY
            state.used.add((nonce, step))
            return TotaOutcome.ACCEPT

    lo = max(0, current - state.skew_steps - _SKEW_PROBE_DEPTH)
    hi = current + state.skew_steps + _SKEW_PROBE_DEPTH
    for step in range(lo, hi + 1):
        if tota_response(state.secret, prover, nonce, step) == response:
            return TotaOutcome.SKEW_EXCEEDED
    return TotaOutcome.BAD_DIGEST


def fresh_nonce(rng) -> int:
    return rng.getrandbits(64)
