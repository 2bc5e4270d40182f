"""Security envelopes and one-time authentication.

Three wrapping profiles cover the same traffic with increasing protection:

* plain: wire length equals payload length, no integrity or confidentiality.
* auth: every non-bootstrap envelope carries a signature tag of ``sig_len``
  bytes over (kind, sender, receiver, payload, sent_at, subject, detail).
* auth-encap: signature plus session-key encapsulation; only holders of the
  pair (or group) session key can read the payload, and each envelope grows
  by a further ``encap_overhead`` bytes.

The cryptography is modeled: keyed one-way digests stand in for signatures
and key agreement, with honest length accounting. The primitives are
deterministic given the run seed and are not interoperable with any real
cipher suite.

Each tag is computed at most once, when it is first read. ``wrap`` hashes
nothing: it hands the envelope it builds a private record of the exact
inputs, from which ``Envelope.tag`` computes the tag on first read.
``unwrap`` compares the envelope's signed fields with that record, and its
tag, if it has been read, with the one the record computed, instead of
hashing them again. The tag is a pure function of those inputs, so the
record changes no verification outcome: whatever it does not vouch for is
hashed again, as every verification once was. A simulation reads no tag;
what does is ``unwrap``'s hashing fallback, the wire digest of
``scripts/regen_golden.py``, and tests.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Optional

from .model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CMU_ID,
    Envelope,
    EnvelopeKind,
    IdentityHashEnum,
    SimError,
)


class NoSessionKey(SimError):
    pass


class TagMismatch(SimError):
    pass


class WrongSessionKey(SimError):
    pass


class ProfileMismatch(SimError):
    pass


class ProfileKind(IdentityHashEnum):
    PLAIN = "plain"
    AUTH = "auth"
    AUTH_ENCAP = "auth-encap"


# Reading a member off its Enum class, as in ``ProfileKind.PLAIN``, costs
# about 0.1 us on Python 3.11, whose EnumType defines ``__getattr__``; the
# per-message functions below compare with these module names instead.
_PLAIN = ProfileKind.PLAIN
_AUTH = ProfileKind.AUTH
_AUTH_ENCAP = ProfileKind.AUTH_ENCAP


@dataclass(frozen=True)
class SecurityProfile:
    """Wrapping parameters for one run.

    Variant invariants are normalized at construction: the plain profile has
    no signature and no handshake, the auth profile signs but never
    encapsulates, and only auth-encap carries a handshake message length. So
    ``overhead``, what every non-bootstrap envelope adds to its payload, is
    ``sig_len + encap_overhead`` under every profile.
    """

    kind: ProfileKind
    sig_len: int = 0
    encap_overhead: int = 0
    handshake_msg_len: int = 0
    overhead: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sig_len < 0 or self.encap_overhead < 0:
            raise SimError("profile overheads must be >= 0")
        if self.kind is ProfileKind.PLAIN:
            if self.sig_len or self.encap_overhead or self.handshake_msg_len:
                raise SimError("plain profile carries no overhead parameters")
        elif self.kind is ProfileKind.AUTH:
            if self.sig_len <= 0:
                raise SimError("auth profile requires sig_len > 0")
            if self.encap_overhead or self.handshake_msg_len:
                raise SimError("auth profile never encapsulates")
        else:
            for name in ("sig_len", "encap_overhead", "handshake_msg_len"):
                if getattr(self, name) <= 0:
                    raise SimError(f"auth-encap profile requires {name} > 0")
        object.__setattr__(self, "overhead", self.sig_len + self.encap_overhead)

    @classmethod
    def plain(cls) -> "SecurityProfile":
        return cls(kind=ProfileKind.PLAIN)

    @classmethod
    def auth_only(cls, sig_len: int) -> "SecurityProfile":
        return cls(kind=ProfileKind.AUTH, sig_len=sig_len)

    @classmethod
    def auth_encap(cls, sig_len: int, encap_overhead: int,
                   handshake_msg_len: int) -> "SecurityProfile":
        return cls(kind=ProfileKind.AUTH_ENCAP, sig_len=sig_len,
                   encap_overhead=encap_overhead,
                   handshake_msg_len=handshake_msg_len)


def _frame(part: object) -> bytes:
    """One digest input: its bytes (an int or str as its decimal or UTF-8
    text) after a 4-byte big-endian length."""
    raw = part if isinstance(part, bytes) else str(part).encode()
    return len(raw).to_bytes(4, "big") + raw


def _stretch(out: bytes, size: int) -> bytes:
    """A digest cut or extended to ``size`` bytes; past blake2b's 64 each
    further 64 bytes hash the output so far."""
    while len(out) < size:
        out += hashlib.blake2b(out, digest_size=64).digest()
    return out[:size]


def _digest(key: bytes, *parts: object, size: int = 32) -> bytes:
    h = hashlib.blake2b(key=key, digest_size=min(size, 64))
    h.update(b"".join(map(_frame, parts)))
    return _stretch(h.digest(), size)


GROUP_KEY_ID = "group"

# The last slot of a signed envelope's record until its tag is read: no tag
# written in place can be this object.
_UNREAD = object()


class KeyRegistry:
    """Keys and registered hardware ids for one run.

    Per-node signing keys and the broadcast group key are provisioned at
    deployment time (derived from the run seed); pair session keys appear
    only once the in-band handshake for that pair completes.

    No keyed hash state is kept: a signing key is derived once per node,
    and every tag is hashed afresh under it, since a simulation reads no
    tag. ``tag_of`` is how an envelope whose record names this registry
    computes its tag when the tag is first read. Sessions are
    keyed by the ordered pair ``(low, high)``; a pair's sealing-key id and
    holder set are built when it is established.
    """

    def __init__(self, seed: int, registered_hardware_ids: set[int]):
        self._root = _digest(b"key-root", seed)
        self.registered_hardware_ids = set(registered_hardware_ids)
        # ordered pair -> its sealing-key id; sealing-key id -> both ends
        self._sessions: dict[tuple[int, int], str] = {}
        self._pair_holders: dict[str, frozenset[int]] = {}
        self._signing: dict[int, bytes] = {}
        self.group_members: set[int] = {CMU_ID}
        self.group_key = _digest(self._root, "group")

    def signing_key(self, node: int) -> bytes:
        key = self._signing.get(node)
        if key is None:
            key = self._signing[node] = _digest(self._root, "sign", node)
        return key

    def tag_of(self, signed: list) -> bytes:
        """The tag of a signed envelope's record ``[self, sig_len, kind,
        sender, receiver, payload, sent_at, subject, detail, _UNREAD]``, as
        ``wrap`` builds it: ``_tag_for`` of its first nine items, which
        ``Envelope.tag`` asks for when it is first read. The tag replaces
        ``_UNREAD``, so ``unwrap`` can tell it from a tag written in
        place."""
        tag = signed[9] = _tag_for(*signed[:9])
        return tag

    def provision_member(self, node: int) -> None:
        """Install the broadcast group key on a legitimate member node."""
        self.group_members.add(node)

    def sealing_key_id(self, a: int, b: int) -> Optional[str]:
        """The id ``"low:high"`` of the pair's session key, or None before
        the pair has a session."""
        return self._sessions.get((a, b) if a < b else (b, a))

    def establish(self, a: int, b: int) -> None:
        pair = (a, b) if a < b else (b, a)
        if pair not in self._sessions:
            key_id = self._sessions[pair] = f"{pair[0]}:{pair[1]}"
            self._pair_holders[key_id] = frozenset(pair)

    def session_holders(self, key_id: str) -> Collection[int]:
        """The nodes that hold a sealing key: the live group membership for
        the group key, both ends for an established pair, and nobody for
        any other id."""
        if key_id == GROUP_KEY_ID:
            return self.group_members
        return self._pair_holders.get(key_id, frozenset())


def _tag_for(keys: KeyRegistry, sig_len: int, kind: EnvelopeKind,
             sender: int, receiver: int, payload: bytes, sent_at: int,
             subject: Optional[int], detail: object) -> bytes:
    """The signature tag: the framed digest of the signed fields under the
    sender's signing key. A tuple ``detail`` is framed element by element
    and an enum member by its value; the signed ``kind`` fixes the shape
    of ``detail``."""
    parts = detail if type(detail) is tuple else (detail,)
    return _digest(keys.signing_key(sender), kind._value_, sender, receiver,
                   payload, sent_at, subject,
                   *[p._value_ if isinstance(p, Enum) else p for p in parts],
                   size=sig_len)


def wrap(profile: SecurityProfile, keys: KeyRegistry, kind: EnvelopeKind,
         sender: int, receiver: int, payload: bytes, sent_at: int,
         subject: Optional[int] = None, detail: object = None) -> Envelope:
    """The one on-wire envelope of a message under ``profile``.

    Bootstrap kinds (authorization, challenge-response, key exchange) are the
    securing machinery itself and go out at payload length in every profile.
    Under auth-encap a unicast needs the pair's session (NoSessionKey
    otherwise) and a broadcast is sealed with the group key. A signed
    envelope carries no tag but the record ``[keys, sig_len, kind, sender,
    receiver, payload, sent_at, subject, detail, _UNREAD]`` of what its
    tag is computed from; ``Envelope.tag`` computes the tag through
    ``keys.tag_of`` on first read.
    """
    pkind = profile.kind
    if pkind is _PLAIN or kind in BOOTSTRAP_KINDS:
        return Envelope(kind, sender, receiver, payload, sent_at,
                        len(payload), subject, detail, pkind._value_)
    if pkind is _AUTH:
        key_id = None
    elif receiver == BROADCAST:
        key_id = GROUP_KEY_ID
    else:
        key_id = keys.sealing_key_id(sender, receiver)
        if key_id is None:
            raise NoSessionKey(
                f"no session key for pair ({sender}, {receiver})")
    # the record goes by position: as ``_signed=`` it cost 100 to 250 ns
    return Envelope(kind, sender, receiver, payload, sent_at,
                    len(payload) + profile.overhead, subject, detail,
                    pkind._value_, None, key_id,
                    [keys, profile.sig_len, kind, sender, receiver, payload,
                     sent_at, subject, detail, _UNREAD])


def unwrap(env: Envelope, profile: SecurityProfile,
           keys: KeyRegistry) -> bytes:
    """Verify a wrapped envelope and return its payload.

    Raises ProfileMismatch when the envelope was wrapped under a different
    profile, WrongSessionKey when a sealed profile's envelope names no
    sealing key, and TagMismatch when the signature check fails. These are
    the checks every receiver shares, so a broadcast is verified once;
    ``key_holders`` then says which of its receivers can open it.

    When the record that ``wrap`` gave the envelope names ``keys``, the
    envelope's signed fields and the profile's ``sig_len`` as the very
    objects it holds, and the tag is either unread or the very object the
    record computed, ``_tag_for`` would return the tag again, so the check
    passes without hashing: the signed fields are immutable values. The
    test is identity, not equality, since equal values can frame as
    different bytes: ``5.0 == 5``, yet a ``sent_at`` of ``5.0`` signs
    ``"5.0"``. Any other envelope is hashed again, reading its tag, so the
    outcome is the hash's: one built by hand, by ``dataclasses.replace``,
    which copies fields only, by ``copy`` or ``pickle``, or by another
    registry, or one whose tag or field was written in place.
    """
    if env.kind in BOOTSTRAP_KINDS:
        return env.payload
    pkind = profile.kind
    if env.profile_name != pkind._value_:
        raise ProfileMismatch(
            f"envelope wrapped as {env.profile_name or 'unwrapped'}, "
            f"expected {pkind.value}")
    if pkind is _PLAIN:
        return env.payload
    if pkind is _AUTH_ENCAP and env.sealed_key_id is None:
        raise WrongSessionKey("envelope carries no session key id")

    sig_len = profile.sig_len
    signed = env._signed
    if (signed is None or signed[6] is not env.sent_at
            or signed[5] is not env.payload or signed[3] is not env.sender
            or signed[4] is not env.receiver or signed[2] is not env.kind
            or signed[7] is not env.subject or signed[8] is not env.detail
            or signed[1] is not sig_len or signed[0] is not keys
            or env.__dict__.get("tag", _UNREAD) is not signed[9]):
        if env.tag != _tag_for(keys, sig_len, env.kind, env.sender,
                               env.receiver, env.payload, env.sent_at,
                               env.subject, env.detail):
            raise TagMismatch("signature tag does not verify")
    return env.payload


def key_holders(env: Envelope, profile: SecurityProfile,
                keys: KeyRegistry) -> Optional[set[int]]:
    """The nodes that can open an envelope that ``unwrap`` verified: the
    holders of its sealing key, or None when the profile does not seal it
    and every receiver can."""
    if profile.kind is not _AUTH_ENCAP or env.kind in BOOTSTRAP_KINDS:
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
    time_step_ms: int
    skew_steps: int
    used: set[tuple[int, int]] = field(default_factory=set)

    def step_at(self, at: int) -> int:
        return at // self.time_step_ms


@functools.lru_cache(maxsize=8)
def _tota_state(secret: bytes):
    """A blake2b state keyed with ``secret``. Every caller gets the same
    state, so hash a copy of it."""
    return hashlib.blake2b(key=secret, digest_size=TOTA_RESPONSE_LEN)


_TOTA_FRAME = _frame("tota")


def tota_response(secret: bytes, prover: int, nonce: int, step: int) -> bytes:
    """``_digest(secret, "tota", prover, nonce, step,
    size=TOTA_RESPONSE_LEN)``, hashed by a copy of the secret's state."""
    h = _tota_state(secret).copy()
    h.update(b"".join((_TOTA_FRAME, _frame(prover), _frame(nonce),
                       _frame(step))))
    return h.digest()


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
