"""Core domain types: roles, message envelopes, notifications.

Everything here is a plain value type. Mutable runtime state (monitor counters,
key tables, event queues) lives in the protocol, security and kernel modules;
this module only defines what those modules exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# The management unit is a distinguished endpoint with reserved id 0. It is
# never a succession candidate and never appears in scenario node lists.
CMU_ID = 0

# Receiver sentinel for one-to-all transmissions over the shared medium.
BROADCAST = -1


class SimError(Exception):
    """Base class for every error raised by the simulator."""


class IdentityHashEnum(Enum):
    """An Enum hashed by identity in C rather than by ``hash(self._name_)``
    in Python. Members are singletons, so equality is unchanged, and a
    name's hash already varies with PYTHONHASHSEED, so no output can depend
    on either hash. Used for the enums that key hot-path dicts and sets."""

    __hash__ = object.__hash__


class Role(IdentityHashEnum):
    ADMINISTRATOR = "administrator"
    FIRE_SENSOR = "fire_sensor"
    LOW_RANK = "low_rank"


LRN_ROLES = frozenset({Role.FIRE_SENSOR, Role.LOW_RANK})


def is_lrn(role: Role) -> bool:
    return role in LRN_ROLES


class NodeStatus(IdentityHashEnum):
    ACTIVE = "active"
    REMOVED = "removed"
    REENTERING = "reentering"


class EnvelopeKind(IdentityHashEnum):
    STATUS_BROADCAST = "status_broadcast"
    SENSOR_DATA = "sensor_data"
    PING = "ping"
    PONG = "pong"
    INFO_MESSAGE = "info_message"
    WARNING = "warning"
    ALERT = "alert"
    REMOVAL_NOTICE = "removal_notice"
    ROLE_ASSIGNMENT = "role_assignment"
    DIAGNOSTIC_PROBE = "diagnostic_probe"
    AUTH_CHALLENGE = "auth_challenge"
    AUTH_RESPONSE = "auth_response"
    KEY_EXCHANGE = "key_exchange"
    AUTHORIZATION_REQUEST = "authorization_request"
    AUTHORIZATION_GRANT = "authorization_grant"


class Category(IdentityHashEnum):
    CONTROL = "control"
    DATA = "data"
    SECURITY = "security"
    DIAGNOSTIC = "diagnostic"


# Every envelope kind maps to exactly one accounting category. The reporting
# module relies on this map being exhaustive; a test asserts it.
CATEGORY_BY_KIND: dict[EnvelopeKind, Category] = {
    EnvelopeKind.STATUS_BROADCAST: Category.CONTROL,
    EnvelopeKind.SENSOR_DATA: Category.DATA,
    EnvelopeKind.PING: Category.CONTROL,
    EnvelopeKind.PONG: Category.CONTROL,
    EnvelopeKind.INFO_MESSAGE: Category.CONTROL,
    EnvelopeKind.WARNING: Category.CONTROL,
    EnvelopeKind.ALERT: Category.CONTROL,
    EnvelopeKind.REMOVAL_NOTICE: Category.CONTROL,
    EnvelopeKind.ROLE_ASSIGNMENT: Category.CONTROL,
    EnvelopeKind.DIAGNOSTIC_PROBE: Category.DIAGNOSTIC,
    EnvelopeKind.AUTH_CHALLENGE: Category.SECURITY,
    EnvelopeKind.AUTH_RESPONSE: Category.SECURITY,
    EnvelopeKind.KEY_EXCHANGE: Category.SECURITY,
    EnvelopeKind.AUTHORIZATION_REQUEST: Category.SECURITY,
    EnvelopeKind.AUTHORIZATION_GRANT: Category.SECURITY,
}


# Kinds that carry the join/key-agreement machinery itself. They are
# self-securing: profile wrapping never adds signature or encapsulation
# overhead to them, so their wire length always equals their payload length.
BOOTSTRAP_KINDS = frozenset({
    EnvelopeKind.AUTHORIZATION_REQUEST,
    EnvelopeKind.AUTHORIZATION_GRANT,
    EnvelopeKind.AUTH_CHALLENGE,
    EnvelopeKind.AUTH_RESPONSE,
    EnvelopeKind.KEY_EXCHANGE,
})

# Kinds a drop-next-n fault counts against. Control and diagnostic traffic is
# exempt by design: the fault models a defective data radio path.
DATA_PACKET_KINDS = frozenset({
    EnvelopeKind.SENSOR_DATA,
    EnvelopeKind.STATUS_BROADCAST,
})

# Kinds whose envelopes reference a subject node.
SUBJECT_KINDS = frozenset({
    EnvelopeKind.WARNING,
    EnvelopeKind.ALERT,
    EnvelopeKind.REMOVAL_NOTICE,
    EnvelopeKind.INFO_MESSAGE,
})


class _SignatureTag:
    """``Envelope.tag`` of a signed envelope, computed on first read.

    A non-data descriptor, as ``functools.cached_property`` is: once the
    tag is in the instance dict, reads find it there and never call this.
    A signed envelope leaves its tag out of the dict, and the first read
    has the registry that heads its record compute the tag, which the
    registry also keeps in the record, then stores it in the dict. Read off
    the class, it is the field's default, None. A class ``__getattr__``
    would do the same job, but on CPython 3.11 it stops every attribute
    read on the class from being specialised.
    """

    def __get__(self, env: "Envelope | None", owner: type | None = None):
        if env is None:
            return None
        signed = env._signed
        tag = env.__dict__["tag"] = signed[0].tag_of(signed)
        return tag


# ``init=False``: the generated frozen ``__init__`` sets each field through
# object.__setattr__, and an envelope is built on every send, then read 20
# to 30 times. The one below installs its instance dict whole, built as one
# literal: a combined table, read in about 7 ns an attribute on CPython 3.11.
# Stores key by key into ``self.__dict__`` make a split (shared-key) table,
# read in 22 to 28 ns, to save about 220 ns of a 750 ns build; a setattr per
# field took 1,600 ns (2-core VM, 3.11.7). ``__eq__``, ``__hash__``,
# ``__repr__`` and the raising ``__setattr__`` are still generated, and
# ``dataclasses.replace`` goes through this ``__init__``, subject check
# included. ``_signed`` is no field, so all of them ignore it and
# ``replace`` leaves it None; each reads ``tag``.
@dataclass(frozen=True, init=False)
class Envelope:
    """One message on the wire, built once per send by ``security.wrap``.

    ``payload`` is modeled content; its length is what accounting counts as
    payload bytes. ``wire_len`` includes any signature and encapsulation
    overhead the security layer adds. ``subject`` names the node a
    notification-style envelope is about. ``detail`` is the small
    structured value that in a real implementation would be encoded inside
    the payload, typed by kind: a role assignment's ``(Role, admin id or
    None)``; the presented hardware id of an authorization request or
    grant, the nonce of a challenge or response and the step (1 or 2) of a
    key exchange, each an ``int``; the ``Cause`` of a warning or alert; the
    purpose tag of a ping, pong, probe or info message (``"rtt"``,
    ``"confirm"``, ``"probe"``, ``"reentry"``, ``"new-admin"``,
    ``"cmu-supervision"``); None for every other kind. It is neither traced
    nor counted. ``subject`` and ``detail`` are both signed, so a signed
    envelope whose subject or detail is changed fails verification.

    ``_signed`` is the record of what the tag is computed from, which
    ``security.wrap`` hands a signed envelope in place of its tag and
    ``security.unwrap`` reads; None on any other envelope. It is a list
    headed by the key registry that signed it, whose ``tag_of`` computes
    the tag from the record when ``tag`` is first read.
    """

    kind: EnvelopeKind
    sender: int
    receiver: int
    payload: bytes
    sent_at: int
    wire_len: int = -1
    subject: int | None = None
    detail: object = None
    profile_name: str = ""
    tag: bytes | None = _SignatureTag()
    sealed_key_id: str | None = None

    def __init__(self, kind: EnvelopeKind, sender: int, receiver: int,
                 payload: bytes, sent_at: int, wire_len: int = -1,
                 subject: int | None = None, detail: object = None,
                 profile_name: str = "", tag: bytes | None = None,
                 sealed_key_id: str | None = None,
                 _signed: list | None = None) -> None:
        if subject is None and kind in SUBJECT_KINDS:
            raise SimError(f"{kind._value_} envelope requires a subject")
        d = {"kind": kind, "sender": sender, "receiver": receiver,
             "payload": payload, "sent_at": sent_at, "wire_len": wire_len,
             "subject": subject, "detail": detail,
             "profile_name": profile_name, "sealed_key_id": sealed_key_id,
             "_signed": _signed}
        # last, so a signed envelope's dict, which gains its tag when the
        # tag is read, shares its key order with every other envelope's
        if _signed is None:
            d["tag"] = tag
        object.__setattr__(self, "__dict__", d)

    def __getstate__(self) -> dict:
        # copies and pickles carry the tag's bytes and leave the record
        # behind, as ``replace`` does: the record holds the whole signing
        # registry, which a deep copy or a pickle would duplicate, so a
        # copy is verified by hashing its tag again
        return dict(self.__dict__, tag=self.tag, _signed=None)


def make_payload(kind: EnvelopeKind, sender: int, at: int, length: int) -> bytes:
    """Deterministic filler payload of exactly ``length`` bytes: the head
    ``kind|sender|at|``, cut or zero-padded to ``length``."""
    head = f"{kind._value_}|{sender}|{at}|".encode()
    return head.ljust(length, b"\0")[:length]


class Severity(IdentityHashEnum):
    WARNING = "warning"
    ALERT = "alert"
    INFO = "info"


class Cause(IdentityHashEnum):
    SINGLE_LOSS = "single_loss"
    TRIPLE_LOSS = "triple_loss"
    REMOVAL = "removal"
    ADMIN_FAILOVER = "admin_failover"
    REENTRY = "reentry"
    AUTH_FAILURE = "auth_failure"


# A third consecutive loss always escalates to an alert and a first loss in a
# streak is always a warning; the constructor enforces the pairing.
_FIXED_SEVERITY = {
    Cause.SINGLE_LOSS: Severity.WARNING,
    Cause.TRIPLE_LOSS: Severity.ALERT,
}


@dataclass(frozen=True)
class Notification:
    """An entry in the run-level notification log.

    ``reporter`` is the node whose observation produced the entry; the
    management unit reports its own actions under id 0.
    """

    severity: Severity
    subject: int
    cause: Cause
    at: int
    reporter: int = CMU_ID

    def __post_init__(self) -> None:
        fixed = _FIXED_SEVERITY.get(self.cause)
        if fixed is not None and self.severity is not fixed:
            raise SimError(
                f"{self.cause.value} notifications must have severity "
                f"{fixed.value}, got {self.severity.value}")
