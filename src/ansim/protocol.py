"""Protocol state machines: initial role assignment, hardware-id
authorization, packet-loss monitoring with warning/alert escalation,
administrator succession by round-trip time, node removal with diagnostic
probing, and reentry at the lowest rank.

The watch topology is deliberately minimal: the administrator maintains a
monitor for every low-rank node's periodic sensor data, and every low-rank
node maintains a monitor for the administrator's periodic status broadcast.
Monitors detect a missed packet when its expected arrival plus a grace window
(a quarter of the period) passes without a delivery.

Node state is held centrally by the Network object; behaviour that in a real
deployment would be node-local (timers, monitor bookkeeping) is keyed by node
id and gated on that node's status and fault condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Optional

from . import security
from .kernel import Engine
from .model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CMU_ID,
    Cause,
    Envelope,
    EnvelopeKind,
    Notification,
    NodeProfile,
    NodeStatus,
    Role,
    Severity,
    SimError,
    is_hrn,
    is_lrn,
    make_payload,
)
from .security import (
    KeyRegistry,
    ProfileKind,
    SecurityProfile,
    TotaState,
    fresh_nonce,
    tota_response,
    tota_verify,
    TotaOutcome,
)


class EmptyNetwork(SimError):
    pass


class NoCandidate(SimError):
    pass


class DuplicateHardwareId(SimError):
    pass


# Removed nodes are probed at a fixed one-minute cadence until one probe is
# answered.
PROBE_INTERVAL_MS = 60000

# Bound on reassignment passes within a single inspection invocation.
MAX_ASSIGNMENT_ROUNDS = 10

AUTH_MAX_ATTEMPTS = 3
HANDSHAKE_MAX_RETRIES = 3

# Fixed modeled payload sizes per kind; periodic data and status payloads
# come from the scenario instead.
FIXED_PAYLOAD_LEN = {
    EnvelopeKind.PING: 16,
    EnvelopeKind.PONG: 16,
    EnvelopeKind.INFO_MESSAGE: 64,
    EnvelopeKind.WARNING: 32,
    EnvelopeKind.ALERT: 32,
    EnvelopeKind.REMOVAL_NOTICE: 64,
    EnvelopeKind.ROLE_ASSIGNMENT: 32,
    EnvelopeKind.DIAGNOSTIC_PROBE: 16,
    EnvelopeKind.AUTHORIZATION_REQUEST: 16,
    EnvelopeKind.AUTH_CHALLENGE: 16,
    EnvelopeKind.AUTH_RESPONSE: security.TOTA_RESPONSE_LEN,
    EnvelopeKind.AUTHORIZATION_GRANT: 16,
}


# ------------------------------------------------------------------ monitors

@dataclass
class MonitorState:
    """Loss-streak tracker one watcher keeps for one watched node."""

    watcher: int
    watched: int
    kind: EnvelopeKind
    period: int
    grace: int
    next_expected: int
    consecutive_losses: int = 0
    warned_for_current_streak: bool = False
    alerted_for_current_streak: bool = False
    last_outcome_at: int = -1
    gen: int = 0


def record_packet_outcome(ms: MonitorState, delivered: bool,
                          at: int) -> list[Notification]:
    """Advance one monitor by one observed outcome.

    A warning is emitted exactly on the streak's first loss and an alert
    exactly on the transition from two to three consecutive losses. A
    delivery resets the streak.
    """
    ms.last_outcome_at = at
    if delivered:
        ms.consecutive_losses = 0
        ms.warned_for_current_streak = False
        ms.alerted_for_current_streak = False
        return []
    ms.consecutive_losses += 1
    out: list[Notification] = []
    if ms.consecutive_losses == 1 and not ms.warned_for_current_streak:
        ms.warned_for_current_streak = True
        out.append(Notification(severity=Severity.WARNING, subject=ms.watched,
                                cause=Cause.SINGLE_LOSS, at=at,
                                reporter=ms.watcher))
    if ms.consecutive_losses == 3 and not ms.alerted_for_current_streak:
        ms.alerted_for_current_streak = True
        out.append(Notification(severity=Severity.ALERT, subject=ms.watched,
                                cause=Cause.TRIPLE_LOSS, at=at,
                                reporter=ms.watcher))
    return out


# ---------------------------------------------------------------- succession

@dataclass(frozen=True)
class RttEntry:
    node: int
    rtt: Optional[int]  # None marks an unresponsive peer


@dataclass(frozen=True)
class SuccessionTable:
    """Candidate ordering for administrator succession.

    Responsive peers come first, ascending by round-trip time with ties
    broken by the lower node id; unresponsive peers trail in id order.
    """

    entries: tuple[RttEntry, ...]

    @classmethod
    def from_measurements(cls, rtts: dict[int, Optional[int]]) -> "SuccessionTable":
        responsive = sorted(
            (rtt, node) for node, rtt in rtts.items() if rtt is not None)
        unresponsive = sorted(
            node for node, rtt in rtts.items() if rtt is None)
        entries = tuple(
            [RttEntry(node=n, rtt=r) for r, n in responsive]
            + [RttEntry(node=n, rtt=None) for n in unresponsive])
        return cls(entries=entries)

    def responsive_candidates(self) -> list[int]:
        return [e.node for e in self.entries if e.rtt is not None]


def select_successor(table: SuccessionTable,
                     is_alive: Callable[[int], bool]) -> int:
    """First responsive table entry that still answers a liveness check."""
    for entry in table.entries:
        if entry.rtt is None:
            continue
        if is_alive(entry.node):
            return entry.node
    raise NoCandidate("no responsive succession candidate")


# -------------------------------------------------------------- role changes

class RoleChangeReason(Enum):
    INITIAL_ASSIGNMENT = "initial_assignment"
    ADMIN_FAILOVER = "admin_failover"
    DEMOTION = "demotion"
    REENTRY = "reentry"


@dataclass(frozen=True)
class RoleChange:
    node: int
    from_role: Optional[Role]
    to_role: Role
    at: int
    reason: RoleChangeReason

    def __post_init__(self) -> None:
        if (self.reason is RoleChangeReason.REENTRY
                and self.to_role is not Role.LOW_RANK):
            raise SimError("reentry changes always end in the low rank")


def assign_initial_roles(profiles: list[NodeProfile],
                         at: int = 0) -> list[RoleChange]:
    """Initial role distribution: the node with the highest processing power
    becomes administrator (ties broken by the lower id), everyone else starts
    as a fire sensor."""
    if not profiles:
        raise EmptyNetwork("cannot assign roles in an empty network")
    admin = min(profiles, key=lambda p: (-p.processing_power, p.node_id))
    changes = [RoleChange(node=admin.node_id, from_role=None,
                          to_role=Role.ADMINISTRATOR, at=at,
                          reason=RoleChangeReason.INITIAL_ASSIGNMENT)]
    for p in sorted(profiles, key=lambda p: p.node_id):
        if p.node_id != admin.node_id:
            changes.append(RoleChange(node=p.node_id, from_role=None,
                                      to_role=Role.FIRE_SENSOR, at=at,
                                      reason=RoleChangeReason.INITIAL_ASSIGNMENT))
    return changes


# ------------------------------------------------------------------- network

@dataclass
class NodeState:
    profile: NodeProfile
    registered: bool = True
    authorized: bool = False
    known_admin: Optional[int] = None
    duty_gen: int = 0
    monitors: dict[int, MonitorState] = field(default_factory=dict)


@dataclass
class _Handshake:
    initiator: int
    peer: int
    gen: int
    retries: int = 0
    done: bool = False


@dataclass
class _Failover:
    old_admin: int
    tiers: list[list[int]]
    phase: str = "idle"  # measure | confirm
    gen: int = 0
    started_at: int = 0
    pending: dict[int, Optional[int]] = field(default_factory=dict)
    queue: list[int] = field(default_factory=list)
    confirm_target: Optional[int] = None


class Network:
    """Wires the protocol onto an event kernel for one run."""

    def __init__(self, engine: Engine, *, nodes: list, profile: SecurityProfile,
                 keys: KeyRegistry, timers, payload_sensor_data: int = 120,
                 payload_status_broadcast: int = 120,
                 tota_time_step_ms: int = 30000, tota_skew_steps: int = 1):
        self.engine = engine
        self.profile = profile
        self.keys = keys
        self.timers = timers
        self._payload_len = dict(FIXED_PAYLOAD_LEN)
        self._payload_len[EnvelopeKind.SENSOR_DATA] = payload_sensor_data
        self._payload_len[EnvelopeKind.STATUS_BROADCAST] = payload_status_broadcast
        if profile.kind is ProfileKind.AUTH_ENCAP:
            self._payload_len[EnvelopeKind.KEY_EXCHANGE] = profile.handshake_msg_len

        self.nodes: dict[int, NodeState] = {}
        for spec in nodes:
            prof = NodeProfile(node_id=spec.id, hardware_id=spec.hardware_id,
                               processing_power=spec.processing_power,
                               role=Role.LOW_RANK)
            self.nodes[spec.id] = NodeState(profile=prof,
                                            registered=spec.registered)
            if spec.registered:
                keys.provision_member(spec.id)

        # every endpoint a broadcast can reach, in delivery order
        self._broadcast_receivers = tuple(sorted([CMU_ID, *self.nodes]))

        self.notifications: list[Notification] = []
        self.role_changes: list[RoleChange] = []
        self.succession_tables: list[SuccessionTable] = []
        self.convergence_failures = 0

        self.tota = TotaState(
            secret=keys.signing_key(CMU_ID) + b"/network",
            time_step_ms=tota_time_step_ms, skew_steps=tota_skew_steps)

        # management-unit state
        self._admin_id: Optional[int] = None
        self._granted: dict[int, int] = {}
        self._granted_hw: dict[int, int] = {}
        self._rejected: set[int] = set()
        self._pending_challenge: dict[int, tuple[int, int]] = {}
        self._outstanding: dict[int, int] = {}
        self._round_active = False
        self._rounds_used = 0
        self._failover: Optional[_Failover] = None
        self._demoted: set[int] = set()
        self._probing: dict[int, int] = {}
        self._supervising = False
        self._cmu_monitors: dict[int, MonitorState] = {}

        self._handshakes: dict[frozenset, _Handshake] = {}
        self._pending_out: dict[tuple[int, int], list[tuple]] = {}
        self._gen = 0

        engine.on_deliver = self._on_deliver
        engine.on_timer = self._on_timer

    # ------------------------------------------------------------ bootstrap

    def start(self) -> None:
        self.engine.schedule_timer(0, CMU_ID, "bootstrap")
        self.engine.schedule_timer(self.timers.inspection_period_ms,
                                   CMU_ID, "inspect")

    def _bootstrap(self) -> None:
        changes = assign_initial_roles(
            [st.profile for st in self.nodes.values()], at=self.engine.now)
        for change in changes:
            st = self.nodes[change.node]
            st.profile = st.profile.with_role(change.to_role)
            self.role_changes.append(change)
            if change.to_role is Role.ADMINISTRATOR:
                self._admin_id = change.node
            self._post(EnvelopeKind.ROLE_ASSIGNMENT, CMU_ID, BROADCAST,
                       subject=change.node,
                       detail=f"role={change.to_role.value}")
        for node_id in self.nodes:
            self._send_auth_request(node_id, attempt=1)

    # ------------------------------------------------------------ messaging

    def _next_gen(self) -> int:
        self._gen += 1
        return self._gen

    def _make_env(self, kind: EnvelopeKind, sender: int, receiver: int,
                  subject: Optional[int], detail: str,
                  length: Optional[int]) -> Envelope:
        n = length if length is not None else self._payload_len[kind]
        payload = make_payload(kind, sender, self.engine.now, n)
        return Envelope(kind=kind, sender=sender, receiver=receiver,
                        payload=payload, sent_at=self.engine.now,
                        subject=subject, detail=detail)

    def _make_response_env(self, sender: int, digest: bytes, detail: str) -> Envelope:
        return Envelope(kind=EnvelopeKind.AUTH_RESPONSE, sender=sender,
                        receiver=CMU_ID, payload=digest,
                        sent_at=self.engine.now, detail=detail)

    def _post(self, kind: EnvelopeKind, sender: int, receiver: int, *,
              subject: Optional[int] = None, detail: str = "",
              length: Optional[int] = None,
              payload: Optional[bytes] = None) -> None:
        """Build one envelope, wrap it under the active profile and transmit
        it, deferring behind a session handshake when one is required."""
        if self._session_required(kind, receiver):
            pair = frozenset((sender, receiver))
            hs = self._handshakes.get(pair)
            if (hs is not None and not hs.done) or not self.keys.has_session(
                    sender, receiver):
                self._pending_out.setdefault((sender, receiver), []).append(
                    (kind, subject, detail, length, payload))
                self._ensure_handshake(sender, receiver)
                return
        self._transmit(kind, sender, receiver, subject, detail, length, payload)

    def _session_required(self, kind: EnvelopeKind, receiver: int) -> bool:
        return (self.profile.kind is ProfileKind.AUTH_ENCAP
                and receiver != BROADCAST
                and kind not in BOOTSTRAP_KINDS)

    def _transmit(self, kind, sender, receiver, subject, detail, length,
                  payload) -> None:
        if payload is not None:
            env = Envelope(kind=kind, sender=sender, receiver=receiver,
                           payload=payload, sent_at=self.engine.now,
                           subject=subject, detail=detail)
        else:
            env = self._make_env(kind, sender, receiver, subject, detail, length)
        wrapped = security.wrap(env, self.profile, self.keys)
        self.engine.send(wrapped)

    # ----------------------------------------------------------- handshakes

    def _ensure_handshake(self, a: int, b: int) -> None:
        pair = frozenset((a, b))
        if pair in self._handshakes and not self._handshakes[pair].done:
            return
        if self.keys.has_session(a, b):
            return
        hs = _Handshake(initiator=a, peer=b, gen=self._next_gen())
        self._handshakes[pair] = hs
        self._post(EnvelopeKind.KEY_EXCHANGE, a, b, detail="hs=1")
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, a, f"hs/{b}", hs.gen)

    def _handshake_retry(self, owner: int, peer: int, gen: int) -> None:
        pair = frozenset((owner, peer))
        hs = self._handshakes.get(pair)
        if hs is None or hs.done or hs.gen != gen:
            return
        if hs.retries >= HANDSHAKE_MAX_RETRIES:
            # past the retry budget: give up and drop whatever waited
            del self._handshakes[pair]
            self._pending_out.pop((owner, peer), None)
            self._pending_out.pop((peer, owner), None)
            self._notify(Severity.ALERT, Cause.AUTH_FAILURE, subject=peer,
                         reporter=owner)
            return
        hs.retries += 1
        hs.gen = self._next_gen()
        self._post(EnvelopeKind.KEY_EXCHANGE, owner, peer, detail="hs=1")
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, owner,
            f"hs/{peer}", hs.gen)

    def _flush_pending(self, sender: int, receiver: int) -> None:
        for kind, subject, detail, length, payload in self._pending_out.pop(
                (sender, receiver), []):
            self._transmit(kind, sender, receiver, subject, detail, length,
                           payload)

    def _on_key_exchange(self, env: Envelope, receiver: int,
                         fields: dict[str, str]) -> None:
        step = fields.get("hs")
        other = env.sender
        pair = frozenset((receiver, other))
        if step == "1":
            self.keys.establish(receiver, other)
            self._post(EnvelopeKind.KEY_EXCHANGE, receiver, other, detail="hs=2")
            self._flush_pending(receiver, other)
        elif step == "2":
            self.keys.establish(receiver, other)
            hs = self._handshakes.get(pair)
            if hs is not None and hs.initiator == receiver:
                hs.done = True
                hs.gen = self._next_gen()
            self._flush_pending(receiver, other)

    # -------------------------------------------------------- authorization

    def _send_auth_request(self, node: int, attempt: int) -> None:
        st = self.nodes[node]
        if st.authorized or attempt > AUTH_MAX_ATTEMPTS:
            return
        self._post(EnvelopeKind.AUTHORIZATION_REQUEST, node, CMU_ID,
                   detail=f"hw={st.profile.hardware_id}")
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, node,
            "authretry", attempt)

    def authorize_node(self, node: int, presented_hw: int) -> bool:
        """Registry decision for one join request.

        Grants only hardware ids registered with the management unit.
        Returns True on grant; records an auth-failure notification and
        remembers the rejection otherwise. A second node presenting an id
        that is already granted breaks the uniqueness invariant and raises
        DuplicateHardwareId.
        """
        if presented_hw in self._granted_hw and self._granted_hw[presented_hw] != node:
            raise DuplicateHardwareId(
                f"hardware id {presented_hw} already granted to node "
                f"{self._granted_hw[presented_hw]}")
        if presented_hw not in self.keys.registered_hardware_ids:
            self._reject(node)
            return False
        self._granted[node] = presented_hw
        self._granted_hw[presented_hw] = node
        return True

    def _reject(self, node: int) -> None:
        self._rejected.add(node)
        self._notify(Severity.ALERT, Cause.AUTH_FAILURE, subject=node,
                     reporter=CMU_ID)

    def _on_auth_request(self, env: Envelope, receiver: int,
                         fields: dict[str, str]) -> None:
        node = env.sender
        if node in self._granted:
            self._post(EnvelopeKind.AUTHORIZATION_GRANT, CMU_ID, BROADCAST,
                       subject=node, detail=f"hw={self._granted[node]}")
            return
        if node in self._rejected:
            self._notify(Severity.ALERT, Cause.AUTH_FAILURE, subject=node,
                         reporter=CMU_ID)
            return
        hw = int(fields["hw"])
        nonce = fresh_nonce(self.engine.rng)
        self._pending_challenge[node] = (nonce, hw)
        self._post(EnvelopeKind.AUTH_CHALLENGE, CMU_ID, node,
                   detail=f"nonce={nonce}")

    def _on_auth_challenge(self, env: Envelope, node: int,
                           fields: dict[str, str]) -> None:
        nonce = int(fields["nonce"])
        st = self.nodes[node]
        secret = self.tota.secret if st.registered else b"not-a-member"
        digest = tota_response(secret, node, nonce,
                               self.tota.step_at(self.engine.now))
        self._post(EnvelopeKind.AUTH_RESPONSE, node, CMU_ID,
                   detail=f"nonce={nonce}", payload=digest)

    def _on_auth_response(self, env: Envelope, receiver: int,
                          fields: dict[str, str]) -> None:
        node = env.sender
        pending = self._pending_challenge.pop(node, None)
        if pending is None:
            return
        nonce, hw = pending
        outcome = tota_verify(self.tota, node, nonce, env.payload,
                              self.engine.now)
        if outcome is not TotaOutcome.ACCEPT:
            self._reject(node)
            return
        try:
            granted = self.authorize_node(node, hw)
        except DuplicateHardwareId:
            # a dropped grant can make an honest node re-present; anyone
            # else claiming a granted id is turned away like a stranger
            self._reject(node)
            return
        if not granted:
            return
        self._post(EnvelopeKind.AUTHORIZATION_GRANT, CMU_ID, BROADCAST,
                   subject=node, detail=f"hw={hw}")
        if self.profile.kind is ProfileKind.AUTH_ENCAP:
            self._ensure_handshake(CMU_ID, node)

    def _on_auth_grant(self, env: Envelope, receiver: int,
                       fields: dict[str, str]) -> None:
        subject = env.subject
        if subject is None:
            return
        st = self.nodes.get(receiver)
        if st is None:
            return
        if receiver == subject:
            st.authorized = True
            self._start_duties(receiver)
            if receiver == self._admin_id:
                # watch every member that was granted before we were
                for member in self._granted:
                    if member != receiver:
                        self._watch_sensor(receiver, member)
        elif receiver == self._admin_id and st.authorized:
            self._watch_sensor(receiver, subject)

    # --------------------------------------------------------------- duties

    def _start_duties(self, node: int) -> None:
        st = self.nodes[node]
        if not st.authorized:
            return
        if st.profile.status is NodeStatus.REENTERING:
            st.profile = st.profile.with_status(NodeStatus.ACTIVE)
        if st.profile.status is not NodeStatus.ACTIVE:
            return
        st.duty_gen += 1
        role = st.profile.role
        if role is Role.ADMINISTRATOR:
            st.monitors.clear()
            self.engine.schedule_timer(self.engine.now, node, "status",
                                       st.duty_gen)
        elif is_lrn(role):
            st.monitors.clear()
            self.engine.schedule_timer(
                self.engine.now + self.timers.sensor_data_period_ms, node,
                "sensor", st.duty_gen)
            self._watch_admin(node)

    def _watch_admin(self, node: int) -> None:
        st = self.nodes[node]
        target = st.known_admin
        if target is None or target == node or target == CMU_ID:
            return
        self._create_monitor(node, target, EnvelopeKind.STATUS_BROADCAST,
                             self.timers.status_period_ms)

    def _watch_sensor(self, watcher: int, watched: int) -> None:
        wst = self.nodes.get(watched)
        if wst is None or not is_lrn(wst.profile.role):
            return
        if wst.profile.status is NodeStatus.REMOVED:
            return
        self._create_monitor(watcher, watched, EnvelopeKind.SENSOR_DATA,
                             self.timers.sensor_data_period_ms)

    def _on_status_timer(self, node: int, gen: int) -> None:
        st = self.nodes[node]
        if (gen != st.duty_gen or not st.authorized
                or st.profile.role is not Role.ADMINISTRATOR
                or st.profile.status is not NodeStatus.ACTIVE):
            return
        self._post(EnvelopeKind.STATUS_BROADCAST, node, BROADCAST)
        self.engine.schedule_timer(
            self.engine.now + self.timers.status_period_ms, node, "status", gen)

    def _on_sensor_timer(self, node: int, gen: int) -> None:
        st = self.nodes[node]
        if (gen != st.duty_gen or not st.authorized
                or not is_lrn(st.profile.role)
                or st.profile.status is not NodeStatus.ACTIVE):
            return
        target = st.known_admin if st.known_admin is not None else CMU_ID
        if target != node:
            self._post(EnvelopeKind.SENSOR_DATA, node, target)
        self.engine.schedule_timer(
            self.engine.now + self.timers.sensor_data_period_ms, node,
            "sensor", gen)

    # -------------------------------------------------------------- monitors

    def _monitor_map(self, watcher: int) -> dict[int, MonitorState]:
        if watcher == CMU_ID:
            return self._cmu_monitors
        return self.nodes[watcher].monitors

    def _create_monitor(self, watcher: int, watched: int, kind: EnvelopeKind,
                        period: int) -> None:
        ms = MonitorState(watcher=watcher, watched=watched, kind=kind,
                          period=period, grace=period // 4,
                          next_expected=self.engine.now + period)
        self._monitor_map(watcher)[watched] = ms
        self._arm_monitor(ms)

    def _arm_monitor(self, ms: MonitorState) -> None:
        ms.gen = self._next_gen()
        self.engine.schedule_timer(ms.next_expected + ms.grace, ms.watcher,
                                   f"mon/{ms.watched}", ms.gen)

    def _drop_monitor(self, watcher: int, watched: int) -> None:
        self._monitor_map(watcher).pop(watched, None)

    def _on_monitored_delivery(self, env: Envelope, watcher: int,
                               fields: dict[str, str]) -> None:
        ms = self._monitor_map(watcher).get(env.sender)
        if ms is None or ms.kind is not env.kind:
            return
        record_packet_outcome(ms, delivered=True, at=self.engine.now)
        ms.next_expected = self.engine.now + ms.period
        self._arm_monitor(ms)

    def _on_monitor_deadline(self, watcher: int, watched: int, gen: int) -> None:
        ms = self._monitor_map(watcher).get(watched)
        if ms is None or ms.gen != gen:
            return
        if watcher != CMU_ID:
            wst = self.nodes[watcher]
            if (wst.profile.status is not NodeStatus.ACTIVE
                    or self.engine.is_crashed(watcher)):
                return
        notes = record_packet_outcome(ms, delivered=False, at=self.engine.now)
        ms.next_expected += ms.period
        self._arm_monitor(ms)
        for note in notes:
            self._report(note)

    def _report(self, note: Notification) -> None:
        if note.reporter == CMU_ID:
            self._ingest(note)
            return
        kind = (EnvelopeKind.WARNING if note.severity is Severity.WARNING
                else EnvelopeKind.ALERT)
        self._post(kind, note.reporter, CMU_ID, subject=note.subject,
                   detail=f"cause={note.cause.value}")

    # -------------------------------------------------- notification intake

    def _notify(self, severity: Severity, cause: Cause, subject: int,
                reporter: int, at: Optional[int] = None) -> None:
        self.notifications.append(Notification(
            severity=severity, subject=subject, cause=cause,
            at=self.engine.now if at is None else at, reporter=reporter))

    def _ingest(self, note: Notification) -> None:
        self.notifications.append(note)
        if note.severity is Severity.ALERT and note.cause is Cause.TRIPLE_LOSS:
            self._handle_alert(note.subject, note.at)

    def _handle_alert(self, subject: int, at: int) -> None:
        st = self.nodes.get(subject)
        if st is None or st.profile.status is not NodeStatus.ACTIVE:
            return
        if subject in self._outstanding:
            return
        self._outstanding[subject] = at
        self._maybe_start_round()

    # -------------------------------------------------- reassignment rounds

    def _maybe_start_round(self) -> None:
        if self._round_active or not self._outstanding:
            return
        self._round_active = True
        self._rounds_used = 0
        self._round_admin_phase()

    def _round_admin_phase(self) -> None:
        self._rounds_used += 1
        if self._rounds_used > MAX_ASSIGNMENT_ROUNDS:
            self.convergence_failures += 1
            self._outstanding.clear()
            self._round_active = False
            return
        admin = self._admin_id
        if admin is not None and admin in self._outstanding:
            self._begin_admin_failover(admin)
        else:
            self._round_sensor_phase()

    def _round_sensor_phase(self) -> None:
        for subject in list(self._outstanding):
            del self._outstanding[subject]
            self._remove_node(subject)
        self._round_reinspect()

    def _round_reinspect(self) -> None:
        if self._outstanding:
            self._round_admin_phase()
        else:
            self._round_active = False

    # ---------------------------------------------------- removal / probing

    def _remove_node(self, subject: int) -> None:
        st = self.nodes.get(subject)
        if st is None or st.profile.status is not NodeStatus.ACTIVE:
            return
        st.profile = st.profile.with_status(NodeStatus.REMOVED)
        st.duty_gen += 1
        st.monitors.clear()
        self._notify(Severity.INFO, Cause.REMOVAL, subject=subject,
                     reporter=CMU_ID)
        self._post(EnvelopeKind.REMOVAL_NOTICE, CMU_ID, BROADCAST,
                   subject=subject)
        gen = self._next_gen()
        self._probing[subject] = gen
        self.engine.schedule_timer(self.engine.now + PROBE_INTERVAL_MS,
                                   CMU_ID, f"probe/{subject}", gen)

    def _on_probe_timer(self, target: int, gen: int) -> None:
        if self._probing.get(target) != gen:
            return
        st = self.nodes[target]
        if st.profile.status is not NodeStatus.REMOVED:
            del self._probing[target]
            return
        self._post(EnvelopeKind.DIAGNOSTIC_PROBE, CMU_ID, target,
                   detail="probe")
        self.engine.schedule_timer(self.engine.now + PROBE_INTERVAL_MS,
                                   CMU_ID, f"probe/{target}", gen)

    def _on_probe(self, env: Envelope, node: int,
                  fields: dict[str, str]) -> None:
        if self.engine.is_responsive(node):
            self._post(EnvelopeKind.PONG, node, CMU_ID, detail="probe")

    def _on_probe_answered(self, node: int) -> None:
        if node not in self._probing:
            return
        st = self.nodes[node]
        if st.profile.status is not NodeStatus.REMOVED:
            return
        del self._probing[node]
        # reentry re-checks the hardware registry before readmission
        hw = self._granted.get(node)
        if hw is None or hw not in self.keys.registered_hardware_ids:
            self._reject(node)
            return
        st.profile = st.profile.with_status(NodeStatus.REENTERING)
        self._log_role_change(node, st.profile.role, Role.LOW_RANK,
                              RoleChangeReason.REENTRY)
        st.profile = st.profile.with_role(Role.LOW_RANK)
        admin = self._admin_id if self._admin_id is not None else CMU_ID
        st.known_admin = admin
        self._notify(Severity.INFO, Cause.REENTRY, subject=node,
                     reporter=CMU_ID)
        self._post(EnvelopeKind.ROLE_ASSIGNMENT, CMU_ID, node, subject=node,
                   detail=f"role={Role.LOW_RANK.value};admin={admin}")
        self._post(EnvelopeKind.INFO_MESSAGE, CMU_ID, BROADCAST, subject=node,
                   detail="reentry")
        if self._supervising:
            # no administrator to pick the returnee up, so the management
            # unit keeps watching it directly
            self._watch_sensor(CMU_ID, node)

    # ------------------------------------------------------------- failover

    def _begin_admin_failover(self, old_admin: int) -> None:
        self._outstanding.pop(old_admin, None)
        self._admin_id = None
        self._remove_node(old_admin)
        # a demoted former administrator stays in the low rank for good, so
        # it never reappears as a succession candidate
        hrn_tier = [n for n, st in self.nodes.items()
                    if n in self._granted and n != old_admin
                    and n not in self._demoted
                    and st.profile.status is NodeStatus.ACTIVE
                    and is_hrn(st.profile.role)]
        lrn_tier = [n for n, st in self.nodes.items()
                    if n in self._granted and n != old_admin
                    and n not in self._demoted
                    and st.profile.status is NodeStatus.ACTIVE
                    and is_lrn(st.profile.role)]
        tiers = [tier for tier in (hrn_tier, lrn_tier) if tier]
        self._failover = _Failover(old_admin=old_admin, tiers=tiers)
        self._failover_next_tier()

    def _failover_next_tier(self) -> None:
        fo = self._failover
        if not fo.tiers:
            self._no_candidate()
            return
        peers = fo.tiers.pop(0)
        fo.phase = "measure"
        fo.gen = self._next_gen()
        fo.started_at = self.engine.now
        fo.pending = {p: None for p in sorted(peers)}
        for peer in fo.pending:
            self._post(EnvelopeKind.PING, CMU_ID, peer, detail="rtt")
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, CMU_ID, "rtt", fo.gen)

    def _on_rtt_timeout(self, gen: int) -> None:
        fo = self._failover
        if fo is None or fo.phase != "measure" or fo.gen != gen:
            return
        self._measurement_done()

    def _measurement_done(self) -> None:
        fo = self._failover
        table = SuccessionTable.from_measurements(fo.pending)
        self.succession_tables.append(table)
        fo.queue = table.responsive_candidates()
        fo.phase = "confirm"
        self._confirm_next()

    def _confirm_next(self) -> None:
        fo = self._failover
        while fo.queue:
            target = fo.queue.pop(0)
            st = self.nodes[target]
            if st.profile.status is not NodeStatus.ACTIVE:
                continue
            fo.confirm_target = target
            fo.gen = self._next_gen()
            self._post(EnvelopeKind.PING, CMU_ID, target, detail="confirm")
            self.engine.schedule_timer(
                self.engine.now + self.timers.rtt_timeout_ms, CMU_ID,
                "confirm", fo.gen)
            return
        self._failover_next_tier()

    def _on_confirm_timeout(self, gen: int) -> None:
        fo = self._failover
        if fo is None or fo.phase != "confirm" or fo.gen != gen:
            return
        fo.confirm_target = None
        self._confirm_next()

    def _on_pong(self, env: Envelope, receiver: int,
                 fields: dict[str, str]) -> None:
        purpose = env.detail
        sender = env.sender
        if purpose == "probe":
            self._on_probe_answered(sender)
            return
        fo = self._failover
        if fo is None:
            return
        if purpose == "rtt" and fo.phase == "measure":
            if sender in fo.pending and fo.pending[sender] is None:
                fo.pending[sender] = self.engine.now - fo.started_at
                if all(v is not None for v in fo.pending.values()):
                    fo.gen = self._next_gen()
                    self._measurement_done()
        elif purpose == "confirm" and fo.phase == "confirm":
            if sender == fo.confirm_target:
                self._promote(sender)

    def _promote(self, successor: int) -> None:
        fo = self._failover
        old = fo.old_admin
        old_st = self.nodes[old]
        self._log_role_change(old, old_st.profile.role, Role.LOW_RANK,
                              RoleChangeReason.DEMOTION)
        old_st.profile = old_st.profile.with_role(Role.LOW_RANK)
        self._demoted.add(old)

        succ_st = self.nodes[successor]
        self._log_role_change(successor, succ_st.profile.role,
                              Role.ADMINISTRATOR,
                              RoleChangeReason.ADMIN_FAILOVER)
        succ_st.profile = succ_st.profile.with_role(Role.ADMINISTRATOR)
        succ_st.known_admin = successor
        self._admin_id = successor
        self._supervising = False
        self._cmu_monitors.clear()
        self._notify(Severity.INFO, Cause.ADMIN_FAILOVER, subject=successor,
                     reporter=CMU_ID)
        self._post(EnvelopeKind.ROLE_ASSIGNMENT, CMU_ID, successor,
                   subject=successor, detail="role=administrator")
        self._post(EnvelopeKind.INFO_MESSAGE, CMU_ID, BROADCAST,
                   subject=successor, detail="new-admin")
        self._failover = None
        self._round_sensor_phase()

    def _no_candidate(self) -> None:
        fo = self._failover
        self._notify(Severity.ALERT, Cause.ADMIN_FAILOVER,
                     subject=fo.old_admin, reporter=CMU_ID)
        self._supervising = True
        self._failover = None
        for member in self._granted:
            st = self.nodes[member]
            if (is_lrn(st.profile.role)
                    and st.profile.status is NodeStatus.ACTIVE):
                self._watch_sensor(CMU_ID, member)
        self._post(EnvelopeKind.INFO_MESSAGE, CMU_ID, BROADCAST,
                   subject=fo.old_admin, detail="cmu-supervision")
        self._round_sensor_phase()

    def _log_role_change(self, node: int, from_role: Optional[Role],
                         to_role: Role, reason: RoleChangeReason) -> None:
        self.role_changes.append(RoleChange(
            node=node, from_role=from_role, to_role=to_role,
            at=self.engine.now, reason=reason))

    # ------------------------------------------------------------- delivery

    def _eligible(self, receiver: int, env: Envelope) -> bool:
        if receiver == CMU_ID:
            return True
        st = self.nodes.get(receiver)
        if st is None:
            return False
        if self.engine.is_crashed(receiver):
            return False
        status = st.profile.status
        if status is NodeStatus.REMOVED:
            return env.kind is EnvelopeKind.DIAGNOSTIC_PROBE
        if status is NodeStatus.REENTERING:
            return env.kind in (EnvelopeKind.DIAGNOSTIC_PROBE,
                                EnvelopeKind.ROLE_ASSIGNMENT)
        return True

    def _on_deliver(self, env: Envelope) -> None:
        """Hand one delivered envelope to each eligible receiver.

        The checks every receiver shares (profile, signature, a granted
        sender) run once per envelope; each eligible receiver that cannot
        open the envelope still logs its own auth failure, in receiver
        order.
        """
        sender = env.sender
        kind = env.kind
        if env.receiver == BROADCAST:
            receivers = self._broadcast_receivers
            skip = sender
        else:
            receivers = (env.receiver,)
            skip = None
        readers = self._readers(env)
        fields = _detail_fields(env.detail)
        acting = self._acting_receivers(env, fields)
        at_cmu = _HANDLERS.get((kind, True))
        at_node = _HANDLERS.get((kind, False))
        for receiver in receivers:
            if receiver == skip or not self._eligible(receiver, env):
                continue
            if readers is not None and receiver not in readers:
                self._notify(Severity.ALERT, Cause.AUTH_FAILURE,
                             subject=sender, reporter=receiver)
                continue
            if acting is not None and receiver not in acting:
                continue
            handler = at_cmu if receiver == CMU_ID else at_node
            if handler is not None:
                handler(self, env, receiver, fields)

    def _readers(self, env: Envelope) -> Optional[Collection[int]]:
        """Receivers that accept ``env``: None for every receiver, an empty
        set when the envelope fails a check no receiver can pass."""
        if env.kind in BOOTSTRAP_KINDS:
            return None
        try:
            security.unwrap(env, self.profile, self.keys)
        except security.SimError:
            return frozenset()
        # handlers run by the receivers of one non-bootstrap envelope never
        # grant a node, so the sender's standing holds for all of them
        if env.sender != CMU_ID and env.sender not in self._granted:
            return frozenset()
        return security.key_holders(env, self.profile, self.keys)

    def _acting_receivers(self, env: Envelope, fields: dict[str, str]
                          ) -> Optional[tuple]:
        """Receivers whose handler can change anything, or None for all.

        A grant acts only at its subject and at the administrator, and a
        role assignment that names no administrator acts only at its
        subject; elsewhere their handlers return without effect.
        """
        kind = env.kind
        if kind is EnvelopeKind.AUTHORIZATION_GRANT:
            return (env.subject, self._admin_id)
        if (kind is EnvelopeKind.ROLE_ASSIGNMENT
                and fields.get("role") != Role.ADMINISTRATOR.value
                and "admin" not in fields):
            return (env.subject,)
        return None

    def _on_warning(self, env: Envelope, receiver: int,
                    fields: dict[str, str]) -> None:
        self._ingest(Notification(
            severity=Severity.WARNING, subject=env.subject,
            cause=Cause.SINGLE_LOSS, at=env.sent_at, reporter=env.sender))

    def _on_alert(self, env: Envelope, receiver: int,
                  fields: dict[str, str]) -> None:
        self._ingest(Notification(
            severity=Severity.ALERT, subject=env.subject,
            cause=Cause.TRIPLE_LOSS, at=env.sent_at, reporter=env.sender))

    def _on_ping(self, env: Envelope, receiver: int,
                 fields: dict[str, str]) -> None:
        st = self.nodes[receiver]
        if (st.profile.status is NodeStatus.ACTIVE
                and self.engine.is_responsive(receiver)):
            self._post(EnvelopeKind.PONG, receiver, CMU_ID, detail=env.detail)

    def _on_role_assignment(self, env: Envelope, receiver: int,
                            fields: dict[str, str]) -> None:
        role_name = fields.get("role")
        st = self.nodes[receiver]
        if role_name == Role.ADMINISTRATOR.value and env.subject is not None:
            st.known_admin = env.subject
        admin_field = fields.get("admin")
        if admin_field:
            st.known_admin = int(admin_field)
        if env.subject == receiver:
            self._start_duties(receiver)

    def _on_removal_notice(self, env: Envelope, receiver: int,
                           fields: dict[str, str]) -> None:
        self._drop_monitor(receiver, env.subject)

    def _on_info(self, env: Envelope, receiver: int,
                 fields: dict[str, str]) -> None:
        detail = env.detail
        subject = env.subject
        if detail == "new-admin":
            if receiver == CMU_ID or subject is None:
                return
            st = self.nodes[receiver]
            st.known_admin = subject
            if receiver == subject:
                return
            if is_lrn(st.profile.role):
                st.monitors.pop(subject, None)
                self._watch_admin(receiver)
        elif detail == "reentry":
            if subject is None:
                return
            if receiver == self._admin_id:
                self._watch_sensor(receiver, subject)
        elif detail == "cmu-supervision":
            if receiver == CMU_ID:
                return
            st = self.nodes[receiver]
            st.known_admin = CMU_ID

    # --------------------------------------------------------------- timers

    def _on_timer(self, owner: int, tag: str, data: int) -> None:
        if tag == "bootstrap":
            self._bootstrap()
        elif tag == "inspect":
            self._maybe_start_round()
            self.engine.schedule_timer(
                self.engine.now + self.timers.inspection_period_ms, CMU_ID,
                "inspect")
        elif tag == "status":
            self._on_status_timer(owner, data)
        elif tag == "sensor":
            self._on_sensor_timer(owner, data)
        elif tag.startswith("mon/"):
            self._on_monitor_deadline(owner, int(tag[4:]), data)
        elif tag.startswith("probe/"):
            self._on_probe_timer(int(tag[6:]), data)
        elif tag == "rtt":
            self._on_rtt_timeout(data)
        elif tag == "confirm":
            self._on_confirm_timeout(data)
        elif tag.startswith("hs/"):
            self._handshake_retry(owner, int(tag[3:]), data)
        elif tag == "authretry":
            st = self.nodes[owner]
            if not st.authorized and data < AUTH_MAX_ATTEMPTS:
                self._send_auth_request(owner, data + 1)

    # ------------------------------------------------------------ inspection

    @property
    def admin_id(self) -> Optional[int]:
        return self._admin_id

    @property
    def supervising(self) -> bool:
        return self._supervising

    def granted_nodes(self) -> list[int]:
        return list(self._granted)


def _detail_fields(detail: str) -> dict[str, str]:
    """``"k=v;k2=v2"`` as a dict; a part without ``=`` maps to ``""``."""
    if not detail:
        return {}
    return dict(part.partition("=")[::2] for part in detail.split(";"))


# Delivery handlers by (kind, whether the receiver is the management unit).
# Each is called as handler(network, envelope, receiver, detail fields).
_HANDLERS: dict[tuple[EnvelopeKind, bool], Callable] = {
    (EnvelopeKind.AUTHORIZATION_REQUEST, True): Network._on_auth_request,
    (EnvelopeKind.AUTH_CHALLENGE, False): Network._on_auth_challenge,
    (EnvelopeKind.AUTH_RESPONSE, True): Network._on_auth_response,
    (EnvelopeKind.AUTHORIZATION_GRANT, True): Network._on_auth_grant,
    (EnvelopeKind.AUTHORIZATION_GRANT, False): Network._on_auth_grant,
    (EnvelopeKind.KEY_EXCHANGE, True): Network._on_key_exchange,
    (EnvelopeKind.KEY_EXCHANGE, False): Network._on_key_exchange,
    (EnvelopeKind.SENSOR_DATA, True): Network._on_monitored_delivery,
    (EnvelopeKind.SENSOR_DATA, False): Network._on_monitored_delivery,
    (EnvelopeKind.STATUS_BROADCAST, True): Network._on_monitored_delivery,
    (EnvelopeKind.STATUS_BROADCAST, False): Network._on_monitored_delivery,
    (EnvelopeKind.WARNING, True): Network._on_warning,
    (EnvelopeKind.ALERT, True): Network._on_alert,
    (EnvelopeKind.PING, False): Network._on_ping,
    (EnvelopeKind.PONG, True): Network._on_pong,
    (EnvelopeKind.DIAGNOSTIC_PROBE, False): Network._on_probe,
    (EnvelopeKind.ROLE_ASSIGNMENT, False): Network._on_role_assignment,
    (EnvelopeKind.REMOVAL_NOTICE, True): Network._on_removal_notice,
    (EnvelopeKind.REMOVAL_NOTICE, False): Network._on_removal_notice,
    (EnvelopeKind.INFO_MESSAGE, True): Network._on_info,
    (EnvelopeKind.INFO_MESSAGE, False): Network._on_info,
}
