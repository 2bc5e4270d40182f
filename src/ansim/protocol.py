"""Protocol state machines: initial role assignment, hardware-id
authorization, packet-loss monitoring with warning/alert escalation,
administrator succession by round-trip time, node removal with diagnostic
probing, and reentry at the lowest rank.

One watch plan, ``Network._watch_plan``, says who monitors whom, from what
each watcher was told: a sensor watches the status broadcast of its
``known_admin`` until it hears that administrator removed; the
administrator watches the sensor data of the members on its roster, which
it takes from the management unit when it takes office (the initial one at
its own grant, a successor at its administrator assignment) and then keeps
by the grants, reentries and removals it hears; the management unit
watches the granted nodes it has not removed, but only while it
supervises. Every endpoint's monitors, the management unit's included, sit
in one table, ``Network.monitors[watcher][watched]``, and
``Network._sync_watches`` alone creates and drops them, to match one
watcher's plan, wherever a role, a status, a roster or a known
administrator changes. A monitor detects a missed packet when its expected
arrival plus a grace window (a quarter of the period) passes without one.
Each monitor guards its own deadlines: the engine hands one back only
while the monitor's generation names it, so a deadline superseded by a
later delivery, or a dropped monitor's, costs only its trace line.

Node state is held centrally by the Network object; behaviour that in a real
deployment would be node-local (timers, monitor bookkeeping) is keyed by node
id and gated on that node's status and fault condition.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, NamedTuple, Optional

from . import security
from .kernel import Engine, timer_label
from .model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CMU_ID,
    Cause,
    Envelope,
    EnvelopeKind,
    LRN_ROLES,
    Notification,
    NodeStatus,
    Role,
    Severity,
    SimError,
    is_lrn,
    make_payload,
)
from .scenario import NodeSpec, SecurityConfig, TimersConfig
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


class DuplicateHardwareId(SimError):
    pass


# Removed nodes are probed at a fixed one-minute cadence until one probe is
# answered.
PROBE_INTERVAL_MS = 60000

AUTH_MAX_ATTEMPTS = 3
HANDSHAKE_MAX_RETRIES = 3

# Reading a member off its Enum class, as in ``NodeStatus.ACTIVE``, costs
# about 0.1 us on Python 3.11, whose EnumType defines ``__getattr__``; the
# per-message paths read these module names instead.
_ACTIVE = NodeStatus.ACTIVE
_SENSOR_DATA = EnvelopeKind.SENSOR_DATA
_STATUS_BROADCAST = EnvelopeKind.STATUS_BROADCAST

# Kinds whose every delivery feeds the receiver's loss monitor of the sender.
MONITORED_KINDS = frozenset({EnvelopeKind.SENSOR_DATA,
                             EnvelopeKind.STATUS_BROADCAST})

# Kinds whose handler can act at only some receivers; see
# Network._acting_receivers.
PRUNED_KINDS = frozenset({EnvelopeKind.AUTHORIZATION_GRANT,
                          EnvelopeKind.ROLE_ASSIGNMENT})

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

@dataclass(slots=True)
class MonitorState:
    """Loss-streak tracker one watcher keeps for one watched node, and the
    engine's guard of its deadlines. The streak is ``consecutive_losses``
    alone; ``gen`` names the one live deadline, and is 0, which no
    deadline has, once the monitor is dropped. The period follows from
    ``kind``; ``label`` is its deadlines' trace label, ``timer/mon/<watched>``
    owned by the watcher."""

    watcher: int
    watched: int
    kind: EnvelopeKind
    next_expected: int
    consecutive_losses: int = 0
    gen: int = 0
    label: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.label = timer_label(self.watcher, f"mon/{self.watched}")


def record_packet_outcome(ms: MonitorState, delivered: bool,
                          at: int) -> list[Notification]:
    """Advance one monitor by one observed outcome.

    A delivery resets the streak. A loss adds one to it; the count climbs
    from zero by one, so it passes 1 and 3 once per streak: a warning is
    emitted exactly on the streak's first loss and an alert exactly on its
    third.
    """
    if delivered:
        ms.consecutive_losses = 0
        return []
    losses = ms.consecutive_losses = ms.consecutive_losses + 1
    if losses == 1:
        return [Notification(severity=Severity.WARNING, subject=ms.watched,
                             cause=Cause.SINGLE_LOSS, at=at,
                             reporter=ms.watcher)]
    if losses == 3:
        return [Notification(severity=Severity.ALERT, subject=ms.watched,
                             cause=Cause.TRIPLE_LOSS, at=at,
                             reporter=ms.watcher)]
    return []


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


def assign_initial_roles(specs: list[NodeSpec],
                         at: int = 0) -> list[RoleChange]:
    """Initial role distribution: the node with the highest processing power
    becomes administrator (ties broken by the lower id), everyone else starts
    as a fire sensor."""
    if not specs:
        raise EmptyNetwork("cannot assign roles in an empty network")
    admin = min(specs, key=lambda s: (-s.processing_power, s.id))
    changes = [RoleChange(node=admin.id, from_role=None,
                          to_role=Role.ADMINISTRATOR, at=at,
                          reason=RoleChangeReason.INITIAL_ASSIGNMENT)]
    for s in sorted(specs, key=lambda s: s.id):
        if s.id != admin.id:
            changes.append(RoleChange(node=s.id, from_role=None,
                                      to_role=Role.FIRE_SENSOR, at=at,
                                      reason=RoleChangeReason.INITIAL_ASSIGNMENT))
    return changes


# ------------------------------------------------------------------- network

@dataclass(slots=True)
class NodeState:
    """One node's mutable record: its scenario entry, its role and standing
    as the management unit last set them, and what the node itself has
    been told."""

    spec: NodeSpec
    role: Role = Role.LOW_RANK
    status: NodeStatus = NodeStatus.ACTIVE
    authorized: bool = False
    known_admin: Optional[int] = None
    admin_removed: bool = False  # heard known_admin removed since told of it
    # watched as administrator; a dict used as an ordered set
    roster: dict[int, None] = field(default_factory=dict)
    duty_gen: int = 0


@dataclass
class _Handshake:
    initiator: int
    gen: int
    retries: int = 0
    done: bool = False


@dataclass
class _Failover:
    old_admin: int
    gen: int = 0
    started_at: int = 0
    pending: dict[int, Optional[int]] = field(default_factory=dict)
    queue: list[int] = field(default_factory=list)
    confirm_target: Optional[int] = None


class Network:
    """Wires the protocol onto an event kernel for one run.

    The engine owns the network: its ``on_deliver``, ``on_timer`` and
    ``on_deadline`` are the network's bound methods, and the network holds
    the engine only weakly. A finished run is therefore no reference
    cycle, and reference counting frees it once its last holder lets go.
    Whoever uses the network keeps the engine too, as ``build_simulation``
    and ``RunResult`` do; a network whose engine is gone raises SimError.
    """

    def __init__(self, engine: Engine, *, nodes: list[NodeSpec],
                 profile: SecurityProfile, keys: KeyRegistry,
                 timers: TimersConfig, security: SecurityConfig):
        self._engine_ref = weakref.ref(engine)
        self.profile = profile
        self.keys = keys
        self.timers = timers
        # pair-sealed unicasts wait for a session handshake
        self._sealed = profile.kind is ProfileKind.AUTH_ENCAP
        self._payload_len = dict(FIXED_PAYLOAD_LEN)
        self._payload_len[EnvelopeKind.SENSOR_DATA] = security.payload_sensor_data
        self._payload_len[EnvelopeKind.STATUS_BROADCAST] = (
            security.payload_status_broadcast)
        if profile.kind is ProfileKind.AUTH_ENCAP:
            self._payload_len[EnvelopeKind.KEY_EXCHANGE] = profile.handshake_msg_len
        # a monitor's period by the kind it watches through
        self._periods = {
            EnvelopeKind.SENSOR_DATA: timers.sensor_data_period_ms,
            EnvelopeKind.STATUS_BROADCAST: timers.status_period_ms}

        self.nodes: dict[int, NodeState] = {}
        for spec in nodes:
            self.nodes[spec.id] = NodeState(spec=spec)
            if spec.registered:
                keys.provision_member(spec.id)
        # watcher -> watched -> monitor, the management unit's included
        self.monitors: dict[int, dict[int, MonitorState]] = {
            watcher: {} for watcher in (CMU_ID, *self.nodes)}

        # every endpoint a broadcast can reach, in delivery order
        self._broadcast_receivers = tuple(sorted([CMU_ID, *self.nodes]))
        self._broadcast_set = frozenset(self._broadcast_receivers)

        self.notifications: list[Notification] = []
        self.role_changes: list[RoleChange] = []
        self.succession_tables: list[SuccessionTable] = []

        self.tota = TotaState(
            secret=keys.signing_key(CMU_ID) + b"/network",
            time_step_ms=security.tota_time_step_ms,
            skew_steps=security.tota_skew_steps)

        # management-unit state
        self._admin_id: Optional[int] = None
        self._granted: dict[int, int] = {}
        self._granted_hw: dict[int, int] = {}
        self._rejected: set[int] = set()
        self._pending_challenge: dict[int, tuple[int, int]] = {}
        self._failover: Optional[_Failover] = None
        # alerted nodes whose removal waits for the running failover
        self._alerted: list[int] = []
        self._demoted: set[int] = set()
        self._probing: dict[int, int] = {}
        self._supervising = False

        # open and finished handshakes by ordered pair (low, high)
        self._handshakes: dict[tuple[int, int], _Handshake] = {}
        self._pending_out: dict[tuple[int, int], list[tuple]] = {}
        self._gen = 0

        # timer tag -> (handler, argument); see _FIXED_TIMERS
        self._timer_routes: dict[str, tuple[Callable, Optional[int]]] = {
            tag: (handler, None) for tag, handler in _FIXED_TIMERS.items()}
        # family -> endpoint -> the tag "<family>/<endpoint>", which is also
        # the timer's trace label; every one is routed here, up front
        self._node_tags: dict[str, dict[int, str]] = {}
        for family, handler in _NODE_TIMERS.items():
            tags = self._node_tags[family] = {}
            for node in self.monitors:
                tag = tags[node] = f"{family}/{node}"
                self._timer_routes[tag] = (handler, node)

        engine.on_deliver = self._on_deliver
        engine.on_timer = self._on_timer
        engine.on_deadline = self._on_monitor_deadline

    @property
    def engine(self) -> Engine:
        """The engine that runs this network. The per-event handlers
        dereference the weak reference themselves, once each."""
        engine = self._engine_ref()
        if engine is None:
            raise SimError("network is detached: its engine has been freed; "
                           "keep the engine (or the RunResult) while the "
                           "network is in use")
        return engine

    # ------------------------------------------------------------ bootstrap

    def start(self) -> None:
        self.engine.schedule_timer(0, CMU_ID, "bootstrap")

    def _on_bootstrap_timer(self, _owner: int, _arg: None, _data: int) -> None:
        changes = assign_initial_roles(
            [st.spec for st in self.nodes.values()], at=self.engine.now)
        for change in changes:
            # no node is authorized yet, so no watch plan changes here
            st = self.nodes[change.node]
            st.role = change.to_role
            self.role_changes.append(change)
            if change.to_role is Role.ADMINISTRATOR:
                self._admin_id = change.node
            self._post(EnvelopeKind.ROLE_ASSIGNMENT, CMU_ID, BROADCAST,
                       subject=change.node, detail=(change.to_role, None))
        for node_id in self.nodes:
            self._send_auth_request(node_id, attempt=1)

    # ------------------------------------------------------------ messaging

    def _next_gen(self) -> int:
        self._gen += 1
        return self._gen

    def _post(self, kind: EnvelopeKind, sender: int, receiver: int, *,
              subject: Optional[int] = None, detail: object = None,
              payload: Optional[bytes] = None) -> None:
        """Send one message under the active profile, deferring it behind a
        session handshake when the profile seals it with a pair key. This
        is the entry for every send that may have to wait; a send that
        never can, such as a duty timer's status broadcast or its sensor
        reading under a profile that does not seal, goes to ``_transmit``
        straight."""
        if (self._sealed and receiver != BROADCAST
                and kind not in BOOTSTRAP_KINDS):
            hs = self._handshakes.get(
                (sender, receiver) if sender < receiver else (receiver, sender))
            # a done handshake established the key, and an open one defers
            if (not hs.done if hs is not None
                    else self.keys.sealing_key_id(sender, receiver) is None):
                self._pending_out.setdefault((sender, receiver), []).append(
                    (kind, subject, detail, payload))
                self._ensure_handshake(sender, receiver)
                return
        self._transmit(kind, sender, receiver, subject, detail, payload)

    def _transmit(self, kind, sender, receiver, subject, detail,
                  payload) -> None:
        """Wrap and send one message now; a payload not given is the
        kind's filler, stamped with the current time. A crashed sender
        sends nothing, so its message is not built."""
        engine = self._engine_ref()
        if sender in engine.crashed:
            return
        now = engine.now
        if payload is None:
            payload = make_payload(kind, sender, now, self._payload_len[kind])
        engine.send(security.wrap(self.profile, self.keys, kind, sender,
                                  receiver, payload, now, subject, detail))

    # ----------------------------------------------------------- handshakes

    def _ensure_handshake(self, a: int, b: int) -> None:
        pair = (a, b) if a < b else (b, a)
        if pair in self._handshakes and not self._handshakes[pair].done:
            return
        if self.keys.sealing_key_id(a, b) is not None:
            return
        hs = _Handshake(initiator=a, gen=self._next_gen())
        self._handshakes[pair] = hs
        self._post(EnvelopeKind.KEY_EXCHANGE, a, b, detail=1)
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, a,
            self._node_tags["hs"][b], hs.gen)

    def _handshake_retry(self, owner: int, peer: int, gen: int) -> None:
        pair = (owner, peer) if owner < peer else (peer, owner)
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
        self._post(EnvelopeKind.KEY_EXCHANGE, owner, peer, detail=1)
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, owner,
            self._node_tags["hs"][peer], hs.gen)

    def _flush_pending(self, sender: int, receiver: int) -> None:
        for kind, subject, detail, payload in self._pending_out.pop(
                (sender, receiver), []):
            self._transmit(kind, sender, receiver, subject, detail, payload)

    def _on_key_exchange(self, env: Envelope, receiver: int) -> None:
        step = env.detail
        other = env.sender
        if step == 1:
            self.keys.establish(receiver, other)
            self._post(EnvelopeKind.KEY_EXCHANGE, receiver, other, detail=2)
            self._flush_pending(receiver, other)
        elif step == 2:
            self.keys.establish(receiver, other)
            hs = self._handshakes.get(
                (receiver, other) if receiver < other else (other, receiver))
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
                   detail=st.spec.hardware_id)
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

    def _on_auth_request(self, env: Envelope, receiver: int) -> None:
        node = env.sender
        if node in self._granted:
            self._post(EnvelopeKind.AUTHORIZATION_GRANT, CMU_ID, BROADCAST,
                       subject=node, detail=self._granted[node])
            return
        if node in self._rejected:
            self._notify(Severity.ALERT, Cause.AUTH_FAILURE, subject=node,
                         reporter=CMU_ID)
            return
        nonce = fresh_nonce(self.engine.rng)
        self._pending_challenge[node] = (nonce, env.detail)
        self._post(EnvelopeKind.AUTH_CHALLENGE, CMU_ID, node, detail=nonce)

    def _on_auth_challenge(self, env: Envelope, node: int) -> None:
        nonce = env.detail
        st = self.nodes[node]
        secret = self.tota.secret if st.spec.registered else b"not-a-member"
        digest = tota_response(secret, node, nonce,
                               self.tota.step_at(self.engine.now))
        self._post(EnvelopeKind.AUTH_RESPONSE, node, CMU_ID,
                   detail=nonce, payload=digest)

    def _on_auth_response(self, env: Envelope, receiver: int) -> None:
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
                   subject=node, detail=hw)
        if self.profile.kind is ProfileKind.AUTH_ENCAP:
            self._ensure_handshake(CMU_ID, node)
        self._sync_watches(CMU_ID)

    def _on_auth_grant(self, env: Envelope, receiver: int) -> None:
        st = self.nodes[receiver]
        if receiver == env.subject:
            st.authorized = True
            self._start_duties(receiver)
        elif st.role is Role.ADMINISTRATOR:
            self._enrol(receiver, env.subject)

    def _enrol(self, admin: int, member: int) -> None:
        """The administrator heard ``member`` join or return: watch it anew."""
        self.nodes[admin].roster[member] = None
        self._sync_watches(admin, restart=member)

    # --------------------------------------------------------------- duties

    def _start_duties(self, node: int) -> None:
        """Start an authorized node's sends; an administrator takes office."""
        st = self.nodes[node]
        if not st.authorized:
            return
        if st.status is NodeStatus.REENTERING:
            st.status = NodeStatus.ACTIVE
        if st.status is not NodeStatus.ACTIVE:
            return
        st.duty_gen += 1
        if st.role is Role.ADMINISTRATOR:
            st.roster = dict.fromkeys(m for m in self._members() if m != node)
            self.engine.schedule_timer(self.engine.now, node, "status",
                                       st.duty_gen)
        else:
            self.engine.schedule_timer(
                self.engine.now + self.timers.sensor_data_period_ms, node,
                "sensor", st.duty_gen)
        self._sync_watches(node)

    def _members(self) -> list[int]:
        """The management unit's roster: granted nodes not removed."""
        return [m for m in self._granted
                if self.nodes[m].status is not NodeStatus.REMOVED]

    def _on_status_timer(self, node: int, _arg: None, gen: int) -> None:
        st = self.nodes[node]
        if (gen != st.duty_gen or not st.authorized
                or st.role is not Role.ADMINISTRATOR
                or st.status is not _ACTIVE):
            return
        engine = self._engine_ref()
        # a broadcast never waits on a handshake
        self._transmit(_STATUS_BROADCAST, node, BROADCAST, None, None, None)
        engine.schedule(engine.now + self.timers.status_period_ms,
                        (node, "status", gen))

    def _on_sensor_timer(self, node: int, _arg: None, gen: int) -> None:
        st = self.nodes[node]
        if (gen != st.duty_gen or not st.authorized
                or st.role not in LRN_ROLES
                or st.status is not _ACTIVE):
            return
        engine = self._engine_ref()
        target = st.known_admin if st.known_admin is not None else CMU_ID
        if target != node:
            # only a sealing profile can make a unicast wait on a handshake
            if self._sealed:
                self._post(_SENSOR_DATA, node, target)
            else:
                self._transmit(_SENSOR_DATA, node, target, None, None, None)
        engine.schedule(engine.now + self.timers.sensor_data_period_ms,
                        (node, "sensor", gen))

    # -------------------------------------------------------------- monitors

    def _watch_plan(self, watcher: int) -> tuple[EnvelopeKind, Collection[int]]:
        """The kind ``watcher`` watches through and whom, in creation order;
        an unauthorized or inactive node watches nobody."""
        if watcher == CMU_ID:
            return (EnvelopeKind.SENSOR_DATA,
                    self._members() if self._supervising else ())
        st = self.nodes[watcher]
        if not st.authorized or st.status is not NodeStatus.ACTIVE:
            return EnvelopeKind.SENSOR_DATA, ()
        if st.role is Role.ADMINISTRATOR:
            return EnvelopeKind.SENSOR_DATA, st.roster
        admin = st.known_admin
        if admin is None or admin in (watcher, CMU_ID) or st.admin_removed:
            return EnvelopeKind.STATUS_BROADCAST, ()
        return EnvelopeKind.STATUS_BROADCAST, (admin,)

    def _sync_watches(self, watcher: int,
                      restart: Optional[int] = None) -> None:
        """Drop and create ``watcher``'s monitors to match its plan, in plan
        order. With ``restart``, the plan changed at that node alone, so
        only its monitor changes: it is watched anew if the plan lists it."""
        kind, watched = self._watch_plan(watcher)
        monitors = self.monitors[watcher]
        if restart is not None:
            gone = (restart,) if restart in monitors else ()
            watched = (restart,) if restart in watched else ()
        else:
            gone = monitors.keys() - watched
        for node in gone:
            monitors.pop(node).gen = 0
        expected = self.engine.now + self._periods[kind]
        for node in watched:
            if node not in monitors:
                ms = monitors[node] = MonitorState(
                    watcher=watcher, watched=node, kind=kind,
                    next_expected=expected)
                self._arm_monitor(ms)

    def _arm_monitor(self, ms: MonitorState) -> None:
        """Schedule ``ms``'s deadline: its expected arrival plus a grace of
        a quarter period."""
        ms.gen = gen = self._gen = self._gen + 1
        self._engine_ref().schedule(
            ms.next_expected + self._periods[ms.kind] // 4, (ms, gen))

    def _on_monitor_deadline(self, ms: MonitorState) -> None:
        """The engine's ``on_deadline``: ``ms``'s live deadline passed."""
        watcher = ms.watcher
        engine = self._engine_ref()
        if watcher != CMU_ID and (
                watcher in engine.crashed
                or self.nodes[watcher].status is not NodeStatus.ACTIVE):
            return
        notes = record_packet_outcome(ms, delivered=False, at=engine.now)
        ms.next_expected += self._periods[ms.kind]
        self._arm_monitor(ms)
        for note in notes:
            if watcher == CMU_ID:
                self._ingest(note)
            else:
                self._post(EnvelopeKind.WARNING
                           if note.severity is Severity.WARNING
                           else EnvelopeKind.ALERT, watcher, CMU_ID,
                           subject=note.subject, detail=note.cause)

    # -------------------------------------------------- notification intake

    def _notify(self, severity: Severity, cause: Cause, subject: int,
                reporter: int) -> None:
        self.notifications.append(Notification(
            severity=severity, subject=subject, cause=cause,
            at=self.engine.now, reporter=reporter))

    def _ingest(self, note: Notification) -> None:
        self.notifications.append(note)
        if note.severity is Severity.ALERT and note.cause is Cause.TRIPLE_LOSS:
            self._handle_alert(note.subject)

    def _handle_alert(self, subject: int) -> None:
        """Act on one loss alert: an alert about the administrator starts
        succession, one about any other node removes it. While a failover
        runs, the removal waits until the failover ends."""
        st = self.nodes.get(subject)
        if st is None or st.status is not NodeStatus.ACTIVE:
            return
        if self._failover is not None:
            self._alerted.append(subject)
        elif subject == self._admin_id:
            self._begin_admin_failover(subject)
        else:
            self._remove_node(subject)

    def _remove_alerted(self) -> None:
        """Remove the nodes alerted about during the failover that just
        ended, in alert order."""
        alerted, self._alerted = self._alerted, []
        for subject in alerted:
            self._remove_node(subject)

    # ---------------------------------------------------- removal / probing

    def _remove_node(self, subject: int) -> None:
        st = self.nodes.get(subject)
        if st is None or st.status is not NodeStatus.ACTIVE:
            return
        st.status = NodeStatus.REMOVED
        st.duty_gen += 1
        self._sync_watches(subject)
        self._sync_watches(CMU_ID)
        self._notify(Severity.INFO, Cause.REMOVAL, subject=subject,
                     reporter=CMU_ID)
        self._post(EnvelopeKind.REMOVAL_NOTICE, CMU_ID, BROADCAST,
                   subject=subject)
        gen = self._next_gen()
        self._probing[subject] = gen
        self.engine.schedule_timer(self.engine.now + PROBE_INTERVAL_MS,
                                   CMU_ID, self._node_tags["probe"][subject],
                                   gen)

    def _on_probe_timer(self, _owner: int, target: int, gen: int) -> None:
        if self._probing.get(target) != gen:
            return
        st = self.nodes[target]
        if st.status is not NodeStatus.REMOVED:
            del self._probing[target]
            return
        self._post(EnvelopeKind.DIAGNOSTIC_PROBE, CMU_ID, target,
                   detail="probe")
        self.engine.schedule_timer(self.engine.now + PROBE_INTERVAL_MS,
                                   CMU_ID, self._node_tags["probe"][target],
                                   gen)

    def _on_probe(self, env: Envelope, node: int) -> None:
        if self.engine.is_responsive(node):
            self._post(EnvelopeKind.PONG, node, CMU_ID, detail="probe")

    def _on_probe_answered(self, node: int) -> None:
        if node not in self._probing:
            return
        st = self.nodes[node]
        if st.status is not NodeStatus.REMOVED:
            return
        del self._probing[node]
        # reentry re-checks the hardware registry before readmission
        hw = self._granted.get(node)
        if hw is None or hw not in self.keys.registered_hardware_ids:
            self._reject(node)
            return
        st.status = NodeStatus.REENTERING
        self._change_role(node, Role.LOW_RANK, RoleChangeReason.REENTRY)
        admin = self._admin_id if self._admin_id is not None else CMU_ID
        self._notify(Severity.INFO, Cause.REENTRY, subject=node,
                     reporter=CMU_ID)
        self._post(EnvelopeKind.ROLE_ASSIGNMENT, CMU_ID, node, subject=node,
                   detail=(Role.LOW_RANK, admin))
        self._post(EnvelopeKind.INFO_MESSAGE, CMU_ID, BROADCAST, subject=node,
                   detail="reentry")
        self._sync_watches(CMU_ID)

    # ------------------------------------------------------------- failover

    def _begin_admin_failover(self, old_admin: int) -> None:
        self._admin_id = None
        self._remove_node(old_admin)
        # a demoted former administrator stays in the low rank for good, so
        # it never reappears as a succession candidate
        peers = [n for n, st in self.nodes.items()
                 if n in self._granted and n != old_admin
                 and n not in self._demoted
                 and st.status is NodeStatus.ACTIVE
                 and is_lrn(st.role)]
        self._failover = fo = _Failover(old_admin=old_admin)
        if not peers:
            self._no_candidate()
            return
        fo.gen = self._next_gen()
        fo.started_at = self.engine.now
        fo.pending = {p: None for p in sorted(peers)}
        for peer in fo.pending:
            self._post(EnvelopeKind.PING, CMU_ID, peer, detail="rtt")
        self.engine.schedule_timer(
            self.engine.now + self.timers.rtt_timeout_ms, CMU_ID, "rtt", fo.gen)

    def _on_rtt_timeout(self, _owner: int, _arg: None, gen: int) -> None:
        fo = self._failover
        if fo is None or fo.gen != gen:
            return
        self._measurement_done()

    def _measurement_done(self) -> None:
        fo = self._failover
        table = SuccessionTable.from_measurements(fo.pending)
        self.succession_tables.append(table)
        # a late rtt pong finds no entry from here on
        fo.pending = {}
        fo.queue = table.responsive_candidates()
        self._confirm_next()

    def _confirm_next(self) -> None:
        fo = self._failover
        while fo.queue:
            target = fo.queue.pop(0)
            st = self.nodes[target]
            if st.status is not NodeStatus.ACTIVE:
                continue
            fo.confirm_target = target
            fo.gen = self._next_gen()
            self._post(EnvelopeKind.PING, CMU_ID, target, detail="confirm")
            self.engine.schedule_timer(
                self.engine.now + self.timers.rtt_timeout_ms, CMU_ID,
                "confirm", fo.gen)
            return
        self._no_candidate()

    def _on_confirm_timeout(self, _owner: int, _arg: None, gen: int) -> None:
        fo = self._failover
        if fo is None or fo.gen != gen:
            return
        fo.confirm_target = None
        self._confirm_next()

    def _on_pong(self, env: Envelope, receiver: int) -> None:
        purpose = env.detail
        sender = env.sender
        if purpose == "probe":
            self._on_probe_answered(sender)
            return
        fo = self._failover
        if fo is None:
            return
        if purpose == "rtt":
            if sender in fo.pending and fo.pending[sender] is None:
                fo.pending[sender] = self.engine.now - fo.started_at
                if all(v is not None for v in fo.pending.values()):
                    fo.gen = self._next_gen()
                    self._measurement_done()
        elif purpose == "confirm" and sender == fo.confirm_target:
            self._promote(sender)

    def _promote(self, successor: int) -> None:
        """Hand the role over; the successor takes office at its assignment."""
        fo = self._failover
        self._change_role(fo.old_admin, Role.LOW_RANK,
                          RoleChangeReason.DEMOTION)
        self._demoted.add(fo.old_admin)
        self._change_role(successor, Role.ADMINISTRATOR,
                          RoleChangeReason.ADMIN_FAILOVER)
        self._admin_id = successor
        self._supervising = False
        self._sync_watches(CMU_ID)
        self._notify(Severity.INFO, Cause.ADMIN_FAILOVER, subject=successor,
                     reporter=CMU_ID)
        self._post(EnvelopeKind.ROLE_ASSIGNMENT, CMU_ID, successor,
                   subject=successor, detail=(Role.ADMINISTRATOR, None))
        self._post(EnvelopeKind.INFO_MESSAGE, CMU_ID, BROADCAST,
                   subject=successor, detail="new-admin")
        self._failover = None
        self._remove_alerted()

    def _no_candidate(self) -> None:
        fo = self._failover
        self._notify(Severity.ALERT, Cause.ADMIN_FAILOVER,
                     subject=fo.old_admin, reporter=CMU_ID)
        self._supervising = True
        self._failover = None
        self._sync_watches(CMU_ID)
        self._post(EnvelopeKind.INFO_MESSAGE, CMU_ID, BROADCAST,
                   subject=fo.old_admin, detail="cmu-supervision")
        self._remove_alerted()

    def _change_role(self, node: int, role: Role,
                     reason: RoleChangeReason) -> None:
        """Log and apply a role change; a roster waits for the next office."""
        st = self.nodes[node]
        self.role_changes.append(RoleChange(
            node=node, from_role=st.role, to_role=role,
            at=self.engine.now, reason=reason))
        st.role = role
        st.roster = {}
        self._sync_watches(node)

    # ------------------------------------------------------------- delivery

    def _on_deliver(self, env: Envelope) -> None:
        """Hand one delivered envelope to its receiver, or to each eligible
        receiver of a broadcast.

        What the kind decides comes from its one ``_DELIVERY`` record. The
        checks every receiver shares (profile, signature, a granted sender)
        run once per envelope, as does the question of which receivers a
        pruned kind acts at; bootstrap kinds skip the shared checks, as
        every receiver reads them. A broadcast goes through ``_deliver_each``'s
        receiver loop; of a pruned kind, it visits just the receivers that
        act and those that must log an auth failure. A unicast takes the
        loop's steps here, for its one receiver and with nothing to skip or
        batch: the receiver's eligibility, its own auth failure if it
        cannot open the envelope, the acting check, and then the kind's
        handler or, for a monitored kind, the reset of the receiver's
        monitor of the sender and its one next deadline. The step is kept
        since nearly every envelope delivered is a unicast: sending them
        through the loop made ``fanout-plain`` ``wall_ref`` 3.4 % worse, in
        6 of 6 pairs on a 2-core VM.
        """
        kind = env.kind
        bootstrap, pruned, monitored, heard_by, at_cmu, at_node = \
            _DELIVERY[kind]
        readers = None if bootstrap else self._readers(env)
        acting = self._acting_receivers(env) if pruned else None
        receiver = env.receiver
        if receiver == BROADCAST:
            if acting is None:
                receivers = self._broadcast_receivers
            else:
                visit = self._broadcast_set.intersection(acting)
                if readers is not None:
                    visit |= self._broadcast_set.difference(readers)
                receivers = sorted(visit)
            self._deliver_each(env, receivers, readers, acting)
            return
        engine = self._engine_ref()
        if receiver != CMU_ID:
            if receiver in engine.crashed:
                return
            st = self.nodes.get(receiver)
            if st is None:
                return
            status = st.status
            if status is not _ACTIVE and status not in heard_by:
                return
        if readers is not None and receiver not in readers:
            self._notify(Severity.ALERT, Cause.AUTH_FAILURE,
                         subject=env.sender, reporter=receiver)
            return
        if acting is not None and receiver not in acting:
            return
        if monitored:
            sender = env.sender
            ms = self.monitors[receiver].get(sender)
            if ms is None or ms.kind is not kind:
                return
            period = self._periods[kind]
            ms.consecutive_losses = 0
            ms.next_expected = expected = engine.now + period
            ms.gen = gen = self._gen = self._gen + 1
            engine.schedule(expected + period // 4, (ms, gen))
            return
        handler = at_cmu if receiver == CMU_ID else at_node
        if handler is not None:
            handler(self, env, receiver)

    def _deliver_each(self, env: Envelope, receivers: Collection[int],
                      readers: Optional[Collection[int]],
                      acting: Optional[Collection[int]]) -> None:
        """Hand ``env`` to each eligible one of ``receivers``, in order,
        given what ``_on_deliver`` found once for the envelope. A broadcast
        skips its own sender.

        The management unit is always eligible. A node is not while it is
        crashed, nor while not active unless the kind's record lists its
        status. Each eligible receiver that cannot open the envelope logs
        its own auth failure. A monitored delivery runs no handler: it
        resets the receiver's loss streak for the sender and re-arms its
        deadline, with the generation counter kept in a local and written
        back after the loop. Nothing else in the loop of a monitored kind
        schedules or takes a generation, and every monitor of one kind has
        one period, so the re-armed deadlines share a time, computed once,
        and consecutive generations and sequence numbers: two or more are
        queued as one deadline run. The runs are kept since a broadcast
        re-arms a deadline at every receiver: queueing them as single
        timers made ``fanout-plain`` ``wall_ref`` 10.9 % worse, in 6 of 6
        pairs on a 2-core VM.
        """
        sender = env.sender
        kind = env.kind
        _, _, monitored, heard_by, at_cmu, at_node = _DELIVERY[kind]
        skip = sender if env.receiver == BROADCAST else None
        engine = self._engine_ref()
        if monitored:
            period = self._periods[kind]
            expected = engine.now + period
            monitors = self.monitors
        crashed = engine.crashed
        nodes = self.nodes
        gen = self._gen
        rearmed = []
        for receiver in receivers:
            if receiver == skip:
                continue
            if receiver != CMU_ID:
                if receiver in crashed:
                    continue
                st = nodes.get(receiver)
                if st is None:
                    continue
                status = st.status
                if status is not _ACTIVE and status not in heard_by:
                    continue
            if readers is not None and receiver not in readers:
                self._notify(Severity.ALERT, Cause.AUTH_FAILURE,
                             subject=sender, reporter=receiver)
                continue
            if acting is not None and receiver not in acting:
                continue
            if monitored:
                ms = monitors[receiver].get(sender)
                if ms is None or ms.kind is not kind:
                    continue
                ms.consecutive_losses = 0
                ms.next_expected = expected
                ms.gen = gen = gen + 1
                rearmed.append(ms)
                continue
            handler = at_cmu if receiver == CMU_ID else at_node
            if handler is not None:
                handler(self, env, receiver)
        if rearmed:
            at = expected + period // 4
            n = len(rearmed)
            if n == 1:
                engine.schedule(at, (rearmed[0], gen))
            else:
                engine.schedule(at, [rearmed, gen - n + 1], n)
            self._gen = gen

    def _readers(self, env: Envelope) -> Optional[Collection[int]]:
        """Receivers that accept the non-bootstrap ``env``: None for every
        receiver, an empty set when the envelope fails a check no receiver
        can pass."""
        try:
            security.unwrap(env, self.profile, self.keys)
        except security.SimError:
            return frozenset()
        # handlers run by the receivers of one non-bootstrap envelope never
        # grant a node, so the sender's standing holds for all of them
        if env.sender != CMU_ID and env.sender not in self._granted:
            return frozenset()
        # only auth-encap seals, so every reader of another profile can open it
        return (security.key_holders(env, self.profile, self.keys)
                if self._sealed else None)

    def _acting_receivers(self, env: Envelope) -> Optional[tuple]:
        """Receivers whose handler can change anything, or None for all.

        A grant acts only at its subject and at the administrator, and a
        role assignment that names no administrator acts only at its
        subject; elsewhere their handlers return without effect. Called
        for those two kinds only.
        """
        if env.kind is EnvelopeKind.AUTHORIZATION_GRANT:
            return (env.subject, self._admin_id)
        role, admin = env.detail
        if role is not Role.ADMINISTRATOR and admin is None:
            return (env.subject,)
        return None

    def _on_warning(self, env: Envelope, receiver: int) -> None:
        self._ingest(Notification(
            severity=Severity.WARNING, subject=env.subject,
            cause=Cause.SINGLE_LOSS, at=env.sent_at, reporter=env.sender))

    def _on_alert(self, env: Envelope, receiver: int) -> None:
        self._ingest(Notification(
            severity=Severity.ALERT, subject=env.subject,
            cause=Cause.TRIPLE_LOSS, at=env.sent_at, reporter=env.sender))

    def _on_ping(self, env: Envelope, receiver: int) -> None:
        st = self.nodes[receiver]
        if (st.status is NodeStatus.ACTIVE
                and self.engine.is_responsive(receiver)):
            self._post(EnvelopeKind.PONG, receiver, CMU_ID, detail=env.detail)

    def _tell_admin(self, node: int, admin: int) -> None:
        st = self.nodes[node]
        st.known_admin, st.admin_removed = admin, False
        self._sync_watches(node)

    def _on_role_assignment(self, env: Envelope, receiver: int) -> None:
        role, admin = env.detail
        if role is Role.ADMINISTRATOR:
            admin = env.subject
        if admin is not None:
            self._tell_admin(receiver, admin)
        if env.subject == receiver:
            self._start_duties(receiver)

    def _on_removal_notice(self, env: Envelope, receiver: int) -> None:
        st = self.nodes[receiver]
        st.roster.pop(env.subject, None)
        if env.subject == st.known_admin:
            st.admin_removed = True
        self._sync_watches(receiver)

    def _on_info(self, env: Envelope, receiver: int) -> None:
        detail = env.detail
        if detail == "new-admin":
            self._tell_admin(receiver, env.subject)
        elif detail == "cmu-supervision":
            self._tell_admin(receiver, CMU_ID)
        elif self.nodes[receiver].role is Role.ADMINISTRATOR:
            # a reentry
            self._enrol(receiver, env.subject)

    # --------------------------------------------------------------- timers

    def _on_timer(self, owner: int, tag: str, data: int) -> None:
        handler, arg = self._timer_routes[tag]
        handler(self, owner, arg, data)

    def _on_auth_retry(self, node: int, _arg: None, attempt: int) -> None:
        if not self.nodes[node].authorized and attempt < AUTH_MAX_ATTEMPTS:
            self._send_auth_request(node, attempt + 1)

    # ------------------------------------------------------------ inspection

    @property
    def admin_id(self) -> Optional[int]:
        return self._admin_id

    @property
    def supervising(self) -> bool:
        return self._supervising

    def granted_nodes(self) -> list[int]:
        return list(self._granted)


# Delivery handlers by (kind, whether the receiver is the management unit).
# Each is called as handler(network, envelope, receiver). The monitored
# kinds have none: the delivery paths reset their monitors themselves.
_HANDLERS: dict[tuple[EnvelopeKind, bool], Callable] = {
    (EnvelopeKind.AUTHORIZATION_REQUEST, True): Network._on_auth_request,
    (EnvelopeKind.AUTH_CHALLENGE, False): Network._on_auth_challenge,
    (EnvelopeKind.AUTH_RESPONSE, True): Network._on_auth_response,
    (EnvelopeKind.AUTHORIZATION_GRANT, False): Network._on_auth_grant,
    (EnvelopeKind.KEY_EXCHANGE, True): Network._on_key_exchange,
    (EnvelopeKind.KEY_EXCHANGE, False): Network._on_key_exchange,
    (EnvelopeKind.WARNING, True): Network._on_warning,
    (EnvelopeKind.ALERT, True): Network._on_alert,
    (EnvelopeKind.PING, False): Network._on_ping,
    (EnvelopeKind.PONG, True): Network._on_pong,
    (EnvelopeKind.DIAGNOSTIC_PROBE, False): Network._on_probe,
    (EnvelopeKind.ROLE_ASSIGNMENT, False): Network._on_role_assignment,
    (EnvelopeKind.REMOVAL_NOTICE, False): Network._on_removal_notice,
    (EnvelopeKind.INFO_MESSAGE, False): Network._on_info,
}


class _Delivery(NamedTuple):
    """What Network._on_deliver and _deliver_each need of one envelope
    kind."""

    bootstrap: bool  # in BOOTSTRAP_KINDS: every receiver reads it
    pruned: bool  # in PRUNED_KINDS: see Network._acting_receivers
    monitored: bool  # in MONITORED_KINDS: resets the receiver's monitor
    heard_by: frozenset  # the non-active statuses whose nodes still hear it
    at_cmu: Optional[Callable]  # the handler at the management unit
    at_node: Optional[Callable]  # the handler at a node


# A removed node hears only diagnostic probes; a re-entering node also hears
# the role assignment that re-admits it.
_DELIVERY: dict[EnvelopeKind, _Delivery] = {
    kind: _Delivery(
        kind in BOOTSTRAP_KINDS, kind in PRUNED_KINDS, kind in MONITORED_KINDS,
        frozenset({NodeStatus.REMOVED, NodeStatus.REENTERING}
                  if kind is EnvelopeKind.DIAGNOSTIC_PROBE
                  else {NodeStatus.REENTERING}
                  if kind is EnvelopeKind.ROLE_ASSIGNMENT else ()),
        _HANDLERS.get((kind, True)), _HANDLERS.get((kind, False)))
    for kind in EnvelopeKind}


# Timer handlers, each called as handler(network, owner, argument, data).
# A fixed tag has no argument. A per-node tag "<family>/<node>" is routed
# for every endpoint when the Network is built, with the node as its
# argument.
_FIXED_TIMERS: dict[str, Callable] = {
    "bootstrap": Network._on_bootstrap_timer,
    "status": Network._on_status_timer,
    "sensor": Network._on_sensor_timer,
    "rtt": Network._on_rtt_timeout,
    "confirm": Network._on_confirm_timeout,
    "authretry": Network._on_auth_retry,
}
_NODE_TIMERS: dict[str, Callable] = {
    "probe": Network._on_probe_timer,
    "hs": Network._handshake_retry,
}
