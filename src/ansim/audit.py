"""Post-run invariant checks.

Each audit replays the logs a run produced (role changes, notifications,
optionally the event trace) and returns a list of violation descriptions;
an empty list means the invariant held. Zero administrators is tolerated
only inside a succession window: from the moment the sitting administrator
is removed until a successor is announced, or indefinitely once succession
found no candidate and the management unit took over supervision.
"""

from __future__ import annotations

from .kernel import FaultKind
from .metrics import RunReport
from .model import Cause, Role, Severity
from .protocol import PROBE_INTERVAL_MS, RoleChangeReason
from .scenario import ScenarioConfig


def audit_admin_uniqueness(report: RunReport) -> list[str]:
    """At most one administrator exists at any instant, and the role is
    handed over only after the incumbent was removed or demoted."""
    problems: list[str] = []
    events: list[tuple[int, int, int, object]] = []
    for i, rc in enumerate(report.role_changes):
        events.append((rc.at, 0, i, rc))
    for i, note in enumerate(report.notifications):
        events.append((note.at, 1, i, note))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    admin = None
    saw_initial = False
    for at, stream, _, ev in events:
        if stream == 1:
            if ev.cause is Cause.REMOVAL and ev.subject == admin:
                admin = None
            continue
        if ev.to_role is Role.ADMINISTRATOR:
            if ev.reason is RoleChangeReason.INITIAL_ASSIGNMENT:
                if saw_initial:
                    problems.append(
                        f"second initial administrator at t={at}: node {ev.node}")
                saw_initial = True
                if at != 0:
                    problems.append(
                        f"initial administrator assigned at t={at}, not t=0")
            if admin is not None and admin != ev.node:
                problems.append(
                    f"two administrators at t={at}: {admin} and {ev.node}")
            admin = ev.node
        elif ev.node == admin:
            admin = None
    if not saw_initial and report.role_changes:
        problems.append("no initial administrator assignment found")
    return problems


def audit_warning_precedes_alert(report: RunReport) -> list[str]:
    """Every triple-loss alert from a watcher follows an earlier single-loss
    warning from that same watcher about the same subject."""
    problems: list[str] = []
    warned: set[tuple[int, int]] = set()
    for note in report.notifications:
        key = (note.reporter, note.subject)
        if note.cause is Cause.SINGLE_LOSS:
            warned.add(key)
        elif note.cause is Cause.TRIPLE_LOSS and key not in warned:
            problems.append(
                f"alert at t={note.at} for node {note.subject} from reporter "
                f"{note.reporter} without a prior warning")
    return problems


def audit_alert_precedes_removal(report: RunReport) -> list[str]:
    """A node is removed only after some watcher raised a triple-loss alert
    about it since it last (re)joined."""
    problems: list[str] = []
    alerted: set[int] = set()
    for note in report.notifications:
        if note.cause is Cause.TRIPLE_LOSS:
            alerted.add(note.subject)
        elif note.cause is Cause.REENTRY:
            alerted.discard(note.subject)
        elif note.cause is Cause.REMOVAL and note.subject not in alerted:
            problems.append(
                f"removal of node {note.subject} at t={note.at} "
                f"without a prior alert")
    return problems


def audit_demotion_permanence(report: RunReport) -> list[str]:
    """A demoted former administrator never regains the role in the run."""
    problems: list[str] = []
    demoted: set[int] = set()
    for rc in report.role_changes:
        if rc.reason is RoleChangeReason.DEMOTION:
            demoted.add(rc.node)
        elif rc.to_role is Role.ADMINISTRATOR and rc.node in demoted:
            problems.append(
                f"demoted node {rc.node} promoted again at t={rc.at}")
    return problems


def audit_probe_cadence(trace: list[str],
                        reentries: list[tuple[int, int]] = ()) -> list[str]:
    """Diagnostic probes toward one target arrive exactly one probe interval
    apart within a removal episode. A reentry ends the episode; a later
    removal of the same node starts a new series at its own phase, so spacing
    across a reentry is not constrained. Assumes a jitter-free link, where
    arrival spacing equals send spacing. ``reentries`` holds (subject, at)
    pairs taken from the run's notifications."""
    problems: list[str] = []
    boundaries: dict[str, list[int]] = {}
    for subject, at in reentries:
        boundaries.setdefault(str(subject), []).append(at)
    last_seen: dict[str, int] = {}
    for line in trace:
        fields = line.split("\t")
        if len(fields) != 6 or fields[2] != "diagnostic_probe":
            continue
        at, target = int(fields[0]), fields[4]
        prev = last_seen.get(target)
        last_seen[target] = at
        if prev is None:
            continue
        if any(prev < b <= at for b in boundaries.get(target, ())):
            continue
        if at - prev != PROBE_INTERVAL_MS:
            problems.append(
                f"probe spacing to node {target} was {at - prev} ms at t={at}")
    return problems


def removal_bound_ms(cfg: ScenarioConfig) -> int:
    """How long a crashed node may stay unremoved, from the scenario's
    timers and links.

    ``watch(P) = 3P + P/4 + L`` is how long a monitor of period ``P`` takes
    to miss three packets after its last delivery and get its alert to
    the management unit, where ``L`` is the longest one-way latency plus
    jitter of any link. The worst case with one failover is a node that
    crashes while its administrator is about to alert on it, and an
    administrator that crashes just before its third miss:

    - the administrator's watch of the node runs out unreported,
      ``watch(P_sensor)``;
    - the sensors miss three status broadcasts, ``watch(P_status)``;
    - succession measures round-trip times for at most ``R``, the
      ``rtt_timeout_ms``, and confirms a candidate within ``2R``, one
      confirm timing out;
    - the successor's assignment reaches it, ``L``, and it watches the
      node anew, ``watch(P_sensor)``.

    So the bound is ``2 watch(P_sensor) + watch(P_status) + 3R + L``. Back
    to back failovers can take longer.
    """
    links = cfg.links
    latency = max([links.latency_ms + links.jitter_ms]
                  + [o.latency_ms + o.jitter_ms for o in links.overrides])
    timers = cfg.timers

    def watch(period: int) -> int:
        return 3 * period + period // 4 + latency

    return (2 * watch(timers.sensor_data_period_ms)
            + watch(timers.status_period_ms)
            + 3 * timers.rtt_timeout_ms + latency)


def audit_crashed_nodes_removed(report: RunReport,
                                cfg: ScenarioConfig) -> list[str]:
    """A registered node that crashed for good ends the run removed.

    A node crashed for good when no restore follows its last crash and that
    crash lies more than ``removal_bound_ms(cfg)`` before the end of the
    run. It ends removed when the last removal or reentry notification
    about it is a removal. A registered node that never got its grant
    through is no member and is never removed, so it fails this audit too.
    """
    crashed_at: dict[int, int] = {}
    for fault in sorted(cfg.faults, key=lambda f: f.at_ms):
        if fault.kind is FaultKind.CRASH:
            crashed_at[fault.target] = fault.at_ms
        elif fault.kind is FaultKind.RESTORE:
            crashed_at.pop(fault.target, None)
    removed: dict[int, bool] = {}
    for note in report.notifications:
        if note.cause is Cause.REMOVAL:
            removed[note.subject] = True
        elif note.cause is Cause.REENTRY:
            removed[note.subject] = False
    deadline = cfg.duration_ms - removal_bound_ms(cfg)
    registered = {n.id for n in cfg.nodes if n.registered}
    return [f"node {node} crashed at t={at} and was never removed"
            for node, at in sorted(crashed_at.items())
            if at < deadline and node in registered
            and not removed.get(node, False)]


def run_all(report: RunReport, trace: list[str] | None = None) -> list[str]:
    problems = []
    problems += audit_admin_uniqueness(report)
    problems += audit_warning_precedes_alert(report)
    problems += audit_alert_precedes_removal(report)
    problems += audit_demotion_permanence(report)
    if trace is not None:
        reentries = [(n.subject, n.at) for n in report.notifications
                     if n.cause is Cause.REENTRY]
        problems += audit_probe_cadence(trace, reentries=reentries)
    return problems
