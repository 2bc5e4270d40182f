"""Who watches whom, and whether every dead node is eventually removed.

The watch plan in ``ansim.protocol`` decides who monitors whom; these
tests check its outcome at the end of real runs and hold runs to
``audit.audit_crashed_nodes_removed``. Five known ways a single lost
message defeats liveness, and one way lossless links do, are pinned as
strict expected failures, so that a fix shows up as an unexpected pass.
"""

import dataclasses

import pytest

from ansim import audit
from ansim.kernel import FaultKind, FaultSpec
from ansim.metrics import RunReport
from ansim.model import (
    BROADCAST,
    CMU_ID,
    Cause,
    EnvelopeKind,
    NodeStatus,
    Notification,
    Role,
    Severity,
)
from ansim.protocol import RoleChangeReason
from ansim.runner import PROFILE_ORDER, build_simulation, run_scenario
from ansim.scenario import (
    LinksConfig,
    NodeSpec,
    ScenarioConfig,
    SecurityConfig,
    builtin_scenario_names,
    load_scenario,
)

from helpers import DISTINCT_RUNS, sweep


def late_crash_after_failover():
    """Bundled admin-failover, where node 2 succeeds node 1 at about 71 s,
    plus a crash of sensor 5 at 210 s."""
    cfg = load_scenario("admin-failover")
    return dataclasses.replace(cfg, faults=cfg.faults + (
        FaultSpec(target=5, kind=FaultKind.CRASH, at_ms=210000),))


def make_cfg(n_nodes, *, faults=(), duration_ms=300000, profile="plain"):
    nodes = tuple(NodeSpec(id=i, hardware_id=9000 + i,
                           processing_power=120 if i == 1 else 100)
                  for i in range(1, n_nodes + 1))
    return ScenarioConfig(name="t", seed=3, duration_ms=duration_ms,
                          nodes=nodes, links=LinksConfig(latency_ms=10),
                          security=SecurityConfig(profile=profile),
                          faults=tuple(faults))


def seq_of_send(cfg, profile, wanted):
    """The sequence number of the first send ``wanted(env)`` accepts in an
    undisturbed run of ``cfg``."""
    engine, _, recorder, _ = build_simulation(cfg, profile=profile)
    found = []
    record = recorder.record_send

    def spy(seq, env, delivered):
        if not found and wanted(env):
            found.append(seq)
        record(seq, env, delivered)

    recorder.record_send = spy
    engine.run_until(cfg.duration_ms)
    assert found, "no send matched"
    return found[0]


def run_losing(cfg, profile, *seqs):
    """``run_scenario`` with the sends numbered ``seqs`` lost."""
    engine, network, recorder, _ = build_simulation(cfg, profile=profile)
    engine.force_lose(*seqs)
    engine.run_until(cfg.duration_ms)
    return RunReport.from_run(
        scenario=cfg.name, profile=profile, seed=cfg.seed,
        duration_ms=cfg.duration_ms, recorder=recorder, network=network)


def never_faulted_removals(report, cfg):
    faulted = {f.target for f in cfg.faults}
    return [n.subject for n in report.notifications
            if n.cause is Cause.REMOVAL and n.subject not in faulted]


# ------------------------------------------------------------- watch plan

def watch_gaps(net):
    """Every authorized, active low-rank node the sitting watcher does not
    watch, and every such node that does not watch the administrator."""
    if net.admin_id is not None:
        watcher = net.monitors[net.admin_id]
    else:
        assert net.supervising
        watcher = net.monitors[CMU_ID]
    gaps = []
    for node, st in net.nodes.items():
        if (node == net.admin_id or not st.authorized
                or st.status is not NodeStatus.ACTIVE
                or st.role is Role.ADMINISTRATOR):
            continue
        ms = watcher.get(node)
        if ms is None or ms.kind is not EnvelopeKind.SENSOR_DATA:
            gaps.append(("unwatched", node))
        if net.admin_id is not None:
            ms = net.monitors[node].get(net.admin_id)
            if ms is None or ms.kind is not EnvelopeKind.STATUS_BROADCAST:
                gaps.append(("not watching the administrator", node))
    return gaps


@pytest.mark.parametrize("name,profile", DISTINCT_RUNS)
def test_every_member_and_the_administrator_are_watched_at_the_end(
        name, profile):
    net = run_scenario(load_scenario(name), profile=profile).network
    assert watch_gaps(net) == []


def watch_plan_violations(net):
    """Monitors the watch plan forbids, or stored under the wrong key."""
    found = []
    if net.monitors[CMU_ID] and not net.supervising:
        found.append("the management unit watches while not supervising")
    if net.monitors.keys() != {CMU_ID, *net.nodes}:
        found.append("the monitor table's watchers are not every endpoint")
    for node, monitors in net.monitors.items():
        if node != CMU_ID and monitors and not (
                net.nodes[node].authorized
                and net.nodes[node].status is NodeStatus.ACTIVE):
            found.append(f"node {node} watches while unauthorized or "
                         f"{net.nodes[node].status.value}")
        for watched, ms in monitors.items():
            if (ms.watcher, ms.watched) != (node, watched):
                found.append(f"monitor ({ms.watcher}, {ms.watched}) stored "
                             f"as ({node}, {watched})")
    return found


def lossy_churn_cfg():
    """Twelve auth-encap nodes on lossy, jittery links: a sensor's radio
    drops packets and is repaired, and the administrator crashes and comes
    back."""
    cfg = make_cfg(12, profile="auth-encap", duration_ms=400000, faults=[
        FaultSpec(target=5, kind=FaultKind.DROP_NEXT_N, at_ms=40000, n=3),
        FaultSpec(target=5, kind=FaultKind.RESTORE, at_ms=150000),
        FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=90000),
        FaultSpec(target=1, kind=FaultKind.RESTORE, at_ms=220000)])
    return dataclasses.replace(cfg, links=LinksConfig(
        latency_ms=10, jitter_ms=5, loss_probability=0.05))


@pytest.mark.parametrize("cfg,profile", [
    *(pytest.param(load_scenario(name), profile, id=f"{name}-{profile}")
      for name, profile in DISTINCT_RUNS),
    pytest.param(lossy_churn_cfg(), "auth-encap", id="lossy-churn")])
def test_the_watch_plan_holds_after_every_event(cfg, profile):
    engine, net, _, _ = build_simulation(cfg, profile=profile)
    violations = []

    def checked(handler):
        def after(*args):
            handler(*args)
            if not violations:
                violations.extend(
                    (engine.now, v) for v in watch_plan_violations(net))
        return after

    engine.on_deliver = checked(engine.on_deliver)
    engine.on_timer = checked(engine.on_timer)
    engine.on_deadline = checked(engine.on_deadline)
    engine.run_until(cfg.duration_ms)
    assert engine.stats.dispatched > 0
    assert violations == []


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_successor_watches_the_members_and_removes_a_late_crash(profile):
    cfg = late_crash_after_failover()
    result = run_scenario(cfg, profile=profile)
    net = result.network
    assert net.admin_id == 2
    assert sorted(net.monitors[2]) == [1, 3, 4, 6, 7]
    assert net.nodes[5].status is NodeStatus.REMOVED
    events = [(n.cause, n.at) for n in result.report.notifications
              if n.subject == 5 and n.severity is not Severity.WARNING]
    assert events == [(Cause.TRIPLE_LOSS, 232550), (Cause.REMOVAL, 232560)]
    assert audit.audit_crashed_nodes_removed(result.report, cfg) == []


# --------------------------------------------------------- liveness audit

def test_removal_bound_follows_the_timers_and_links():
    # 2 (3 * 10000 + 2500 + 10) + (3 * 5000 + 1250 + 10) + 3 * 2000 + 10
    assert audit.removal_bound_ms(make_cfg(3)) == 87290
    jittery = dataclasses.replace(
        make_cfg(3), links=LinksConfig(latency_ms=10, jitter_ms=5))
    assert audit.removal_bound_ms(jittery) == 87290 + 4 * 5


def report_with(notes):
    return RunReport(
        scenario="t", profile="plain", seed=0, duration_ms=0, sent=0,
        delivered=0, lost=0, payload_bytes=0, wire_bytes=0,
        bytes_by_category={}, messages_by_category={},
        notifications=list(notes))


def info(cause, subject, at):
    return Notification(severity=Severity.INFO, subject=subject, cause=cause,
                        at=at, reporter=CMU_ID)


def test_audit_wants_the_last_word_on_a_crashed_node_to_be_a_removal():
    cfg = make_cfg(4, faults=[
        FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=10000),
        FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=10000),
        FaultSpec(target=3, kind=FaultKind.RESTORE, at_ms=20000),
        # too close to the end to be owed a removal
        FaultSpec(target=4, kind=FaultKind.CRASH, at_ms=250000)])
    assert audit.audit_crashed_nodes_removed(report_with([]), cfg) == [
        "node 2 crashed at t=10000 and was never removed"]
    removed = [info(Cause.REMOVAL, 2, 40000)]
    assert audit.audit_crashed_nodes_removed(report_with(removed), cfg) == []
    back = removed + [info(Cause.REENTRY, 2, 100000)]
    assert len(audit.audit_crashed_nodes_removed(report_with(back), cfg)) == 1


@pytest.mark.parametrize("name,profile", DISTINCT_RUNS)
def test_bundled_runs_pass_the_liveness_audit(name, profile):
    cfg = load_scenario(name)
    report = run_scenario(cfg, profile=profile).report
    assert audit.audit_crashed_nodes_removed(report, cfg) == []


def test_the_loss_sweep_runs_each_distinct_scenario_once(capsys):
    # paper-case3 is paper-case1 with another default profile, and the
    # sweep runs every profile of a scenario anyway
    kept = [name for name, _ in sweep.distinct_scenarios()]
    assert kept == [name for name in builtin_scenario_names()
                    if name != "paper-case3"]
    assert capsys.readouterr().out == (
        "paper-case3: skipped, the same runs as paper-case1\n")


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_the_bound_covers_a_crash_just_before_a_failover(profile):
    # sensor 3 crashes at 15 s; the administrator crashes at each second
    # of the next 33 s, so some runs lose it just before its third miss
    for delay in range(0, 33001, 1000):
        cfg = make_cfg(5, profile=profile, faults=[
            FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=15000),
            FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=15000 + delay)])
        report = run_scenario(cfg).report
        removals = [n.at for n in report.notifications
                    if n.cause is Cause.REMOVAL and n.subject == 3]
        assert removals, delay
        assert removals[0] - 15000 <= audit.removal_bound_ms(cfg), delay
        assert audit.audit_crashed_nodes_removed(report, cfg) == []


# ------------------------------------------ one lost message, not yet fixed

@pytest.mark.xfail(strict=True, reason="a lost alert is never raised again")
@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_lost_alert_still_gets_its_subject_removed(profile):
    cfg = dataclasses.replace(
        load_scenario("fire-sensor-dropout"),
        faults=(FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=30000),))
    alert = seq_of_send(cfg, profile, lambda env: (
        env.kind is EnvelopeKind.ALERT and env.subject == 3))
    report = run_losing(cfg, profile, alert)
    assert audit.audit_crashed_nodes_removed(report, cfg) == []


def reentry_then_crash():
    """Bundled fire-sensor-dropout, where node 3 is removed and re-enters,
    plus a crash of node 3 at 320 s."""
    cfg = load_scenario("fire-sensor-dropout")
    return dataclasses.replace(cfg, faults=cfg.faults + (
        FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=320000),))


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_reentered_node_that_crashes_is_removed(profile):
    cfg = reentry_then_crash()
    report = run_scenario(cfg, profile=profile).report
    assert audit.audit_crashed_nodes_removed(report, cfg) == []


@pytest.mark.xfail(strict=True, reason="a lost reentry assignment leaves "
                   "its node reentering for good")
@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_lost_reentry_assignment_still_gets_a_later_crash_removed(profile):
    cfg = reentry_then_crash()
    assignment = seq_of_send(cfg, profile, lambda env: (
        env.kind is EnvelopeKind.ROLE_ASSIGNMENT and env.receiver == 3
        and env.detail == (Role.LOW_RANK, 1)))
    assert assignment == (279 if profile == "auth-encap" else 253)
    report = run_losing(cfg, profile, assignment)
    assert audit.audit_crashed_nodes_removed(report, cfg) == []


@pytest.mark.xfail(strict=True, reason="a lost bootstrap broadcast leaves "
                   "sensors without an administrator")
@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_lost_administrator_assignment_removes_no_live_node(profile):
    cfg = load_scenario("paper-case1")
    naming = seq_of_send(cfg, profile, lambda env: (
        env.kind is EnvelopeKind.ROLE_ASSIGNMENT
        and env.detail[0] is Role.ADMINISTRATOR))
    assert naming == 1
    report = run_losing(cfg, profile, naming)
    assert never_faulted_removals(report, cfg) == []


@pytest.mark.xfail(strict=True, reason="a successor whose administrator "
                   "assignment is lost never takes office")
@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_lost_successor_assignment_removes_no_live_node(profile):
    # node 2 succeeds crashed node 1 but never hears so: it sends no status
    # broadcast, its sensors alert on the silence, and live node 2 is
    # removed at 87,620
    cfg = load_scenario("admin-failover")
    assignment = seq_of_send(cfg, profile, lambda env: (
        env.kind is EnvelopeKind.ROLE_ASSIGNMENT and env.receiver != BROADCAST
        and env.detail == (Role.ADMINISTRATOR, None)))
    assert assignment == (143 if profile == "auth-encap" else 117)
    report = run_losing(cfg, profile, assignment)
    assert never_faulted_removals(report, cfg) == []


@pytest.mark.xfail(strict=True, reason="a lost new-admin broadcast leaves "
                   "sensors sending to the removed administrator")
@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_lost_new_admin_broadcast_removes_no_live_node(profile):
    # sensors 3-7 hear crashed node 1 removed but not who succeeds it, and
    # keep sending to node 1; successor 2 hears nothing from its roster and
    # removes all five while alive
    cfg = load_scenario("admin-failover")
    info = seq_of_send(cfg, profile, lambda env: (
        env.kind is EnvelopeKind.INFO_MESSAGE and env.detail == "new-admin"))
    assert info == (144 if profile == "auth-encap" else 118)
    report = run_losing(cfg, profile, info)
    assert never_faulted_removals(report, cfg) == []


# ------------------------------------------ lossless links, not yet fixed

@pytest.mark.xfail(strict=True, reason="a lone administrator is watched by "
                   "nobody")
@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_a_lone_administrators_crash_is_removed(profile):
    # node 2 succeeds crashed node 1 with an empty roster: sensor 3 is gone
    # and the management unit does not supervise, so nobody watches node 2
    cfg = make_cfg(3, profile=profile, faults=[
        FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=15000),
        FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=60000),
        FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=150000)])
    result = run_scenario(cfg)
    # the precondition, read when it held: node 2 took office between node
    # 1's crash and its own; a fix may remove node 2 before the run ends
    promoted = [(rc.node, rc.reason) for rc in result.report.role_changes
                if rc.to_role is Role.ADMINISTRATOR and 60000 < rc.at < 150000]
    assert promoted == [(2, RoleChangeReason.ADMIN_FAILOVER)]
    assert audit.audit_crashed_nodes_removed(result.report, cfg) == []
