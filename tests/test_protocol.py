"""Role logic, loss monitors, succession and the management-unit protocol."""

import dataclasses
import gc
import hashlib
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ansim import protocol, security
from ansim.kernel import FaultKind, FaultSpec
from ansim.model import (
    BOOTSTRAP_KINDS,
    BROADCAST,
    CMU_ID,
    Cause,
    Envelope,
    EnvelopeKind,
    NodeStatus,
    Role,
    Severity,
    SimError,
)
from ansim.protocol import (
    DuplicateHardwareId,
    EmptyNetwork,
    MonitorState,
    RoleChange,
    RoleChangeReason,
    SuccessionTable,
    assign_initial_roles,
    record_packet_outcome,
)
from ansim.runner import PROFILE_ORDER, build_simulation, run_scenario
from ansim.scenario import (
    LinkOverride,
    LinksConfig,
    NodeSpec,
    ScenarioConfig,
    SecurityConfig,
    TimersConfig,
    load_scenario,
)

from helpers import DISTINCT_RUNS


def make_cfg(n_nodes, *, powers=None, faults=(), overrides=(),
             duration_ms=120000, seed=3, profile="plain", registered=None,
             hardware_ids=None):
    nodes = []
    for i in range(1, n_nodes + 1):
        power = powers[i - 1] if powers else (120 if i == 1 else 100)
        reg = True if registered is None else registered[i - 1]
        hw = hardware_ids[i - 1] if hardware_ids else 9000 + i
        nodes.append(NodeSpec(id=i, hardware_id=hw, processing_power=power,
                              registered=reg))
    return ScenarioConfig(
        name="t", seed=seed, duration_ms=duration_ms, nodes=tuple(nodes),
        links=LinksConfig(latency_ms=10, overrides=tuple(overrides)),
        security=SecurityConfig(profile=profile), faults=tuple(faults))


# ------------------------------------------------------------ loss monitors

def fresh_monitor():
    return MonitorState(watcher=1, watched=2, kind=EnvelopeKind.SENSOR_DATA,
                        next_expected=1000)


def streak_reference(outcomes):
    """Independent walk over the outcome list: where notifications must fire."""
    fired = []
    streak = 0
    for i, delivered in enumerate(outcomes):
        if delivered:
            streak = 0
            continue
        streak += 1
        if streak == 1:
            fired.append((i, Severity.WARNING))
        if streak == 3:
            fired.append((i, Severity.ALERT))
    return fired


@settings(max_examples=300)
@given(st.lists(st.booleans(), max_size=80))
def test_streak_counter_matches_reference(outcomes):
    ms = fresh_monitor()
    fired = []
    for i, delivered in enumerate(outcomes):
        for note in record_packet_outcome(ms, delivered, at=i * 1000):
            fired.append((i, note.severity))
    assert fired == streak_reference(outcomes)


def test_warning_on_first_loss_only():
    ms = fresh_monitor()
    notes = record_packet_outcome(ms, False, at=1250)
    assert [n.severity for n in notes] == [Severity.WARNING]
    assert notes[0].cause is Cause.SINGLE_LOSS
    assert notes[0].subject == 2 and notes[0].reporter == 1
    assert notes[0].at == 1250
    assert record_packet_outcome(ms, False, at=2250) == []


def test_alert_exactly_on_third_consecutive_loss():
    ms = fresh_monitor()
    record_packet_outcome(ms, False, at=1)
    record_packet_outcome(ms, False, at=2)
    notes = record_packet_outcome(ms, False, at=3)
    assert [n.severity for n in notes] == [Severity.ALERT]
    assert notes[0].cause is Cause.TRIPLE_LOSS
    # a longer streak stays silent
    for at in (4, 5, 6):
        assert record_packet_outcome(ms, False, at=at) == []


def test_delivery_resets_the_streak():
    ms = fresh_monitor()
    record_packet_outcome(ms, False, at=1)
    record_packet_outcome(ms, False, at=2)
    assert record_packet_outcome(ms, True, at=3) == []
    assert ms.consecutive_losses == 0
    # the next loss is a fresh streak: warning again, alert two later
    assert [n.severity for n in record_packet_outcome(ms, False, at=4)] \
        == [Severity.WARNING]


@pytest.mark.parametrize("change", ["restart", "drop"])
def test_a_replaced_monitors_pending_deadline_counts_no_loss(change):
    # the administrator's monitor of sensor 2 is watched anew when the
    # administrator hears the sensor enrol again, and dropped when the
    # sensor leaves its roster; either way the deadline the old monitor
    # left queued must do nothing but write its line
    engine, net, _, trace = build_simulation(make_cfg(4, duration_ms=60000),
                                             with_trace=True)
    engine.run_until(20000)
    old = net.monitors[1][2]
    due = old.next_expected + net.timers.sensor_data_period_ms // 4
    assert due > engine.now
    if change == "restart":
        net._enrol(1, 2)
        assert net.monitors[1][2] is not old
    else:
        del net.nodes[1].roster[2]
        net._sync_watches(1)
        assert 2 not in net.monitors[1]
    engine.run_until(60000)
    assert [line for line in trace
            if line.startswith(f"{due}\t") and line.endswith(old.label)]
    assert old.consecutive_losses == 0
    assert [n for n in net.notifications if n.subject == 2] == []


# --------------------------------------------------------------- succession

def test_succession_orders_by_rtt_then_id():
    table = SuccessionTable.from_measurements({2: 5, 3: 3, 4: 8})
    assert [e.node for e in table.entries] == [3, 2, 4]
    assert table.responsive_candidates() == [3, 2, 4]


def test_succession_tie_breaks_by_lower_id():
    table = SuccessionTable.from_measurements({5: 7, 2: 7, 9: 7})
    assert table.responsive_candidates() == [2, 5, 9]


def test_unresponsive_entries_trail_in_id_order():
    table = SuccessionTable.from_measurements({4: None, 2: 9, 7: None})
    assert [(e.node, e.rtt) for e in table.entries] \
        == [(2, 9), (4, None), (7, None)]


@settings(max_examples=200)
@given(st.dictionaries(st.integers(1, 50),
                       st.one_of(st.none(), st.integers(0, 10000)),
                       max_size=12))
def test_succession_matches_sort_oracle(rtts):
    table = SuccessionTable.from_measurements(rtts)
    responsive = sorted((r, n) for n, r in rtts.items() if r is not None)
    expected = [n for _, n in responsive]
    expected += sorted(n for n, r in rtts.items() if r is None)
    assert [e.node for e in table.entries] == expected


def test_unresponsive_candidate_never_selected():
    table = SuccessionTable.from_measurements({2: None, 3: 7, 4: None, 5: 2})
    assert table.responsive_candidates() == [5, 3]
    assert SuccessionTable.from_measurements(
        {2: None, 3: None}).responsive_candidates() == []


# ------------------------------------------------------------ initial roles

def node_spec(node_id, power):
    return NodeSpec(id=node_id, hardware_id=9000 + node_id,
                    processing_power=power)


def test_initial_roles_highest_power_becomes_admin():
    specs = [node_spec(i, 120 if i == 1 else 100) for i in range(1, 8)]
    changes = assign_initial_roles(specs)
    assert changes[0].node == 1
    assert changes[0].to_role is Role.ADMINISTRATOR
    assert [c.node for c in changes[1:]] == [2, 3, 4, 5, 6, 7]
    assert all(c.to_role is Role.FIRE_SENSOR for c in changes[1:])
    assert all(c.reason is RoleChangeReason.INITIAL_ASSIGNMENT
               and c.from_role is None and c.at == 0 for c in changes)


def test_initial_roles_argmax_position_irrelevant():
    changes = assign_initial_roles([node_spec(1, 10), node_spec(2, 50),
                                    node_spec(3, 30)])
    assert changes[0].node == 2 and changes[0].to_role is Role.ADMINISTRATOR


def test_initial_roles_tie_goes_to_lower_id():
    changes = assign_initial_roles([node_spec(4, 70), node_spec(2, 70),
                                    node_spec(9, 70)])
    assert changes[0].node == 2


def test_single_node_becomes_admin():
    changes = assign_initial_roles([node_spec(5, 1)])
    assert [(c.node, c.to_role) for c in changes] \
        == [(5, Role.ADMINISTRATOR)]


def test_empty_network_is_an_error():
    with pytest.raises(EmptyNetwork):
        assign_initial_roles([])


@settings(max_examples=200)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=20, unique=True))
def test_initial_admin_matches_brute_force(powers):
    specs = [node_spec(i + 1, p) for i, p in enumerate(powers)]
    best = None
    for p in specs:
        if best is None or p.processing_power > best.processing_power or (
                p.processing_power == best.processing_power
                and p.id < best.id):
            best = p
    changes = assign_initial_roles(specs)
    assert changes[0].node == best.id


def test_reentry_change_must_land_in_the_low_rank():
    with pytest.raises(SimError):
        RoleChange(node=1, from_role=Role.FIRE_SENSOR,
                   to_role=Role.ADMINISTRATOR, at=5,
                   reason=RoleChangeReason.REENTRY)


# ----------------------------------------------------- end-to-end behaviour

def test_initial_grant_flow():
    result = run_scenario(make_cfg(3, powers=[50, 30, 70], duration_ms=60000))
    net = result.network
    assert net.admin_id == 3
    assert sorted(net.granted_nodes()) == [1, 2, 3]
    initial = [rc for rc in net.role_changes
               if rc.reason is RoleChangeReason.INITIAL_ASSIGNMENT]
    assert [rc.node for rc in initial] == [3, 1, 2]
    assert net.notifications == []


def test_succession_measured_over_live_links():
    overrides = []
    for node, lat in ((2, 30), (3, 20), (4, 40)):
        overrides.append(LinkOverride(src=CMU_ID, dst=node, latency_ms=lat,
                                      jitter_ms=0, loss_probability=0.0))
        overrides.append(LinkOverride(src=node, dst=CMU_ID, latency_ms=lat,
                                      jitter_ms=0, loss_probability=0.0))
    cfg = make_cfg(4, faults=[FaultSpec(target=1, kind=FaultKind.CRASH,
                                        at_ms=60000)],
                   overrides=overrides)
    net = run_scenario(cfg).network
    # ping at t, pong back at t + 2 * latency: the table orders by wire rtt
    assert len(net.succession_tables) == 1
    assert [(e.node, e.rtt) for e in net.succession_tables[0].entries] \
        == [(3, 40), (2, 60), (4, 80)]
    assert net.admin_id == 3
    assert net.nodes[3].role is Role.ADMINISTRATOR
    demotions = [rc for rc in net.role_changes
                 if rc.reason is RoleChangeReason.DEMOTION]
    promotions = [rc for rc in net.role_changes
                  if rc.reason is RoleChangeReason.ADMIN_FAILOVER]
    assert [(rc.node, rc.from_role, rc.to_role) for rc in demotions] \
        == [(1, Role.ADMINISTRATOR, Role.LOW_RANK)]
    assert [(rc.node, rc.from_role, rc.to_role) for rc in promotions] \
        == [(3, Role.FIRE_SENSOR, Role.ADMINISTRATOR)]
    assert demotions[0].at == promotions[0].at


def test_two_node_failover_promotes_the_last_sensor():
    cfg = make_cfg(2, faults=[FaultSpec(target=1, kind=FaultKind.CRASH,
                                        at_ms=60000)],
                   duration_ms=150000)
    net = run_scenario(cfg).network
    assert net.admin_id == 2
    assert net.supervising is False
    assert net.nodes[2].role is Role.ADMINISTRATOR
    assert net.nodes[1].status is NodeStatus.REMOVED


def test_supervision_when_no_candidate_answers():
    faults = [FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=60000),
              FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=71305),
              FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=71305)]
    net = run_scenario(make_cfg(3, faults=faults, duration_ms=90000)).network
    assert net.supervising is True
    assert net.admin_id is None
    assert [(e.node, e.rtt) for e in net.succession_tables[0].entries] \
        == [(2, None), (3, None)]
    failovers = [n for n in net.notifications
                 if n.cause is Cause.ADMIN_FAILOVER]
    assert [n.severity for n in failovers] == [Severity.ALERT]
    assert failovers[0].subject == 1


def test_supervised_sensors_report_to_management_unit():
    faults = [FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=60000),
              FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=71305),
              FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=71305),
              FaultSpec(target=2, kind=FaultKind.RESTORE, at_ms=80000),
              FaultSpec(target=3, kind=FaultKind.RESTORE, at_ms=80000)]
    cfg = make_cfg(3, faults=faults, duration_ms=240000)
    result = run_scenario(cfg, with_trace=True)
    net = result.network
    # restored sensors still address the dead administrator, miss their
    # supervision deadlines, get removed, then reenter and report to the
    # management unit directly
    reentries = [n for n in net.notifications if n.cause is Cause.REENTRY]
    assert sorted(n.subject for n in reentries) == [2, 3]
    assert net.supervising is True
    for node in (2, 3):
        assert net.nodes[node].status is NodeStatus.ACTIVE
        assert net.nodes[node].role is Role.LOW_RANK
    reentry_at = max(n.at for n in reentries)
    to_cmu = [line for line in result.trace
              if line.split("\t")[2] == "sensor_data"
              and line.split("\t")[4] == "0"
              and int(line.split("\t")[0]) > reentry_at]
    assert to_cmu, "reentered sensors must address the management unit"


def test_failover_with_no_candidate_goes_straight_to_supervision():
    # node 1 is demoted by the first failover and re-enters; when node 2
    # then crashes, no granted, undemoted, active sensor is left to measure
    faults = [FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=60000),
              FaultSpec(target=1, kind=FaultKind.RESTORE, at_ms=100000),
              FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=300000)]
    result = run_scenario(make_cfg(2, faults=faults, duration_ms=600000))
    net = result.network
    failovers = [(n.severity, n.subject, n.at) for n in net.notifications
                 if n.cause is Cause.ADMIN_FAILOVER]
    assert failovers == [(Severity.INFO, 2, 71350),
                         (Severity.ALERT, 2, 312630)]
    # the second failover pinged nobody, so it measured no table
    assert len(net.succession_tables) == 1
    assert net.supervising is True
    assert result.report.final_admin is None


def test_confirm_timeout_moves_on_to_the_next_candidate():
    overrides = []
    for node, lat in ((2, 5), (3, 20)):
        overrides.append(LinkOverride(src=CMU_ID, dst=node, latency_ms=lat,
                                      jitter_ms=0, loss_probability=0.0))
        overrides.append(LinkOverride(src=node, dst=CMU_ID, latency_ms=lat,
                                      jitter_ms=0, loss_probability=0.0))
    # node 2 answers its rtt ping and crashes before the confirm ping lands
    faults = [FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=60000),
              FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=71347)]
    net = run_scenario(make_cfg(3, faults=faults, overrides=overrides,
                                duration_ms=120000)).network
    assert [(e.node, e.rtt) for e in net.succession_tables[0].entries] \
        == [(2, 10), (3, 40)]
    promotions = [(rc.node, rc.at) for rc in net.role_changes
                  if rc.reason is RoleChangeReason.ADMIN_FAILOVER]
    assert promotions == [(3, 73385)]
    assert net.admin_id == 3


@pytest.mark.parametrize("profile", ["plain", "auth"])
def test_alert_during_failover_removes_its_subject_when_failover_ends(
        profile):
    # node 3 crashes and administrator 1 stops sending; node 2 alerts about
    # node 1 first, and node 1's alert about node 3 arrives while the
    # failover it started is measuring, so node 3 is removed only once
    # node 2 is promoted
    faults = [FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=15000),
              FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at_ms=21000,
                        n=100)]
    cfg = dataclasses.replace(
        make_cfg(3, powers=[200, 100, 100], faults=faults,
                 duration_ms=60000, profile=profile),
        timers=TimersConfig(status_period_ms=6799))
    net = run_scenario(cfg).network
    events = [(n.cause, n.subject, n.at) for n in net.notifications
              if n.severity is not Severity.WARNING]
    assert events == [(Cause.TRIPLE_LOSS, 1, 42543),
                      (Cause.REMOVAL, 1, 42553),
                      (Cause.TRIPLE_LOSS, 3, 42550),
                      (Cause.ADMIN_FAILOVER, 2, 44573),
                      (Cause.REMOVAL, 3, 44573)]
    assert net.admin_id == 2
    assert net.nodes[3].status is NodeStatus.REMOVED


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_admin_failover_assigns_every_role(profile):
    # a role no run ever assigns is dead vocabulary
    report = run_scenario(load_scenario("admin-failover"),
                          profile=profile).report
    assert {rc.to_role for rc in report.role_changes} == set(Role)


def test_unregistered_node_rejected_with_auth_failures():
    cfg = make_cfg(3, registered=[True, True, False], duration_ms=30000)
    net = run_scenario(cfg).network
    assert sorted(net.granted_nodes()) == [1, 2]
    failures = [n for n in net.notifications if n.cause is Cause.AUTH_FAILURE]
    assert len(failures) == 3  # one per join attempt
    assert {n.subject for n in failures} == {3}
    assert all(n.severity is Severity.ALERT for n in failures)
    # the rejected node never takes up duties
    assert net.nodes[3].authorized is False


def test_duplicate_hardware_id_raises_on_direct_call():
    net = run_scenario(make_cfg(2, duration_ms=5000)).network
    with pytest.raises(DuplicateHardwareId):
        net.authorize_node(9, presented_hw=9001)


def test_duplicate_hardware_id_rejected_in_band():
    cfg = make_cfg(3, hardware_ids=[9001, 9001, 9003], duration_ms=30000)
    net = run_scenario(cfg).network
    granted = sorted(net.granted_nodes())
    assert granted == [1, 3]
    failures = [n for n in net.notifications if n.cause is Cause.AUTH_FAILURE]
    assert {n.subject for n in failures} == {2}


def test_handshakes_precede_unicasts_under_session_profile():
    cfg = make_cfg(3, profile="auth-encap", duration_ms=61000)
    result = run_scenario(cfg, with_trace=True)
    rows = [line.split("\t") for line in result.trace]
    msgs = [r for r in rows if not r[2].startswith("timer/")]
    first_kx = {}
    for r in msgs:
        pair = frozenset((int(r[3]), 0 if r[4] == "*" else int(r[4])))
        if r[2] == "key_exchange" and pair not in first_kx:
            first_kx[pair] = int(r[0])
    # every sensor-to-admin and unit-to-node session opens with an exchange
    assert len(first_kx) >= 4
    for r in msgs:
        if r[2] in ("sensor_data", "ping", "pong", "diagnostic_probe") \
                and r[4] != "*":
            pair = frozenset((int(r[3]), int(r[4])))
            assert pair in first_kx and first_kx[pair] <= int(r[0]), r
    # sessions settle once: each pair exchanges exactly two messages
    kx_per_pair = {}
    for r in msgs:
        if r[2] == "key_exchange":
            pair = frozenset((int(r[3]), int(r[4])))
            kx_per_pair[pair] = kx_per_pair.get(pair, 0) + 1
    assert kx_per_pair and set(kx_per_pair.values()) == {2}


def test_no_handshakes_outside_session_profile():
    for profile in ("plain", "auth"):
        result = run_scenario(make_cfg(3, profile=profile, duration_ms=61000),
                              with_trace=True)
        assert not any("key_exchange" in line for line in result.trace)


# auth-encap: _post holds a sealed unicast back while its pair's handshake
# is open, or while the pair has neither a handshake nor a key; otherwise it
# goes out at once. One case per state of the pair.

def sealed_network():
    """A five-node auth-encap network whose sends are recorded, and a
    ``post(sender, receiver)`` that posts one reading and returns what went
    out for it."""
    cfg = make_cfg(5, profile="auth-encap", duration_ms=1000)
    engine, net, _, _ = build_simulation(cfg)
    sent = []
    send = engine.send

    def recording(env):
        sent.append((env.kind, env.sender, env.receiver))
        return send(env)

    engine.send = recording

    def post(sender, receiver):
        sent.clear()
        net._post(EnvelopeKind.SENSOR_DATA, sender, receiver)
        return sent

    return engine, net, post


def test_a_sealed_unicast_without_a_session_waits_and_opens_a_handshake():
    _, net, post = sealed_network()
    assert (2, 3) not in net._handshakes
    assert net.keys.sealing_key_id(2, 3) is None
    assert post(2, 3) == [(EnvelopeKind.KEY_EXCHANGE, 2, 3)]
    assert len(net._pending_out[(2, 3)]) == 1


def test_a_sealed_unicast_waits_while_its_handshake_is_open():
    engine, net, post = sealed_network()
    post(2, 3)
    # step 1 has reached node 3, which holds the pair's key and answers;
    # node 2 has not heard step 2, so the handshake is open and it waits
    engine.run_until(engine.now + 15)
    assert net.keys.sealing_key_id(2, 3) is not None
    assert not net._handshakes[(2, 3)].done
    assert post(2, 3) == []
    assert len(net._pending_out[(2, 3)]) == 2


def test_a_sealed_unicast_goes_out_once_its_handshake_is_done():
    engine, net, post = sealed_network()
    post(2, 3)
    # step 2 has reached node 2: the handshake is done, what waited went
    # out, and both ends send at once
    engine.run_until(engine.now + 25)
    assert net._handshakes[(2, 3)].done
    assert (2, 3) not in net._pending_out
    assert post(2, 3) == [(EnvelopeKind.SENSOR_DATA, 2, 3)]
    assert post(3, 2) == [(EnvelopeKind.SENSOR_DATA, 3, 2)]


def test_a_sealed_unicast_with_a_key_and_no_handshake_goes_out_at_once():
    # as a handshake given up after step 1 leaves its pair
    _, net, post = sealed_network()
    net.keys.establish(4, 5)
    assert (4, 5) not in net._handshakes
    assert post(4, 5) == [(EnvelopeKind.SENSOR_DATA, 4, 5)]
    assert (4, 5) not in net._pending_out and (4, 5) not in net._handshakes


# ------------------------------------------------------- broadcast delivery

@pytest.mark.parametrize("profile", ["auth", "auth-encap"])
def test_tampered_broadcast_fails_at_every_eligible_receiver(profile):
    cfg = make_cfg(5, profile=profile, duration_ms=20000,
                   faults=[FaultSpec(target=4, kind=FaultKind.CRASH,
                                     at_ms=10000)])
    engine, net, _, _ = build_simulation(cfg)
    engine.run_until(cfg.duration_ms)
    wrapped = security.wrap(net.profile, net.keys,
                            EnvelopeKind.STATUS_BROADCAST, 1, BROADCAST,
                            b"status", engine.now)
    tampered = dataclasses.replace(wrapped, tag=bytes(len(wrapped.tag)))
    before = len(net.notifications)
    engine.on_deliver(tampered)
    notes = net.notifications[before:]
    # the sender and the crashed node 4 hear nothing; the rest fail in order
    assert [n.reporter for n in notes] == [CMU_ID, 2, 3, 5]
    assert all(n.cause is Cause.AUTH_FAILURE and n.subject == 1
               and n.severity is Severity.ALERT for n in notes)


# --------------------------------------------------------- unicast delivery

def settled_reading(profile):
    """A 5-node network settled for 20 s, and a sensor reading from node 2
    to its administrator, node 1, wrapped as node 2 would send it now."""
    cfg = make_cfg(5, profile=profile, duration_ms=20000)
    engine, net, _, _ = build_simulation(cfg)
    engine.run_until(cfg.duration_ms)
    reading = security.wrap(net.profile, net.keys, EnvelopeKind.SENSOR_DATA,
                            2, 1, b"reading", engine.now)
    return engine, net, reading


def assert_refused_once(engine, net, refused, genuine):
    """Deliver ``refused`` to node 1: it logs exactly one auth failure and
    leaves node 1's monitor of node 2, the generations and the queue as
    they were. ``genuine``, delivered next, is heard: it resets the monitor
    and queues one deadline."""
    monitor = dataclasses.replace(net.monitors[1][2])
    queue = {at: list(bucket) for at, bucket in engine._buckets.items()}
    scheduled, gen = engine.stats.scheduled, net._gen
    before = len(net.notifications)
    engine.on_deliver(refused)
    assert [(n.severity, n.cause, n.subject, n.reporter)
            for n in net.notifications[before:]] == [
        (Severity.ALERT, Cause.AUTH_FAILURE, 2, 1)]
    assert net.monitors[1][2] == monitor
    assert (engine.stats.scheduled, net._gen) == (scheduled, gen)
    assert {at: list(bucket)
            for at, bucket in engine._buckets.items()} == queue
    engine.on_deliver(genuine)
    assert len(net.notifications) == before + 1
    assert net.monitors[1][2].gen == net._gen == gen + 1
    assert engine.stats.scheduled == scheduled + 1


@pytest.mark.parametrize("profile", ["auth", "auth-encap"])
def test_a_tampered_unicast_fails_once_at_its_receiver(profile):
    engine, net, reading = settled_reading(profile)
    tampered = dataclasses.replace(reading, tag=bytes(len(reading.tag)))
    assert_refused_once(engine, net, tampered, reading)


def test_a_unicast_sealed_under_a_key_its_receiver_lacks_is_refused():
    engine, net, reading = settled_reading("auth-encap")
    # node 2's pair key with the management unit, which node 1 does not hold
    other = net.keys.sealing_key_id(CMU_ID, 2)
    assert other is not None and 1 not in net.keys.session_holders(other)
    assert_refused_once(engine, net,
                        dataclasses.replace(reading, sealed_key_id=other),
                        reading)


def test_signature_tags_computed_once_per_delivered_envelope(monkeypatch):
    counts = {"tags": 0, "wraps": 0, "deliveries": 0}
    tag_for, wrap = security._tag_for, security.wrap

    def counting_tag_for(*args):
        counts["tags"] += 1
        return tag_for(*args)

    def counting_wrap(*args):
        counts["wraps"] += 1
        return wrap(*args)

    monkeypatch.setattr(security, "_tag_for", counting_tag_for)
    monkeypatch.setattr(security, "wrap", counting_wrap)
    cfg = make_cfg(50, profile="auth-encap", duration_ms=120000)
    engine, net, recorder, _ = build_simulation(cfg)
    deliver = engine.on_deliver

    def counting_deliver(env):
        counts["deliveries"] += 1
        deliver(env)

    engine.on_deliver = counting_deliver
    engine.run_until(cfg.duration_ms)
    assert recorder.delivered == counts["deliveries"] > 0
    # a tag is computed when first read, and nothing in a run reads one:
    # every delivery is verified by the record of its wrap
    assert counts["wraps"] > 0 and counts["tags"] == 0


def test_a_run_hashes_nothing_per_send(monkeypatch):
    blake2b = hashlib.blake2b

    def keyed_states_and_sends(duration_ms):
        keyed = 0

        def counting_blake2b(*args, **kwargs):
            nonlocal keyed
            keyed += bool(kwargs.get("key"))
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(security, "hashlib",
                            types.SimpleNamespace(blake2b=counting_blake2b))
        # the one-time-auth state is cached across runs; without the clear
        # only the first run would build it
        security._tota_state.cache_clear()
        cfg = make_cfg(50, profile="auth-encap", duration_ms=duration_ms)
        engine, _, recorder, _ = build_simulation(cfg)
        engine.run_until(cfg.duration_ms)
        return keyed, recorder.sent

    short_keyed, short_sends = keyed_states_and_sends(60000)
    keyed, sends = keyed_states_and_sends(120000)
    # the key root, the group key and the management unit's signing key at
    # set-up, and the one-time-auth state at the first authorization; no
    # send and no verification adds one
    assert keyed == short_keyed == 4
    assert sends > short_sends + 100


class CountingSet(set):
    """A set that counts its membership tests."""

    checks = 0

    def __contains__(self, item):
        self.checks += 1
        return super().__contains__(item)


def test_pruned_broadcasts_check_few_receivers():
    # grants and role assignments that name no administrator act at one or
    # two receivers, so the bootstrap must not check every node for each.
    # Nothing crashes, so the protocol and then the kernel look each sender
    # up in the crashed set once, and the delivery loop each node receiver
    # it checks; the lookups less twice the sends count the receivers
    # checked.
    n = 200
    engine, net, _, _ = build_simulation(make_cfg(n, duration_ms=1000))
    engine.crashed = CountingSet(engine.crashed)
    sends = 0
    send = engine.send

    def counting_send(env):
        nonlocal sends
        sends += 1
        return send(env)

    engine.send = counting_send
    engine.run_until(1000)
    checks = engine.crashed.checks - 2 * sends
    assert sorted(net.granted_nodes()) == list(range(1, n + 1))
    assert 0 < checks <= 10 * n


def test_unregistered_receivers_fail_every_bootstrap_role_assignment():
    n = 30
    unregistered = [7, 14, 21, 28]
    # a crashed receiver is not eligible, so it logs nothing
    cfg = make_cfg(n, profile="auth-encap", duration_ms=1000,
                   registered=[i not in unregistered for i in range(1, n + 1)],
                   faults=[FaultSpec(target=21, kind=FaultKind.CRASH,
                                     at_ms=0)])
    engine, net, _, trace = build_simulation(cfg, with_trace=True)
    engine.run_until(10)
    assignments = [line for line in trace
                   if line.split("\t")[2:5] == ["role_assignment", "0", "*"]]
    assert len(assignments) == n
    failures = [note for note in net.notifications
                if note.cause is Cause.AUTH_FAILURE]
    assert [note.reporter for note in failures] == [7, 14, 28] * n
    assert all(note.subject == CMU_ID and note.at == 10 for note in failures)


def test_one_envelope_is_built_per_send(monkeypatch):
    cfg = make_cfg(50, profile="auth-encap", duration_ms=120000)
    engine, net, recorder, _ = build_simulation(cfg)
    built = 0
    init = Envelope.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Envelope, "__init__", counting_init)
    engine.run_until(cfg.duration_ms)
    assert built == recorder.sent > 0


def kinds_heard(monkeypatch, *, broadcast, status=NodeStatus.ACTIVE,
                crash=False, node=3):
    """Deliver one envelope of every kind from the management unit to
    ``node`` (or to everyone) in a settled 4-node network; return the kinds
    ``node`` heard and, for a broadcast, the kinds node 2 heard. A kind is
    heard when its record's handler runs or, for monitored kinds, when it
    resets the receiver's monitor of the sender, which moves its ``gen``."""
    engine, net, _, _ = build_simulation(make_cfg(4, duration_ms=20000))
    engine.run_until(20000)
    st = net.nodes[node]
    st.status = status
    if crash:
        engine.inject(FaultSpec(target=node, kind=FaultKind.CRASH,
                                at_ms=engine.now))
        engine.run_until(engine.now)
    heard = []

    def record(_net, env, receiver):
        heard.append((env.kind, receiver))

    monkeypatch.setattr(protocol, "_DELIVERY", {
        kind: rec._replace(at_cmu=record, at_node=record)
        for kind, rec in protocol._DELIVERY.items()})
    for kind in EnvelopeKind:
        monitor = None
        if kind in protocol.MONITORED_KINDS:
            monitor = net.monitors[node][CMU_ID] = MonitorState(
                watcher=node, watched=CMU_ID, kind=kind,
                next_expected=engine.now, gen=-1)
        detail = ((Role.LOW_RANK, CMU_ID)
                  if kind is EnvelopeKind.ROLE_ASSIGNMENT else None)
        engine.on_deliver(security.wrap(
            net.profile, net.keys, kind, CMU_ID,
            BROADCAST if broadcast else node, b"x" * 16, engine.now,
            subject=node, detail=detail))
        if monitor is not None and monitor.gen != -1:
            heard.append((kind, node))
    return ({kind for kind, receiver in heard if receiver == node},
            {kind for kind, receiver in heard if receiver == 2})


def test_each_kinds_delivery_record_matches_its_sources():
    for kind in EnvelopeKind:
        rec = protocol._DELIVERY[kind]
        assert rec.bootstrap is (kind in BOOTSTRAP_KINDS), kind
        assert rec.pruned is (kind in protocol.PRUNED_KINDS), kind
        assert rec.monitored is (kind in protocol.MONITORED_KINDS), kind
        assert rec.at_cmu is protocol._HANDLERS.get((kind, True)), kind
        assert rec.at_node is protocol._HANDLERS.get((kind, False)), kind
        if rec.monitored:
            assert rec.at_cmu is None and rec.at_node is None, kind
        assert rec.heard_by == {
            EnvelopeKind.DIAGNOSTIC_PROBE: {NodeStatus.REMOVED,
                                            NodeStatus.REENTERING},
            EnvelopeKind.ROLE_ASSIGNMENT: {NodeStatus.REENTERING},
        }.get(kind, set()), kind
    assert set(protocol._DELIVERY) == set(EnvelopeKind)


@pytest.mark.parametrize("broadcast", [False, True])
def test_an_active_node_hears_every_kind(monkeypatch, broadcast):
    heard, _ = kinds_heard(monkeypatch, broadcast=broadcast)
    assert heard == set(EnvelopeKind)


@pytest.mark.parametrize("broadcast", [False, True])
def test_a_removed_node_hears_only_diagnostic_probes(monkeypatch, broadcast):
    heard, _ = kinds_heard(monkeypatch, broadcast=broadcast,
                           status=NodeStatus.REMOVED)
    assert heard == {EnvelopeKind.DIAGNOSTIC_PROBE}


@pytest.mark.parametrize("broadcast", [False, True])
def test_a_reentering_node_hears_only_probes_and_role_assignments(
        monkeypatch, broadcast):
    heard, _ = kinds_heard(monkeypatch, broadcast=broadcast,
                           status=NodeStatus.REENTERING)
    assert heard == {EnvelopeKind.DIAGNOSTIC_PROBE,
                     EnvelopeKind.ROLE_ASSIGNMENT}


@pytest.mark.parametrize("broadcast", [False, True])
def test_a_crashed_node_hears_nothing(monkeypatch, broadcast):
    heard, heard_by_2 = kinds_heard(monkeypatch, broadcast=broadcast,
                                    crash=True)
    assert heard == set()
    if broadcast:
        # the other receivers of the same broadcasts still hear them; node 2
        # watches nobody, and a grant acts only at its subject and the
        # administrator
        assert heard_by_2 == (set(EnvelopeKind) - protocol.MONITORED_KINDS
                              - {EnvelopeKind.AUTHORIZATION_GRANT})


# ------------------------------------------------------------ run ownership

def lossy_failover_cfg():
    """Six auth-encap nodes on lossy, jittery links; the administrator
    crashes at 60 s."""
    cfg = make_cfg(6, profile="auth-encap", duration_ms=200000,
                   faults=[FaultSpec(target=1, kind=FaultKind.CRASH,
                                     at_ms=60000)])
    return dataclasses.replace(cfg, links=LinksConfig(
        latency_ms=10, jitter_ms=5, loss_probability=0.05))


def test_finished_runs_leave_no_cyclic_garbage():
    # the engine owns the network and the network holds the engine weakly,
    # so reference counting alone frees a run once its result is dropped
    runs = [(load_scenario(name), profile) for name, profile in DISTINCT_RUNS]
    runs.append((lossy_failover_cfg(), "auth-encap"))
    gc.collect()
    gc.disable()
    try:
        for cfg, profile in runs:
            changes = run_scenario(cfg, profile=profile,
                                   with_trace=True).network.role_changes
            assert gc.collect() == 0, (cfg.name, profile)
    finally:
        gc.enable()
    # the lossy synthetic does reach the failover
    assert any(rc.reason is RoleChangeReason.ADMIN_FAILOVER for rc in changes)


def test_the_engine_owns_the_network():
    gc.disable()
    try:
        engine, net, _, _ = build_simulation(make_cfg(3))
        engine.run_until(30000)
        network = weakref.ref(net)
        del net
        assert network() is not None
        del engine
        assert network() is None
    finally:
        gc.enable()


def test_a_detached_network_names_the_cause():
    net = run_scenario(make_cfg(3)).network
    with pytest.raises(SimError, match="detached"):
        net.authorize_node(2, 4242)


def test_every_wrapped_envelope_is_recorded(monkeypatch):
    # a crashed node's timers still fire, but the messages they would send
    # are not built: each wrap is one recorded send, delivered or lost
    wraps = 0
    wrap = security.wrap

    def counting_wrap(*args):
        nonlocal wraps
        wraps += 1
        return wrap(*args)

    monkeypatch.setattr(security, "wrap", counting_wrap)
    for name in ("admin-failover", "fire-sensor-dropout"):
        wraps = 0
        report = run_scenario(load_scenario(name),
                              profile="auth-encap").report
        assert wraps == report.sent > 0
