"""Role logic, loss monitors, succession and the management-unit protocol."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ansim import security
from ansim.model import (
    BROADCAST,
    CMU_ID,
    Cause,
    Envelope,
    EnvelopeKind,
    NodeProfile,
    NodeStatus,
    Role,
    Severity,
    SimError,
)
from ansim.protocol import (
    DuplicateHardwareId,
    EmptyNetwork,
    MonitorState,
    NoCandidate,
    RoleChange,
    RoleChangeReason,
    SuccessionTable,
    assign_initial_roles,
    record_packet_outcome,
    select_successor,
)
from ansim.runner import build_simulation, run_scenario
from ansim.scenario import (
    FaultEntry,
    LinkOverride,
    LinksConfig,
    NodeSpec,
    ScenarioConfig,
    SecurityConfig,
)


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
                        period=1000, grace=250, next_expected=1000)


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


def test_select_successor_skips_dead_candidates():
    table = SuccessionTable.from_measurements({2: 5, 3: 3, 4: 8})
    assert select_successor(table, lambda n: True) == 3
    assert select_successor(table, lambda n: n != 3) == 2
    with pytest.raises(NoCandidate):
        select_successor(table, lambda n: False)


def test_unresponsive_candidate_never_selected():
    table = SuccessionTable.from_measurements({2: None, 3: None})
    with pytest.raises(NoCandidate):
        select_successor(table, lambda n: True)


# ------------------------------------------------------------ initial roles

def node_profile(node_id, power):
    return NodeProfile(node_id=node_id, hardware_id=9000 + node_id,
                       processing_power=power, role=Role.LOW_RANK)


def test_initial_roles_highest_power_becomes_admin():
    profiles = [node_profile(i, 120 if i == 1 else 100) for i in range(1, 8)]
    changes = assign_initial_roles(profiles)
    assert changes[0].node == 1
    assert changes[0].to_role is Role.ADMINISTRATOR
    assert [c.node for c in changes[1:]] == [2, 3, 4, 5, 6, 7]
    assert all(c.to_role is Role.FIRE_SENSOR for c in changes[1:])
    assert all(c.reason is RoleChangeReason.INITIAL_ASSIGNMENT
               and c.from_role is None and c.at == 0 for c in changes)


def test_initial_roles_argmax_position_irrelevant():
    changes = assign_initial_roles([node_profile(1, 10), node_profile(2, 50),
                                    node_profile(3, 30)])
    assert changes[0].node == 2 and changes[0].to_role is Role.ADMINISTRATOR


def test_initial_roles_tie_goes_to_lower_id():
    changes = assign_initial_roles([node_profile(4, 70), node_profile(2, 70),
                                    node_profile(9, 70)])
    assert changes[0].node == 2


def test_single_node_becomes_admin():
    changes = assign_initial_roles([node_profile(5, 1)])
    assert [(c.node, c.to_role) for c in changes] \
        == [(5, Role.ADMINISTRATOR)]


def test_empty_network_is_an_error():
    with pytest.raises(EmptyNetwork):
        assign_initial_roles([])


@settings(max_examples=200)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=20, unique=True))
def test_initial_admin_matches_brute_force(powers):
    profiles = [node_profile(i + 1, p) for i, p in enumerate(powers)]
    best = None
    for p in profiles:
        if best is None or p.processing_power > best.processing_power or (
                p.processing_power == best.processing_power
                and p.node_id < best.node_id):
            best = p
    changes = assign_initial_roles(profiles)
    assert changes[0].node == best.node_id


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
    assert net.convergence_failures == 0


def test_succession_measured_over_live_links():
    overrides = []
    for node, lat in ((2, 30), (3, 20), (4, 40)):
        overrides.append(LinkOverride(src=CMU_ID, dst=node, latency_ms=lat,
                                      jitter_ms=0, loss_probability=0.0))
        overrides.append(LinkOverride(src=node, dst=CMU_ID, latency_ms=lat,
                                      jitter_ms=0, loss_probability=0.0))
    cfg = make_cfg(4, faults=[FaultEntry(target=1, kind="crash", at_ms=60000)],
                   overrides=overrides)
    net = run_scenario(cfg).network
    # ping at t, pong back at t + 2 * latency: the table orders by wire rtt
    assert len(net.succession_tables) == 1
    assert [(e.node, e.rtt) for e in net.succession_tables[0].entries] \
        == [(3, 40), (2, 60), (4, 80)]
    assert net.admin_id == 3
    assert net.nodes[3].profile.role is Role.ADMINISTRATOR
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
    cfg = make_cfg(2, faults=[FaultEntry(target=1, kind="crash", at_ms=60000)],
                   duration_ms=150000)
    net = run_scenario(cfg).network
    assert net.admin_id == 2
    assert net.supervising is False
    assert net.nodes[2].profile.role is Role.ADMINISTRATOR
    assert net.nodes[1].profile.status is NodeStatus.REMOVED


def test_supervision_when_no_candidate_answers():
    faults = [FaultEntry(target=1, kind="crash", at_ms=60000),
              FaultEntry(target=2, kind="crash", at_ms=71305),
              FaultEntry(target=3, kind="crash", at_ms=71305)]
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
    faults = [FaultEntry(target=1, kind="crash", at_ms=60000),
              FaultEntry(target=2, kind="crash", at_ms=71305),
              FaultEntry(target=3, kind="crash", at_ms=71305),
              FaultEntry(target=2, kind="restore", at_ms=80000),
              FaultEntry(target=3, kind="restore", at_ms=80000)]
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
        assert net.nodes[node].profile.status is NodeStatus.ACTIVE
        assert net.nodes[node].profile.role is Role.LOW_RANK
    reentry_at = max(n.at for n in reentries)
    to_cmu = [line for line in result.trace
              if line.split("\t")[2] == "sensor_data"
              and line.split("\t")[4] == "0"
              and int(line.split("\t")[0]) > reentry_at]
    assert to_cmu, "reentered sensors must address the management unit"


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


# ------------------------------------------------------- broadcast delivery

@pytest.mark.parametrize("profile", ["auth", "auth-encap"])
def test_tampered_broadcast_fails_at_every_eligible_receiver(profile):
    cfg = make_cfg(5, profile=profile, duration_ms=20000,
                   faults=[FaultEntry(target=4, kind="crash", at_ms=10000)])
    engine, net, _, _ = build_simulation(cfg)
    engine.run_until(cfg.duration_ms)
    env = Envelope(kind=EnvelopeKind.STATUS_BROADCAST, sender=1,
                   receiver=BROADCAST, payload=b"status", sent_at=engine.now)
    wrapped = security.wrap(env, net.profile, net.keys)
    tampered = dataclasses.replace(wrapped, tag=bytes(len(wrapped.tag)))
    before = len(net.notifications)
    engine.on_deliver(tampered)
    notes = net.notifications[before:]
    # the sender and the crashed node 4 hear nothing; the rest fail in order
    assert [n.reporter for n in notes] == [CMU_ID, 2, 3, 5]
    assert all(n.cause is Cause.AUTH_FAILURE and n.subject == 1
               and n.severity is Severity.ALERT for n in notes)


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
    assert 0 < counts["tags"] <= counts["wraps"] + counts["deliveries"]
