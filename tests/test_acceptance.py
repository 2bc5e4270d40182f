"""End-to-end acceptance gates.

One test per shipped guarantee, each at its stated tolerance, so a verbose
test run reads as one verdict line per criterion. Every expected number is
derived in place from scenario parameters or an independent reference
implementation, never from the simulator under test.
"""

import dataclasses
import json
import random
import time
from pathlib import Path

from ansim.audit import (
    audit_admin_uniqueness,
    audit_alert_precedes_removal,
    audit_demotion_permanence,
    audit_warning_precedes_alert,
    run_all,
)
from ansim.cli import main
from ansim.kernel import FaultKind, FaultSpec
from ansim.model import (
    BROADCAST,
    Cause,
    EnvelopeKind,
    NodeStatus,
    Role,
    SimError,
)
from ansim.protocol import PROBE_INTERVAL_MS, RoleChangeReason
from ansim.runner import run_scenario
from ansim.scenario import (
    LinksConfig,
    NodeSpec,
    ScenarioConfig,
    SecurityConfig,
    builtin_scenario_names,
    load_scenario,
)
from ansim.security import (
    KeyRegistry,
    SecurityProfile,
    TotaOutcome,
    TotaState,
    fresh_nonce,
    key_holders,
    tota_response,
    tota_verify,
    unwrap,
    wrap,
)

GOLDEN_DIR = Path(__file__).parent / "data"


def message_rows(trace):
    rows = []
    for line in trace:
        fields = line.split("\t")
        if not fields[2].startswith(("timer/", "fault/")):
            rows.append((int(fields[0]), fields[2], fields[3], fields[4]))
    return rows


def test_criterion_1_overhead_ratios(capsys):
    started = time.perf_counter()
    code = main(["compare", "--paper-cases", "--normalize-nodes"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    ratios = json.loads(out)["ratios"]
    assert 3.5 <= ratios["encap_over_plain"] <= 4.5, ratios
    assert 2.5 <= ratios["encap_over_auth"] <= 3.5, ratios
    assert elapsed < 5.0
    print(f"criterion 1: PASS (encap/plain {ratios['encap_over_plain']:.3f}, "
          f"encap/auth {ratios['encap_over_auth']:.3f}, {elapsed:.2f} s)")


def test_criterion_2_fire_sensor_dropout_golden_trace():
    cfg = load_scenario("fire-sensor-dropout")
    result = run_scenario(cfg, with_trace=True)
    trace = result.trace

    lat = cfg.links.latency_ms
    period = cfg.timers.sensor_data_period_ms
    grace = period // 4
    drop = next(f for f in cfg.faults if f.kind == "drop_next_n")
    restore = next(f for f in cfg.faults if f.kind == "restore")
    target = str(drop.target)

    # Independent timeline: the four-hop join handshake ends with a grant,
    # duties begin, and every sensor reading is one period apart. The radio
    # defect lands between two readings, so the watcher's phase stays locked
    # to the last clean delivery.
    grant_at = 4 * lat
    first_send = grant_at + period
    last_clean_send = first_send \
        + ((drop.at_ms - 1 - first_send) // period) * period
    warning_sent = last_clean_send + lat + period + grace
    alert_sent = warning_sent + 2 * period
    removal_at = alert_sent + lat
    answered_k = -(-(restore.at_ms - removal_at) // PROBE_INTERVAL_MS)
    probe_arrivals = [removal_at + k * PROBE_INTERVAL_MS + lat
                      for k in range(1, answered_k + 1)]
    reentry_at = probe_arrivals[-1] + lat

    rows = message_rows(trace)
    warnings = [r for r in rows if r[1] == "warning"]
    alerts = [r for r in rows if r[1] == "alert"]
    notices = [r for r in rows if r[1] == "removal_notice"]
    probes = [r for r in rows if r[1] == "diagnostic_probe"]

    assert warnings == [(warning_sent + lat, "warning", "1", "0")]
    assert alerts == [(alert_sent + lat, "alert", "1", "0")]
    assert notices == [(removal_at + lat, "removal_notice", "0", "*")]
    order = [rows.index(warnings[0]), rows.index(alerts[0]),
             rows.index(notices[0])]
    assert order == sorted(order)

    assert [r[0] for r in probes] == probe_arrivals
    assert all(r[3] == target for r in probes)
    deltas = [b - a for a, b in zip(probe_arrivals, probe_arrivals[1:])]
    assert set(deltas) == {PROBE_INTERVAL_MS}
    # probing stops once the restored node answers, and the node reenters
    assert probes[-1][0] < reentry_at
    reentries = [rc for rc in result.report.role_changes
                 if rc.reason is RoleChangeReason.REENTRY]
    assert [(rc.node, rc.at, rc.to_role) for rc in reentries] \
        == [(drop.target, reentry_at, Role.LOW_RANK)]
    st = result.network.nodes[drop.target]
    assert st.status is NodeStatus.ACTIVE

    golden = (GOLDEN_DIR / "fire-sensor-dropout.trace").read_text()
    assert "\n".join(trace) + "\n" == golden
    assert run_all(result.report, trace) == []
    print(f"criterion 2: PASS (warning {warning_sent}, alert {alert_sent}, "
          f"removal {removal_at}, {len(probes)} probes, reentry {reentry_at})")


def test_criterion_3_administrator_failover():
    cfg = load_scenario("admin-failover")
    result = run_scenario(cfg, with_trace=True)
    report = result.report
    crash = next(f for f in cfg.faults if f.kind == "crash")
    lat = cfg.links.latency_ms

    promotions = [rc for rc in report.role_changes
                  if rc.reason is RoleChangeReason.ADMIN_FAILOVER]
    assert len(promotions) == 1
    promoted = promotions[0]
    bound = 3 * cfg.timers.status_period_ms + cfg.timers.rtt_timeout_ms + lat
    assert promoted.at - crash.at_ms <= bound, (promoted.at, bound)
    # the takeover is announced to everyone in one broadcast
    announcements = [r for r in message_rows(result.trace)
                     if r[1] == "info_message" and r[3] == "*"
                     and r[0] == promoted.at + lat]
    assert announcements, "no broadcast announcement at promotion time"

    # the restored former administrator reenters at the bottom rank and
    # stays there for the remainder of the run
    old_admin_changes = [rc for rc in report.role_changes
                         if rc.node == crash.target]
    assert old_admin_changes[-1].reason is RoleChangeReason.REENTRY
    assert old_admin_changes[-1].to_role is Role.LOW_RANK
    assert result.network.nodes[crash.target].role is Role.LOW_RANK
    assert report.final_admin == promoted.node
    assert audit_admin_uniqueness(report) == []
    assert audit_demotion_permanence(report) == []
    print(f"criterion 3: PASS (takeover {promoted.at - crash.at_ms} ms "
          f"after the crash, bound {bound} ms, node {promoted.node} leads)")


def test_criterion_4_random_scenarios_conform():
    rng = random.Random(20260822)
    checked = 0
    for i in range(200):
        n = rng.randint(3, 20)
        tie_prone = rng.random() < 0.3
        powers = [rng.randint(1, 8) if tie_prone else rng.randint(1, 1000)
                  for _ in range(n)]
        faults = []
        for _ in range(rng.randint(1, 2)):
            target = rng.randint(1, n)
            at = rng.randint(1000, 100000)
            if rng.random() < 0.5:
                faults.append(FaultSpec(target=target, kind=FaultKind.CRASH,
                                        at_ms=at))
            else:
                faults.append(FaultSpec(
                    target=target, kind=FaultKind.DROP_NEXT_N, at_ms=at,
                    n=rng.randint(1, 5)))
            if rng.random() < 0.5:
                faults.append(FaultSpec(
                    target=target, kind=FaultKind.RESTORE,
                    at_ms=at + rng.randint(10000, 120000)))
        cfg = ScenarioConfig(
            name=f"random-{i}", seed=rng.randrange(2 ** 32),
            duration_ms=240000,
            nodes=tuple(NodeSpec(id=j + 1, hardware_id=7000 + j,
                                 processing_power=powers[j])
                        for j in range(n)),
            links=LinksConfig(latency_ms=10),
            security=SecurityConfig(profile="plain"),
            faults=tuple(faults))
        result = run_scenario(cfg, with_trace=True)
        net = result.network

        expected = min(range(1, n + 1), key=lambda j: (-powers[j - 1], j))
        initial_admins = [rc.node for rc in net.role_changes
                          if rc.reason is RoleChangeReason.INITIAL_ASSIGNMENT
                          and rc.to_role is Role.ADMINISTRATOR]
        assert initial_admins == [expected], cfg.name
        assert audit_warning_precedes_alert(result.report) == [], cfg.name
        assert audit_alert_precedes_removal(result.report) == [], cfg.name
        problems = run_all(result.report, result.trace)
        assert problems == [], (cfg.name, problems)
        checked += 1
    assert checked == 200
    print(f"criterion 4: PASS ({checked} random scenarios, every invariant "
          f"held)")


def test_criterion_5_security_envelope_suite():
    rng = random.Random(55)
    keys = KeyRegistry(seed=9, registered_hardware_ids={11, 22})
    for node in (1, 2):
        keys.provision_member(node)
    keys.establish(1, 2)
    profiles = {
        "plain": SecurityProfile.plain(),
        "auth": SecurityProfile.auth_only(40),
        "auth-encap": SecurityProfile.auth_encap(40, 320, 64),
    }
    # (kind, sender, receiver, payload, sent_at) as wrap takes them
    unicast = (EnvelopeKind.SENSOR_DATA, 1, 2, b"p" * 120, 77)
    broadcast = (EnvelopeKind.STATUS_BROADCAST, 1, BROADCAST, b"s" * 120, 77)

    for prof in profiles.values():
        for msg in (unicast, broadcast):
            wrapped = wrap(prof, keys, *msg)
            assert unwrap(wrapped, prof, keys) == msg[3]
            assert 2 in (key_holders(wrapped, prof, keys) or {2})

    for msg in (unicast, broadcast):
        w_plain = wrap(profiles["plain"], keys, *msg).wire_len
        w_auth = wrap(profiles["auth"], keys, *msg).wire_len
        w_encap = wrap(profiles["auth-encap"], keys, *msg).wire_len
        assert w_plain == len(msg[3])
        assert w_auth - w_plain == 40
        assert w_encap - w_auth == 320
        assert w_encap - w_plain == 40 + 320

    tampered = 0
    for name in ("auth", "auth-encap"):
        prof = profiles[name]
        wrapped = wrap(prof, keys, *unicast)
        payload_bits = len(wrapped.payload) * 8
        total_bits = payload_bits + len(wrapped.tag) * 8
        for _ in range(100):
            bit = rng.randrange(total_bits)
            if bit < payload_bits:
                buf = bytearray(wrapped.payload)
                buf[bit // 8] ^= 1 << (bit % 8)
                doctored = dataclasses.replace(wrapped, payload=bytes(buf))
            else:
                buf = bytearray(wrapped.tag)
                buf[(bit - payload_bits) // 8] ^= 1 << (bit % 8)
                doctored = dataclasses.replace(wrapped, tag=bytes(buf))
            try:
                unwrap(doctored, prof, keys)
                raise AssertionError(f"tampered envelope accepted ({name})")
            except SimError:
                tampered += 1
    assert tampered == 200

    state = TotaState(secret=b"shared-secret", time_step_ms=30000,
                      skew_steps=1)
    mirror: set[tuple[int, int]] = set()
    accepted_pool: list[tuple[int, int, bytes, int]] = []
    accepted = replayed = skewed = 0
    for _ in range(1000):
        if accepted_pool and rng.random() < 0.3:
            prover, nonce, response, at = rng.choice(accepted_pool)
            assert tota_verify(state, prover, nonce, response, at) \
                is TotaOutcome.REPLAY
            replayed += 1
            continue
        at = rng.randrange(300000, 10000000)
        nonce = fresh_nonce(rng)
        offset = rng.choice([-3, -2, -1, 0, 1, 2, 3])
        step = state.step_at(at) + offset
        response = tota_response(state.secret, 1, nonce, step)
        outcome = tota_verify(state, 1, nonce, response, at)
        if abs(offset) <= state.skew_steps:
            assert outcome is TotaOutcome.ACCEPT, offset
            mirror.add((nonce, step))
            accepted_pool.append((1, nonce, response, at))
            accepted += 1
        else:
            assert outcome is TotaOutcome.SKEW_EXCEEDED, offset
            skewed += 1
    assert accepted + replayed + skewed == 1000
    assert state.used == mirror
    print(f"criterion 5: PASS (round-trips, 200 tamperings rejected, "
          f"{accepted} accepts / {replayed} replays / {skewed} skews)")


def test_criterion_6_bundled_runs_are_deterministic():
    for name in builtin_scenario_names():
        first = run_scenario(load_scenario(name), with_trace=True)
        second = run_scenario(load_scenario(name), with_trace=True)
        assert "\n".join(first.trace) == "\n".join(second.trace), name
        assert json.dumps(first.report.to_json_dict()) \
            == json.dumps(second.report.to_json_dict()), name
    print(f"criterion 6: PASS ({len(builtin_scenario_names())} bundled "
          f"scenarios, byte-identical reruns)")
