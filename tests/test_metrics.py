"""Recorder accounting, report serialization and profile comparisons."""

import csv
import dataclasses
import io

import pytest

from ansim.metrics import DoubleCount, Recorder, run_report_to_csv
from ansim.model import CMU_ID, Envelope, EnvelopeKind
from ansim.runner import compare_profiles, run_scenario
from ansim.scenario import load_scenario


def env(kind, *, sender=1, receiver=CMU_ID, payload=b"x" * 10, wire=10):
    e = Envelope(kind=kind, sender=sender, receiver=receiver, payload=payload,
                 sent_at=0)
    return dataclasses.replace(e, wire_len=wire)


def test_recorder_counts_and_splits_by_category():
    rec = Recorder()
    rec.record_send(1, env(EnvelopeKind.SENSOR_DATA, wire=150), True)
    rec.record_send(2, env(EnvelopeKind.PING), False)
    rec.record_send(3, env(EnvelopeKind.DIAGNOSTIC_PROBE), True)
    rec.record_send(4, env(EnvelopeKind.KEY_EXCHANGE), True)
    assert (rec.sent, rec.delivered, rec.lost) == (4, 3, 1)
    assert rec.payload_bytes == 40
    assert rec.wire_bytes == 150 + 10 + 10 + 10
    assert rec.bytes_by_category == {
        "control": 10, "data": 150, "security": 10, "diagnostic": 10}
    assert rec.messages_by_category == {
        "control": 1, "data": 1, "security": 1, "diagnostic": 1}


def test_lost_transmission_still_costs_bytes():
    rec = Recorder()
    rec.record_send(1, env(EnvelopeKind.SENSOR_DATA, wire=500), False)
    assert rec.lost == 1
    assert rec.wire_bytes == 500


def test_double_count_guard():
    rec = Recorder()
    rec.record_send(7, env(EnvelopeKind.PING), True)
    with pytest.raises(DoubleCount):
        rec.record_send(7, env(EnvelopeKind.PING), True)


def test_double_count_guard_rejects_an_earlier_seq():
    rec = Recorder()
    rec.record_send(7, env(EnvelopeKind.PING), True)
    with pytest.raises(DoubleCount):
        rec.record_send(5, env(EnvelopeKind.PING), True)
    assert rec.sent == 1


def run_case1(**kwargs):
    return run_scenario(load_scenario("paper-case1"), **kwargs)


def test_run_report_json_shape():
    doc = run_case1().report.to_json_dict()
    assert list(doc) == ["scenario", "profile", "seed", "duration_ms",
                         "messages", "bytes", "notifications", "role_changes",
                         "final_admin", "supervising"]
    assert doc["scenario"] == "paper-case1"
    assert doc["profile"] == "plain"
    assert doc["messages"]["sent"] \
        == doc["messages"]["delivered"] + doc["messages"]["lost"]
    assert sum(doc["messages"]["by_category"].values()) \
        == doc["messages"]["sent"]
    assert sum(doc["bytes"]["by_category"].values()) == doc["bytes"]["wire"]
    assert doc["final_admin"] == 1
    assert doc["supervising"] is False
    for rc in doc["role_changes"]:
        assert set(rc) == {"at", "node", "from_role", "to_role", "reason"}


def test_broadcast_counts_once():
    # 7 status receivers, yet each broadcast adds one message and one
    # payload's worth of wire bytes
    report = run_case1().report
    per_status = report.bytes_by_category["control"]
    assert report.messages_by_category["data"] > 0
    single = run_scenario(load_scenario("paper-case1"), seed=1).report
    assert single.messages_by_category == report.messages_by_category
    assert per_status == single.bytes_by_category["control"]


def test_single_run_csv_table():
    text = run_report_to_csv(run_case1().report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["profile", "category", "bytes"]
    assert [r[1] for r in rows[1:]] \
        == ["control", "data", "security", "diagnostic", "total"]
    assert all(r[0] == "plain" for r in rows[1:])
    total = int(rows[-1][2])
    assert total == sum(int(r[2]) for r in rows[1:-1])


def test_comparison_ratios_and_identity():
    comp = compare_profiles(load_scenario("paper-case1"))
    assert set(comp.runs) == {"plain", "auth", "auth-encap"}
    assert comp.ratio_encap_plain > comp.ratio_auth_plain > 1.0
    # ratio identity: encap/plain = encap/auth * auth/plain
    assert abs(comp.ratio_encap_plain
               - comp.ratio_encap_auth * comp.ratio_auth_plain) < 1e-12
    doc = comp.to_json_dict()
    assert set(doc["ratios"]) \
        == {"encap_over_plain", "encap_over_auth", "auth_over_plain"}


def test_comparison_csv_has_a_block_per_profile():
    comp = compare_profiles(load_scenario("paper-case1"))
    rows = list(csv.reader(io.StringIO(comp.to_csv())))
    assert rows[0] == ["profile", "category", "bytes"]
    assert [r[0] for r in rows[1:]] \
        == ["plain"] * 5 + ["auth"] * 5 + ["auth-encap"] * 5
    for base in (1, 6, 11):
        block = rows[base:base + 5]
        assert int(block[4][2]) == sum(int(r[2]) for r in block[:4])


def test_profiles_share_message_schedule_but_not_bytes():
    comp = compare_profiles(load_scenario("paper-case1"))
    plain, auth = comp.runs["plain"], comp.runs["auth"]
    # same envelopes go out, only their wire size changes
    assert plain.sent == auth.sent
    assert plain.messages_by_category["data"] \
        == auth.messages_by_category["data"]
    assert auth.wire_bytes > plain.wire_bytes
