"""Scenario parsing, validation and round-trip serialization."""

import dataclasses
import json

import pytest

from ansim.kernel import FaultKind, FaultSpec
from ansim.runner import run_scenario
from ansim.scenario import (
    LinkOverride,
    LinksConfig,
    ScenarioError,
    SecurityConfig,
    TimersConfig,
    builtin_scenario_names,
    load_scenario,
    parse_scenario,
    scenario_to_json,
)


def minimal(**overrides):
    doc = {
        "name": "t",
        "seed": 1,
        "duration_ms": 60000,
        "nodes": [
            {"id": 1, "hardware_id": 900, "processing_power": 120},
            {"id": 2, "hardware_id": 901, "processing_power": 100},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


def errors_of(text):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    return exc.value.errors


def test_minimal_scenario_parses_with_defaults():
    cfg = parse_scenario(minimal(
        faults=[{"target": 2, "kind": "crash", "at_ms": 5}]))
    assert cfg.timers.status_period_ms == 5000
    assert cfg.timers.sensor_data_period_ms == 10000
    assert cfg.timers.rtt_timeout_ms == 2000
    assert cfg.links.latency_ms == 10
    assert cfg.security.profile == "plain"
    assert cfg.node_ids() == [1, 2]
    # each default has one home, its config dataclass, and the parser
    # reads it from there
    assert cfg.links == LinksConfig()
    assert cfg.timers == TimersConfig()
    assert cfg.security == SecurityConfig()
    assert [n.registered for n in cfg.nodes] == [True, True]
    assert cfg.faults == (FaultSpec(target=2, kind=FaultKind.CRASH,
                                    at_ms=5, n=0),)


def test_bundled_names_present():
    assert set(builtin_scenario_names()) == {
        "paper-case1", "paper-case2", "paper-case3",
        "fire-sensor-dropout", "admin-failover"}


def test_bundled_reference_topologies():
    case1 = load_scenario("paper-case1")
    assert len(case1.nodes) == 7
    strongest = max(case1.nodes, key=lambda n: (n.processing_power, -n.id))
    assert strongest.id == 1
    assert case1.security.profile == "plain"
    assert len(load_scenario("paper-case2").nodes) == 6
    assert load_scenario("paper-case2").security.profile == "auth"
    case3 = load_scenario("paper-case3")
    assert len(case3.nodes) == 7
    assert case3.security.profile == "auth-encap"
    assert case3.security.sig_len == 40
    assert case3.security.encap_overhead == 320


def test_duplicate_node_id_names_both_occurrences():
    doc = minimal(nodes=[
        {"id": 1, "hardware_id": 900, "processing_power": 10},
        {"id": 2, "hardware_id": 901, "processing_power": 10},
        {"id": 1, "hardware_id": 902, "processing_power": 10},
    ])
    errs = errors_of(doc)
    assert any("nodes[2].id" in e and "nodes[0].id" in e for e in errs)


def test_repeated_link_override_names_both_occurrences():
    ov = {"src": 2, "dst": 1, "latency_ms": 40}
    doc = minimal(links={"overrides": [ov, {"src": 1, "dst": 2},
                                       {**ov, "latency_ms": 20}]})
    assert errors_of(doc) == [
        "links.overrides[2]: duplicate of links.overrides[0] (2 -> 1)"]


def test_negative_override_latency_and_jitter_are_rejected():
    links = {"overrides": [{"src": 2, "dst": 0, "latency_ms": -5},
                           {"src": 1, "dst": 2, "jitter_ms": -7}]}
    assert errors_of(minimal(links=links)) == [
        "links.overrides[0].latency_ms: must be >= 0",
        "links.overrides[1].jitter_ms: must be >= 0"]
    # an override that inherits a bad default is reported once, at the default
    links = {"jitter_ms": -1, "overrides": [{"src": 2, "dst": 1}]}
    assert errors_of(minimal(links=links)) == ["links.jitter_ms: must be >= 0"]


def test_fault_with_unknown_target():
    doc = minimal(faults=[{"target": 99, "kind": "crash", "at_ms": 5}])
    errs = errors_of(doc)
    assert any(e.startswith("faults[0].target") and "99" in e for e in errs)


def test_unknown_keys_rejected_with_paths():
    doc = minimal(banana=1)
    errs = errors_of(doc)
    assert any(e.startswith("banana") and "unknown key" in e for e in errs)
    doc2 = json.loads(minimal())
    doc2["nodes"][0]["colour"] = "red"
    errs2 = errors_of(json.dumps(doc2))
    assert any("nodes[0].colour" in e for e in errs2)
    # keys that no part of the simulation ever read are gone from the schema
    doc3 = json.loads(minimal(security={"profile": "auth-encap",
                                        "handshake_msgs": 2},
                              timers={"inspection_period_ms": 30000}))
    doc3["nodes"][1].update(x=1.0, y=2.0)
    assert sorted(errors_of(json.dumps(doc3))) == [
        "nodes[1].x: unknown key", "nodes[1].y: unknown key",
        "security.handshake_msgs: unknown key",
        "timers.inspection_period_ms: unknown key"]


def test_all_violations_collected_in_one_pass():
    doc = json.dumps({
        "name": "bad",
        "seed": -1,
        "duration_ms": 0,
        "nodes": [
            {"id": 0, "hardware_id": 1, "processing_power": 0},
        ],
        "links": {"loss_probability": 1.5},
        "faults": [{"target": 7, "kind": "melt", "at_ms": -3}],
    })
    errs = errors_of(doc)
    joined = "\n".join(errs)
    assert "seed" in joined
    assert "duration_ms" in joined
    assert "nodes[0].id" in joined
    assert "processing_power" in joined
    assert "loss_probability" in joined
    assert "faults[0]" in joined
    assert len(errs) >= 5


def test_drop_fault_requires_n():
    doc = minimal(faults=[{"target": 1, "kind": "drop_next_n", "at_ms": 5}])
    errs = errors_of(doc)
    assert any("faults[0].n" in e for e in errs)


def test_latency_must_fit_inside_grace_window():
    doc = minimal(links={"latency_ms": 2000},
                  timers={"status_period_ms": 5000})
    errs = errors_of(doc)
    assert any("quarter" in e for e in errs)
    # 1249 < 5000 // 4 passes; the bound is strict, counts jitter and
    # holds on every override
    parse_scenario(minimal(links={"latency_ms": 1249}))
    for links in ({"latency_ms": 1250},
                  {"latency_ms": 1240, "jitter_ms": 10},
                  {"overrides": [{"src": 1, "dst": 2, "latency_ms": 1250}]}):
        assert any("quarter" in e for e in errors_of(minimal(links=links)))


def test_tota_skew_must_cover_the_steps_a_link_crosses():
    # a response's step is taken when its challenge arrives and checked one
    # 10 ms link later: two 5 ms steps on, or at most one 30 s step on
    assert errors_of(minimal(security={"tota_time_step_ms": 5})) == [
        "security.tota_skew_steps: must be >= 2, the number of 5 ms time "
        "steps that latency plus jitter of up to 10 ms can cross"]
    assert errors_of(minimal(security={"tota_skew_steps": 0})) == [
        "security.tota_skew_steps: must be >= 1, the number of 30000 ms "
        "time steps that latency plus jitter of up to 10 ms can cross"]
    parse_scenario(minimal(security={"tota_time_step_ms": 5,
                                     "tota_skew_steps": 2}))
    # a step already rejected is not divided by
    assert errors_of(minimal(security={"tota_time_step_ms": 0})) == [
        "security.tota_time_step_ms: must be > 0"]


def test_invalid_json_reported_as_single_error():
    errs = errors_of("{not json")
    assert len(errs) == 1 and "invalid JSON" in errs[0]


def test_bundled_scenarios_round_trip():
    for name in builtin_scenario_names():
        cfg = load_scenario(name)
        again = parse_scenario(scenario_to_json(cfg))
        assert again == cfg


def test_load_by_path(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(minimal())
    cfg = load_scenario(str(path))
    assert cfg.name == "t"


def test_load_unknown_lists_bundled():
    with pytest.raises(ScenarioError) as exc:
        load_scenario("no-such-scenario")
    assert "paper-case1" in str(exc.value)


def test_link_override_and_drop_fault_round_trip():
    cfg = parse_scenario(minimal(
        links={"latency_ms": 20, "jitter_ms": 3,
               "overrides": [{"src": 2, "dst": 1, "latency_ms": 40}]},
        faults=[{"target": 2, "kind": "drop_next_n", "at_ms": 5, "n": 3}]))
    # an override takes what it leaves out from the default link
    assert cfg.links.overrides == (LinkOverride(
        src=2, dst=1, latency_ms=40, jitter_ms=3, loss_probability=0.0),)
    assert cfg.faults == (FaultSpec(target=2, kind=FaultKind.DROP_NEXT_N,
                                    at_ms=5, n=3),)
    assert parse_scenario(scenario_to_json(cfg)) == cfg


def test_unregistered_node_flag_round_trips():
    doc = json.loads(minimal())
    doc["nodes"][1]["registered"] = False
    cfg = parse_scenario(json.dumps(doc))
    assert cfg.nodes[1].registered is False
    again = parse_scenario(scenario_to_json(cfg))
    assert again == cfg


# ---------------------------------------------------- every setting matters

def failover_with_a_silent_candidate():
    """Bundled admin-failover plus a crash of node 7 before the failover
    starts, so the succession measurement waits out ``rtt_timeout_ms``."""
    cfg = load_scenario("admin-failover")
    return dataclasses.replace(cfg, faults=cfg.faults + (
        FaultSpec(target=7, kind=FaultKind.CRASH, at_ms=65000),))


def with_settings(cfg, section, **values):
    return dataclasses.replace(cfg, **{section: dataclasses.replace(
        getattr(cfg, section), **values)})


# "section.field" -> (base scenario, the base's own settings, another value).
# TOTA steps of 5 ms put a response two steps after its challenge on 10 ms
# links, outside a skew of one step and inside a skew of two.
SETTING_CASES = {
    "timers.status_period_ms": ("paper-case1", {}, 4000),
    "timers.sensor_data_period_ms": ("paper-case1", {}, 8000),
    "timers.rtt_timeout_ms": (failover_with_a_silent_candidate, {}, 3000),
    "security.profile": ("paper-case1", {}, "auth"),
    "security.sig_len": ("paper-case2", {}, 48),
    "security.encap_overhead": ("paper-case3", {}, 300),
    "security.handshake_msg_len": ("paper-case3", {}, 80),
    "security.tota_time_step_ms": ("paper-case1", {}, 5),
    "security.tota_skew_steps": ("paper-case1",
                                 {"tota_time_step_ms": 5}, 2),
    "security.payload_sensor_data": ("paper-case1", {}, 100),
    "security.payload_status_broadcast": ("paper-case1", {}, 100),
}


def observable(cfg):
    """The report and every trace line but timer firings, without the
    event sequence numbers that any extra timer shifts."""
    result = run_scenario(cfg, with_trace=True)
    lines = [line.split("\t") for line in result.trace]
    return (result.report.to_json_dict(),
            [[at, *rest] for at, _seq, *rest in lines
             if not rest[0].startswith("timer/")])


def test_every_setting_has_a_case():
    assert sorted(SETTING_CASES) == sorted(
        [f"timers.{f.name}" for f in dataclasses.fields(TimersConfig)]
        + [f"security.{f.name}" for f in dataclasses.fields(SecurityConfig)])


@pytest.mark.parametrize("setting", sorted(SETTING_CASES))
def test_every_setting_changes_what_a_run_shows(setting):
    section, name = setting.split(".")
    base, own, other = SETTING_CASES[setting]
    cfg = with_settings(base() if callable(base) else load_scenario(base),
                        section, **own)
    assert getattr(getattr(cfg, section), name) != other
    changed = with_settings(cfg, section, **{name: other})
    assert observable(changed) != observable(cfg)
