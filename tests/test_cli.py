"""Command-line behaviour: exit codes, output channels, seed resolution."""

import json

import pytest

from ansim.cli import SEED_ENV_VAR, main
from ansim.scenario import load_scenario, parse_scenario, scenario_to_json


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_emits_single_json_document(capsys):
    code, out, err = run_cli(capsys, "run", "paper-case1")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "paper-case1"
    assert doc["final_admin"] == 1
    assert err == ""


def test_run_profile_override(capsys):
    code, out, _ = run_cli(capsys, "run", "paper-case1", "--profile", "auth")
    assert code == 0
    assert json.loads(out)["profile"] == "auth"


def test_unknown_scenario_fails_and_lists_bundled(capsys):
    code, out, err = run_cli(capsys, "run", "who-knows")
    assert code == 1
    assert out == ""
    assert "paper-case1" in err


def test_missing_scenario_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert "scenario is required" in err


def test_scenario_given_twice_rejected(capsys):
    code, _, err = run_cli(capsys, "run", "paper-case1",
                           "--scenario", "x.json")
    assert code == 1
    assert "not both" in err


def test_argparse_usage_error_maps_to_one(capsys):
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def test_bad_seed_rejected(capsys):
    code, _, err = run_cli(capsys, "run", "paper-case1", "--seed", "pony")
    assert code == 1 and "seed must be an integer" in err
    code, _, err = run_cli(capsys, "run", "paper-case1", "--seed",
                           str(2 ** 64))
    assert code == 1 and "64-bit" in err


def test_seed_env_fallback(capsys, monkeypatch):
    _, out_default, _ = run_cli(capsys, "run", "paper-case1")
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    _, out_env, _ = run_cli(capsys, "run", "paper-case1")
    assert json.loads(out_default)["seed"] == 42
    assert json.loads(out_env)["seed"] == 99
    # an explicit flag outranks the environment
    _, out_flag, _ = run_cli(capsys, "run", "paper-case1", "--seed", "7")
    assert json.loads(out_flag)["seed"] == 7


def test_same_seed_same_stdout(capsys):
    _, first, _ = run_cli(capsys, "run", "fire-sensor-dropout")
    _, second, _ = run_cli(capsys, "run", "fire-sensor-dropout")
    assert first == second


def test_trace_file_written(capsys, tmp_path):
    trace_path = tmp_path / "events.trace"
    code, _, _ = run_cli(capsys, "run", "paper-case1", "--trace",
                         str(trace_path))
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines[0].split("\t")[2] == "timer/bootstrap"
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6
        int(fields[0]), int(fields[1])


def test_out_json_copy_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "run", "paper-case1", "--out", str(out_path))
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_out_csv_next_to_json_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "run", "paper-case1", "--out",
                           str(out_path), "--format", "csv")
    assert code == 0
    json.loads(out)  # stdout stays JSON
    assert out_path.read_text().startswith("profile,category,bytes")


def test_csv_without_out_rejected(capsys):
    code, _, err = run_cli(capsys, "run", "paper-case1", "--format", "csv")
    assert code == 1
    assert "--out" in err


def test_compare_reports_three_profiles(capsys):
    code, out, _ = run_cli(capsys, "compare", "paper-case1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["runs"]) == {"plain", "auth", "auth-encap"}
    ratios = doc["ratios"]
    assert ratios["encap_over_plain"] > ratios["auth_over_plain"] > 1.0


def test_compare_paper_cases_warns_on_node_counts(capsys):
    code, out, err = run_cli(capsys, "compare", "--paper-cases")
    assert code == 0
    assert "node counts differ" in err
    doc = json.loads(out)
    assert set(doc["runs"]) == {"plain", "auth", "auth-encap"}
    assert doc["scenario"] == "paper-case1+paper-case2+paper-case3"


def test_compare_paper_cases_normalized_is_quiet(capsys):
    code, out, err = run_cli(capsys, "compare", "--paper-cases",
                             "--normalize-nodes", "--seed", "42")
    assert code == 0
    assert err == ""  # the advice would be stale once the flag is given
    doc = json.loads(out)
    sent = {name: run["messages"]["sent"] for name, run in doc["runs"].items()}
    assert sent["plain"] == sent["auth"]
    # the session profile adds only its key exchanges on equal topologies
    extra = sent["auth-encap"] - sent["plain"]
    kx = doc["runs"]["auth-encap"]["messages"]["by_category"]["security"] \
        - doc["runs"]["plain"]["messages"]["by_category"]["security"]
    assert extra == kx > 0


@pytest.mark.parametrize("argv,message", [
    (["paper-case1", "--paper-cases"], "takes no scenario"),
    (["--paper-cases", "--scenario", "no/such.json"], "takes no scenario"),
    (["paper-case1", "--normalize-nodes"], "needs --paper-cases"),
], ids=["positional", "scenario-flag", "normalize-alone"])
def test_compare_rejects_what_it_would_ignore(capsys, argv, message):
    code, out, err = run_cli(capsys, "compare", *argv)
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


def scenario_file(tmp_path, name, **security):
    """A copy of bundled scenario ``name`` with ``security`` settings
    changed, as a file path."""
    doc = json.loads(scenario_to_json(load_scenario(name)))
    doc["security"].update(security)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("field", [
    "sig_len", "encap_overhead", "handshake_msg_len"])
def test_validate_rejects_an_overhead_of_zero(capsys, tmp_path, field):
    # the file's own profile is auth, which reads sig_len alone; any other
    # profile can still be picked at run time
    path = scenario_file(tmp_path, "paper-case2", **{field: 0})
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err == (f"error: security.{field}: auth-encap profile requires "
                   f"{field} > 0\n")


@pytest.mark.parametrize("field", [
    "sig_len", "encap_overhead", "handshake_msg_len"])
def test_validate_reports_a_negative_overhead_once(capsys, tmp_path, field):
    # the sign check names it; the auth-encap check does not repeat it
    path = scenario_file(tmp_path, "paper-case2", **{field: -1})
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err == f"error: security.{field}: must be >= 0, got -1\n"


@pytest.mark.parametrize("command,name,field", [
    # an auth run reads sig_len
    ("run", "paper-case2", "sig_len"),
    # compare builds auth-encap from a plain file too
    ("compare", "paper-case1", "encap_overhead"),
])
def test_an_overhead_of_zero_is_an_error_line_not_a_crash(
        capsys, tmp_path, command, name, field):
    path = scenario_file(tmp_path, name, **{field: 0})
    code, out, err = run_cli(capsys, command, path)
    assert code == 1
    assert out == ""
    assert err == (f"error: security.{field}: auth-encap profile requires "
                   f"{field} > 0\n")


def test_validate_round_trips(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "paper-case2")
    assert code == 0
    cfg = parse_scenario(out)
    assert scenario_to_json(cfg).rstrip("\n") == out.rstrip("\n")
    # a rewritten copy validates identically
    path = tmp_path / "copy.json"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "validate", str(path))
    assert code2 == 0 and out2 == out


def test_validate_rejects_csv(capsys):
    code, _, err = run_cli(capsys, "validate", "paper-case1", "--format",
                           "csv")
    assert code == 1
    assert "JSON only" in err


def test_validate_reports_every_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "name": "b", "seed": -4, "duration_ms": 0,
        "nodes": [{"id": 0, "hardware_id": 1, "processing_power": 0}]}))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.count("error:") >= 3
