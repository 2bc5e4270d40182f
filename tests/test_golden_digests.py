"""Byte identity of every pinned run against tests/data/golden_digests.json.

The runs and the digest are defined once, in scripts/regen_golden.py, which
also rewrites the file after an intentional behaviour change.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT, load_script


def test_every_pinned_run_matches_its_digest(capsys):
    regen = load_script("regen_golden")
    assert regen.main(["--check"]) == 0
    # paper-case3 is paper-case1 with another default profile, and every
    # profile of a scenario is pinned anyway
    assert capsys.readouterr().out.splitlines() == [
        "paper-case3: skipped, the same runs as paper-case1",
        "checked 1 traces and 32 digests: 0 mismatched"]


def test_wire_digest_pins_payloads_that_no_report_or_trace_shows(
        monkeypatch):
    from ansim import protocol

    regen = load_script("regen_golden")
    pinned = json.loads(regen.DIGESTS_FILE.read_text(encoding="utf-8"))
    [(key, cfg, profile)] = [case for case in regen.digest_cases()
                             if case[0] == "paper-case1/auth"]
    assert regen.wire_digest(cfg, profile) == pinned[f"wire/{key}"]
    filler = protocol.make_payload
    # the same lengths with one byte changed: signed, verified and counted
    # as before
    monkeypatch.setattr(protocol, "make_payload",
                        lambda *args: filler(*args)[:-1] + b"!")
    assert regen.run_digest(cfg, profile) == pinned[key]
    assert regen.wire_digest(cfg, profile) != pinned[f"wire/{key}"]


# Prints the digest of fire-sensor-dropout under each profile as JSON, as
# its last line.
DIGEST_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("regen_golden", sys.argv[1])
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
cases = [case for case in regen.digest_cases()
         if case[0].startswith("fire-sensor-dropout/")]
print(json.dumps({key: regen.run_digest(cfg, profile)
                  for key, cfg, profile in cases}))
"""


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    # enums hash by identity and strings by PYTHONHASHSEED; neither may
    # reach a report or a trace
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", DIGEST_CHILD,
         str(ROOT / "scripts" / "regen_golden.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    pinned = json.loads((ROOT / "tests" / "data" / "golden_digests.json")
                        .read_text(encoding="utf-8"))
    assert sorted(got) == [f"fire-sensor-dropout/{p}"
                           for p in ("auth", "auth-encap", "plain")]
    assert got == {key: pinned[key] for key in got}


def test_check_names_each_mismatch_and_writes_nothing(tmp_path, monkeypatch,
                                                      capsys):
    regen = load_script("regen_golden")
    cases = [case for case in regen.digest_cases()
             if case[0] in ("paper-case1/plain", "paper-case1/auth")]
    monkeypatch.setattr(regen, "digest_cases", lambda: iter(cases))
    digests = regen.golden_digests()
    trace = (regen.DATA_DIR / "fire-sensor-dropout.trace").read_text(
        encoding="utf-8")
    monkeypatch.setattr(regen, "DATA_DIR", tmp_path)
    monkeypatch.setattr(regen, "DIGESTS_FILE", tmp_path / "digests.json")
    (tmp_path / "fire-sensor-dropout.trace").write_text(trace,
                                                        encoding="utf-8")
    regen.DIGESTS_FILE.write_text(json.dumps(digests), encoding="utf-8")
    assert regen.main(["--check"]) == 0

    doctored = dict(digests, **{"paper-case1/auth": "0" * 64})
    regen.DIGESTS_FILE.write_text(json.dumps(doctored), encoding="utf-8")
    (tmp_path / "fire-sensor-dropout.trace").write_text(trace + "extra\n",
                                                        encoding="utf-8")
    capsys.readouterr()
    assert regen.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "mismatch: fire-sensor-dropout.trace" in out
    assert "mismatch: paper-case1/auth" in out
    assert "paper-case1/plain" not in out
    assert json.loads(regen.DIGESTS_FILE.read_text(encoding="utf-8")) \
        == doctored


def test_rewrite_names_each_changed_file_and_key(tmp_path, monkeypatch,
                                                 capsys):
    regen = load_script("regen_golden")
    cases = [case for case in regen.digest_cases()
             if case[0] in ("paper-case1/plain", "paper-case1/auth")]
    monkeypatch.setattr(regen, "digest_cases", lambda: iter(cases))
    digests = regen.golden_digests()
    trace_name = "fire-sensor-dropout.trace"
    trace = (regen.DATA_DIR / trace_name).read_text(encoding="utf-8")
    monkeypatch.setattr(regen, "DATA_DIR", tmp_path)
    monkeypatch.setattr(regen, "DIGESTS_FILE", tmp_path / "digests.json")
    (tmp_path / trace_name).write_text(trace + "extra\n", encoding="utf-8")
    # one digest changed, one gone and one that no case produces any more
    doctored = dict(digests, **{"paper-case1/auth": "0" * 64,
                                "retired/plain": "1" * 64})
    del doctored["wire/paper-case1/plain"]
    regen.DIGESTS_FILE.write_text(json.dumps(doctored), encoding="utf-8")
    capsys.readouterr()
    assert regen.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"changed: {trace_name}",
        "changed: paper-case1/auth",
        "changed: retired/plain",
        "changed: wire/paper-case1/plain",
        "wrote 1 traces and 4 digests: 2 unchanged",
    ]
    assert (tmp_path / trace_name).read_text(encoding="utf-8") == trace
    assert json.loads(regen.DIGESTS_FILE.read_text(encoding="utf-8")) \
        == digests
    # a second rewrite finds nothing to change
    assert regen.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "wrote 1 traces and 4 digests: 5 unchanged"]


def test_regen_imports_its_own_checkout_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "regen_golden.py"), "--help"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "--check" in out.stdout
