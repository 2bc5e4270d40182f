#!/usr/bin/env python3
"""Regenerate the golden files under tests/data/.

Run this only after an intentional behaviour change, then review the diff.
A rewrite prints each trace file and digest key whose content changed and
how many were left unchanged, so the change names what it regenerated.
``--check`` recomputes every golden file without writing anything, prints
each key that no longer matches and exits 1 if there is one, so a change
meant to keep the output byte-identical can prove it with one command.
The golden trace pins the exact event sequence of one bundled fault
scenario; golden_digests.json pins the sha256 of the report and trace of
every bundled scenario under every profile, plus synthetic networks that
reach paths the bundled scenarios do not: per-receiver key failures on
broadcasts, lossy and jittery links at fifty nodes, administrator failover,
probing and reentry at 120 nodes, unregistered nodes among the receivers
of a lossy 40-node network, signature tags longer than one blake2b
digest, directed links that override the default latency, jitter and
loss, jitter bounds on both sides of a power of two, and a sensor that
crashes after a failover. A ``wire/<scenario>/<profile>`` key per bundled
run pins what went on the air: the payload, tag and sealing key of every
recorded send, which neither the report nor the trace shows. A bundled
scenario that repeats an earlier one apart from name, description and
default profile is skipped, with a line that names it, as
``scripts/loss_sweep.py`` skips it: every profile is run anyway, so its
runs would repeat the earlier scenario's.

The simulator is imported from ``src/`` of the checkout this file sits in,
whatever ``PYTHONPATH`` or an installed ``ansim`` would provide.
"""

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# loss_sweep sits next to this file, which a module loaded by path, rather
# than run, does not have on its path
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from ansim.kernel import FaultKind, FaultSpec  # noqa: E402
from ansim.runner import (  # noqa: E402
    PROFILE_ORDER,
    build_simulation,
    run_scenario,
)
from ansim.scenario import (  # noqa: E402
    builtin_scenario_names,
    load_scenario,
    parse_scenario,
)
from loss_sweep import distinct_scenarios  # noqa: E402

DATA_DIR = ROOT / "tests" / "data"
GOLDEN_SCENARIOS = ("fire-sensor-dropout",)
DIGESTS_FILE = DATA_DIR / "golden_digests.json"


def _power(node: int) -> int:
    return 50 + (37 * node) % 200


def _synthetic(name: str, n_nodes: int, *, profile="auth-encap",
               unregistered=(), loss=0.0, jitter_ms=0, duration_ms=600000,
               faults=(), sig_len=None, overrides=()) -> str:
    security = {"profile": profile}
    if sig_len is not None:
        security["sig_len"] = sig_len
    nodes = [{"id": i, "hardware_id": 9000 + i,
              "processing_power": _power(i),
              "registered": i not in unregistered}
             for i in range(1, n_nodes + 1)]
    return json.dumps({
        "name": name, "seed": 5, "duration_ms": duration_ms, "nodes": nodes,
        "links": {"latency_ms": 10, "jitter_ms": jitter_ms,
                  "loss_probability": loss, "overrides": list(overrides)},
        "security": security,
        "faults": list(faults),
    })


def _failover_faults(n_nodes: int) -> list[dict]:
    """Crash and later restore the initial administrator, and make one
    sensor drop its data packets until it too is restored."""
    admin = max(range(1, n_nodes + 1), key=lambda i: (_power(i), -i))
    sensor = 1 if admin != 1 else 2
    return [
        {"target": admin, "kind": "crash", "at_ms": 60000},
        {"target": sensor, "kind": "drop_next_n", "at_ms": 90000, "n": 3},
        {"target": admin, "kind": "restore", "at_ms": 200000},
        {"target": sensor, "kind": "restore", "at_ms": 250000},
    ]


def _link_overrides(n_nodes: int, admin: int) -> list[dict]:
    """Directed pairs that leave the quiet default link: lossy, jittery
    sensor data into the administrator, fast links out of it, and slow or
    lossy links to and from the management unit."""
    out = []
    for i in range(2, n_nodes + 1, 4):
        if i != admin:
            out.append({"src": i, "dst": admin, "latency_ms": 40,
                        "jitter_ms": 15, "loss_probability": 0.25})
    for i in range(3, n_nodes + 1, 5):
        if i != admin:
            out.append({"src": admin, "dst": i, "latency_ms": 5,
                        "jitter_ms": 3, "loss_probability": 0.0})
    for i in range(1, n_nodes + 1, 6):
        out.append({"src": 0, "dst": i, "latency_ms": 30, "jitter_ms": 10,
                    "loss_probability": 0.1})
    for i in range(5, n_nodes + 1, 7):
        out.append({"src": i, "dst": 0, "latency_ms": 2, "jitter_ms": 0,
                    "loss_probability": 0.15})
    out.append({"src": admin, "dst": 0, "latency_ms": 25, "jitter_ms": 20,
                "loss_probability": 0.05})
    return out


def digest_cases():
    """(key, scenario, profile) for every run whose digest is pinned."""
    for name, cfg in distinct_scenarios():
        for profile in PROFILE_ORDER:
            yield f"{name}/{profile}", cfg, profile
    # node 1 holds no group key, so every broadcast it hears fails for it
    yield ("unregistered-3/auth-encap",
           parse_scenario(_synthetic("unregistered-3", 3, unregistered={1},
                                     duration_ms=120000)), None)
    yield ("lossy-50/auth-encap",
           parse_scenario(_synthetic("lossy-50", 50, loss=0.02,
                                     jitter_ms=5)), None)
    # pruned bootstrap broadcasts at scale, failover, probes and reentry
    yield ("failover-120/plain",
           parse_scenario(_synthetic("failover-120", 120, profile="plain",
                                     duration_ms=360000,
                                     faults=_failover_faults(120))), None)
    # key failures at non-readers interleaved with acting receivers, and
    # handshake retries over lossy links
    yield ("unregistered-40/auth-encap",
           parse_scenario(_synthetic(
               "unregistered-40", 40, unregistered=set(range(7, 41, 7)),
               loss=0.02, jitter_ms=5, duration_ms=300000)), None)
    # tags past 64 bytes take the digest extension path on sign and verify;
    # a disagreement between the two shows as auth failures
    yield ("sig72-7/auth",
           parse_scenario(_synthetic("sig72-7", 7, profile="auth",
                                     sig_len=72)), None)
    # per-pair link overrides on a quiet default: lookups, jitter and loss
    # draws on the overridden pairs only
    yield ("overrides-30/auth-encap",
           parse_scenario(_synthetic(
               "overrides-30", 30,
               overrides=_link_overrides(30, admin=27))), None)
    # a jitter draw of 0..8 needs rejections (9 values in 4 bits) and one
    # of 0..7 none (8 values in 3 bits), interleaved with loss draws
    yield ("jitter-edge-20/auth-encap",
           parse_scenario(_synthetic(
               "jitter-edge-20", 20, loss=0.02, jitter_ms=8,
               overrides=[{"src": 3, "dst": 16, "latency_ms": 10,
                           "jitter_ms": 7, "loss_probability": 0.05}])),
           None)
    # node 5 crashes after node 2 succeeded the administrator, so only a
    # successor that watches every member removes it
    failover = load_scenario("admin-failover")
    yield ("admin-failover-crash-5/plain",
           dataclasses.replace(failover, faults=failover.faults + (
               FaultSpec(target=5, kind=FaultKind.CRASH, at_ms=210000),)),
           None)


def run_digest(cfg, profile) -> str:
    """sha256 of the report JSON as ``ansim run`` prints it, followed by the
    trace as ``ansim run --trace`` writes it."""
    result = run_scenario(cfg, profile=profile, with_trace=True)
    text = (json.dumps(result.report.to_json_dict(), indent=2) + "\n"
            + "".join(line + "\n" for line in result.trace))
    return hashlib.sha256(text.encode()).hexdigest()


def wire_digest(cfg, profile) -> str:
    """sha256 over every recorded send, one line each: its number, kind,
    sender, receiver, payload, send time, wire length, tag, sealing key id
    and whether it was delivered."""
    engine, _, recorder, _ = build_simulation(cfg, profile=profile)
    h = hashlib.sha256()
    record = recorder.record_send

    def hashing(seq, env, delivered):
        tag = "-" if env.tag is None else env.tag.hex()
        h.update(f"{seq}\t{env.kind.value}\t{env.sender}\t{env.receiver}\t"
                 f"{env.payload.hex()}\t{env.sent_at}\t{env.wire_len}\t"
                 f"{tag}\t{env.sealed_key_id or '-'}\t{int(delivered)}\n"
                 .encode())
        record(seq, env, delivered)

    recorder.record_send = hashing
    engine.run_until(cfg.duration_ms)
    return h.hexdigest()


def golden_digests() -> dict[str, str]:
    """The report-and-trace digest of every case, then the wire digest of
    each case that runs a bundled scenario."""
    bundled = set(builtin_scenario_names())
    cases = list(digest_cases())
    digests = {key: run_digest(cfg, profile) for key, cfg, profile in cases}
    digests.update((f"wire/{key}", wire_digest(cfg, profile))
                   for key, cfg, profile in cases
                   if key.partition("/")[0] in bundled)
    return digests


def golden_traces() -> dict[str, str]:
    """The text of each golden trace file, keyed by file name."""
    traces = {}
    for name in GOLDEN_SCENARIOS:
        result = run_scenario(load_scenario(name), with_trace=True)
        traces[f"{name}.trace"] = "\n".join(result.trace) + "\n"
    return traces


def _read(path: pathlib.Path):
    """The text of ``path``, or None when there is no such file."""
    return path.read_text(encoding="utf-8") if path.exists() else None


def compare():
    """Recompute every golden file without writing; return the traces, the
    digests and each trace file and digest key whose content differs from
    the golden files."""
    traces = golden_traces()
    changed = [name for name, text in traces.items()
               if _read(DATA_DIR / name) != text]
    pinned = json.loads(_read(DIGESTS_FILE) or "{}")
    digests = golden_digests()
    changed += [key for key in sorted(pinned.keys() | digests.keys())
                if pinned.get(key) != digests.get(key)]
    return traces, digests, changed


def check() -> int:
    """Print each trace file and digest key whose output differs from the
    pinned one and return 1 if any does."""
    traces, digests, mismatched = compare()
    for key in mismatched:
        print(f"mismatch: {key}")
    print(f"checked {len(traces)} traces and {len(digests)} "
          f"digests: {len(mismatched)} mismatched")
    return 1 if mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the golden files instead of "
                             "rewriting them; exit 1 on any mismatch")
    if parser.parse_args(argv).check:
        return check()
    traces, digests, changed = compare()
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in traces.items():
        (DATA_DIR / name).write_text(text, encoding="utf-8")
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2) + "\n",
                            encoding="utf-8")
    for key in changed:
        print(f"changed: {key}")
    written = traces.keys() | digests.keys()
    print(f"wrote {len(traces)} traces and {len(digests)} digests: "
          f"{len(written - set(changed))} unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
