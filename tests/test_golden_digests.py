"""Byte identity of every pinned run against tests/data/golden_digests.json.

The runs and the digest are defined once, in scripts/regen_golden.py, which
also rewrites the file after an intentional behaviour change.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_regen():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", ROOT / "scripts" / "regen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_run_matches_its_digest():
    regen = load_regen()
    pinned = json.loads(regen.DIGESTS_FILE.read_text(encoding="utf-8"))
    assert regen.golden_digests() == pinned
