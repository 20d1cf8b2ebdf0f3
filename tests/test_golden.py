"""Refactor oracle: the quick battery reproduces the checked-in artifacts.

tests/golden/quick/ holds the JSON of `scripts/run_all_experiments.py
--quick` without its volatile `timestamp` key, one file per run, named by
label(). A mismatch is a numerical change: declare it, do not regenerate
the files to make this test pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "quick"


def label(doc: dict) -> str:
    parts = [doc["experiment"], doc["family"], str(doc["master_seed"])]
    if doc["params"].get("ensemble"):
        parts.append(doc["params"]["ensemble"])
    return "-".join(parts)


def canonical(doc: dict) -> str:
    """The artifact text without `timestamp`, as the CLI writes it."""
    doc = dict(doc)
    doc.pop("timestamp")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_quick_battery_matches_golden(tmp_path):
    env = dict(os.environ)
    env.pop("ASCLT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"), str(tmp_path), "--quick"],
        check=True,
        env=env,
        capture_output=True,
    )
    produced = {}
    for path in tmp_path.glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        produced[label(doc)] = canonical(doc)
    golden = {path.stem: path.read_text(encoding="utf-8") for path in GOLDEN.glob("*.json")}
    assert len(golden) == 10
    assert sorted(produced) == sorted(golden)
    for name, text in golden.items():
        assert produced[name] == text, f"{name} differs from tests/golden/quick/{name}.json"
