"""Refactor oracle: the quick battery reproduces the checked-in artifacts.

tests/golden/quick/ holds the JSON of `scripts/run_all_experiments.py
--quick` without its volatile `timestamp` key, one file per run, named by
label(). tests/golden/quick_manifest.json holds the sha256 of each run's
CSV, by the same label, and the summary lines each command prints, without
the `wrote ...` line. A mismatch is a numerical change: declare it, do not
regenerate the files to make this test pass.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "quick"
MANIFEST = ROOT / "tests" / "golden" / "quick_manifest.json"


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


def run_battery(out_dir) -> subprocess.CompletedProcess:
    """Run the quick battery into out_dir; its stdout and stderr are text."""
    env = dict(os.environ)
    env.pop("ASCLT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"), str(out_dir), "--quick"],
        check=True,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc


def battery_manifest(out_dir, stdout: str) -> dict:
    """CSV sha256 by label, and summary lines by the command that printed them."""
    csv_sha256 = {}
    for path in Path(out_dir).glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        csv_sha256[label(doc)] = hashlib.sha256(path.with_suffix(".csv").read_bytes()).hexdigest()
    summaries: dict[str, list[str]] = {}
    lines: list[str] = []
    for line in stdout.splitlines():
        if line.startswith("== "):
            lines = summaries.setdefault(line[3:], [])
        elif not line.startswith(("wrote ", "all experiments done")):
            lines.append(line)
    return {"csv_sha256": csv_sha256, "stdout": summaries}


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """(out_dir, process) of one quick battery run, shared by this module."""
    out_dir = tmp_path_factory.mktemp("quick")
    return out_dir, run_battery(out_dir)


def test_quick_battery_matches_golden(battery):
    out_dir, _ = battery
    produced = {}
    for path in out_dir.glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        produced[label(doc)] = canonical(doc)
    golden = {path.stem: path.read_text(encoding="utf-8") for path in GOLDEN.glob("*.json")}
    assert len(golden) == 10
    assert sorted(produced) == sorted(golden)
    for name, text in golden.items():
        assert produced[name] == text, f"{name} differs from tests/golden/quick/{name}.json"


def test_quick_battery_csv_and_stdout_match_manifest(battery):
    out_dir, proc = battery
    produced = battery_manifest(out_dir, proc.stdout)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(expected["csv_sha256"]) == 10 and len(expected["stdout"]) == 10
    assert produced["stdout"] == expected["stdout"]
    assert produced["csv_sha256"] == expected["csv_sha256"]
    # one wall time per subcommand on stderr, in battery order
    timed = re.findall(r"^\d+\.\d\d s  (ascltlab .+)$", proc.stderr, flags=re.M)
    assert timed == [line[3:] for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert len(timed) == 10
