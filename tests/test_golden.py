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

from ascltlab import cli

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


# The benchmark's single-path ops at their full sizes, seed 1: one sample
# path out to n = 2^20, many blocks past the quick battery's sizes. The
# digests are of the JSON without `timestamp` (as canonical() writes it)
# and of the CSV; like the quick goldens, a mismatch is a numerical change.
_TRIG_PATH = ",".join(f"{4**k}:{4**k // 2 - 1}" for k in range(5, 11))
SCALE_PIN = {
    "asclt rademacher trig": (
        ["asclt", "--family", "rademacher", "--weights", "trig", "--schedule", _TRIG_PATH],
        "b83fc9b64f4709446f447b80518717ba40ae95dcf7433da9915a2becf2c0c84e",
        "e3e98835b690f131a52f5803308ca73258522f7014f107391885d62892833c16"),
    "asclt normal trig": (
        ["asclt", "--family", "normal", "--weights", "trig", "--schedule", _TRIG_PATH],
        "888b627b9acfb0ed6318b67202045934807d1eaae899884c99f616af94464409",
        "05004d5cc301f017a109f7e079089c4f63d2c2c8fee2f46e1b7f29e842e485e0"),
    "asclt rademacher haar": (
        ["asclt", "--family", "rademacher", "--weights", "haar",
         "--schedule", "256:64,512:64,1024:64"],
        "00840c7dd215e880495b1334a2f78c0ae02d8d6b47643dc97bbfe9df22f07e16",
        "ce40a5c4cc69ad096519e086aea172b7a6433efa1fdee6b2b59bdacc30f5156c"),
    "bivariate": (
        ["bivariate", "--family", "rademacher", "--schedule", "1048576:524287"],
        "3146e5b10eb7ae21c5f71a4584b6afb6e0283ac6d699f3f6e31e715bdf8bea9b",
        "0c074c47a7f77bfb8b566db9a4f533118b33551e9734d814137ba516043da2ef"),
    "periodogram": (
        ["periodogram", "--family", "rademacher", "--n", "1048576"],
        "ebb0c0ddb480079e08dd67ad0765c62f6115433d5331063c4dfeab0de176d9d7",
        "646d3cad17587399d085eb487b1d75d34d3411096f74587c80f4f8710c63c8c7"),
    "spectrum symmetric": (
        ["spectrum", "--family", "rademacher", "--ensemble", "symmetric", "--n", "262145"],
        "374628c5ce91d10f330595493f75aa6031e03ca3ba952c566f1c925bf14b1567",
        "3fc3f706dc00b16e26711626bec081184aab242804eecd8d3fe2217b0ec56385"),
    "spectrum reverse": (
        ["spectrum", "--family", "rademacher", "--ensemble", "reverse", "--n", "262145"],
        "8391d9e263614f9b725c998830c097c1e81624530cb6a3283b3115985627a74b",
        "73c098b64c3e1bac5166047e7ab93ba9d3360684381034f46501bead5d7d5f0d"),
}


def scale_digests(argv, out_dir) -> tuple[str, str]:
    """sha256 of the JSON without `timestamp` and of the CSV of one
    in-process run of argv at seed 1."""
    assert cli.run(argv + ["--seed", "1", "--out-dir", str(out_dir)]) == 0
    (path,) = Path(out_dir).glob("*.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return (hashlib.sha256(canonical(doc).encode()).hexdigest(),
            hashlib.sha256(path.with_suffix(".csv").read_bytes()).hexdigest())


@pytest.mark.parametrize("name", list(SCALE_PIN))
def test_single_path_ops_at_full_size_keep_their_bytes(tmp_path, name):
    argv, json_sha256, csv_sha256 = SCALE_PIN[name]
    assert scale_digests(argv, tmp_path) == (json_sha256, csv_sha256)
