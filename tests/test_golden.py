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


# The benchmark's ops at their full sizes, seed 1: one sample path out to
# n = 2^20, many blocks past the quick battery's sizes, and the replica and
# reference ops, plus one two_point op per drawing path (sample_prefix and
# stream_blocks). The digests are of the JSON without `timestamp` (as
# canonical() writes it) and of the CSV; like the quick goldens, a mismatch
# is a numerical change.
_TRIG_PATH = ",".join(f"{4**k}:{4**k // 2 - 1}" for k in range(5, 11))
SCALE_PIN = {
    "asclt rademacher trig": (
        ["asclt", "--family", "rademacher", "--weights", "trig", "--schedule", _TRIG_PATH],
        "0d31f6cd3656651f673695cb84d0c59e01e9414d641c538decfa51a8ae446259",
        "d984d41998c69259734811631198ceb1df449d8778db1c77235180fdf3183083"),
    "asclt normal trig": (
        ["asclt", "--family", "normal", "--weights", "trig", "--schedule", _TRIG_PATH],
        "888b627b9acfb0ed6318b67202045934807d1eaae899884c99f616af94464409",
        "05004d5cc301f017a109f7e079089c4f63d2c2c8fee2f46e1b7f29e842e485e0"),
    "asclt rademacher haar": (
        ["asclt", "--family", "rademacher", "--weights", "haar",
         "--schedule", "256:64,512:64,1024:64"],
        "e37603bae8783004d5a087c2b9873edeea98c3067e4b51f8e06192859c571dfd",
        "85ec5e0d1f8692c278cd4c9e2d4a29b25e565835198196a5f16f5fa89e30ee7a"),
    "bivariate": (
        ["bivariate", "--family", "rademacher", "--schedule", "1048576:524287"],
        "7264d3f56fe36b4fbf028ffb1861e0cf947bb9f913eb22de4acc441493e04ce2",
        "b4919c6faf5443c913d4f98a0817e54c6bea96a9dba6f0141667dc07791e6127"),
    "periodogram": (
        ["periodogram", "--family", "rademacher", "--n", "1048576"],
        "07c0f3d9e42d54fff2064194122d4d7e16cc73398a11c3dc5e5bc0ac60eaa52d",
        "be6373e5373ee7c914002ddd93ada0d1511ec999a012ab5e9d6c9ec0c77aaf29"),
    "spectrum symmetric": (
        ["spectrum", "--family", "rademacher", "--ensemble", "symmetric", "--n", "262145"],
        "e05edfbb58ae587b9816f9b6427bc873bb3935f292bfecd3be365b7439786bb0",
        "c6859fb07f4c1e6dc4fc56eb33c7a14ae635e14fe0b6b1c7bb10d69b458ced57"),
    "spectrum reverse": (
        ["spectrum", "--family", "rademacher", "--ensemble", "reverse", "--n", "262145"],
        "090e44e883e1bbc707783b95c271a5f6a7344aeb2bd7fd52ca42265589f195b5",
        "455ba1188795b3472504153bf204f52fb6529e3514b352ffcf20260b96489853"),
    # even n: the frequency-n/2 eigenvalue is reported too
    "spectrum reverse even": (
        ["spectrum", "--family", "rademacher", "--ensemble", "reverse", "--n", "1048576"],
        "d441d4f55e34dbfe248c625445be7f4aaae11346ff8c0fb5cbb34c6f2c56c750",
        "9337a50e89658effe82df9980e289160f1ffdb802432cfcfbb9d304a3139c5c7"),
    "asclt two_point trig": (
        ["asclt", "--family", "two_point", "--p", "0.3", "--weights", "trig",
         "--schedule", _TRIG_PATH],
        "dbb97dd0023dd35fd0272f223b0fe982a560eec8180a198b9f49c2036cba8081",
        "29ff15ff50443cc745cd0d94b0c9a304d7677d7948a81dbff01f56d2aec29f3a"),
}
# the thread count changes no byte of an ldp artifact
_LDP = ("ldp --family rademacher --n 4096 --r 32 --a 0.5 --replicas 8192 --threads {}",
        "218a44a194de192b0330e0f2336d923a609b3c80c5f8dd3dac34a96b841e38fe",
        "24da43e256bc2164bddcc298ddd15534cbb7530b3ce224bc352a44e1566e5882")
REPLICA_REFERENCE_PIN = {
    "ldp threads 1": (_LDP[0].format(1).split(), *_LDP[1:]),
    "ldp threads 2": (_LDP[0].format(2).split(), *_LDP[1:]),
    "clt-fluct": (
        "clt-fluct --family rademacher --n 4096 --r 32 --x 0 --replicas 2048 --threads 1".split(),
        "98d855aaf257df755377849837bd01a6dd033f106f9944e64db21fba48c4af98",
        "c39a4fa9908f31ae848e561a8837790954217613597772efdd8e5b2d25e26cce"),
    "clt-fluct two_point": (
        "clt-fluct --family two_point --p 0.3 --n 4096 --r 32 --x 0 --replicas 2048".split(),
        "348dcc245584a089b1c48dfadc410a9c7444e2494c1310b905f0d31e97241fc7",
        "d86112b4e6f9e5d4727eb5d7e4a0ce7fc9869ec28d0a612676cd76b51afc7618"),
    "char-decay": (
        ("char-decay --family rademacher --schedule 128:63,512:255,2048:1023"
         " --s 1 --t 0 --replicas 2048 --threads 1").split(),
        "5eafe0426b44d1b78ee3f05ac45ba22e4415d1e50b1c0384efb757464df20fcc",
        "30a6e900b70aec76f535526867f1500acca0fc990e13ba5ea58ba42278df89c8"),
    # replica sizes off the benchmark's, at threads 1 and 2 (below): sub-blocks
    # of 4096 and 1024 streams at n = 16 and 64, one stream per sub-block at
    # n = 65538 and 131072, and the n = 1 ldp baseline
    **{f"{name} threads {threads}": ((cmd + f" --threads {threads}").split(), *digests)
       for name, (cmd, *digests) in {
           "char-decay small n": (
               "char-decay --family rademacher --schedule 16:7,64:31 --replicas 3001",
               "0b56a003f268af414bc03d759bc30cd801796b6ccacb8735df2abd5c67e14353",
               "1237de744b97d5669935e4ab7070e38ad284584a1087132eed0edf85586041cf"),
           "char-decay large n": (
               "char-decay --family rademacher --schedule 65538:5 --replicas 101",
               "4e48368de48a287699bc6aa7ad08f4d1a1f15b5b9fe43d004f7c951bdcf268c9",
               "085cea6893d09a8eae05265000501a46aeb243f90c5a6d2943bdab058374146e"),
           "clt-fluct small n": (
               "clt-fluct --family rademacher --n 64 --r 4 --replicas 5003",
               "1cbad8ea572d66ea1a2c04897b0c95dc33b8dce82d9f7f563605aa1ee00abac8",
               "c155cc26a67d8b89927de4292ba6e013ba34cbd78390a76b7aad5c7ca2e76a03"),
           "clt-fluct large n": (
               "clt-fluct --family rademacher --n 131072 --r 3 --replicas 101",
               "87189352a3dea7ba0fe83597a6dc1d10725a3194db211b927190a333742d4b9a",
               "4801d5eda51651479aede9d6034410e891a4d910d71959f01c7bde9939bbb9cb"),
           "ldp small n": (
               "ldp --family rademacher --n 16 --r 3 --replicas 70001",
               "79a99e02d85d348b17eb54214f1ebf487bd34fa5583d2ab16bea4573cce781d1",
               "df500ab5a21f4a1efc20445823aa41436d50ccef738936129ce0f59943f5002b"),
       }.items() for threads in (1, 2)},
    "check-weights haar": (
        "check-weights --weights haar --n 512 --r 512".split(),
        "b6b71bb3a29e3e04cddb0c28124a9736622229477eb226fefaa588c60af46f50",
        "026945d2de09014a014145bec32ecf279503463ed09df049da807cd7b8681349"),
    "check-weights trig": (
        "check-weights --weights trig --n 4096 --r 2047".split(),
        "e44389d0c805f8d2530bb4ebcb5ddf4905c6def586f2a961b549074fca58e3e4",
        "d337425048b20ec34f9f0c222f6f33d5713349a2ac451bbe87ba5de284dff0d4"),
    "gen-weights haar": (
        "gen-weights --weights haar --n 1024 --r 64".split(),
        "a9656c256965dbb727e5a220a5d062e8755cc06a5cb209924fe6428dd96e2dec",
        "ea62e67bfd41ecd5a7de5bd69ca86c70514d6a45afcc3b825f06e77e9ab3702a"),
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


@pytest.mark.parametrize("name", list(REPLICA_REFERENCE_PIN))
def test_replica_and_reference_ops_at_full_size_keep_their_bytes(tmp_path, name):
    argv, json_sha256, csv_sha256 = REPLICA_REFERENCE_PIN[name]
    assert scale_digests(argv, tmp_path) == (json_sha256, csv_sha256)
