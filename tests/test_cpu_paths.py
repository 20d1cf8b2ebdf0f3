"""The same artifact bytes on other CPU code paths.

numpy and OpenBLAS pick their kernels from the CPU at run time, and two
variables make a child process take another CPU's paths without touching
the machine: NPY_DISABLE_CPU_FEATURES (numpy's AVX2 and baseline paths
on an AVX-512 machine) and OPENBLAS_CORETYPE (OpenBLAS's Haswell
kernels).  One child per setting runs the same small ops through
cli.run, one per subcommand and each family where the family is read,
and two whose KS spans many atoms, and reports the sha256 of each op's
JSON (without timestamp) and CSV.
An op whose bytes differ from the default child's must be one of
BACKEND_BOUND, which says why its bytes follow the backend.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# two_point runs with p = 0.25
_FAMILIES = {"rademacher": [], "normal": [], "uniform": [], "exponential": [],
             "two_point": ["--p", "0.25"]}
_FAMILY_READERS = {
    "asclt": ["asclt", "--schedule", "1024:511,4096:2047"],
    "asclt haar": ["asclt", "--weights", "haar", "--schedule", "64:64"],
    "bivariate": ["bivariate", "--schedule", "256:127"],
    "char-decay": ["char-decay", "--schedule", "64:31", "--replicas", "100"],
    "clt-fluct": ["clt-fluct", "--n", "64", "--r", "4", "--replicas", "5003"],
    "ldp": ["ldp", "--n", "64", "--r", "4", "--replicas", "200"],
    "periodogram": ["periodogram", "--n", "1024"],
    "spectrum symmetric": ["spectrum", "--n", "1025"],
    "spectrum reverse": ["spectrum", "--ensemble", "reverse", "--n", "1025"],
}
# op name -> argv
OPS = {
    **{f"{name} {family}": [*argv, "--family", family, *p]
       for name, argv in _FAMILY_READERS.items() for family, p in _FAMILIES.items()},
    # trig weights draw nothing, and the Haar rows are normal draws in any family
    "check-weights trig": ["check-weights", "--n", "64", "--r", "31"],
    "gen-weights trig": ["gen-weights", "--n", "16", "--r", "7"],
    "check-weights haar": ["check-weights", "--weights", "haar", "--n", "128", "--r", "128"],
    "gen-weights haar": ["gen-weights", "--weights", "haar", "--n", "16", "--r", "8"],
    # KS over 512 spans of 64 atoms, most of them skipped: on every path F
    # must give a span's first atom the same bits alone and in its span
    "asclt normal 512 spans": ["asclt", "--family", "normal", "--schedule", "65536:32767"],
    "periodogram rademacher 512 spans": ["periodogram", "--n", "65536"],
}

_HAAR = "the Haar rows come from LAPACK's QR, whose bits follow the BLAS kernels"
_TIES = ("clt-fluct counts S_k <= x from the replica GEMM; on a lattice family some"
         " S_k equal x in exact arithmetic, and each kernel set rounds them its own way")
_LOG1P = ("the exponential draws take np.log1p (sources._transform), whose bits differ"
          " between numpy's AVX-512, AVX2 and baseline paths")
BACKEND_BOUND = {
    **{f"asclt haar {family}": _HAAR for family in _FAMILIES},
    "check-weights haar": _HAAR,
    "gen-weights haar": _HAAR,
    "clt-fluct rademacher": _TIES,
    "clt-fluct two_point": _TIES,
    **{f"{name} exponential": _LOG1P
       for name in ("asclt", "char-decay", "periodogram", "spectrum symmetric",
                    "spectrum reverse")},
}

SETTINGS = {
    "default": {},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy AVX2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "numpy baseline": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}

# reads {"ops": {name: argv}, "out": dir} on stdin, writes {name: sha256}
# on stdout; the summary lines of cli.run are dropped
_CHILD = r"""
import contextlib, hashlib, io, json, os, sys
from ascltlab import cli
job = json.load(sys.stdin)
digests = {}
for i, (name, argv) in enumerate(job["ops"].items()):
    out = os.path.join(job["out"], str(i))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv + ["--out-dir", out])
    if code != 0:
        sys.exit(f"{name} exited {code}")
    (stem,) = [f[:-5] for f in os.listdir(out) if f.endswith(".json")]
    with open(os.path.join(out, stem + ".json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timestamp")
    with open(os.path.join(out, stem + ".csv"), "rb") as fh:
        csv = fh.read()
    digests[name] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode() + csv).hexdigest()
json.dump(digests, sys.stdout)
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the settings name x86-64 code paths")
def test_artifact_bytes_across_cpu_code_paths(tmp_path):
    base = {k: v for k, v in os.environ.items()
            if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       base.get("PYTHONPATH")]))
    # one child per setting, all running at once
    children = {
        name: subprocess.Popen([sys.executable, "-c", _CHILD], env={**base, **extra},
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        for name, extra in SETTINGS.items()
    }
    digests = {}
    try:
        for i, (name, child) in enumerate(children.items()):
            job = json.dumps({"ops": OPS, "out": str(tmp_path / str(i))})
            out, err = child.communicate(job, timeout=120)
            assert child.returncode == 0, (name, err)
            digests[name] = json.loads(out)
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    for name in SETTINGS:
        moved = {op for op in OPS if digests[name][op] != digests["default"][op]}
        assert moved <= BACKEND_BOUND.keys(), (name, sorted(moved - BACKEND_BOUND.keys()))
