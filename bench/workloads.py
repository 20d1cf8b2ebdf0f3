"""Workload definitions and per-op output checks for the ascltlab benchmark.

A workload is a fixed list of ops that makes up one round. Every op is a
command-line subcommand run through ``ascltlab.cli.run``, except the
``oracle`` op, which calls ``transform.partial_sums(..., force="naive")``
and ``transform.partial_sums_fast`` directly. Each op has a full size, used
by the measured runs, and a small size, used for warm-up and for the
self-test pass (``--tiny``).

Why each workload exists, and which layers it isolates, is recorded in
NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

# schedules of the single-path workload: one sample path out to n = 2^20
_TRIG_PATH = ",".join(f"{4**k}:{4**k // 2 - 1}" for k in range(5, 11))
_TRIG_PATH_SMALL = "64:31,256:127"


@dataclass(frozen=True)
class OpSpec:
    """One op of a round: its kind (the metric stem) and its argv at full
    and small size, without --seed and --out-dir."""

    kind: str
    full: str
    small: str

    def argv(self, seed: int, tiny: bool, nproc: int) -> list[str]:
        text = (self.small if tiny else self.full).format(nproc=nproc)
        return text.split() + ["--seed", str(seed)]


WORKLOADS: dict[str, tuple[OpSpec, ...]] = {
    # the Monte Carlo replica engine, both thread settings, narrow r (ldp,
    # clt-fluct) and wide r ~ n/2 (char-decay). 8192 replicas keep the
    # expected number of ldp exceedances near 19, so hits > 0 always holds.
    "replica": (
        OpSpec(
            "ldp",
            "ldp --family rademacher --n 4096 --r 32 --a 0.5 --replicas 8192 --threads 1",
            "ldp --family rademacher --n 256 --r 8 --a 0.5 --replicas 512 --threads 1",
        ),
        OpSpec(
            "ldp_par",
            "ldp --family rademacher --n 4096 --r 32 --a 0.5 --replicas 8192 --threads {nproc}",
            "ldp --family rademacher --n 256 --r 8 --a 0.5 --replicas 512 --threads {nproc}",
        ),
        OpSpec(
            "clt_fluct",
            "clt-fluct --family rademacher --n 4096 --r 32 --x 0 --replicas 2048 --threads 1",
            "clt-fluct --family rademacher --n 256 --r 8 --x 0 --replicas 128 --threads 1",
        ),
        OpSpec(
            "char_decay",
            "char-decay --family rademacher --schedule 128:63,512:255,2048:1023"
            " --s 1 --t 0 --replicas 2048 --threads 1",
            "char-decay --family rademacher --schedule 32:15,64:31"
            " --s 1 --t 0 --replicas 128 --threads 1",
        ),
    ),
    # one long fixed sample path: prefix sampling, single rfft, sort/KS,
    # circulant spectra, the full-QR Haar path and artifact writing
    "single-path": (
        OpSpec(
            "asclt",
            f"asclt --family rademacher --weights trig --schedule {_TRIG_PATH}",
            f"asclt --family rademacher --weights trig --schedule {_TRIG_PATH_SMALL}",
        ),
        OpSpec(
            "asclt",
            f"asclt --family normal --weights trig --schedule {_TRIG_PATH}",
            f"asclt --family normal --weights trig --schedule {_TRIG_PATH_SMALL}",
        ),
        OpSpec(
            "asclt_haar",
            "asclt --family rademacher --weights haar --schedule 256:64,512:64,1024:64",
            "asclt --family rademacher --weights haar --schedule 16:4,32:4",
        ),
        OpSpec(
            "bivariate",
            "bivariate --family rademacher --schedule 1048576:524287",
            "bivariate --family rademacher --schedule 256:127",
        ),
        OpSpec(
            "periodogram",
            "periodogram --family rademacher --n 1048576",
            "periodogram --family rademacher --n 256",
        ),
        OpSpec(
            "spectrum",
            "spectrum --family rademacher --ensemble symmetric --n 262145",
            "spectrum --family rademacher --ensemble symmetric --n 257",
        ),
        OpSpec(
            "spectrum",
            "spectrum --family rademacher --ensemble reverse --n 262145",
            "spectrum --family rademacher --ensemble reverse --n 257",
        ),
    ),
    # the compensated reference kernels and the condition checks
    "reference": (
        OpSpec(
            "check_weights",
            "check-weights --weights haar --n 512 --r 512",
            "check-weights --weights haar --n 32 --r 32",
        ),
        OpSpec(
            "check_weights",
            "check-weights --weights trig --n 4096 --r 2047",
            "check-weights --weights trig --n 64 --r 31",
        ),
        OpSpec("oracle", "oracle --n 4096 --r 2047", "oracle --n 64 --r 31"),
        OpSpec(
            "gen_weights",
            "gen-weights --weights haar --n 1024 --r 64",
            "gen-weights --weights haar --n 64 --r 8",
        ),
    ),
}

# the per-kind totals each workload is there to measure; the report prints
# a total for every kind, and the self-test requires these
NAMED_KINDS = {
    "replica": ("ldp", "ldp_par", "char_decay"),
    "single-path": ("asclt", "asclt_haar", "spectrum"),
    "reference": ("check_weights", "oracle"),
}


def op_seed(seed: int, index: int) -> int:
    """The master seed of the index-th op of a run: distinct for every op."""
    return ((seed % 2**32) << 24) | index


def with_threads(argv: list[str], threads: int) -> list[str]:
    """argv with its --threads value replaced."""
    out = list(argv)
    out[out.index("--threads") + 1] = str(threads)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(doc: dict) -> bytes:
    """The artifact JSON without its volatile timestamp key."""
    doc = dict(doc)
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True).encode()


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def check_artifact(argv: list[str], doc: dict, validator) -> list[str]:
    """Problems found in one subcommand's JSON artifact; empty when fine.

    Tolerances are the ones the acceptance gate in tests/test_acceptance.py
    uses for the same statistic.
    """
    problems = [f"schema: {e.message}" for e in validator.iter_errors(doc)]
    if doc.get("experiment") != argv[0]:
        problems.append(f"experiment is {doc.get('experiment')!r}, expected {argv[0]!r}")
    points = doc.get("points") or []
    if any(not math.isfinite(v) for v in _numbers(points)):
        problems.append("non-finite statistic in points")
    for p in points:
        if argv[0] == "ldp" and not (p.get("hits", 0) > 0 and p.get("oracle_hits", 0) > 0):
            problems.append(f"ldp hits {p.get('hits')} / oracle_hits {p.get('oracle_hits')}")
        if argv[0] == "check-weights":
            if "trig_identity_residual" in p:
                # criteria 1 and 2
                worst = max(p["trig_identity_residual"], p["eps_orth_u"], p["eps_orth_v"], p["eps_cross"])
                if not worst <= 1e-9:
                    problems.append(f"trig residual {worst:.3g} > 1e-9")
            elif not p["eps_orth_u"] <= 1e-10:
                # criterion 11
                problems.append(f"haar orthonormality {p['eps_orth_u']:.3g} > 1e-10")
    return problems


def check_oracle(n: int, naive, fast) -> list[str]:
    """Criterion 3: naive and fast partial sums agree to 1e-9 sqrt(n)."""
    dev = max(
        float(abs(naive.s - fast.s).max()),
        float(abs(naive.t - fast.t).max()),
    )
    if not dev <= 1e-9 * math.sqrt(n):
        return [f"naive vs fast max deviation {dev:.3g} > 1e-9 sqrt(n)"]
    return []
