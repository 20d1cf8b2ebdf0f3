"""Experiment harnesses: almost-sure trajectories, characteristic-function
variance decay, CLT fluctuations, and LDP rate estimates.

Replica contract: replica i draws X_1..X_n from the stream
spec.stream_id + i.  Replicas run in chunks of 512, one chunk per task
when threads > 1, and each chunk is sampled in sub-blocks of about
512 KiB of inputs (max(1, 512 KiB // (8 n)) replicas), so that a block
stays in cache.  Sub-block bounds depend only on n, never on the thread
count.  Each harness maps a sub-block to the one statistic it reads (the
mean of S, S alone, or S and T) and never keeps the inputs; per-replica
statistics are concatenated in ascending replica order, so the output is
bit-identical for any thread count.

Growth conditions (the r^3 (log n)^2 / n family) are reported as
diagnostics, never enforced: no desk-scale (n, r) makes them small, yet
the empirical limit laws already hold; the diagnostics keep that gap
visible.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import empirical
from .empirical import EmpiricalMeasure, ks_to, normal_cdf
from .sources import SourceSpec, sample_prefix, sample_rows
from .transform import (
    batch_kernel,
    mean_partial_sum,
    mean_weights,
    partial_sums_batch,
    partial_sums_fast,
)
from .weights import TRIG, HAAR, sample_haar_orthogonal

_BIVARIATE_GRID = np.arange(-2.0, 2.0 + 1e-12, 0.5)  # 9 points per axis
_REPLICA_CHUNK = 512
_SUB_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing (n, r) pairs with growth diagnostics."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pts = tuple((int(n), int(r)) for n, r in self.points)
        if not pts:
            raise ValueError("schedule must be nonempty")
        for n, r in pts:
            if not (1 <= r <= n):
                raise ValueError(f"need 1 <= r <= n, got (n={n}, r={r})")
        ns = [n for n, _ in pts]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("schedule must be strictly increasing in n")
        object.__setattr__(self, "points", pts)

    def require_trig(self) -> None:
        for n, r in self.points:
            if r > (n - 1) // 2:
                raise ValueError(
                    f"trig weights need r <= floor((n-1)/2); violated at (n={n}, r={r})"
                )

    def growth_diagnostics(self) -> list[dict]:
        out = []
        for n, r in self.points:
            out.append(
                {
                    "n": n,
                    "r": r,
                    "r3_log2_over_n": r**3 * math.log(n) ** 2 / n,
                    "r4_over_n": r**4 / n,
                    "log_n_over_r": math.log(n) / r,
                }
            )
        return out

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse "1024:511,4096:2047" into a schedule."""
        pts = []
        for part in text.split(","):
            n, _, r = part.strip().partition(":")
            if not r:
                raise ValueError(f"schedule entry {part!r} is not n:r")
            pts.append((int(n), int(r)))
        return cls(points=tuple(pts))


@dataclass
class ExperimentResult:
    """Structured record of one harness run, ready for persistence."""

    experiment: str
    master_seed: int
    stream_id: int
    family: str
    params: dict
    points: list[dict]
    replicas: int = 1
    wall_clock_s: float = 0.0

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replica count must be >= 1")

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "stream_id": self.stream_id,
            "family": self.family,
            "params": self.params,
            "points": self.points,
            "replicas": self.replicas,
            "wall_clock_s": self.wall_clock_s,
        }


def validate_growth(schedule: Schedule) -> list[dict]:
    """Per-entry growth functionals plus whether each decreases; advisory."""
    diags = schedule.growth_diagnostics()
    for key in ("r3_log2_over_n", "r4_over_n", "log_n_over_r"):
        vals = [d[key] for d in diags]
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        for d in diags:
            d[f"{key}_decreasing"] = decreasing
    return diags


def _trajectory_sums(spec: SourceSpec, n: int, r: int, kind: str) -> tuple[np.ndarray, str]:
    """(S_{n,1..r}, input prefix digest); trig via DFT, Haar via matvec."""
    x = sample_prefix(spec, n)
    digest = hashlib.sha256(np.ascontiguousarray(x)).hexdigest()
    if kind == TRIG:
        return partial_sums_fast(n, r, x).s, digest
    if kind == HAAR:
        # the Haar matrix is part of omega too: derive it from a companion
        # stream so it stays fixed for fixed (seed, stream)
        w = sample_haar_orthogonal(n, spec.with_stream(spec.stream_id ^ (1 << 32)))
        return w.u[:r] @ x, digest
    raise ValueError(f"unsupported weight kind {kind!r}")


def asclt_trajectory(
    spec: SourceSpec, schedule: Schedule, kind: str = TRIG
) -> ExperimentResult:
    """KS(mu_n, Phi) along one fixed sample path.

    Prefix stability of the stream guarantees that every schedule point
    reuses the same omega: the X_1..X_n consumed at a point are literally
    the first n values of the one fixed stream.
    """
    if kind == TRIG:
        schedule.require_trig()
    t0 = time.perf_counter()
    points = []
    prev_n = 0
    prev_digest = None
    for n, r in schedule.points:
        s, digest = _trajectory_sums(spec, n, r, kind)
        if prev_digest is not None:
            # one omega across the schedule: the first prev_n inputs of
            # this point must hash identically to the previous point's
            check = hashlib.sha256(
                np.ascontiguousarray(sample_prefix(spec, n)[:prev_n])
            ).hexdigest()
            if check != prev_digest:
                raise AssertionError("stream prefix changed between schedule points")
        prev_n, prev_digest = n, digest
        ks = ks_to(EmpiricalMeasure.from_samples(s), normal_cdf)
        points.append({"n": n, "r": r, "ks_to_normal": ks, "prefix_sha256": digest})
    return ExperimentResult(
        experiment="asclt",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id,
        family=spec.family,
        params={"kind": kind},
        points=points,
        wall_clock_s=time.perf_counter() - t0,
    )


def asclt_bivariate(spec: SourceSpec, schedule: Schedule) -> ExperimentResult:
    """Max deviation of the joint ECDF from Phi(x)Phi(y) on the fixed grid."""
    schedule.require_trig()
    t0 = time.perf_counter()
    points = []
    gx = _BIVARIATE_GRID
    target = np.outer(normal_cdf(gx), normal_cdf(gx))
    for n, r in schedule.points:
        ps = partial_sums_fast(n, r, sample_prefix(spec, n))
        ss = np.sort(ps.s)
        order = np.argsort(ps.s)
        # joint ECDF on the grid via cumulative counts over s-sorted t's
        t_sorted_by_s = ps.t[order]
        dev = 0.0
        joint = np.empty((gx.size, gx.size))
        for i, x in enumerate(gx):
            m = int(np.searchsorted(ss, x, side="right"))
            tt = np.sort(t_sorted_by_s[:m])
            joint[i] = np.searchsorted(tt, gx, side="right") / r
        dev = float(np.max(np.abs(joint - target)))
        points.append({"n": n, "r": r, "max_grid_deviation": dev})
    return ExperimentResult(
        experiment="bivariate",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id,
        family=spec.family,
        params={"grid": [float(v) for v in gx]},
        points=points,
        wall_clock_s=time.perf_counter() - t0,
    )


def _replica_map(
    stat, spec: SourceSpec, n: int, n_replicas: int, threads: int
) -> np.ndarray:
    """stat of each replica's inputs, in ascending replica order.

    stat maps a (replicas x n) block of inputs to one value per replica.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    rows = max(1, _SUB_BLOCK_BYTES // (8 * n))

    def chunk(lo: int) -> list:
        hi = min(lo + _REPLICA_CHUNK, n_replicas)
        return [stat(sample_rows(spec, b, min(b + rows, hi), 1, n)) for b in range(lo, hi, rows)]

    starts = range(0, n_replicas, _REPLICA_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk, starts))
    else:
        parts = [chunk(lo) for lo in starts]
    return np.concatenate([block for part in parts for block in part])


def char_variance_decay(
    spec: SourceSpec,
    schedule: Schedule,
    s: float,
    t: float,
    replicas: int,
    threads: int = 0,
) -> ExperimentResult:
    """Monte Carlo estimate of E|Phi_n(s,t,.) - e^{-(s^2+t^2)/2}|^2 per point."""
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    schedule.require_trig()
    t0 = time.perf_counter()
    target = math.exp(-(s * s + t * t) / 2.0)
    points = []
    for n, r in schedule.points:
        def block_stat(x, n=n, r=r):
            ss, tt = partial_sums_batch(n, r, x)
            phi = np.mean(np.exp(1j * (s * ss + t * tt)), axis=1)
            return np.abs(phi - target) ** 2

        sq = _replica_map(block_stat, spec, n, replicas, threads)
        est = float(np.mean(sq))
        points.append(
            {
                "n": n,
                "r": r,
                "estimate": est,
                "ratio_to_inverse_r": est * r,
                "std_error": float(np.std(sq, ddof=1) / math.sqrt(replicas)),
            }
        )
    return ExperimentResult(
        experiment="char-decay",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id,
        family=spec.family,
        params={"s": s, "t": t},
        points=points,
        replicas=replicas,
        wall_clock_s=time.perf_counter() - t0,
    )


def clt_fluctuation(
    spec: SourceSpec,
    n: int,
    r: int,
    x: float,
    replicas: int,
    threads: int = 0,
) -> ExperimentResult:
    """Fluctuation statistic W = (1/sqrt r) sum_k (1_{S_k <= x} - Phi(x)).

    Reports the W-sample mean and variance (limit value Phi(x)(1-Phi(x)))
    and the KS distance of the standardized sample to Phi.  The growth
    diagnostic r^3 (log n)^2 / n is reported, not enforced.
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    if not (1 <= r <= (n - 1) // 2):
        raise ValueError("trig weights require r <= floor((n-1)/2)")
    t0 = time.perf_counter()
    px = normal_cdf(x)
    kernel = batch_kernel(n, r)

    def block_stat(xs):
        ss = kernel(xs)
        return np.sum(ss <= x, axis=1) / math.sqrt(r) - math.sqrt(r) * px

    w = _replica_map(block_stat, spec, n, replicas, threads)
    mean = float(np.mean(w))
    var = float(np.var(w, ddof=1))
    sd = math.sqrt(var) if var > 0 else 1.0
    ks = ks_to(EmpiricalMeasure.from_samples((w - mean) / sd), normal_cdf)
    point = {
        "n": n,
        "r": r,
        "x": x,
        "w_mean": mean,
        "w_variance": var,
        "limit_variance": px * (1.0 - px),
        "ks_standardized_to_normal": ks,
        "r3_log2_over_n": r**3 * math.log(n) ** 2 / n,
    }
    return ExperimentResult(
        experiment="clt-fluct",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id,
        family=spec.family,
        params={"x": x},
        points=[point],
        replicas=replicas,
        wall_clock_s=time.perf_counter() - t0,
    )


def _half_line_rate(
    spec: SourceSpec, c: np.ndarray, r: int, a: float, replicas: int, threads: int
) -> dict:
    """Replicas whose mean of S_{n,1..r} (one product with c) is >= a."""
    def block_stat(xs):
        return mean_partial_sum(xs, c) >= a

    hits = int(np.sum(_replica_map(block_stat, spec, c.size, replicas, threads)))
    if hits == 0:
        # no observed exceedances: report the 1/replicas bound, flag rate
        p_hat = 1.0 / replicas
        return {"hits": 0, "p_hat": p_hat, "rate": -math.log(p_hat) / r, "rate_is_lower_bound": True}
    p_hat = hits / replicas
    return {"hits": hits, "p_hat": p_hat, "rate": -math.log(p_hat) / r, "rate_is_lower_bound": False}


def ldp_rate(
    spec: SourceSpec,
    n: int,
    r: int,
    a: float,
    replicas: int,
    threads: int = 0,
) -> ExperimentResult:
    """Estimated decay rate of Pr(mean of mu_n >= a), with Gaussian baseline.

    The analytic target a^2/2 is the infimum of the Gaussian relative
    entropy over {nu : mean >= a}, attained at N(a, 1); at finite r the
    absolute rate carries large corrections, so the meaningful comparison
    is against the exact-normal-input baseline at identical (n, r,
    replicas).  Baseline streams are offset by `replicas` to stay
    independent of the main run.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    if not (1 <= r <= (n - 1) // 2):
        raise ValueError("trig weights require r <= floor((n-1)/2)")
    t0 = time.perf_counter()
    c = mean_weights(n, r)
    main = _half_line_rate(spec, c, r, a, replicas, threads)
    oracle_spec = SourceSpec(
        family="normal",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id + replicas,
    )
    oracle = _half_line_rate(oracle_spec, c, r, a, replicas, threads)
    target = empirical.rate_function_gaussian(a, 1.0).value
    point = {
        "n": n,
        "r": r,
        "a": a,
        "target_rate": target,
        "rate": main["rate"],
        "p_hat": main["p_hat"],
        "hits": main["hits"],
        "rate_is_lower_bound": main["rate_is_lower_bound"],
        "oracle_rate": oracle["rate"],
        "oracle_p_hat": oracle["p_hat"],
        "oracle_hits": oracle["hits"],
        "oracle_rate_is_lower_bound": oracle["rate_is_lower_bound"],
        "rate_ratio_to_oracle": main["rate"] / oracle["rate"],
    }
    return ExperimentResult(
        experiment="ldp",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id,
        family=spec.family,
        params={"a": a},
        points=[point],
        replicas=replicas,
        wall_clock_s=time.perf_counter() - t0,
    )
