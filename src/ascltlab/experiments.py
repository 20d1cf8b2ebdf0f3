"""Experiment harnesses: almost-sure trajectories, characteristic-function
variance decay, CLT fluctuations, and LDP rate estimates.

Replica contract: replica i draws X_1..X_n from the stream
spec.stream_id + i.  Replicas are drawn in sub-blocks of about BLOCK inputs
(max(1, BLOCK // n) replicas), so that a block stays in cache, and each
worker draws one run of whole sub-blocks with one sources.stream_blocks
call.  Rademacher ldp reads its replicas packed, as sign bytes, in
sub-blocks of max(1, 8 BLOCK // n) replicas (see _half_line_rate); every
other run reads float inputs, one-based as sources draws them (X_j in
column j, column 0 the free slot of the DFT's wrap term).  Sub-block
bounds depend only on n and that choice, never on the thread count, and
the whole stream range is checked before any draw.  Each harness maps a
sub-block to the one statistic it reads (the mean of S, S alone, or S
and T); that small per-replica result is copied, so it may be a view of
the block.  Per-replica statistics are concatenated in ascending replica
order, so the output is bit-identical for any thread count.  Every
harness checks the values it counts finite once (ascltlab.finite, or
ks_to at the ends of its sorted copy).

The growth condition r^3 (log n)^2 / n is never enforced: no desk-scale
(n, r) makes it small, yet the empirical limit laws already hold.  The
clt-fluct point reports its value, which keeps that gap visible.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import BLOCK, ConfigError, empirical, finite
from .empirical import ks_to, normal_cdf
from .sources import SourceSpec, require_streams, sample_path, stream_blocks
from .transform import (
    batch_kernel,
    mean_byte_table,
    mean_from_sign_bytes,
    mean_partial_sum,
    mean_weights,
    partial_sums_batch,
)
from .weights import HAAR, TRIG, haar_rows, require_trig

_BIVARIATE_GRID = np.arange(-2.0, 2.0 + 1e-12, 0.5)  # 9 points per axis
# Rademacher ldp reads its means through a byte table of 256 B per index
# while the table fits this cap, else from the float signs.  Measured on a
# 2-core Xeon VM (r = 32, 2^25 draws a run, table build included): the table
# path took 0.34 of the float path's time at n = 4096, 0.59 at 16384 and
# 0.9 at 32768 (an 8 MiB table), but 1.15 at 65536 and 2.3 at 131072.
_BYTE_TABLE_BYTES = 8 << 20


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing (n, r) pairs."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pts = tuple((int(n), int(r)) for n, r in self.points)
        if not pts:
            raise ConfigError("schedule must be nonempty")
        for n, r in pts:
            if not (1 <= r <= n):
                raise ConfigError(f"need 1 <= r <= n, got (n={n}, r={r})")
        ns = [n for n, _ in pts]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("schedule must be strictly increasing in n")
        object.__setattr__(self, "points", pts)

    def require_trig(self) -> None:
        for n, r in self.points:
            require_trig(n, r)

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse "1024:511,4096:2047" into a schedule."""
        pts = []
        for part in text.split(","):
            n, _, r = part.strip().partition(":")
            try:
                pts.append((int(n), int(r)))
            except ValueError as exc:
                raise ConfigError(f"schedule entry {part!r} is not n:r") from exc
        return cls(points=tuple(pts))


@dataclass
class ExperimentResult:
    """What a run computed: its params and points, and its replica count.

    The CLI lays these out in the artifact next to the run's identity
    (experiment, seed, stream, family, p), which it knows from its settings.
    """

    params: dict
    points: list[dict]
    replicas: int = 1


def _trajectory_sums(spec: SourceSpec, path: np.ndarray, n: int, r: int, kind: str) -> np.ndarray:
    """S_{n,1..r} of X_1..X_n of the one-based path; trig via DFT, Haar via
    matvec."""
    if kind == TRIG:
        return partial_sums_batch(n, r, path[: n + 1])[0]
    if kind == HAAR:
        # the Haar rows are part of omega too: derive them from a companion
        # stream so it stays fixed for fixed (seed, stream)
        return haar_rows(n, spec.with_stream(spec.stream_id ^ (1 << 32)), r) @ path[1 : n + 1]
    raise ConfigError(f"unsupported weight kind {kind!r}")


def asclt_trajectory(
    spec: SourceSpec, schedule: Schedule, kind: str = TRIG
) -> ExperimentResult:
    """KS(mu_n, Phi) along one fixed sample path.

    The path is sampled once, one-based, to the largest n; every schedule
    point reads a prefix of it in place, so all points share one omega by
    construction.  By prefix stability, the X_1..X_n of a point are also
    exactly what sample_prefix(spec, n) returns.  The path is hashed once:
    each point feeds the new stretch of its prefix to one running sha256.
    """
    if kind == TRIG:
        schedule.require_trig()
    path = sample_path(spec, schedule.points[-1][0])
    points = []
    h, done = hashlib.sha256(), 0
    for n, r in schedule.points:
        s = _trajectory_sums(spec, path, n, r, kind)
        ks = ks_to(s, normal_cdf)
        h.update(path[done + 1 : n + 1])
        done = n
        points.append({"n": n, "r": r, "ks_to_normal": ks, "prefix_sha256": h.copy().hexdigest()})
    return ExperimentResult({"kind": kind}, points)


def _grid_below(v: np.ndarray, buf: np.ndarray, hit: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = the number of grid points below v[i], which is
    np.searchsorted(_BIVARIATE_GRID, v, side="left"): one comparison per
    grid point, of v checked finite and copied into the contiguous buf,
    summed in the uint8 array out; hit is bool scratch, read as its 0/1
    bytes."""
    np.copyto(buf, finite(v, "partial sums"))
    out.fill(0)
    for x in _BIVARIATE_GRID:
        np.greater(buf, x, out=hit)
        out += hit.view(np.uint8)
    return out


def asclt_bivariate(spec: SourceSpec, schedule: Schedule) -> ExperimentResult:
    """Max deviation of the joint ECDF from Phi(x)Phi(y) on the fixed grid."""
    schedule.require_trig()
    path = sample_path(spec, schedule.points[-1][0])
    points = []
    gx = _BIVARIATE_GRID
    target = np.outer(normal_cdf(gx), normal_cdf(gx))
    # joint ECDF on the grid: count (s, t) per grid cell, BLOCK pairs at a
    # time, the last row and column beyond the grid; s <= gx[i] iff its
    # cell is at most i.  A cell index g i + j stays below g^2 = 100, a byte
    g = gx.size + 1
    m = min(BLOCK, max(r for _, r in schedule.points))
    buf, hit = np.empty(m), np.empty(m, dtype=bool)
    cs, ct = np.empty(m, dtype=np.uint8), np.empty(m, dtype=np.uint8)
    for n, r in schedule.points:
        s, t = partial_sums_batch(n, r, path[: n + 1])
        counts = np.zeros(g * g, dtype=np.intp)
        for lo in range(0, r, BLOCK):
            k = min(BLOCK, r - lo)
            cells = _grid_below(s[lo : lo + k], buf[:k], hit[:k], cs[:k])
            cells *= g
            cells += _grid_below(t[lo : lo + k], buf[:k], hit[:k], ct[:k])
            counts += np.bincount(cells, minlength=g * g)
        joint = counts.reshape(g, g).cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / r
        dev = float(np.max(np.abs(joint - target)))
        points.append({"n": n, "r": r, "max_grid_deviation": dev})
    return ExperimentResult({"grid": [float(v) for v in gx]}, points)


def _replica_map(stat, spec: SourceSpec, n: int, n_replicas: int, threads: int,
                 packed: bool = False) -> np.ndarray:
    """stat of each replica's inputs, in ascending replica order.

    stat maps a (replicas x n) block of inputs to one value per replica, or
    with packed a block of rademacher sign bytes (see sources.stream_blocks)
    eight times as many replicas deep; each result is copied, since the
    block does not outlive the next one.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    require_streams(spec, n_replicas)
    rows = max(1, (8 * BLOCK if packed else BLOCK) // n)
    blocks = partial(stream_blocks, packed=True) if packed else stream_blocks
    # one run of whole sub-blocks per worker: threads past the cores only cost memory
    workers = max(1, min(threads, os.cpu_count() or 1))
    step = rows * -(-n_replicas // (rows * workers))

    def run(lo: int) -> list:
        hi = min(lo + step, n_replicas)
        return [np.array(stat(x)) for x in blocks(spec, n, lo, hi, rows)]

    runs = range(0, n_replicas, step)
    if len(runs) == 1:
        return np.concatenate(run(0))
    with ThreadPoolExecutor(max_workers=len(runs)) as pool:
        parts = list(pool.map(run, runs))
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
        raise ConfigError("need at least 100 replicas")
    schedule.require_trig()
    target = math.exp(-(s * s + t * t) / 2.0)
    points = []
    for n, r in schedule.points:
        def block_stat(x, n=n, r=r):
            ss, tt = partial_sums_batch(n, r, x)
            phi = np.mean(np.exp(1j * (s * ss + t * tt)), axis=1)
            finite(phi, "characteristic function values")
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
    return ExperimentResult({"s": s, "t": t}, points, replicas)


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
        raise ConfigError("need at least 100 replicas")
    require_trig(n, r)
    px = normal_cdf(x)
    kernel = batch_kernel(n, r)

    def block_stat(xs):
        ss = finite(kernel(xs), "partial sums")
        return np.sum(ss <= x, axis=1) / math.sqrt(r) - math.sqrt(r) * px

    w = _replica_map(block_stat, spec, n, replicas, threads)
    mean = float(np.mean(w))
    var = float(np.var(w, ddof=1))
    sd = math.sqrt(var) if var > 0 else 1.0
    ks = ks_to((w - mean) / sd, normal_cdf)
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
    return ExperimentResult({"x": x}, [point], replicas)


def _half_line_rate(
    spec: SourceSpec, c: np.ndarray, r: int, a: float, replicas: int, threads: int
) -> dict:
    """Replicas whose mean of S_{n,1..r} (one product with c) is >= a.

    Rademacher means are read from the sign bytes through the byte table
    of c while it fits _BYTE_TABLE_BYTES (checked before it is built), and
    from the float signs otherwise, as every other family's are.
    """
    if spec.family == "rademacher" and 256 * 64 * -(-c.size // 64) <= _BYTE_TABLE_BYTES:
        table = mean_byte_table(c)
        means = _replica_map(lambda b: mean_from_sign_bytes(b, table), spec, c.size, replicas,
                             threads, packed=True)
    else:
        means = _replica_map(lambda xs: mean_partial_sum(xs[:, 1:], c), spec, c.size, replicas,
                             threads)
    hits = int(np.sum(finite(means, "replica means") >= a))
    # with no observed exceedances, report the 1/replicas bound and flag the
    # rate; + 0.0 writes the rate at p_hat = 1 as 0.0, not -0.0
    p_hat = max(hits, 1) / replicas
    return {"hits": hits, "p_hat": p_hat, "rate": -math.log(p_hat) / r + 0.0,
            "rate_is_lower_bound": hits == 0}


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
    replicas).  The mean of S_{n,1..r} is x @ c with c the mean of r
    orthonormal trig rows, so |c|^2 = 1/r and under normal inputs it is
    exactly N(0, 1/r): the baseline draws each replica's mean as X_1 /
    sqrt(r), from the first draw of the normal stream spec.stream_id +
    replicas + i, which no replica of the main run reads.

    p_hat_lo and p_hat_hi bound p_hat by the 95% Wilson interval of its
    hits, and rate_lo, rate_hi are the rates they imply (rate_hi is None
    when there are no hits).  rate_ratio_to_oracle is None when the
    baseline rate is 0: one replica, or every baseline replica hits.
    """
    if not a > 0.0:
        raise ConfigError("a must be positive")
    if replicas < 1:
        raise ConfigError(f"need at least 1 replica, got replicas={replicas}")
    require_trig(n, r)
    require_streams(spec, 2 * replicas)  # the main run and its baseline
    main = _half_line_rate(spec, mean_weights(n, r), r, a, replicas, threads)
    oracle_spec = SourceSpec("normal", spec.master_seed, spec.stream_id + replicas)
    oracle = _half_line_rate(oracle_spec, np.array([1.0 / math.sqrt(r)]), r, a, replicas, threads)
    p_lo, p_hi = empirical.wilson_interval(main["hits"], replicas)
    point = {
        "n": n,
        "r": r,
        "a": a,
        "target_rate": empirical.rate_function_gaussian(a, 1.0),
        "rate": main["rate"],
        "p_hat": main["p_hat"],
        "hits": main["hits"],
        "rate_is_lower_bound": main["rate_is_lower_bound"],
        "p_hat_lo": p_lo,
        "p_hat_hi": p_hi,
        "rate_lo": -math.log(p_hi) / r if p_hi < 1.0 else 0.0,
        "rate_hi": -math.log(p_lo) / r if p_lo > 0.0 else None,
        "oracle_rate": oracle["rate"],
        "oracle_p_hat": oracle["p_hat"],
        "oracle_hits": oracle["hits"],
        "oracle_rate_is_lower_bound": oracle["rate_is_lower_bound"],
        "rate_ratio_to_oracle": main["rate"] / oracle["rate"] if oracle["rate"] else None,
    }
    return ExperimentResult({"a": a}, [point], replicas)
