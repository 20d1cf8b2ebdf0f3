"""Weighted partial sums: slow compensated reference vs. fast DFT path.

The naive path is the correctness oracle and works for every weight kind.
The fast path is specific to trig weights: the whole (s, t) vector is the
scaled real/imaginary part of one length-n real DFT, valid for arbitrary
n (the FFT backend falls back to a convolution-based kernel for lengths
that are not powers of two).

S over a batch of inputs (replicas x n) has two kernels: the batched
rfft, which yields all n/2 + 1 coefficients at O(n log n) per row, and
a GEMM against the r materialized cosine rows at O(r n) per row.
use_gemm picks one by comparing r with log2 n; partial_sums_batch stays
the reference both are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .accum import kahan_matvec
from .sources import SourceSpec, sample_prefix
from .weights import TRIG, WeightMatrixPair, trig_rows_u

# naive/fast crossover for automatic dispatch on trig weights
FAST_THRESHOLD = 1024
_ROW_BLOCK = 1024
# A batch takes the GEMM while it multiplies by at most this many trig
# rows per unit of log2 n, and while those rows fit in _GEMM_WEIGHT_BYTES;
# else the rfft.  Measured on a 2-core Xeon VM: at n = 4096 a 32-row GEMM
# took half the rfft's time and a 48-row one 0.8 of it; at n = 16384 the
# two broke even near 32 rows (4 MiB of rows), and at n = 65536 a 32-row
# GEMM took 0.9 of the rfft's time and a 64-row one twice it.
_GEMM_ROWS_PER_LOG2N = 3
_GEMM_WEIGHT_BYTES = 4 << 20
# inputs per GEMM call: larger calls may go multithreaded inside the BLAS,
# and on the same VM those stalled for milliseconds per call at small n
_GEMM_SLICE = 16


@dataclass(frozen=True)
class PartialSums:
    """S_{n,k} (and T_{n,k} when a companion matrix exists), k = 1..r."""

    s: np.ndarray
    t: np.ndarray | None
    n: int
    r: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.s.shape != (self.r,) or not np.all(np.isfinite(self.s)):
            raise ValueError("s must be a finite vector of length r")
        if self.t is not None and (
            self.t.shape != (self.r,) or not np.all(np.isfinite(self.t))
        ):
            raise ValueError("t must be a finite vector of length r")

    def to_csv(self, path) -> None:
        t = self.t if self.t is not None else np.full(self.r, np.nan)
        with open(path, "w") as fh:
            fh.write("k,s,t\n")
            for k in range(self.r):
                fh.write(f"{k + 1},{float(self.s[k])!r},{float(t[k])!r}\n")


def partial_sums_naive(w: WeightMatrixPair, x: np.ndarray) -> PartialSums:
    """Reference path: compensated row-by-row accumulation, O(r n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (w.n,):
        raise ValueError(f"expected input of length {w.n}, got {x.shape}")
    s = np.empty(w.r)
    t = np.empty(w.r) if w.has_v else None
    for lo in range(1, w.r + 1, _ROW_BLOCK):
        ks = np.arange(lo, min(lo + _ROW_BLOCK, w.r + 1))
        s[ks - 1] = kahan_matvec(w.rows_u(ks), x)
        if t is not None:
            t[ks - 1] = kahan_matvec(w.rows_v(ks), x)
    return PartialSums(s=s, t=t, n=w.n, r=w.r, provenance={"path": "naive", "kind": w.kind})


def partial_sums_fast(n: int, r: int, x: np.ndarray) -> PartialSums:
    """Trig-weight partial sums via one real DFT.

    The weight index j runs 1..n while the DFT index runs 0..n-1; the two
    agree because the j = n term of the trig sums equals the j = 0 term,
    so the input is rotated by one before the transform.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected input of length {n}, got {x.shape}")
    if not (1 <= r <= (n - 1) // 2):
        raise ValueError(f"need 1 <= r <= floor((n-1)/2) = {(n - 1) // 2}")
    y = np.empty(n)
    y[0] = x[n - 1]
    y[1:] = x[: n - 1]
    f = np.fft.rfft(y)
    scale = math.sqrt(2.0 / n)
    s = scale * f.real[1 : r + 1]
    t = -scale * f.imag[1 : r + 1]
    return PartialSums(s=s, t=t, n=n, r=r, provenance={"path": "fast", "kind": TRIG})


def partial_sums_batch(n: int, r: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fast path over a batch of inputs (replicas x n) -> (s, t) arrays."""
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    y[:, 0] = x[:, n - 1]
    y[:, 1:] = x[:, : n - 1]
    f = np.fft.rfft(y, axis=1)
    scale = math.sqrt(2.0 / n)
    return scale * f.real[:, 1 : r + 1], -scale * f.imag[:, 1 : r + 1]


def use_gemm(n: int, r: int) -> bool:
    """The rfft-vs-GEMM rule for the batched S_{n,1..r} of trig weights.

    The GEMM costs O(r n) per input and the rfft O(n log n), so the rule
    compares r with log2 n; the GEMM also needs its r rows in cache,
    which caps r n.
    """
    return r <= _GEMM_ROWS_PER_LOG2N * math.log2(n) and 8 * r * n <= _GEMM_WEIGHT_BYTES


def batch_kernel(n: int, r: int):
    """A function mapping a (replicas x n) batch to S (replicas x r):
    r-row GEMM or batched rfft as use_gemm decides."""
    if not use_gemm(n, r):
        return lambda x: partial_sums_batch(n, r, x)[0]
    cols = np.ascontiguousarray(trig_rows_u(n, np.arange(1, r + 1)).T)

    def kernel(x):
        s = np.empty((len(x), r))
        for lo in range(0, len(x), _GEMM_SLICE):
            np.matmul(x[lo : lo + _GEMM_SLICE], cols, out=s[lo : lo + _GEMM_SLICE])
        return s

    return kernel


def mean_weights(n: int, r: int) -> np.ndarray:
    """c = (u_1 + ... + u_r) / r over the trig rows, so that x @ c is the
    mean of S_{n,1..r} at O(n) per input (see mean_partial_sum).

    c_j = sqrt(2/n) / r * sum_{k=1..r} cos(2 pi j k / n) is a Dirichlet
    kernel: one inverse real DFT of the indicator of k = 1..r gives
    (2/n) sum_k cos(2 pi m k / n) at m = 0..n-1, and j = 1..n is m = j mod n.
    """
    ind = np.zeros(n // 2 + 1)
    ind[1 : r + 1] = 1.0
    d = np.fft.irfft(ind, n)
    return np.roll(d, -1) * (math.sqrt(2.0 / n) * (n / 2) / r)


def mean_partial_sum(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-input mean of S_{n,1..r} for a (replicas x n) batch, given
    c = mean_weights(n, r).

    A matrix-vector product outside the BLAS: einsum's loop never starts
    threads, where a BLAS GEMV at one input of n = 65536 stalled for
    milliseconds per call on a 2-core VM.
    """
    return np.einsum("ij,j->i", x, c)


def partial_sums(
    w: WeightMatrixPair, x: np.ndarray, force: str | None = None
) -> PartialSums:
    """Dispatch: fast DFT for big trig pairs, naive otherwise.

    force is "naive" or "fast" to override the size heuristic.
    """
    if force not in (None, "naive", "fast"):
        raise ValueError("force must be None, 'naive' or 'fast'")
    use_fast = w.kind == TRIG and (force == "fast" or (force is None and w.n >= FAST_THRESHOLD))
    if force == "fast" and w.kind != TRIG:
        raise ValueError("fast path applies to trig weights only")
    if use_fast:
        return partial_sums_fast(w.n, w.r, x)
    return partial_sums_naive(w, x)


def gaussian_oracle_sums(n: int, r: int, spec: SourceSpec) -> PartialSums:
    """Partial sums whose joint law is exactly r i.i.d. N(0,1) pairs.

    Feeding i.i.d. standard normals through the trig weights yields
    exactly independent standard normal (s, t) coordinates, because the
    trig rows are exactly orthonormal for r <= floor((n-1)/2).  Used as
    the distributional oracle throughout the experiment harnesses.
    """
    if spec.family != "normal":
        raise ValueError("gaussian oracle requires a normal-family SourceSpec")
    ps = partial_sums_fast(n, r, sample_prefix(spec, n))
    prov = dict(ps.provenance, oracle="gaussian", seed=spec.master_seed, stream=spec.stream_id)
    return PartialSums(s=ps.s, t=ps.t, n=n, r=r, provenance=prov)
