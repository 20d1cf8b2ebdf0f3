"""Weighted partial sums: slow compensated reference vs. fast DFT path.

Every path computes the sums of the trig pair of (n, r).  The naive
path, the correctness oracle, accumulates each row compensated, reading
the pair one column at a time from the n-long trig tables; the fast path
takes the whole (s, t) vector as the scaled real/imaginary part of one
length-n real DFT, valid for arbitrary n (the FFT backend falls back to a
convolution-based kernel for lengths that are not powers of two).  Both
return a PartialSums named (s, t) pair, checked finite.

The DFT reads its inputs one-based, as sources draws them: X_j at index
j, index 0 a free slot.  The wrap term of the sums is a write of X_n into
that slot, not a rotated copy, so a sampled path and every prefix of it
are transformed in place (partial_sums_batch), and S and T are scaled in
place, unchecked, as views of the DFT output: 8n bytes beyond the path.
A plain input of X_1..X_n (partial_sums_fast) is copied once into that
layout.  along_path owns an op's one sampled path, from its draw to its
release after the last transform, and each point's sums.

S over a one-based batch (replicas x (n + 1)) has two kernels: the batched
rfft, which yields all n/2 + 1 coefficients at O(n log n) per row, and
a GEMM against the r materialized cosine rows at O(r n) per row.
use_gemm picks one by comparing r with log2 n; partial_sums_batch stays
the reference both are tested against.

The mean of S_{n,1..r} is one product x @ c (mean_partial_sum).  For
rademacher inputs held as sign bytes, mean_from_sign_bytes reads it
through a table of c's signed byte sums, one lookup per 8 indices;
mean_partial_sum on the float signs is its reference.  mean_kernel picks
one of the two for a family and c, as batch_kernel picks S's kernel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import BLOCK, finite
from .accum import kahan_sum
from .sources import BYTE_SIGNS, SourceSpec, sample_path
from .weights import TRIG, haar_rows, require_trig, trig_rows, trig_tables

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
# Rademacher means are read through a byte table of 256 B per index while
# the table fits this cap, else from the float signs.  Measured on a 2-core
# Xeon VM (r = 32, 2^25 draws a run, table build included): the table path
# took 0.34 of the float path's time at n = 4096, 0.59 at 16384 and 0.9 at
# 32768 (an 8 MiB table), but 1.15 at 65536 and 2.3 at 131072.
_BYTE_TABLE_BYTES = 8 << 20


class PartialSums(NamedTuple):
    """S_{n,k} and T_{n,k}, k = 1..r."""

    s: np.ndarray
    t: np.ndarray


def _checked(n: int, x, sums) -> PartialSums:
    """sums(x) for an input x of length n (else ValueError), checked finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected input of length {n}, got {x.shape}")
    s, t = sums(x)
    return PartialSums(finite(s, "S"), finite(t, "T"))


def partial_sums_naive(n: int, r: int, x: np.ndarray) -> PartialSums:
    """Reference path: compensated accumulation of each row, O(r n) time
    and O(BLOCK + r) memory beyond the n-long trig tables, one column j of
    the pair at a time.  Its 2r entries are looked up by their exact
    residues (k j) mod n in the scaled trig tables, bit for bit the entries
    of trig_rows, b = BLOCK / 2r columns per lookup into one (b, r, 2)
    buffer of (cos, sin) pairs; each (r, 2) column of it is one term."""
    require_trig(n, r)
    # (cos, sin) pairs side by side, so each lookup reads one 16-byte pair
    tables = np.stack(trig_tables(n), axis=1) * math.sqrt(2.0 / n)
    ks = np.arange(1, r + 1, dtype=np.int64)
    b = min(n, max(1, BLOCK // (2 * r)))

    def terms(x):
        # residues of columns lo+1..lo+b in the rows of res; from block to
        # block they advance by (b k) mod n, reduced by one unsigned min,
        # since a difference below 0 wraps to a huge uint64
        res = np.arange(1, b + 1, dtype=np.int64)[:, None] * ks % n
        step, low = b * ks % n, np.empty_like(res)
        cols = np.empty((b, r, 2))
        for lo in range(0, n, b):
            if n - lo < b:
                res, low, cols = res[: n - lo], low[: n - lo], np.empty((n - lo, r, 2))
            np.take(tables, res, axis=0, out=cols, mode="clip")
            cols *= x[lo : lo + b, None, None]
            yield from cols
            res += step
            np.subtract(res, n, out=low)
            np.minimum(res.view(np.uint64), low.view(np.uint64), out=res.view(np.uint64))

    return _checked(n, x, lambda x: kahan_sum(terms(x), (r, 2)).T.copy())


def partial_sums_fast(n: int, r: int, x: np.ndarray) -> PartialSums:
    """Trig-weight partial sums via one real DFT of X_1..X_n, the input x,
    copied once into the one-based layout of partial_sums_batch."""
    require_trig(n, r)
    return _checked(n, x, lambda x: partial_sums_batch(n, r, np.concatenate(([0.0], x))))


def partial_sums_batch(n: int, r: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fast path over one one-based input (n + 1) or a block of them
    (replicas x (n + 1)), X_j at x[..., j] as sources.stream_blocks draws
    them -> (s, t), r sums per input.

    The weight index j runs 1..n while the DFT index runs 0..n-1; the two
    agree because the j = n term of the trig sums equals the j = 0 term.
    So X_n is written into the free slot x[..., 0], and x[..., :n] is the
    input rotated by one, read in place by the transform.  s and t are
    scaled in place as views of its output, which lives as long as they do.
    """
    x[..., 0] = x[..., n]
    f = np.fft.rfft(x[..., :n], axis=-1)
    scale = math.sqrt(2.0 / n)
    s, t = f.real[..., 1 : r + 1], f.imag[..., 1 : r + 1]
    s *= scale
    t *= -scale
    return s, t


def along_path(spec: SourceSpec, points, stat, read=None, kind: str = TRIG) -> list:
    """[stat(n, r, s, t) for (n, r) in points, n increasing] along one
    path of spec, sampled once, one-based, to the largest n.  read, if
    given, takes each point's new stretch X_{m+1}..X_n before its prefix
    X_1..X_n (sample_prefix(spec, n)) is transformed in place.  s and t are
    the trig sums (partial_sums_batch); Haar s is the companion stream's
    rows times the prefix, and t None.  The path is freed after the last
    transform, and each point's sums once its stat returns.
    """
    path = sample_path(spec, points[-1][0])
    results, done = [], 0
    for n, r in points:
        if read is not None:
            read(path[done + 1 : n + 1])
        done = n
        if kind == TRIG:
            s, t = partial_sums_batch(n, r, path[: n + 1])
        else:
            # the Haar rows are part of omega too: derive them from a
            # companion stream so it stays fixed for fixed (seed, stream)
            companion = spec.with_stream(spec.stream_id ^ (1 << 32))
            s, t = haar_rows(n, companion, r) @ path[1 : n + 1], None
        if n + 1 == path.size:
            del path  # the last transform is done
        results.append(stat(n, r, s, t))
        del s, t  # a point's sums are not held through the next transform
    return results


def use_gemm(n: int, r: int) -> bool:
    """The rfft-vs-GEMM rule for the batched S_{n,1..r} of trig weights.

    The GEMM costs O(r n) per input and the rfft O(n log n), so the rule
    compares r with log2 n; the GEMM also needs its r rows in cache,
    which caps r n.
    """
    return r <= _GEMM_ROWS_PER_LOG2N * math.log2(n) and 8 * r * n <= _GEMM_WEIGHT_BYTES


def batch_kernel(n: int, r: int):
    """A function mapping a one-based (replicas x (n + 1)) block (see
    partial_sums_batch) to S (replicas x r): r-row GEMM or batched rfft as
    use_gemm decides."""
    if not use_gemm(n, r):
        return lambda x: partial_sums_batch(n, r, x)[0]
    cols = np.ascontiguousarray(trig_rows(trig_tables(n)[0], np.arange(1, r + 1)).T)

    def kernel(x):
        s = np.empty((len(x), r))
        for lo in range(0, len(x), _GEMM_SLICE):
            np.matmul(x[lo : lo + _GEMM_SLICE, 1:], cols, out=s[lo : lo + _GEMM_SLICE])
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


def mean_byte_table(c: np.ndarray) -> np.ndarray:
    """T[q, v] = sum_i BYTE_SIGNS[v, i] c[8 q + i], the 256 signed sums of
    c over each byte's 8 positions, with c zero-padded to whole 64-bit
    words: mean_from_sign_bytes reads x @ c through it a byte at a time
    (the "Four Russians" table of Arlazarov, Dinic, Kronrod and Faradzev,
    1970).  It holds 256 floats per 8 indices: 256 bytes per index.
    """
    cw = np.zeros(64 * -(-c.size // 64))
    cw[: c.size] = c
    # einsum's loop writes the table in place, with no temporary of its size
    return np.einsum("qi,vi->qv", cw.reshape(-1, 8), BYTE_SIGNS)


def mean_from_sign_bytes(b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """x @ c per replica of a packed block b of rademacher sign bytes
    (replicas x 8 ceil(n / 64), see sources.stream_blocks), given
    table = mean_byte_table(c): one lookup per byte, T[q, b[i, q]], then
    the row sum.  Within a few ulps of |c|_1 of mean_partial_sum on the
    same signs as floats, which stays its reference.
    """
    # row q of the table starts at 256 q and a byte is below 256, so every
    # index is in range and "clip" only skips the bounds check
    idx = np.arange(0, table.size, 256) + b
    return np.take(table.ravel(), idx, mode="clip").sum(axis=1)


def mean_kernel(family: str, c: np.ndarray):
    """(kernel, packed) for the mean x @ c of S_{n,1..r} per input, given
    c = mean_weights(n, r): kernel maps a block of inputs to one mean per
    input.  For rademacher inputs while the byte table of c fits
    _BYTE_TABLE_BYTES (checked before it is built), it reads packed sign
    bytes (packed is True, see sources.stream_blocks); otherwise it reads
    the one-based float block of batch_kernel, column 0 ignored.
    """
    if family == "rademacher" and 256 * 64 * -(-c.size // 64) <= _BYTE_TABLE_BYTES:
        table = mean_byte_table(c)
        return (lambda b: mean_from_sign_bytes(b, table)), True
    return (lambda x: mean_partial_sum(x[:, 1:], c)), False


def partial_sums(w: tuple[int, int], x: np.ndarray, force: str) -> PartialSums:
    """partial_sums_naive or partial_sums_fast (force "naive" or "fast") of
    the pair w = make_trig_pair(n, r).  Kept, with make_trig_pair, for the
    oracle op of bench/worker.py until it calls the two paths itself
    (ROADMAP item 3)."""
    if force not in ("naive", "fast"):
        raise ValueError("force must be 'naive' or 'fast'")
    return (partial_sums_naive if force == "naive" else partial_sums_fast)(*w, x)
