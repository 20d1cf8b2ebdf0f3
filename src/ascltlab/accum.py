"""Compensated and error-free reference kernels, cache-blocked.

Condition residuals near zero are the test signal in this project, so the
reference summation paths must not be swamped by naive accumulation error.

- ``kahan_sum``: a sum of arrays of one shape with Kahan compensation
  along the terms, vectorized over the elements and run in place on four
  preallocated buffers; the naive trig partial sums feed it one (r, 2)
  column of (cos, sin) pair entries at a time, a view of their block.
- ``ozaki_gram``: a @ a.T by Ozaki-scheme splitting (Ozaki, Ogita, Oishi
  & Rump, Numer. Algorithms 59, 2012). Each row is cut into slices so
  narrow that every slice-by-slice BLAS product is exact in float64; the
  exact products are then summed with TwoSum compensation, which gives
  the accuracy of twice-working-precision summation (Ogita, Rump & Oishi,
  "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005).
  Because the products are exact, the result does not depend on the BLAS
  summation order or thread count. The TwoSum runs a row block of about
  256 KiB at a time, so besides the slices only the sum, its compensation
  and one product buffer are r x r.
"""

from __future__ import annotations

import numpy as np

from . import BLOCK


def kahan_sum(terms, shape) -> np.ndarray:
    """Compensated elementwise sum of the arrays of the given shape that
    terms yields, each read before the next is drawn: four in-place numpy
    operations per term, vectorized over the elements.  With the terms
    u[:, j] * x[j] this is u @ x, accumulated column by column."""
    acc, c, y, t = (np.zeros(shape) for _ in range(4))
    for p in terms:
        np.subtract(p, c, out=y)
        np.add(acc, y, out=t)
        np.subtract(t, acc, out=c)
        c -= y
        acc, t = t, acc
    return acc


def _split_rows(a: np.ndarray, beta: int) -> list[np.ndarray]:
    """Slices whose sum is exactly a.

    With |rest| < 2^e in a row, adding and removing the shift 2^(e+beta)
    rounds the row to a multiple of 2^(e+beta-53). So every slice entry
    is an integer multiple of its row's unit with magnitude at most
    2^(53-beta), and what is cut off stays in the remainder.
    """
    slices = []
    rest = a
    while rest.any():
        # max |rest| per row, with no temporary of rest's size
        _, e = np.frexp(np.maximum(rest.max(axis=1), -rest.min(axis=1)))
        shift = np.ldexp(1.0, e + beta)[:, None]
        head = rest + shift
        head -= shift
        slices.append(head)
        if rest is a:
            rest = a - head
        else:
            rest -= head
    return slices


def ozaki_gram(a: np.ndarray) -> np.ndarray:
    """a @ a.T, error-free up to the final compensated summation.

    Slice entries are integers of magnitude at most 2^(53-beta) in their
    row's unit. With k columns and 2^(2 beta - 53) >= k, every partial sum
    of a slice product is then an integer of magnitude at most 2^53 in the
    product of the two row units, so each BLAS product is exact whatever
    its summation order. That holds unless a product of slice entries
    underflows, which needs entries far below 2^-400. Each product of two
    different slices is computed once, into one reused buffer, and also
    added transposed, its row blocks copied contiguous first. Every entry
    sees the same products in the same order whatever the block size.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    beta = (54 + (a.shape[1] - 1).bit_length()) // 2
    # the shift 2^(e+beta) must stay finite; this also rejects inf and nan
    if not np.all(np.abs(a) < np.ldexp(1.0, 1023 - beta)):
        raise FloatingPointError(f"entries must be finite with magnitude below 2**{1023 - beta}")
    sa = _split_rows(a, beta)

    r = a.shape[0]
    acc, comp, p = np.zeros((r, r)), np.zeros((r, r)), np.empty((r, r))
    # rows per TwoSum block: BLOCK / 2 values, 256 KiB
    rows = max(1, min(r, BLOCK // (2 * max(r, 1))))
    spare, t, x, pt = (np.empty((rows, r)) for _ in range(4))
    for i, ai in enumerate(sa):
        for j in range(i, len(sa)):
            np.matmul(ai, sa[j].T, out=p)
            for transposed in (False, True) if j > i else (False,):
                for lo in range(0, r, rows):
                    blk, m = slice(lo, lo + rows), min(rows, r - lo)
                    if transposed:
                        q = pt[:m]
                        np.copyto(q, p[:, blk].T)
                    else:
                        q = p[blk]
                    _two_sum(acc[blk], comp[blk], q, spare[:m], t[:m], x[:m])
    acc += comp
    return acc


def _two_sum(acc, comp, q, spare, t, x) -> None:
    """acc += q rounded, its exact rounding error added to comp (TwoSum),
    with spare, t and x scratch of q's shape."""
    np.add(acc, q, out=spare)
    np.subtract(spare, acc, out=t)
    np.subtract(spare, t, out=x)
    np.subtract(acc, x, out=x)
    np.subtract(q, t, out=t)
    x += t
    comp += x
    acc[...] = spare
