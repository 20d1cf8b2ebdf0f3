"""Compensated and error-free reference kernels.

Condition residuals near zero are the test signal in this project, so the
reference summation paths must not be swamped by naive accumulation error.

- ``kahan_sum``: a sum of vectors with Kahan compensation along the
  terms, vectorized over the elements; the naive trig partial sums feed
  it one column of the pair at a time.
- ``ozaki_gram``: a @ a.T by Ozaki-scheme splitting (Ozaki, Ogita, Oishi
  & Rump, Numer. Algorithms 59, 2012). Each row is cut into slices so
  narrow that every slice-by-slice BLAS product is exact in float64; the
  exact products are then summed with TwoSum compensation, which gives
  the accuracy of twice-working-precision summation (Ogita, Rump & Oishi,
  "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005).
  Because the products are exact, the result does not depend on the BLAS
  summation order or thread count.
"""

from __future__ import annotations

import numpy as np


def kahan_sum(terms, size: int) -> np.ndarray:
    """Compensated elementwise sum of the vectors of length size that
    terms yields, each read before the next is drawn: O(1) numpy
    operations per term, vectorized over the elements.  With the terms
    u[:, j] * x[j] this is u @ x, accumulated column by column."""
    acc = np.zeros(size)
    c = np.zeros(size)
    for p in terms:
        y = p - c
        t = acc + y
        c = (t - acc) - y
        acc = t
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
        _, e = np.frexp(np.max(np.abs(rest), axis=1))
        shift = np.ldexp(1.0, e + beta)[:, None]
        head = (rest + shift) - shift
        slices.append(head)
        rest = rest - head
    return slices


def ozaki_gram(a: np.ndarray) -> np.ndarray:
    """a @ a.T, error-free up to the final compensated summation.

    Slice entries are integers of magnitude at most 2^(53-beta) in their
    row's unit. With k columns and 2^(2 beta - 53) >= k, every partial sum
    of a slice product is then an integer of magnitude at most 2^53 in the
    product of the two row units, so each BLAS product is exact whatever
    its summation order. That holds unless a product of slice entries
    underflows, which needs entries far below 2^-400. Each product of two
    different slices is computed once and also added transposed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    beta = (54 + (a.shape[1] - 1).bit_length()) // 2
    # the shift 2^(e+beta) must stay finite; this also rejects inf and nan
    if not np.all(np.abs(a) < np.ldexp(1.0, 1023 - beta)):
        raise FloatingPointError(f"entries must be finite with magnitude below 2**{1023 - beta}")
    sa = _split_rows(a, beta)

    acc = np.zeros((a.shape[0], a.shape[0]))
    comp, spare, t, x = (np.zeros_like(acc) for _ in range(4))
    for i, ai in enumerate(sa):
        for j in range(i, len(sa)):
            p = ai @ sa[j].T
            for q in (p, p.T) if j > i else (p,):
                # TwoSum: spare = fl(acc + q), x = its exact rounding error
                np.add(acc, q, out=spare)
                np.subtract(spare, acc, out=t)
                np.subtract(spare, t, out=x)
                np.subtract(acc, x, out=x)
                np.subtract(q, t, out=t)
                x += t
                comp += x
                acc, spare = spare, acc
    return acc + comp
