"""Compensated (Kahan) accumulation helpers.

Condition residuals near zero are the test signal in this project, so the
reference summation paths must not be swamped by naive accumulation error.
"""

from __future__ import annotations

import numpy as np


def kahan_matvec(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compensated u @ x, accumulating column by column.

    The compensation runs along the summation index j while staying
    vectorized over rows, so the cost is O(n) numpy operations on
    r-vectors rather than a per-element Python loop.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    r, n = u.shape
    if x.shape != (n,):
        raise ValueError(f"expected x of length {n}, got {x.shape}")
    acc = np.zeros(r)
    c = np.zeros(r)
    for j in range(n):
        y = u[:, j] * x[j] - c
        t = acc + y
        c = (t - acc) - y
        acc = t
    return acc


def kahan_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compensated a @ b.T via column-wise outer products."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise ValueError("column counts differ")
    acc = np.zeros((a.shape[0], b.shape[0]))
    c = np.zeros_like(acc)
    for j in range(a.shape[1]):
        y = np.outer(a[:, j], b[:, j]) - c
        t = acc + y
        c = (t - acc) - y
        acc = t
    return acc
