"""Empirical-measure statistics and the Gaussian relative-entropy rate.

The KS distance is evaluated exactly at the staircase corners of the
ECDF, never on a grid: for a continuous target CDF the sup over all x is
attained at the atoms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from . import BLOCK

_SQRT2 = math.sqrt(2.0)
_Z95 = 1.959963984540054  # Phi^{-1}(0.975)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Absolute error below 1e-12 everywhere (erfc is good to ~1 ulp).
    Accepts scalars or arrays.
    """
    res = 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)
    return float(res) if np.isscalar(x) or np.ndim(x) == 0 else res


def exponential_cdf(x):
    """Standard exponential CDF (1 - e^{-x})_+; scalar or array."""
    x = np.asarray(x, dtype=float)
    res = np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0)), 0.0)
    return float(res) if res.ndim == 0 else res


def ks_to(samples, cdf) -> float:
    """Exact sup-distance between the ECDF of a sample and a continuous CDF.

    The sample is a nonempty 1-D array of finite values (else ValueError,
    or FloatingPointError for a non-finite value), in any order.  Its one
    sorted copy v is checked at both staircase corners of every atom,
    max_i max(|i/m - F(v_i)|, |(i-1)/m - F(v_i)|), BLOCK atoms at a time
    with a running max: beyond the copy, a few blocks of scratch.
    """
    v = np.sort(np.asarray(samples, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a nonempty 1-D sample")
    # nan sorts last and -inf first, so the ends hold any non-finite value
    if not (np.isfinite(v[0]) and np.isfinite(v[-1])):
        raise FloatingPointError("sample has non-finite values")
    m = v.size
    return max(_corner_gap(v[lo:lo + BLOCK], lo, m, cdf) for lo in range(0, m, BLOCK))


def _corner_gap(v: np.ndarray, lo: int, m: int, cdf) -> float:
    """max(|i/m - F(v_i)|, |(i-1)/m - F(v_i)|) over the atoms i = lo + 1..
    lo + v.size of a sorted sample of size m, given their values v."""
    f = np.asarray(cdf(v), dtype=float)
    gap = 0.0
    for first in (lo, lo + 1):
        g = np.arange(first, first + v.size, dtype=float)
        g /= m
        g -= f
        gap = max(gap, float(np.max(np.abs(g, out=g))))
    return gap


def rate_function_gaussian(m: float, sigma2: float) -> float:
    """KL(N(m, sigma2) || N(0,1)) = (sigma2 - 1 - ln sigma2 + m^2) / 2, m^2 added last."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    return max(0.5 * ((sigma2 - 1.0 - math.log(sigma2)) + m * m), 0.0)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for the proportion hits / trials
    (E. B. Wilson, JASA 22, 1927); exactly 0.0 below at no hits and 1.0
    above at all hits."""
    if trials < 1 or not 0 <= hits <= trials:
        raise ValueError(f"need 0 <= hits <= trials and trials >= 1, got {hits} of {trials}")
    p = hits / trials
    z2 = _Z95 * _Z95 / trials
    centre = (p + z2 / 2.0) / (1.0 + z2)
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials)) / (1.0 + z2)
    lo = max(centre - half, 0.0) if hits > 0 else 0.0
    hi = min(centre + half, 1.0) if hits < trials else 1.0
    return lo, hi
