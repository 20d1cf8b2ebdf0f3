"""Empirical-measure statistics: the exact KS distance to a continuous
CDF, the normal and exponential CDFs, and the Wilson interval.

The KS distance is evaluated exactly at the atoms of the ECDF, never on
a grid: for a continuous target CDF the sup over all x is the larger of
D+, the ECDF's greatest excess over F just after an atom, and D-, F's
greatest excess over the ECDF just before one.
"""

from __future__ import annotations

import math

import numpy as np

from . import BLOCK, finite
from .special import erfc

_SQRT2 = math.sqrt(2.0)
_Z95 = 1.959963984540054  # Phi^{-1}(0.975)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Absolute error below 1e-12 everywhere (erfc is good to ~1 ulp).
    """
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


def exponential_cdf(x):
    """Standard exponential CDF (1 - e^{-x})_+."""
    return -np.expm1(-np.maximum(x, 0.0))


def ks_to(samples, cdf) -> float:
    """Exact sup-distance between the ECDF of a sample and a continuous CDF.

    The sample is a nonempty 1-D array of finite values (else ValueError,
    or FloatingPointError for a non-finite value), in any order.  Its one
    sorted copy v gives D = max(D+, D-), D+ = max_i (i/m - F(v_i)) and
    D- = max_i (F(v_i) - (i-1)/m) (N. Smirnov, 1939), BLOCK atoms at a
    time with a running max: beyond the copy, a few blocks of scratch.
    """
    v = np.sort(np.asarray(samples, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a nonempty 1-D sample")
    # nan sorts last and -inf first, so the ends hold any non-finite value
    finite(v[[0, -1]], "sample values")
    m = v.size
    return max(_corner_gap(v[lo:lo + BLOCK], lo, m, cdf) for lo in range(0, m, BLOCK))


def _corner_gap(v: np.ndarray, lo: int, m: int, cdf) -> float:
    """max(D+, D-) over the atoms i = lo + 1..lo + v.size of a sorted sample
    of size m, given their values v.

    Rounding is monotone and symmetric in sign, and fl((i-1)/m) <= fl(i/m),
    so this is max(|i/m - F(v_i)|, |(i-1)/m - F(v_i)|) bit for bit.
    """
    f = cdf(v)
    g = np.arange(lo, lo + v.size + 1, dtype=float)
    g /= m
    return max(float(np.max(g[1:] - f)), float(np.max(f - g[:-1])))


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
