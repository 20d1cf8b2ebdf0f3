"""Empirical-measure statistics: the exact KS distance to a continuous
CDF, the normal and exponential CDFs, and the Wilson interval.

The KS distance is evaluated exactly at the atoms of the ECDF, never on
a grid: for a continuous target CDF the sup over all x is the larger of
D+, the ECDF's greatest excess over F just after an atom, and D-, F's
greatest excess over the ECDF just before one.  F is evaluated in full
only on the spans of 64 atoms that can hold the maximum, found from
bounds taken at the first atom of each span (ks_in_place).  The KS owns
its sample's checks and its sort: a caller that owns its array hands it
over unsorted, and gets it back sorted.
"""

from __future__ import annotations

import math

import numpy as np

from . import BLOCK, finite
from .special import erfc

_SQRT2 = math.sqrt(2.0)
_Z95 = 1.959963984540054  # Phi^{-1}(0.975)
# atoms per span of ks_in_place, a divisor of BLOCK, and the slack of its bounds
SPAN = 64
TAU = 2.0**-40


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Absolute error below 1e-12 everywhere (erfc is good to ~1 ulp).
    """
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


def exponential_cdf(x):
    """Standard exponential CDF (1 - e^{-x})_+."""
    return -np.expm1(-np.maximum(x, 0.0))


def ks_to(samples, cdf) -> float:
    """Exact sup-distance between the ECDF of a sample and a continuous CDF:
    ks_in_place of one float copy of the sample, which is left as it is."""
    return ks_in_place(np.array(samples, dtype=float), cdf)


def ks_in_place(v: np.ndarray, cdf) -> float:
    """ks_to of the float array v, which it sorts in place.

    v is a nonempty 1-D sample of finite values (else ValueError, or
    FloatingPointError for a non-finite value), in any order; once sorted,
    its two ends are checked, as nan sorts last and -inf first.

    D = max(D+, D-), D+ = max_i (i/m - F(v_i)) and D- = max_i (F(v_i) -
    (i-1)/m) (N. Smirnov, 1939).  F is first evaluated at the first atom
    i0 of each span of SPAN atoms and at the last atom.  Inside a span
    v_i0 <= v_i <= v_j, where j is the next span's first atom (for the
    last span, the last atom), so no gap of the span exceeds its bound

        B = max(fl(i1/m) - F(v_i0), F(v_j) - fl((i0-1)/m)) + TAU,

    i1 the span's last atom, and E, the largest gap at an atom F was first
    evaluated at, is at most D.  Only the spans with B >= E - TAU, the span
    that holds E among them, are evaluated, whole, by _corner_gap, and D
    is the largest of those evaluations alone: one pass over all atoms
    gives it bit for bit.

    TAU = 2^-40 covers what the bound leaves out, each part under 2^-50,
    as F lies in [0, 1]: F's own non-monotonicity (erfc and expm1 are good
    to a few ulps); a bit difference between F on the gathered atoms and
    on the whole span (none for an elementwise ufunc, an ulp or two if a
    SIMD path differed); the rounding of B, E and E - TAU (2^-54 each).
    Their sum is under 2^-48, a 256th of TAU, and a span is evaluated in
    vain only when it comes within 2 TAU of E, far below the ECDF's steps
    of 1/m.  F is evaluated on the span starts BLOCK // 16 at a time, then
    on the spans kept BLOCK atoms at a time.  Beyond v the scratch is
    under a block and one bound per span (m/8 bytes).
    """
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a nonempty 1-D sample")
    v.sort()
    finite(v[[0, -1]], "sample values")
    m = v.size
    bounds = np.empty(-(-m // SPAN))
    best = -math.inf
    step = SPAN * BLOCK // 16  # atoms per pass: BLOCK // 16 spans
    for lo in range(0, m, step):
        b, e = _span_bounds(v, lo, min(lo + step, m), cdf)
        bounds[lo // SPAN : lo // SPAN + b.size] = b
        best = max(best, e)
    # the runs of consecutive spans that can hold the maximum
    keep = np.zeros(bounds.size + 2, dtype=bool)
    np.greater_equal(bounds, best - TAU, out=keep[1:-1])
    edges = np.flatnonzero(keep[1:] != keep[:-1]).tolist()
    gap = -math.inf
    for first, stop in zip(edges[0::2], edges[1::2]):
        end = min(stop * SPAN, m)
        for lo in range(first * SPAN, end, BLOCK):
            gap = max(gap, _corner_gap(v[lo:min(lo + BLOCK, end)], lo, m, cdf))
    return gap


def _span_bounds(v: np.ndarray, lo: int, hi: int, cdf) -> tuple[np.ndarray, float]:
    """(B of each span, E) of the spans of atoms i = lo + 1..hi of the
    sorted sample v; lo is a multiple of SPAN, and so is hi unless it is
    v.size."""
    m = v.size
    at = np.arange(lo, hi + SPAN, SPAN)  # i - 1 of each span's first atom,
    at[-1] = min(hi, m - 1)  # then of the next span's, or of the last atom
    f = cdf(v[at])
    below, above = at / m, (at + 1) / m  # fl((i-1)/m) and fl(i/m)
    bound = np.maximum(np.minimum(at[:-1] + SPAN, m) / m - f[:-1], f[1:] - below[:-1])
    bound += TAU
    return bound, max(float(np.max(above - f)), float(np.max(f - below)))


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
