"""Random circulant-family ensembles, periodograms, and their spectra.

Circulant matrices are diagonalized exactly by the DFT, so no dense
eigensolver is ever needed in production code; the test suite anchors
both spectra against a dense solver at small n.  Each ensemble's
spectrum is one real DFT of its draws: an inverse real DFT of the
symmetric circulant's free entries, the forward one behind the
periodogram for the reverse circulant.  Each returns its sorted real
eigenvalues with the spectrum's summary point, a dict; only the
symmetric ensemble's point compares the ESD with a limit law (N(0, 1)),
by empirical.ks_in_place on its eigenvalues, which it sorts and checks
with no copy.  Each spectrum is built in the array it returns, each
equal or opposite pair from one float (see each function); the reverse
magnitudes m >= 0 are checked finite at their sorted top end, where nan
and +inf sort.  The periodogram and the reverse spectrum take their sums
from transform.along_path and build the ordinates with periodogram_all,
which the periodogram's KS (empirical.ks_in_place) sorts with no copy.

Normalization note: the periodogram here uses the 1/n convention,
I_n(2 pi k / n) = |sum_j e^{-i j 2 pi k / n} x_j|^2 / n, under which
I_n = (s_k^2 + t_k^2) / 2 for the trig-weighted partial sums and the
limit of the periodogram ECDF is the standard exponential law Exp(1).
The raw statistic s^2 + t^2 itself converges to chi-square(2); the
empirical module exports the Exp(1) CDF.
"""

from __future__ import annotations

import math

import numpy as np

from . import ConfigError, empirical, finite
from .sources import SourceSpec, sample_prefix
from .transform import along_path

def _spectrum(vals: np.ndarray, ensemble: str, n: int, normalization: float,
              exceptional: list[float]) -> dict:
    """The summary point of the eigenvalues vals."""
    return {"ensemble": ensemble, "n": n, "normalization": normalization,
            "count": int(vals.size), "exceptional": exceptional}


def symmetric_circulant_spectrum(n: int, spec: SourceSpec) -> tuple[np.ndarray, dict]:
    """Spectrum of the symmetric random circulant, scaled by 1/sqrt(n);
    the n//2 + 1 free entries x_0..x_{n//2} of its first row are the
    standardized draws of the stream, and entry j equals entry n - j.

    lambda_k = x_0 + 2 sum_{1 <= j < n/2} x_j cos(2 pi j k / n) (+ (-1)^k
    x_{n/2} for even n) is n irfft(x, n)[k], so one inverse real DFT gives
    all n of them / sqrt(n); lambda_k is written over its equal lambda_{n-k},
    k = 1..(n-1)//2, so every pair is one float.
    """
    if n < 3:
        raise ConfigError("need n >= 3")
    c = np.zeros(n // 2 + 1, dtype=complex)  # irfft reads it with no copy
    c.real = sample_prefix(spec, n // 2 + 1)
    vals = np.fft.irfft(c, n, norm="ortho")
    del c  # freed before the KS
    vals[n // 2 + 1 :] = vals[1 : (n + 1) // 2]
    point = _spectrum(vals, "SymmetricCirculant", n, 1.0 / math.sqrt(n), [])
    point["ks_to_limit"] = empirical.ks_in_place(vals, empirical.normal_cdf)  # sorts vals
    return vals, point


def reverse_circulant_spectrum(n: int, spec: SourceSpec) -> tuple[np.ndarray, dict]:
    """Eigenvalues +-sqrt(S_{n,k}^2 + T_{n,k}^2) = +-sqrt(2 I_n(2 pi k / n)),
    k = 1..floor((n-1)/2): -m[::-1] then m, for the sorted magnitudes m.

    The at-most-two eigenvalues outside the paired formula (frequency 0,
    and frequency n/2 for even n) are reported in `exceptional` in the
    same sqrt(2/n)-scaled units and excluded from the ESD.  Both are read
    from the path before its transform (transform.along_path).
    """
    if n < 3:
        raise ConfigError("need n >= 3")
    scale = math.sqrt(2.0 / n)
    exceptional = []

    def read(x):
        exceptional.append(scale * float(np.sum(x)))
        if n % 2 == 0:  # the sum of x with its 0-based even positions negated
            exceptional.append(scale * float(np.sum(x[1::2]) - np.sum(x[::2])))

    def eigenvalues(n, r, s, t):
        vals = np.empty(2 * r)
        m = periodogram_all(s, t, out=vals[r:])  # the top half
        m *= 2.0  # s^2 + t^2 bit for bit: halving and doubling are exact
        np.sqrt(m, out=m)
        m.sort()
        finite(m[-1:], "eigenvalues")
        np.negative(m[::-1], out=vals[:r])
        return vals

    vals = along_path(spec, [(n, (n - 1) // 2)], eigenvalues, read)[0]
    return vals, _spectrum(vals, "ReverseCirculant", n, scale, exceptional)


def periodogram_all(s: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All periodogram ordinates I_n(2 pi k / n) = (s_k^2 + t_k^2) / 2,
    k = 1..floor((n-1)/2), of the trig sums s and t of X_1..X_n
    (transform.along_path), in out (a new array by default), so that the
    rfft output under s and t can be freed; t is squared in place."""
    p = np.multiply(s, s, out=out)
    t *= t
    p += t
    p /= 2.0
    return p


def periodogram_ecdf_distance(n: int, spec: SourceSpec) -> float:
    """Exact KS distance of the periodogram ECDF to Exp(1)."""
    if n < 7:
        raise ConfigError("need n >= 7")

    def ks(n, r, s, t):
        return empirical.ks_in_place(periodogram_all(s, t), empirical.exponential_cdf)

    return along_path(spec, [(n, (n - 1) // 2)], ks)[0]
