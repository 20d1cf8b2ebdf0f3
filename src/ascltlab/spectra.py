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
with no copy.  Both build their equal or opposite eigenvalue pairs from
one float: the symmetric lambda_k = lambda_{n-k} is written twice, and
the reverse ensemble's pairs are the +- periodogram magnitudes m:
-m[::-1] then m, for the sorted m, checked finite at its top end, where
nan and +inf sort (m >= 0).  The periodogram and the reverse spectrum
read the one-based path in place (transform.partial_sums_batch) and
release it once it is transformed; the n/2 ordinates are then built in
an array of their own, so the rfft output can be freed.  The path and
the rfft output, 16n bytes, are each one's peak.  The periodogram hands
its ordinates to empirical.ks_in_place, which sorts them with no copy.

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
from .sources import SourceSpec, sample_path, sample_prefix
from .transform import partial_sums_batch

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
    h = lambda_0..lambda_{n//2} / sqrt(n).  lambda_{n-k} = lambda_k:
    h[1:(n+1)//2] is written twice, so every pair is one float.
    """
    if n < 3:
        raise ConfigError("need n >= 3")
    h = np.fft.irfft(sample_prefix(spec, n // 2 + 1), n, norm="ortho")[: n // 2 + 1]
    vals = np.concatenate([h, h[1 : (n + 1) // 2]])
    point = _spectrum(vals, "SymmetricCirculant", n, 1.0 / math.sqrt(n), [])
    point["ks_to_limit"] = empirical.ks_in_place(vals, empirical.normal_cdf)  # sorts vals
    return vals, point


def reverse_circulant_spectrum(n: int, spec: SourceSpec) -> tuple[np.ndarray, dict]:
    """Eigenvalues +-sqrt(S_{n,k}^2 + T_{n,k}^2) = +-sqrt(2 I_n(2 pi k / n)),
    k = 1..floor((n-1)/2): -m[::-1] then m, for the sorted magnitudes m.

    The at-most-two eigenvalues outside the paired formula (frequency 0,
    and frequency n/2 for even n) are reported in `exceptional` in the
    same sqrt(2/n)-scaled units and excluded from the ESD.  Both are taken
    before the transform, and the path is released once it is done, so the
    peak is the path and the rfft output, 16n bytes, at every n.
    """
    if n < 3:
        raise ConfigError("need n >= 3")
    path = sample_path(spec, n)
    x = path[1:]
    scale = math.sqrt(2.0 / n)
    exceptional = [scale * float(np.sum(x))]
    if n % 2 == 0:  # the sum of x with its 0-based even positions negated
        exceptional.append(scale * float(np.sum(x[1::2]) - np.sum(x[::2])))
    s, t = partial_sums_batch(n, (n - 1) // 2, path)
    del path, x
    # 2 I_n is s^2 + t^2 bit for bit (halving and doubling are exact)
    m = _power(s, t)
    del s, t
    np.sqrt(m, out=m)
    m.sort()
    finite(m[-1:], "eigenvalues")
    vals = np.empty(2 * m.size)
    np.negative(m[::-1], out=vals[: m.size])
    vals[m.size :] = m
    return vals, _spectrum(vals, "ReverseCirculant", n, scale, exceptional)


def _power(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """s^2 + t^2 in an array of its own, so that the rfft output under s
    and t can be freed; t is squared in place."""
    p = s * s
    t *= t
    p += t
    return p


def periodogram_all(path: np.ndarray) -> np.ndarray:
    """All periodogram ordinates I_n(2 pi k / n) = (s_k^2 + t_k^2) / 2,
    k = 1..floor((n-1)/2), of the one-based path X_1..X_n (n + 1 floats,
    X_j at path[j], see transform.partial_sums_batch)."""
    n = path.size - 1
    s, t = partial_sums_batch(n, (n - 1) // 2, path)
    del path  # a path no caller holds is freed before the ordinates are built
    p = _power(s, t)
    p /= 2.0
    return p


def periodogram_ecdf_distance(n: int, spec: SourceSpec) -> float:
    """Exact KS distance of the periodogram ECDF to Exp(1)."""
    if n < 7:
        raise ConfigError("need n >= 7")
    return empirical.ks_in_place(periodogram_all(sample_path(spec, n)), empirical.exponential_cdf)
