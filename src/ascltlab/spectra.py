"""Random circulant-family ensembles, periodograms, and their spectra.

Circulant matrices are diagonalized exactly by the DFT, so no dense
eigensolver is ever needed in production code; the test suite anchors
both spectra against a dense solver at small n.  Each ensemble returns
its sorted real eigenvalues with the spectrum's summary point, a dict;
only the symmetric ensemble's point compares the ESD with a limit law
(N(0, 1)).  The reverse ensemble's paired eigenvalues are the +-
periodogram magnitudes m: -m[::-1] then m, mirrored by construction.

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

from . import ConfigError, empirical
from .sources import SourceSpec, sample_prefix
from .transform import partial_sums_fast

SYMMETRIC_CIRCULANT = "SymmetricCirculant"
REVERSE_CIRCULANT = "ReverseCirculant"


def _spectrum(vals: np.ndarray, ensemble: str, n: int, normalization: float,
              exceptional: list[float]) -> tuple[np.ndarray, dict]:
    """(vals, the summary point) of the sorted eigenvalues vals, checked
    finite."""
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite eigenvalues")
    return vals, {"ensemble": ensemble, "n": n, "normalization": normalization,
                  "count": int(vals.size), "exceptional": exceptional}


def circulant_eigen_dft(first_row: np.ndarray) -> np.ndarray:
    """Exact eigenvalues of the circulant with the given first row.

    lambda_k = sum_j c_j exp(-2 pi i j k / n), k = 0..n-1.
    """
    c = np.asarray(first_row, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("first_row must be a nonempty vector")
    return np.fft.fft(c)


def symmetric_circulant_first_row(x: np.ndarray, n: int) -> np.ndarray:
    """First row of the symmetric circulant: entries X_1..X_{[n/2]+1},
    then mirrored so row index i and n - i carry the same variable.

    Indices 0..[n/2] are free (for even n, index n/2 is its own mirror),
    which is (n+1)/2 entries for odd n and n/2 + 1 for even n.
    """
    half = n // 2 + 1
    x = np.asarray(x, dtype=float)
    if x.size < half:
        raise ValueError(f"need at least {half} inputs")
    c = np.empty(n)
    c[:half] = x[:half]
    c[half:] = c[n - half : 0 : -1]
    return c


def symmetric_circulant_spectrum(n: int, spec: SourceSpec) -> tuple[np.ndarray, dict]:
    """Spectrum of the symmetric random circulant, scaled by 1/sqrt(n);
    its entries are the standardized draws of the stream."""
    if n < 3:
        raise ConfigError("need n >= 3")
    c = symmetric_circulant_first_row(sample_prefix(spec, n // 2 + 1), n)
    eig = circulant_eigen_dft(c)
    if np.max(np.abs(eig.imag)) > 1e-9 * max(1.0, np.max(np.abs(eig.real))):
        raise ArithmeticError("symmetric circulant produced complex spectrum")
    vals, point = _spectrum(np.sort(eig.real / math.sqrt(n)), SYMMETRIC_CIRCULANT, n,
                            1.0 / math.sqrt(n), [])
    point["ks_to_limit"] = empirical.ks_to(vals, empirical.normal_cdf)
    return vals, point


def reverse_circulant_spectrum(n: int, spec: SourceSpec) -> tuple[np.ndarray, dict]:
    """Eigenvalues +-sqrt(S_{n,k}^2 + T_{n,k}^2) = +-sqrt(2 I_n(2 pi k / n)),
    k = 1..floor((n-1)/2): -m[::-1] then m, for the sorted magnitudes m.

    The at-most-two eigenvalues outside the paired formula (frequency 0,
    and frequency n/2 for even n) are reported in `exceptional` in the
    same sqrt(2/n)-scaled units and excluded from the ESD.
    """
    if n < 3:
        raise ConfigError("need n >= 3")
    x = sample_prefix(spec, n)
    # 2 I_n is s^2 + t^2 bit for bit (halving and doubling are exact)
    m = np.sort(np.sqrt(2.0 * periodogram_all(x)))
    vals = np.concatenate([-m[::-1], m])
    scale = math.sqrt(2.0 / n)
    exceptional = [scale * float(np.sum(x))]
    if n % 2 == 0:
        signs = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
        exceptional.append(scale * float(np.sum(signs * x)))
    return _spectrum(vals, REVERSE_CIRCULANT, n, scale, exceptional)


def periodogram_all(x: np.ndarray) -> np.ndarray:
    """All periodogram ordinates I_n(2 pi k / n), k = 1..floor((n-1)/2)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    r = (n - 1) // 2
    s, t = partial_sums_fast(n, r, x)
    return (s**2 + t**2) / 2.0


def periodogram_ecdf_distance(n: int, spec: SourceSpec) -> float:
    """Exact KS distance of the periodogram ECDF to Exp(1)."""
    if n < 7:
        raise ConfigError("need n >= 7")
    return empirical.ks_to(periodogram_all(sample_prefix(spec, n)), empirical.exponential_cdf)
