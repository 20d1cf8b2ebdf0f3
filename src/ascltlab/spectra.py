"""Random circulant-family ensembles, periodograms, and their spectra.

Circulant matrices are diagonalized exactly by the DFT, so no dense
eigensolver is ever needed in production code; the test suite anchors the
DFT formula against a dense solver at tiny n.

Normalization note: the periodogram here uses the 1/n convention,
I_n(2 pi k / n) = |sum_j e^{-i j 2 pi k / n} x_j|^2 / n, under which
I_n = (s_k^2 + t_k^2) / 2 for the trig-weighted partial sums and the
limit of the periodogram ECDF is the standard exponential law Exp(1).
The raw statistic s^2 + t^2 itself converges to chi-square(2); both limit
CDFs are exported by the empirical module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import empirical
from .sources import SourceSpec, sample_prefix
from .transform import partial_sums_fast

SYMMETRIC_CIRCULANT = "SymmetricCirculant"
REVERSE_CIRCULANT = "ReverseCirculant"


@dataclass(frozen=True)
class Spectrum:
    """Sorted real spectrum of one ensemble draw.

    exceptional holds the (at most two) eigenvalues that fall outside the
    paired +-sqrt(S^2+T^2) / multiplicity-two description; they are
    excluded from `eigenvalues` and from ESD comparisons, but never
    silently dropped.
    """

    eigenvalues: np.ndarray
    ensemble: str
    n: int
    normalization: float
    exceptional: tuple = ()

    def __post_init__(self):
        e = np.asarray(self.eigenvalues, dtype=float)
        if not np.all(np.isfinite(e)):
            raise ValueError("non-finite eigenvalues")
        if np.any(np.diff(e) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", e)

    def esd(self) -> empirical.EmpiricalMeasure:
        return empirical.EmpiricalMeasure(self.eigenvalues)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,eigenvalue\n")
            for i, v in enumerate(self.eigenvalues):
                fh.write(f"{i},{float(v)!r}\n")

    def summary(self, limit_cdf=None) -> dict:
        out = {
            "ensemble": self.ensemble,
            "n": self.n,
            "normalization": self.normalization,
            "count": int(self.eigenvalues.size),
            "exceptional": [float(v) for v in self.exceptional],
        }
        if limit_cdf is not None:
            out["ks_to_limit"] = empirical.ks_to(self.esd(), limit_cdf)
        return out


def circulant_eigen_dft(first_row: np.ndarray) -> np.ndarray:
    """Exact eigenvalues of the circulant with the given first row.

    lambda_k = sum_j c_j exp(-2 pi i j k / n), k = 0..n-1.
    """
    c = np.asarray(first_row, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("first_row must be a nonempty vector")
    return np.fft.fft(c)


def symmetric_circulant_first_row(x: np.ndarray, n: int) -> np.ndarray:
    """First row of the symmetric circulant: entries X_1..X_{[(n+1)/2]},
    then mirrored so row index i and n - i carry the same variable."""
    half = (n + 1) // 2
    x = np.asarray(x, dtype=float)
    if x.size < half:
        raise ValueError(f"need at least {half} inputs")
    c = np.empty(n)
    c[:half] = x[:half]
    for i in range(half, n):
        c[i] = c[n - i]
    return c


def symmetric_circulant_spectrum(
    n: int, spec: SourceSpec, standardize: tuple[float, float] = (0.0, 1.0)
) -> Spectrum:
    """Spectrum of the symmetric random circulant, scaled by 1/(sigma sqrt n).

    standardize = (m, sigma) declares the mean and standard deviation of
    the entries; entries are taken as m + sigma * X_j with X_j drawn from
    the (standardized) stream, then centered by m before scaling, which
    is the rank-one-subtraction equivalent used for the ESD limit.
    """
    m, sigma = standardize
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if n < 3:
        raise ValueError("need n >= 3")
    half = (n + 1) // 2
    x = m + sigma * sample_prefix(spec, half)
    c = symmetric_circulant_first_row((x - m) / sigma, n)
    eig = circulant_eigen_dft(c)
    if np.max(np.abs(eig.imag)) > 1e-9 * max(1.0, np.max(np.abs(eig.real))):
        raise ArithmeticError("symmetric circulant produced complex spectrum")
    vals = np.sort(eig.real / math.sqrt(n))
    return Spectrum(
        eigenvalues=vals,
        ensemble=SYMMETRIC_CIRCULANT,
        n=n,
        normalization=1.0 / (sigma * math.sqrt(n)),
    )


def reverse_circulant_spectrum(n: int, spec: SourceSpec) -> Spectrum:
    """Eigenvalues +-sqrt(S_{n,k}^2 + T_{n,k}^2), k = 1..floor((n-1)/2).

    The at-most-two eigenvalues outside the paired formula (frequency 0,
    and frequency n/2 for even n) are reported in `exceptional` in the
    same sqrt(2/n)-scaled units and excluded from the ESD.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    x = sample_prefix(spec, n)
    r = (n - 1) // 2
    ps = partial_sums_fast(n, r, x)
    mag = np.sqrt(ps.s**2 + ps.t**2)
    vals = np.sort(np.concatenate([-mag, mag]))
    scale = math.sqrt(2.0 / n)
    exceptional = [scale * float(np.sum(x))]
    if n % 2 == 0:
        signs = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
        exceptional.append(scale * float(np.sum(signs * x)))
    return Spectrum(
        eigenvalues=vals,
        ensemble=REVERSE_CIRCULANT,
        n=n,
        normalization=scale,
        exceptional=tuple(exceptional),
    )


def periodogram(x: np.ndarray, k: int) -> float:
    """I_n(2 pi k / n) = |sum_{j=1..n} e^{-i j 2 pi k / n} x_j|^2 / n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if not (1 <= k <= (n - 1) // 2):
        raise ValueError(f"need 1 <= k <= floor((n-1)/2) = {(n - 1) // 2}")
    j = np.arange(1, n + 1, dtype=np.int64)
    ang = 2.0 * np.pi * ((j * k) % n) / n
    c = float(np.cos(ang) @ x)
    s = float(np.sin(ang) @ x)
    return (c * c + s * s) / n


def periodogram_all(x: np.ndarray) -> np.ndarray:
    """All periodogram ordinates I_n(2 pi k / n), k = 1..floor((n-1)/2)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    r = (n - 1) // 2
    ps = partial_sums_fast(n, r, x)
    return (ps.s**2 + ps.t**2) / 2.0


def periodogram_ecdf_distance(n: int, spec: SourceSpec) -> float:
    """Exact KS distance of the periodogram ECDF to Exp(1)."""
    if n < 7:
        raise ValueError("need n >= 7")
    vals = periodogram_all(sample_prefix(spec, n))
    mu = empirical.EmpiricalMeasure.from_samples(vals)
    return empirical.ks_to(mu, empirical.exponential_cdf)
