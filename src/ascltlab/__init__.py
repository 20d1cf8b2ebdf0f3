"""Numerical laboratory for almost-sure central limit behavior of weighted
sums under almost-orthogonal weight matrices, with circulant-spectrum and
periodogram applications."""

import numpy as np

__version__ = "0.1.0"

# values per block of every O(n) stage that runs in fixed blocks with reused
# scratch: 512 KiB of float64, small enough to stay in cache
BLOCK = 1 << 16


class ConfigError(ValueError):
    """A setting outside what a run accepts: the command line exits 2."""


def finite(v: np.ndarray, what: str) -> np.ndarray:
    """v, checked finite (else FloatingPointError) in slices of its first
    axis of at most BLOCK values, or one entry, so no array of v's size is
    made: a nan compares false with every threshold, so it would pass as a
    valid count."""
    step = max(1, BLOCK * len(v) // max(1, v.size))
    for lo in range(0, len(v), step):
        if not np.isfinite(v[lo : lo + step]).all():
            raise FloatingPointError(f"non-finite {what}")
    return v
