"""Numerical laboratory for almost-sure central limit behavior of weighted
sums under almost-orthogonal weight matrices, with circulant-spectrum and
periodogram applications."""

__version__ = "0.1.0"

# values per block of every O(n) stage that runs in fixed blocks with reused
# scratch: 512 KiB of float64, small enough to stay in cache
BLOCK = 1 << 16


class ConfigError(ValueError):
    """A setting outside what a run accepts: the command line exits 2."""
