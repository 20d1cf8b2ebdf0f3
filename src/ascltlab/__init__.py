"""Numerical laboratory for almost-sure central limit behavior of weighted
sums under almost-orthogonal weight matrices, with circulant-spectrum and
periodogram applications."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A setting outside what a run accepts: the command line exits 2."""
