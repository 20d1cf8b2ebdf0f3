"""Independent standardized input streams with counter-based sampling.

Every supported family has mean 0 and variance 1 exactly, by analytic
choice of the standardization constants.  A draw is a pure function of
(master_seed, stream_id, index), so one fixed sample path can be extended
as n grows: the first n1 values of a stream never depend on how many
values are ever requested (prefix stability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from . import BLOCK, ConfigError

FAMILIES = (
    "rademacher",
    "uniform",
    "two_point",
    "normal",
    "exponential",
)

_SQRT3 = math.sqrt(3.0)

# splitmix64 constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SIGN = np.uint64(1 << 63)
_MINUS_ONE_BITS = np.uint64(0xBFF0000000000000)  # IEEE-754 bits of -1.0
_FINALIZER = ((np.uint64(30), _M1), (np.uint64(27), _M2), (np.uint64(31), None))


def _mix64(z: np.ndarray, t: np.ndarray, sign_only: bool = False) -> np.ndarray:
    """The splitmix64 finalizer, applied to the uint64 array z in place;
    t is scratch of z's shape.

    sign_only leaves out the last step, z ^= z >> 31: it never changes
    bit 63, the only bit a Rademacher draw reads.
    """
    for shift, mult in _FINALIZER[:2] if sign_only else _FINALIZER:
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)
    return z


def _unit(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Uniforms in (0,1) from splitmix64 outputs, reusing z's memory; t is
    scratch (converting z in place would make numpy copy all of z first)."""
    # 53 significant bits, offset by half an ulp to stay inside (0,1)
    np.right_shift(z, np.uint64(11), out=t)
    u = z.view(np.float64)
    np.add(t, 0.5, out=u, casting="unsafe")
    u *= 2.0**-53
    return u


@dataclass(frozen=True)
class SourceSpec:
    """A family of independent standardized random variables X_1, X_2, ...

    family      one of FAMILIES
    p           success probability for the two_point family
    master_seed root of all randomness (64-bit unsigned)
    stream_id   replica / sub-experiment identifier (64-bit unsigned)
    """

    family: str
    master_seed: int = 0
    stream_id: int = 0
    p: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        for name, value in (("master_seed", self.master_seed), ("stream_id", self.stream_id)):
            if not 0 <= value < 2**64:
                raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {value}")
        if self.family == "two_point":
            if self.p is None or not (0.0 < self.p < 1.0):
                raise ConfigError("two_point requires p in (0, 1)")
        elif self.p is not None:
            raise ConfigError(f"family {self.family!r} takes no p parameter")

    def with_stream(self, stream_id: int) -> "SourceSpec":
        return replace(self, stream_id=int(stream_id))


def require_streams(spec: SourceSpec, hi: int) -> None:
    """Refuse unless the streams spec.stream_id .. + hi - 1 are all below 2**64."""
    if spec.stream_id + hi > 2**64:
        raise ConfigError("stream ids must stay below 2**64")


def _stream_keys(spec: SourceSpec, lo: int, hi: int) -> np.ndarray:
    """Per-stream keys of streams spec.stream_id + lo .. + hi - 1 (see require_streams)."""
    z = np.empty(hi - lo + 1, dtype=np.uint64)
    z[0] = spec.master_seed
    z[1:] = np.arange(lo, hi, dtype=np.uint64) + np.uint64(spec.stream_id) + _GAMMA
    _mix64(z, np.empty_like(z))
    return z[1:] ^ z[0]


def _index_keys(lo: int, hi: int) -> np.ndarray:
    """j * gamma for the 1-based indices j = lo + 1..hi."""
    jg = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    jg *= _GAMMA
    return jg


def _rademacher(z: np.ndarray) -> np.ndarray:
    """Rademacher signs from splitmix64 outputs, reusing z's memory.

    The uniform ((z >> 11) + 0.5) 2^-53 is below 1/2 exactly when bit 63
    of z is clear, so that bit alone picks -1 (clear) or +1 (set): it
    clears the sign bit of -1.0.
    """
    np.bitwise_and(z, _SIGN, out=z)
    np.bitwise_xor(z, _MINUS_ONE_BITS, out=z)
    return z.view(np.float64)


def _transform(family: str, p: float | None, u: np.ndarray) -> np.ndarray:
    """Standardized draws from uniforms, for every family but rademacher
    (see _rademacher), written over u."""
    if family == "uniform":
        # uniform on [-sqrt(3), sqrt(3)]: mean 0, variance 1
        u *= 2.0
        u -= 1.0
        u *= _SQRT3
        return u
    if family == "two_point":
        mask = u < p
        u.fill(-math.sqrt(p / (1.0 - p)))
        np.copyto(u, math.sqrt((1.0 - p) / p), where=mask)
        return u
    if family == "normal":
        return ndtri(u, out=u)
    if family == "exponential":
        # Exp(1) shifted to mean 0; variance is already 1
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u -= 1.0
        return u
    raise AssertionError(family)


def _draw(family: str, p: float | None, keys: np.ndarray, jg: np.ndarray, z: np.ndarray,
          t: np.ndarray) -> np.ndarray:
    """Draws of the family at the keys keys[i] + jg[c], jg holding j * gamma
    for the indices j.  z receives them and t is scratch, both uint64 of
    shape (keys.size, jg.size); the result is a float64 view of z.
    """
    np.add(keys[:, None], jg, out=z)
    if family == "rademacher":
        return _rademacher(_mix64(z, t, sign_only=True))
    return _transform(family, p, _unit(_mix64(z, t), t))


def stream_blocks(spec: SourceSpec, n: int, lo: int, hi: int, rows: int):
    """X_1..X_n of the streams spec.stream_id + lo .. spec.stream_id + hi - 1,
    in order, as (streams x n) blocks of at most rows streams; a draw is pure
    in (seed, stream, index), so the block size changes no value.  The whole
    range is checked before the first draw, and each block's stream keys are
    derived as it is drawn, so memory does not grow with hi - lo.  All blocks
    share one buffer pair, so a block lasts only until the next one is drawn:
    whatever outlives that must be copied.
    """
    require_streams(spec, hi)
    z = np.empty((min(rows, hi - lo), n), dtype=np.uint64)
    jg = _index_keys(0, n)
    t = np.empty_like(z)
    for b in range(lo, hi, rows):
        k = _stream_keys(spec, b, min(b + rows, hi))
        yield _draw(spec.family, spec.p, k, jg, z[:k.size], t[:k.size])


def sample_prefix(spec: SourceSpec, n: int) -> np.ndarray:
    """The first n values X_1..X_n of the stream.

    They are drawn straight into the result, BLOCK values at a time, with
    one block of scratch: about n + 2 BLOCK floats in all.  A draw is pure
    in (seed, stream, index), so the blocks change no value.
    """
    key = _stream_keys(spec, 0, 1)
    x = np.empty(n)
    z = x.view(np.uint64)[None]
    t = np.empty((1, min(n, BLOCK)), dtype=np.uint64)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        _draw(spec.family, spec.p, key, _index_keys(lo, hi), z[:, lo:hi], t[:, : hi - lo])
    return x


def normal_grid(spec: SourceSpec, n: int, r: int) -> np.ndarray:
    """n x r standard normals of the spec's stream, whatever its family:
    entry (i, c) is the normal draw at index i*n + c + 1.  Its key is row
    key key + i*n*gamma plus column key (c+1)*gamma (uint64, mod 2^64), so
    no array of indices is built.
    """
    row_keys = _stream_keys(spec, 0, 1) + np.arange(n, dtype=np.uint64) * np.uint64(n) * _GAMMA
    z = np.empty((n, r), dtype=np.uint64)
    return _draw("normal", None, row_keys, _index_keys(0, r), z, np.empty_like(z))
