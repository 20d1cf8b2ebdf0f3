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

FAMILIES = (
    "rademacher",
    "uniform",
    "two_point",
    "normal",
    "exponential",
    "heterogeneous",
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


def _unit(z: np.ndarray) -> np.ndarray:
    """Uniforms in (0,1) from splitmix64 outputs, reusing z's memory."""
    # 53 significant bits, offset by half an ulp to stay inside (0,1)
    np.right_shift(z, np.uint64(11), out=z)
    u = z.view(np.float64)
    np.add(z, 0.5, out=u, casting="unsafe")
    u *= 2.0**-53
    return u


@dataclass(frozen=True)
class SourceSpec:
    """A family of independent standardized random variables X_1, X_2, ...

    family      one of FAMILIES
    p           success probability for the two_point family
    components  sub-family specs for the heterogeneous family; index j uses
                components[(j - 1) % len(components)] (cyclic convention)
    master_seed root of all randomness (64-bit unsigned)
    stream_id   replica / sub-experiment identifier (64-bit unsigned)
    """

    family: str
    master_seed: int = 0
    stream_id: int = 0
    p: float | None = None
    components: tuple["SourceSpec", ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if not (0 <= self.stream_id < 2**64):
            raise ValueError("stream_id must be an unsigned 64-bit integer")
        if self.family == "two_point":
            if self.p is None or not (0.0 < self.p < 1.0):
                raise ValueError("two_point requires p in (0, 1)")
        elif self.p is not None:
            raise ValueError(f"family {self.family!r} takes no p parameter")
        if self.family == "heterogeneous":
            if not self.components:
                raise ValueError("heterogeneous requires a nonempty component list")
            object.__setattr__(self, "components", tuple(self.components))
            for c in self.components:
                if c.family == "heterogeneous":
                    raise ValueError("heterogeneous components must be simple families")
        elif self.components is not None:
            raise ValueError("components only valid for the heterogeneous family")

    def with_stream(self, stream_id: int) -> "SourceSpec":
        return replace(self, stream_id=int(stream_id))


def _stream_keys(spec: SourceSpec, lo: int, hi: int) -> np.ndarray:
    """Per-stream keys of streams spec.stream_id + lo .. spec.stream_id + hi - 1."""
    if spec.stream_id + hi > 2**64:
        raise ValueError("stream ids must stay below 2**64")
    z = np.empty(hi - lo + 1, dtype=np.uint64)
    z[0] = spec.master_seed
    z[1:] = np.arange(lo, hi, dtype=np.uint64) + np.uint64(spec.stream_id) + _GAMMA
    _mix64(z, np.empty_like(z))
    return z[1:] ^ z[0]


def _index_keys(start: int, count: int) -> np.ndarray:
    """j * gamma for the 1-based indices j = start..start+count-1."""
    return np.arange(start, start + count, dtype=np.uint64) * _GAMMA


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
    """Standardized draws from uniforms; may overwrite u."""
    if family == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if family == "uniform":
        # uniform on [-sqrt(3), sqrt(3)]: mean 0, variance 1
        u *= 2.0
        u -= 1.0
        u *= _SQRT3
        return u
    if family == "two_point":
        a = math.sqrt((1.0 - p) / p)
        b = -math.sqrt(p / (1.0 - p))
        return np.where(u < p, a, b)
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


def _draw(spec: SourceSpec | None, keys: np.ndarray, jg: np.ndarray, z: np.ndarray,
          t: np.ndarray, start: int = 1) -> np.ndarray:
    """Draws of the streams with the given keys, one row per key, at the
    indices j = start, start + 1, ... whose j * gamma is jg; with spec
    None, the uniforms in (0,1) themselves.

    z receives the draws and t is scratch, both uint64 arrays of shape
    (keys.size, jg.size).  The result is a float64 view of z or t, or a
    fresh array (two_point), so it lasts only until the buffers are reused.
    """
    np.add(keys[:, None], jg, out=z)
    if spec is not None and spec.family == "rademacher":
        return _rademacher(_mix64(z, t, sign_only=True))
    u = _unit(_mix64(z, t))
    if spec is None:
        return u
    if spec.family != "heterogeneous":
        return _transform(spec.family, spec.p, u)
    out = t.view(np.float64)
    L = len(spec.components)
    phase = np.arange(start - 1, start - 1 + jg.size) % L
    for i, comp in enumerate(spec.components):
        m = phase == i
        if m.any():
            out[:, m] = _transform(comp.family, comp.p, u[:, m])
    return out


def _uniform01(spec: SourceSpec, j: np.ndarray) -> np.ndarray:
    """Uniforms in (0,1), one per index; pure in (seed, stream, index)."""
    jg = j.astype(np.uint64, copy=False).ravel() * _GAMMA
    z = np.empty((1, jg.size), dtype=np.uint64)
    return _draw(None, _stream_keys(spec, 0, 1), jg, z, np.empty_like(z)).reshape(j.shape)


def sample_rows(spec: SourceSpec, lo: int, hi: int, start: int, count: int) -> np.ndarray:
    """Draws of streams lo..hi-1 (offsets from spec.stream_id) at indices
    start..start+count-1, as a (hi - lo) x count array.

    Row i equals sample_block(spec.with_stream(spec.stream_id + lo + i),
    start, count): a counter-based draw is a pure function of (seed,
    stream, index), so a whole block comes from one set of array passes.
    """
    if start < 1:
        raise ValueError("indices are 1-based")
    if not (0 <= lo <= hi):
        raise ValueError("need 0 <= lo <= hi")
    keys = _stream_keys(spec, lo, hi)
    z = np.empty((hi - lo, count), dtype=np.uint64)
    return _draw(spec, keys, _index_keys(start, count), z, np.empty_like(z), start)


def sample_block(spec: SourceSpec, start: int, count: int) -> np.ndarray:
    """X_start, ..., X_{start+count-1} as an array (indices are 1-based)."""
    return sample_rows(spec, 0, 1, start, count)[0]


def sample_prefix(spec: SourceSpec, n: int) -> np.ndarray:
    """The first n values X_1..X_n of the stream."""
    return sample_block(spec, 1, n)
