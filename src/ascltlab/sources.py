"""Independent standardized input streams with counter-based sampling.

Every supported family has mean 0 and variance 1 exactly, by analytic
choice of the standardization constants.  A draw is a pure function of
(master_seed, stream_id, index), so one fixed sample path can be extended
as n grows: the first n1 values of a stream never depend on how many
values are ever requested (prefix stability).  Every draw is made by
stream_blocks, the one loop over a range of streams (sample_path is its
one-stream block), or by normal_grid.

Float draws are stored one-based: X_j of a stream sits at index j of its
n + 1 floats, and index 0 is a free slot.  The DFT of the partial sums
reads X_n, X_1, .., X_{n-1}, so it writes X_n into the slot and reads the
first n floats in place (transform.partial_sums_batch), for the whole
path and for every prefix of it alike.  The slot costs one float a stream.

Index j of a stream hashes the key stream_key + j * gamma with the
splitmix64 finalizer.  Every family but rademacher reads the hash as one
uniform.  A rademacher stream reads one hash per 64 indices: index j takes
bit (j - 1) % 64 of word (j - 1) // 64, the hash of the key of the word's
first index, -1 where the bit is clear and +1 where it is set.
stream_blocks hashes a block's words once and hands them out packed, as
their bytes (ldp reduces them through a byte table), or as float signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import BLOCK, ConfigError
from .special import ndtri

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
_FINALIZER = ((np.uint64(30), _M1), (np.uint64(27), _M2), (np.uint64(31), None))
# row v: the signs of bits 0..7 of the byte v, -1.0 where clear, +1.0 where set
BYTE_SIGNS = np.where(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                    bitorder="little"), 1.0, -1.0)


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied to the uint64 array z in place;
    t is scratch of z's shape."""
    for shift, mult in _FINALIZER:
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


def _index_keys(m: int, step: int = 1) -> np.ndarray:
    """j * gamma for the 1-based indices j = 1, 1 + step, .. up to m."""
    jg = np.arange(1, m + 1, step, dtype=np.uint64)
    jg *= _GAMMA
    return jg


def _sign_words(keys: np.ndarray, wg: np.ndarray, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The rademacher words at the keys keys[i] + wg[w], each the key of its
    word's first index, hashed into t (z is scratch of t's shape), as bytes:
    little-endian, so byte k of a word holds its bits 8k..8k+7."""
    return _mix64(np.add(keys[:, None], wg, out=t), z).view(np.uint8)


def _transform(family: str, p: float | None, u: np.ndarray) -> np.ndarray:
    """Standardized draws from uniforms, for every family but rademacher
    (see stream_blocks), written over u."""
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
    """Draws of the family, any but rademacher, at the keys keys[i] + jg[c],
    jg holding j * gamma for the indices j = 1..jg.size.  z receives the
    draws and t is scratch, both uint64 of shape (keys.size, jg.size); the
    result is a float64 view of z.
    """
    np.add(keys[:, None], jg, out=z)
    return _transform(family, p, _unit(_mix64(z, t), t))


def stream_blocks(spec: SourceSpec, n: int, lo: int, hi: int, rows: int, packed: bool = False):
    """X_1..X_n of the streams spec.stream_id + lo .. spec.stream_id + hi - 1,
    in order, as one-based (streams x (n + 1)) blocks of at most rows
    streams: X_j in column j, column 0 a free slot (see the module notes).
    A draw is pure in (seed, stream, index), so the block size changes no
    value.  The whole range is checked before the first draw, and each
    block's stream keys are derived as it is drawn, so memory does not grow
    with hi - lo.  All blocks share one buffer, so a block lasts only until
    the next one is drawn: whatever outlives that must be copied.

    A rademacher block hashes its sign words once, in one piece: a (streams
    x 8 ceil(n / 64)) uint8 array, byte k of a stream holding
    X_{8k+1}..X_{8k+8} from bit 0 up (bits past n are drawn too), word w
    keyed at its first index, (64 w + 1) gamma.  packed (rademacher only)
    yields them, rows n / 4 bytes with their scratch; callers size it at
    max(1, 8 BLOCK // n) streams, the memory of a float block of
    max(1, BLOCK // n).  Otherwise they go through BYTE_SIGNS into the
    float block, BLOCK signs a take (which copies its bytes to intp: BLOCK
    bytes).  The other families are drawn BLOCK indices at a time, over a
    (rows x BLOCK) scratch array and a BLOCK of index keys.  Either way the
    float block is the only n-long array of one stream: 8 (n + 1) bytes.
    A take into a block of more than one stream writes a strided view (the
    signs fill columns 1..n of each row), which numpy stages in a temporary
    of the take's out region and copies back: up to 8 BLOCK bytes more.
    """
    require_streams(spec, hi)
    rademacher = spec.family == "rademacher"
    if packed and not rademacher:
        raise ValueError(f"packed blocks hold rademacher signs, not {spec.family!r}")
    m = min(rows, hi - lo)
    if not packed:  # before the word keys, so an n too big fails here
        z = np.empty((m, n + 1), dtype=np.uint64)
        x = z.view(np.float64)
    if rademacher:
        wg = _index_keys(n, 64)
        w, t = np.empty((2, m, wg.size), dtype=np.uint64)
        q, s = divmod(n, 8)
    else:
        t = np.empty((m, min(n, BLOCK)), dtype=np.uint64)
        jg = _index_keys(t.shape[1])
    for b in range(lo, hi, rows):
        k = _stream_keys(spec, b, min(b + rows, hi))
        if rademacher:
            words = _sign_words(k, wg, w[:k.size], t[:k.size])
            if packed:
                yield words
                continue
            for a in range(0, q, BLOCK // 8):
                e = min(a + BLOCK // 8, q)
                out = x[:k.size, 8 * a + 1 : 8 * e + 1].reshape(k.size, e - a, 8)
                np.take(BYTE_SIGNS, words[:, a:e], axis=0, out=out, mode="clip")
            if s:
                x[:k.size, 8 * q + 1 :] = BYTE_SIGNS[words[:, q], :s]
        else:
            for c in range(1, n + 1, BLOCK):
                d = min(c + BLOCK, n + 1)
                _draw(spec.family, spec.p, k, jg[: d - c], z[:k.size, c:d], t[:k.size, : d - c])
                k += jg[-1]  # the keys of the next chunk, as jg[-1] is then BLOCK gamma
        yield x[:k.size]


def sample_path(spec: SourceSpec, n: int) -> np.ndarray:
    """X_1..X_n of the stream one-based, X_j at index j of n + 1 floats and
    index 0 a free slot: the one-stream block of stream_blocks (see there
    for its scratch); the generator is then dropped, so the caller owns it."""
    return next(stream_blocks(spec, n, 0, 1, 1))[0]


def sample_prefix(spec: SourceSpec, n: int) -> np.ndarray:
    """X_1..X_n of the stream: the view sample_path(spec, n)[1:]."""
    return sample_path(spec, n)[1:]


def normal_grid(spec: SourceSpec, n: int, r: int) -> np.ndarray:
    """n x r standard normals of the spec's stream, whatever its family:
    entry (i, c) is the normal draw at index i*n + c + 1.  Its key is row
    key key + i*n*gamma plus column key (c+1)*gamma (uint64, mod 2^64), so
    no array of indices is built.
    """
    row_keys = _stream_keys(spec, 0, 1) + np.arange(n, dtype=np.uint64) * np.uint64(n) * _GAMMA
    z = np.empty((n, r), dtype=np.uint64)
    return _draw("normal", None, row_keys, _index_keys(r), z, np.empty_like(z))
