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
from scipy import integrate
from scipy.special import lambertw, ndtri

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


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied to a uint64 array in place."""
    t = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
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
    streams = np.arange(lo, hi, dtype=np.uint64) + np.uint64(spec.stream_id)
    seed_key = _mix64(np.array([spec.master_seed], dtype=np.uint64))
    return seed_key ^ _mix64(streams + _GAMMA)


def _counters(keys: np.ndarray, j: np.ndarray) -> np.ndarray:
    """splitmix64 outputs for every (stream key, index) pair, shape keys x j."""
    return _mix64(np.add.outer(keys, j.astype(np.uint64) * _GAMMA))


def _uniform01(spec: SourceSpec, j: np.ndarray) -> np.ndarray:
    """Uniforms in (0,1), one per index; pure in (seed, stream, index)."""
    return _unit(_counters(_stream_keys(spec, 0, 1), j)[0])


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
    j = np.arange(start, start + count, dtype=np.uint64)
    z = _counters(_stream_keys(spec, lo, hi), j)
    if spec.family == "rademacher":
        return _rademacher(z)
    u = _unit(z)
    if spec.family != "heterogeneous":
        return _transform(spec.family, spec.p, u)
    out = np.empty_like(u)
    L = len(spec.components)
    phase = (j.astype(np.int64) - 1) % L
    for i, comp in enumerate(spec.components):
        m = phase == i
        if m.any():
            out[:, m] = _transform(comp.family, comp.p, u[:, m])
    return out


def sample_block(spec: SourceSpec, start: int, count: int) -> np.ndarray:
    """X_start, ..., X_{start+count-1} as an array (indices are 1-based)."""
    return sample_rows(spec, 0, 1, start, count)[0]


def sample_prefix(spec: SourceSpec, n: int) -> np.ndarray:
    """The first n values X_1..X_n of the stream."""
    return sample_block(spec, 1, n)


def sample(spec: SourceSpec, j: int) -> float:
    """Single draw X_j; identical no matter what else was sampled."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return float(sample_block(spec, j, 1)[0])


# --- closed-form moments ---------------------------------------------------

def _third_abs_moment(spec: SourceSpec) -> float:
    f = spec.family
    if f == "rademacher":
        return 1.0
    if f == "uniform":
        # int |x|^3 / (2 sqrt 3) over [-sqrt3, sqrt3] = 3 sqrt(3) / 4
        return 3.0 * _SQRT3 / 4.0
    if f == "two_point":
        p = spec.p
        return ((1.0 - p) ** 2 + p**2) / math.sqrt(p * (1.0 - p))
    if f == "normal":
        return 2.0 * math.sqrt(2.0 / math.pi)
    if f == "exponential":
        # E|E-1|^3 with E ~ Exp(1): 12/e - 2
        return 12.0 / math.e - 2.0
    if f == "heterogeneous":
        return max(_third_abs_moment(c) for c in spec.components)
    raise AssertionError(f)


def _exp_weighted_third_moment(spec: SourceSpec, tau: float) -> float:
    """E(|X|^3 exp(|X|/tau)); +inf when the integral diverges."""
    f = spec.family
    if f == "rademacher":
        return math.exp(1.0 / tau)
    if f == "two_point":
        p = spec.p
        a = math.sqrt((1.0 - p) / p)
        b = math.sqrt(p / (1.0 - p))
        return p * a**3 * math.exp(a / tau) + (1.0 - p) * b**3 * math.exp(b / tau)
    if f == "uniform":
        val, _ = integrate.quad(
            lambda x: x**3 * math.exp(x / tau) / _SQRT3, 0.0, _SQRT3
        )
        return val
    if f == "normal":
        val, _ = integrate.quad(
            lambda x: 2.0
            * x**3
            * math.exp(x / tau)
            * math.exp(-0.5 * x * x)
            / math.sqrt(2.0 * math.pi),
            0.0,
            np.inf,
        )
        return val
    if f == "exponential":
        if tau <= 1.0:
            return math.inf  # tail e^{x/tau} e^{-x} not integrable

        def integrand(x):
            e = abs(x - 1.0) / tau - x  # combined exponent; -> -inf in the tail
            return 0.0 if e < -700.0 else abs(x - 1.0) ** 3 * math.exp(e)

        lo, _ = integrate.quad(integrand, 0.0, 1.0)
        hi, _ = integrate.quad(integrand, 1.0, np.inf, limit=200)
        return lo + hi
    if f == "heterogeneous":
        return max(_exp_weighted_third_moment(c, tau) for c in spec.components)
    raise AssertionError(f)


_TAU_LO, _TAU_HI = 1e-3, 1e3


def _smallest_tau(spec: SourceSpec) -> float | None:
    """Smallest tau in [1e-3, 1e3] with E(|X|^3 e^{|X|/tau}) <= tau.

    The left side decreases and the right side increases in tau, so a
    bisection on their difference finds the crossing.  Rademacher has the
    closed form exp(1/tau) = tau, i.e. tau = exp(W(1)).
    """
    if spec.family == "rademacher":
        return float(np.exp(lambertw(1.0).real))

    def gap(tau: float) -> float:
        try:
            return _exp_weighted_third_moment(spec, tau) - tau
        except OverflowError:
            return math.inf  # exp blows up at tiny tau; treated as "too small"

    if gap(_TAU_HI) > 0.0:
        return None
    lo, hi = _TAU_LO, _TAU_HI
    if gap(lo) <= 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float
    third_abs_moment: float
    exp_moment_tau: float | None


def moment_report(spec: SourceSpec) -> MomentReport:
    """Closed-form moments; exp_moment_tau is None when no finite tau works."""
    return MomentReport(
        mean=0.0,
        variance=1.0,
        third_abs_moment=_third_abs_moment(spec),
        exp_moment_tau=_smallest_tau(spec),
    )
