import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtri

from ascltlab import BLOCK
from ascltlab.empirical import (
    SPAN,
    exponential_cdf,
    ks_to,
    normal_cdf,
    wilson_interval,
)
from ascltlab.sources import SourceSpec, sample_prefix
from ascltlab.transform import partial_sums_fast

from . import oracles
from .oracles import empirical_char, joint_cdf
from .test_weights import peak_bytes


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    quad, _ = integrate.quad(
        lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), -np.inf, 1.96
    )
    assert abs(normal_cdf(1.96) - quad) < 1e-10
    assert normal_cdf(1.96) == pytest.approx(0.975002, abs=1e-6)


def test_normal_cdf_symmetry():
    for x in [0.5, 1.0, 2.0, 5.0]:
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-14


def test_normal_cdf_monotone_on_grid():
    grid = np.linspace(-8.0, 8.0, 10**5)
    vals = normal_cdf(grid)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_ks_atom_at_zero_vs_normal():
    assert ks_to(np.array([0.0]), normal_cdf) == 0.5


def test_ks_atom_at_zero_vs_exponential():
    assert ks_to(np.array([0.0]), exponential_cdf) == 1.0


def test_ks_midpoint_quantiles():
    m = 100
    vals = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert ks_to(vals, normal_cdf) == pytest.approx(
        1.0 / (2.0 * m), abs=1e-12
    )


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_ks_shuffle_invariant(seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(50)
    base = ks_to(vals, normal_cdf)
    shuffled = vals.copy()
    rng.shuffle(shuffled)
    assert ks_to(shuffled, normal_cdf) == base


def _tied_at_span_edges(v: np.ndarray) -> np.ndarray:
    """v sorted, with four equal values across each span edge (and so each
    block edge), shuffled."""
    v = np.sort(v)
    for edge in range(SPAN, v.size, SPAN):
        v[edge - 2 : edge + 2] = v[edge - 2]
    np.random.default_rng(v.size).shuffle(v)
    return v


def _at_the_cdf_ends(v: np.ndarray, ends: tuple[float, float]) -> np.ndarray:
    """v sorted, its lowest and highest k values set to the two ends, k =
    BLOCK + 2 (across the first and the last block edge) or a third of v,
    shuffled."""
    v = np.sort(v)
    k = min(BLOCK + 2, v.size // 3)
    v[:k], v[v.size - k :] = ends
    np.random.default_rng(v.size).shuffle(v)
    return v


def _signed_zeros(v: np.ndarray) -> np.ndarray:
    """v with its middle third replaced by alternating 0.0 and -0.0."""
    v = v.copy()
    third = v[v.size // 3 : 2 * v.size // 3]
    third[0::2], third[1::2] = 0.0, -0.0
    return v


_KS_SIZES = [1, 63, 64, 65, 3 * BLOCK + 1, 4 * BLOCK, 3 * BLOCK + 17, 524_287]


@pytest.mark.parametrize("cdf, draw, ends", [
    pytest.param(normal_cdf, "standard_normal", (-40.0, 40.0), id="normal_cdf-standard_normal"),
    pytest.param(exponential_cdf, "standard_exponential", (0.0, 800.0),
                 id="exponential_cdf-standard_exponential"),
])
@pytest.mark.parametrize("m", _KS_SIZES)
def test_blocked_ks_matches_the_one_pass_reference(cdf, draw, ends, m):
    # 3 BLOCK + 1 leaves a last block of one atom, 65 a last span of one.
    # F is exactly 0.0 and 1.0 at the ends, so i/m - F and F - (i-1)/m each
    # take both signs there
    assert cdf(np.array(ends)).tolist() == [0.0, 1.0]
    rng = np.random.default_rng(m)
    for v in (getattr(rng, draw)(m), _tied_at_span_edges(getattr(rng, draw)(m)),
              _at_the_cdf_ends(getattr(rng, draw)(m), ends),
              _signed_zeros(getattr(rng, draw)(m))):
        assert ks_to(v, cdf) == oracles.ks_to(v, cdf)
    # midpoint quantiles: every atom is within rounding of the max gap
    # 1/(2m), so every span is evaluated
    mid = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert ks_to(mid, normal_cdf) == oracles.ks_to(mid, normal_cdf)


def test_ks_slack_covers_a_dip_of_the_cdf_inside_its_envelope():
    # 128 atoms v_k = k - 1, two spans, and a tabulated F: 3/16 on atoms
    # 1-63, then a dip of 2^-48 at atom 64, the last of span 0, inside the
    # 2^-48 envelope of F's non-monotonicity that TAU covers.  D is the gap
    # at atom 64, 5/16 + 2^-48, while span 0's bound without TAU is 5/16
    # and E, the gap at atom 65, is 5/16 + 2^-49: only the slack keeps span 0
    m = 128
    f = np.arange(m) / m
    f[:63] = 3 / 16
    f[63] = 3 / 16 - 2.0**-48
    f[64] = 1 / 128 + 3 / 16 - 2.0**-49

    def cdf(x):
        return f[np.asarray(x).astype(np.intp)]

    v = np.arange(float(m))
    assert ks_to(v, cdf) == oracles.ks_to(v, cdf) == float.fromhex("0x1.4000000000040p-2")


def _counted(cdf, sizes: list):
    """cdf, appending the size of each argument to sizes."""
    def wrapped(v):
        sizes.append(np.size(v))
        return cdf(v)
    return wrapped


def test_ks_evaluates_the_cdf_on_few_atoms():
    x = np.random.default_rng(6).standard_normal(524_287)
    sizes: list[int] = []
    assert ks_to(x, _counted(normal_cdf, sizes)) == oracles.ks_to(x, normal_cdf)
    assert sum(sizes) <= 0.1 * x.size, f"F was evaluated at {sum(sizes)} atoms of {x.size}"
    # where every span can hold the maximum, every atom is evaluated once,
    # and the first of each span once more
    sizes.clear()
    mid = ndtri((np.arange(1, x.size + 1) - 0.5) / x.size)
    ks_to(mid, _counted(normal_cdf, sizes))
    assert x.size + x.size // SPAN < sum(sizes) < x.size + x.size // SPAN + 8


def test_ks_memory_is_the_sorted_copy_and_a_few_blocks():
    # the one-pass reference held about five n-long temporaries besides
    x = np.random.default_rng(4).standard_normal(2**19)
    for cdf in (normal_cdf, exponential_cdf):
        _, peak = peak_bytes(lambda: ks_to(x, cdf))
        assert peak <= x.nbytes + 2 * 2**20, f"ks_to peaked at {peak / 2**20:.1f} MiB"


def test_dkw_sanity():
    # KS <= 1.36/sqrt(m) in at least 90% of 200 exact-normal replicas
    m, hits = 400, 0
    for seed in range(200):
        spec = SourceSpec(family="normal", master_seed=seed, stream_id=5)
        if ks_to(sample_prefix(spec, m), normal_cdf) <= 1.36 / math.sqrt(m):
            hits += 1
    assert hits >= 180


def test_joint_cdf_examples():
    pairs = np.array([[0.0, 0.0]])
    assert joint_cdf(pairs, 1.0, 1.0) == 1.0
    assert joint_cdf(pairs, 1.0, -1.0) == 0.0


def test_joint_cdf_gaussian_oracle():
    spec = SourceSpec(family="normal", master_seed=23)
    ps = partial_sums_fast(2**15, 10**4, sample_prefix(spec, 2**15))
    pairs = np.column_stack([ps.s, ps.t])
    assert abs(joint_cdf(pairs, 0.0, 0.0) - 0.25) < 0.02


def test_empirical_char_examples():
    assert empirical_char(np.array([0.0]), 3.7) == 1.0
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(100)
    assert empirical_char(vals, 0.0) == 1.0


def test_empirical_char_gaussian_oracle():
    spec = SourceSpec(family="normal", master_seed=41)
    vals = sample_prefix(spec, 10**5)
    assert abs(empirical_char(vals, 1.0) - math.exp(-0.5)) <= 0.01


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    s=st.floats(min_value=-20, max_value=20, allow_nan=False),
    t=st.floats(min_value=-20, max_value=20, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_char_modulus_bounded(seed, s, t):
    rng = np.random.default_rng(seed)
    pairs = rng.standard_normal((30, 2))
    val = empirical_char(pairs, s, t)
    assert abs(val) <= 1.0 + 1e-12
    assert empirical_char(pairs, 0.0, 0.0) == 1.0


def test_measure_validation():
    for bad in ([np.nan], [0.0, np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(FloatingPointError):
            ks_to(np.array(bad), normal_cdf)
    with pytest.raises(ValueError):
        ks_to(np.array([]), normal_cdf)
    with pytest.raises(ValueError):
        ks_to(np.zeros((2, 2)), normal_cdf)


@pytest.mark.parametrize("hits, trials", [(1, 10), (5, 10), (9, 10), (223, 100000), (1, 2)])
def test_wilson_bounds_solve_the_score_equation(hits, trials):
    # each bound p solves (hits/trials - p)^2 = z^2 p (1 - p) / trials
    z = 1.959963984540054
    lo, hi = wilson_interval(hits, trials)
    assert 0.0 < lo < hits / trials < hi < 1.0
    for p in (lo, hi):
        assert (hits / trials - p) ** 2 == pytest.approx(z * z * p * (1.0 - p) / trials, rel=1e-9)


def test_wilson_interval_edges():
    z2 = 1.959963984540054**2
    assert wilson_interval(0, 10) == (0.0, pytest.approx(z2 / (10 + z2)))
    assert wilson_interval(10, 10) == (pytest.approx(10 / (10 + z2)), 1.0)
    lo, hi = wilson_interval(5, 10)
    assert (lo, hi) == (pytest.approx(0.236593090), pytest.approx(0.763406910))
    for hits, trials in ((-1, 10), (11, 10), (0, 0)):
        with pytest.raises(ValueError):
            wilson_interval(hits, trials)
