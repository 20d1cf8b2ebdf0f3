import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtri

from ascltlab import BLOCK
from ascltlab.empirical import (
    exponential_cdf,
    ks_to,
    normal_cdf,
    rate_function_gaussian,
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


def _tied_at_block_edges(v: np.ndarray) -> np.ndarray:
    """v sorted, with four equal values across each block edge, shuffled."""
    v = np.sort(v)
    for edge in range(BLOCK, v.size, BLOCK):
        v[edge - 2 : edge + 2] = v[edge - 2]
    np.random.default_rng(v.size).shuffle(v)
    return v


@pytest.mark.parametrize("cdf, draw", [(normal_cdf, "standard_normal"),
                                       (exponential_cdf, "standard_exponential")])
@pytest.mark.parametrize("m", [3 * BLOCK + 1, 4 * BLOCK, 3 * BLOCK + 17])
def test_blocked_ks_matches_the_one_pass_reference(cdf, draw, m):
    # 3 BLOCK + 1 leaves a last block of one atom
    rng = np.random.default_rng(m)
    for v in (getattr(rng, draw)(m), _tied_at_block_edges(getattr(rng, draw)(m))):
        assert ks_to(v, cdf) == oracles.ks_to(v, cdf)
    # midpoint quantiles: every atom is within rounding of the max gap 1/(2m)
    mid = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert ks_to(mid, normal_cdf) == oracles.ks_to(mid, normal_cdf)


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


def test_rate_gaussian_examples():
    assert rate_function_gaussian(0.0, 1.0) == 0.0
    assert rate_function_gaussian(1.0, 1.0) == pytest.approx(0.5)
    assert rate_function_gaussian(0.5, 1.0) == pytest.approx(0.125)


def test_rate_gaussian_keeps_the_digits_of_a_small_mean():
    # summing sigma2 + m^2 before subtracting 1 gave 0.0 at m = 1e-9 and
    # 0.04500000000000004 at m = 0.3
    for m in (1e-9, -1e-5, 0.01, 0.3, 0.5, 1.7):
        assert rate_function_gaussian(m, 1.0) == 0.5 * m * m


def test_rate_gaussian_quadrature_oracle():
    # KL(N(1,1) || N(0,1)) by direct integration of f ln(f/phi)
    f = lambda x: math.exp(-((x - 1.0) ** 2) / 2.0) / math.sqrt(2.0 * math.pi)
    # ln(f/phi) expanded analytically so the tails do not underflow
    log_ratio = lambda x: (x * x - (x - 1.0) ** 2) / 2.0
    val, _ = integrate.quad(lambda x: f(x) * log_ratio(x), -np.inf, np.inf)
    assert rate_function_gaussian(1.0, 1.0) == pytest.approx(val, abs=1e-9)


def test_rate_gaussian_positive_off_origin():
    for m in np.linspace(-2, 2, 9):
        for s2 in [0.25, 0.5, 1.0, 2.0, 4.0]:
            val = rate_function_gaussian(float(m), s2)
            if m == 0.0 and s2 == 1.0:
                assert val == 0.0
            else:
                assert val > 0.0


def test_rate_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        rate_function_gaussian(0.0, 0.0)


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
