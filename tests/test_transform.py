import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascltlab.sources import SourceSpec, sample_rows
from ascltlab.transform import (
    batch_kernel,
    mean_partial_sum,
    mean_weights,
    partial_sums,
    partial_sums_batch,
    partial_sums_fast,
    partial_sums_naive,
    use_gemm,
)
from ascltlab.weights import make_trig_pair


def test_naive_trig_all_ones_vanishes():
    ps = partial_sums_naive(16, 7, np.ones(16))
    assert np.max(np.abs(ps.s)) < 1e-12
    assert np.max(np.abs(ps.t)) < 1e-12


def test_naive_trig_single_coordinate():
    # x = e_2 at n=8: s[k] = 0.5 cos(pi k / 2) = (0, -0.5, 0)
    x = np.zeros(8)
    x[1] = 1.0
    ps = partial_sums_naive(8, 3, x)
    assert np.allclose(ps.s, [0.0, -0.5, 0.0], atol=1e-14)


def test_fast_matches_single_coordinate():
    x = np.zeros(8)
    x[1] = 1.0
    ps = partial_sums_fast(8, 3, x)
    assert np.allclose(ps.s, [0.0, -0.5, 0.0], atol=1e-14)


def test_fast_all_ones_vanishes():
    ps = partial_sums_fast(64, 31, np.ones(64))
    assert np.max(np.abs(ps.s)) < 1e-12
    assert np.max(np.abs(ps.t)) < 1e-12


def test_fast_vs_naive_200_random_instances():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        n = int(rng.integers(5, 513))
        r = int(rng.integers(1, (n - 1) // 2 + 1))
        x = rng.standard_normal(n)
        ref = partial_sums_naive(n, r, x)
        fast = partial_sums_fast(n, r, x)
        tol = 1e-9 * math.sqrt(n)
        assert np.max(np.abs(fast.s - ref.s)) <= tol
        assert np.max(np.abs(fast.t - ref.t)) <= tol


def test_fast_vs_naive_large_n():
    rng = np.random.default_rng(7)
    n, r = 2**14, 8191
    x = rng.standard_normal(n)
    ref = partial_sums_naive(n, r, x)
    fast = partial_sums_fast(n, r, x)
    assert np.max(np.abs(fast.s - ref.s)) <= 1e-9 * math.sqrt(n)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    a=st.floats(min_value=-10, max_value=10, allow_nan=False),
    b=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    n, r = 32, 15
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    combo = partial_sums_fast(n, r, a * x + b * y)
    sx = partial_sums_fast(n, r, x)
    sy = partial_sums_fast(n, r, y)
    scale = max(1.0, np.max(np.abs(combo.s)))
    assert np.max(np.abs(combo.s - (a * sx.s + b * sy.s))) <= 1e-12 * scale * max(abs(a) + abs(b), 1.0)


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_parseval_energy_bound(seed):
    # truncated frequency set: sum of s^2 + t^2 bounded by 2 |x|^2
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200)) | 1
    r = (n - 1) // 2
    x = rng.standard_normal(n)
    ps = partial_sums_fast(n, r, x)
    assert np.sum(ps.s**2 + ps.t**2) <= 2.0 * np.sum(x**2) + 1e-6


def test_dispatch_and_force():
    # exactly the calls of the benchmark's naive-vs-fast oracle op
    n, r = 64, 31
    pair = make_trig_pair(n, r)
    x = np.random.default_rng(0).standard_normal(n)
    naive = partial_sums(pair, x, force="naive")
    fast = partial_sums_fast(n, r, x)
    ref = partial_sums_naive(n, r, x)
    assert np.array_equal(naive.s, ref.s) and np.array_equal(naive.t, ref.t)
    assert naive.s.shape == naive.t.shape == fast.s.shape == fast.t.shape == (r,)
    dev = max(np.max(np.abs(naive.s - fast.s)), np.max(np.abs(naive.t - fast.t)))
    assert dev <= 1e-9 * math.sqrt(n)
    with pytest.raises(ValueError):
        partial_sums(pair, x, force="gemm")


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    n, r = 128, 63
    xs = rng.standard_normal((5, n))
    bs, bt = partial_sums_batch(n, r, xs)
    for i in range(5):
        ps = partial_sums_fast(n, r, xs[i])
        assert np.array_equal(bs[i], ps.s)
        assert np.array_equal(bt[i], ps.t)


def test_rfft_gemm_rule_covers_both_harness_shapes():
    # clt-fluct reads S at r = 32; at r ~ n/2 the rfft wins
    assert use_gemm(4096, 32)
    assert not use_gemm(2048, 1023)
    assert not use_gemm(128, 63)
    # rows that would not fit in cache (and must not be materialized) at large n
    assert not use_gemm(2**20, 32)


@pytest.mark.parametrize("family", ["rademacher", "normal"])
@pytest.mark.parametrize("n, r", [(4096, 32), (4096, 8), (2048, 1023)])
def test_batch_kernel_matches_reference(family, n, r):
    x = sample_rows(SourceSpec(family=family, master_seed=21), 0, 40, 1, n)
    ref_s, _ = partial_sums_batch(n, r, x)
    s = batch_kernel(n, r)(x)
    assert s.shape == ref_s.shape and np.max(np.abs(s - ref_s)) <= 1e-12 * math.sqrt(n)


@pytest.mark.parametrize("n, r", [(4096, 32), (1024, 511), (1000, 7), (999, 499), (7, 3)])
def test_mean_partial_sum_matches_reference(n, r):
    x = sample_rows(SourceSpec(family="normal", master_seed=22), 0, 16, 1, n)
    ref_s, _ = partial_sums_batch(n, r, x)
    got = mean_partial_sum(x, mean_weights(n, r))
    assert np.max(np.abs(got - ref_s.mean(axis=1))) <= 1e-12 * math.sqrt(n)


@pytest.mark.parametrize("n, r", [(4096, 32), (999, 499), (7, 3), (65536, 64)])
def test_mean_weights_have_squared_norm_one_over_r(n, r):
    # the mean of r orthonormal rows; ldp_rate's Gaussian baseline rests on it
    c = mean_weights(n, r)
    assert abs(r * (c @ c) - 1.0) <= 1e-13


def test_gaussian_oracle_moments():
    # (s[1], s[2]) over 1e5 replicas: identity covariance within 0.02
    spec = SourceSpec(family="normal", master_seed=17)
    n, r, reps = 64, 8, 10**5
    xs = sample_rows(spec, 0, reps, 1, n)
    ss, _ = partial_sums_batch(n, r, xs)
    cov = np.cov(ss[:, 0], ss[:, 1])
    assert abs(cov[0, 1]) < 0.02
    assert abs(cov[0, 0] - 1.0) < 0.02
    assert abs(cov[1, 1] - 1.0) < 0.02
    assert np.max(np.abs(np.mean(ss, axis=0))) < 5.0 / math.sqrt(reps)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        partial_sums_naive(8, 3, np.zeros(7))
    with pytest.raises(ValueError):
        partial_sums_fast(8, 4, np.zeros(8))
