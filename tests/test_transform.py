import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascltlab import BLOCK, transform
from ascltlab.sources import SourceSpec, sample_path, sample_prefix, stream_blocks
from ascltlab.spectra import periodogram_all
from ascltlab.transform import (
    batch_kernel,
    mean_byte_table,
    mean_from_sign_bytes,
    mean_kernel,
    mean_partial_sum,
    mean_weights,
    partial_sums,
    partial_sums_batch,
    partial_sums_fast,
    partial_sums_naive,
    use_gemm,
)
from ascltlab.weights import make_trig_pair

from . import oracles
from .test_sources import FAMILIES
from .test_weights import peak_bytes


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


def _inputs(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return {"rademacher": np.sign(x), "normal": x, "normal * 1e200": x * 1e200}


@pytest.mark.parametrize(
    "n, r",
    # b = BLOCK / 2r columns a block: n at most b (one block), blocks of
    # 16 with a tail of 1 and without, blocks of 65 with a tail of 25, and
    # r = (n - 1) // 2 at odd and even n
    [(7, 3), (100, 1), (4097, 2048), (4096, 2047), (1000, 499), (1000, 17)],
)
def test_naive_blocks_match_the_per_column_sums(n, r):
    for name, x in _inputs(n, n + r).items():
        got = partial_sums_naive(n, r, x)
        s, t = oracles.partial_sums_naive_per_column(n, r, x)
        assert np.array_equal(got.s, s) and np.array_equal(got.t, t), name


@pytest.mark.parametrize("n, r, b", [(101, 50, 3), (101, 1, 4), (64, 31, 1), (97, 5, 96)])
def test_naive_small_blocks_match_the_per_column_sums(monkeypatch, n, r, b):
    # blocks of b columns: residues advanced across many block boundaries
    monkeypatch.setattr(transform, "BLOCK", 2 * r * b)
    for name, x in _inputs(n, n * b).items():
        got = partial_sums_naive(n, r, x)
        s, t = oracles.partial_sums_naive_per_column(n, r, x)
        assert np.array_equal(got.s, s) and np.array_equal(got.t, t), name


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
    xs = rng.standard_normal((5, n + 1))  # one-based: column 0 is the free slot
    bs, bt = partial_sums_batch(n, r, xs)
    for i in range(5):
        ps = partial_sums_fast(n, r, xs[i, 1:])
        assert np.array_equal(bs[i], ps.s)
        assert np.array_equal(bt[i], ps.t)


def rolled_reference(n, r, x):
    """S and T of X_1..X_n (x, on the last axis) from the DFT of a rotated
    copy, np.roll(x, 1): the reference of the one-based wrap slot."""
    f = np.fft.rfft(np.roll(x, 1, axis=-1), axis=-1)
    scale = math.sqrt(2.0 / n)
    return scale * f.real[..., 1 : r + 1], -scale * f.imag[..., 1 : r + 1]


@pytest.mark.parametrize("n", [3, 4, 7, 8, 64, 127, 1000, 1001])
def test_wrap_slot_matches_the_rotated_copy_bit_for_bit(n):
    # one-based inputs, X_j at index j: one path (1-D) and a block of five
    # (2-D, whose rows the rfft reads strided); the slot starts as nan, so
    # a transform that read it before writing X_n there would show
    r = (n - 1) // 2
    block = np.random.default_rng(n).standard_normal((5, n + 1))
    block[:, 0] = np.nan
    x = block[:, 1:].copy()
    ref_s, ref_t = rolled_reference(n, r, x)
    s, t = partial_sums_batch(n, r, block)
    assert np.array_equal(s, ref_s) and np.array_equal(t, ref_t)
    assert np.array_equal(block[:, 1:], x)
    for i in range(5):
        path = np.concatenate(([np.nan], x[i]))
        s, t = partial_sums_batch(n, r, path)
        assert np.array_equal(s, ref_s[i]) and np.array_equal(t, ref_t[i])
        assert np.array_equal(path[1:], x[i])
        fast = partial_sums_fast(n, r, x[i])
        assert np.array_equal(fast.s, ref_s[i]) and np.array_equal(fast.t, ref_t[i])


@pytest.mark.parametrize("family", ["rademacher", "normal"])
def test_every_prefix_of_a_sampled_path_reads_its_own_wrap(family):
    # asclt reads each prefix of one path in place: every prefix n writes
    # its own X_n into the shared slot, and no X_j moves
    spec = SourceSpec(family=family, master_seed=33)
    path = sample_path(spec, 300)
    x = sample_prefix(spec, 300).copy()
    for n in range(3, 301):
        r = (n - 1) // 2
        s, t = partial_sums_batch(n, r, path[: n + 1])
        ref_s, ref_t = rolled_reference(n, r, x[:n])
        assert np.array_equal(s, ref_s) and np.array_equal(t, ref_t), n
    assert np.array_equal(path[1:], x)


def test_a_sampled_path_is_transformed_without_a_copy():
    # beyond the 8 MiB path, only the rfft output (n/2 + 1 complex, 8n
    # bytes): no copy of the path, and no check of S and T
    n = 2**20
    path = sample_path(SourceSpec(family="normal", master_seed=5), n)
    _, peak = peak_bytes(lambda: partial_sums_batch(n, (n - 1) // 2, path))
    assert peak <= 8 * n + 2**16, f"partial_sums_batch peaked at {peak / n:.2f}n bytes"


@pytest.mark.parametrize("n", [2**20, 262145, 2**20 + 1])
def test_full_size_dft_matches_direct_sums(n):
    # the sizes of the one-path ops, where pocketfft takes three code paths:
    # a power of two, 5 * 13 * 37 * 109, and 17 * 61681 with a large prime
    # factor.  The direct sum's error is at most about
    # log2(n) eps sqrt(2/n) |x|_1; an FFT's is log2(n) eta |F x|_2 in norm,
    # eta about 7 eps (Higham, Accuracy and Stability, 2nd ed., Thm 24.2),
    # so per scaled coefficient 7 log2(n) eps sqrt(2) |x|_2.  Their sum is
    # about 1e-10 at 2^20; the deviations measured are below 3e-15
    r = (n - 1) // 2
    path = sample_path(SourceSpec(family="normal", master_seed=19), n)
    x = path[1:]
    ks = np.unique(np.r_[1, 2, r - 1, r, np.random.default_rng(n).integers(3, r - 1, 12)])
    s_ref, t_ref = oracles.trig_coefficients(x, ks)
    eps, log2n = np.finfo(float).eps, math.log2(n)
    tol = log2n * eps * math.sqrt(2.0) * (np.sum(np.abs(x)) / math.sqrt(n)
                                          + 7 * math.sqrt(np.sum(x * x)))
    s, t = partial_sums_batch(n, r, path)
    assert np.max(np.abs(s[ks - 1] - s_ref)) <= tol
    assert np.max(np.abs(t[ks - 1] - t_ref)) <= tol
    # I_k = (S_k^2 + T_k^2) / 2, off by (|S_k| + |T_k|) tol + tol^2 and its rounding
    p_ref = (s_ref**2 + t_ref**2) / 2.0
    p_tol = (np.abs(s_ref) + np.abs(t_ref)) * tol + tol**2 + 4 * eps * p_ref
    assert np.all(np.abs(periodogram_all(path)[ks - 1] - p_ref) <= p_tol)


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
    x = next(stream_blocks(SourceSpec(family=family, master_seed=21), n, 0, 40, 40))
    ref_s, _ = partial_sums_batch(n, r, x)
    s = batch_kernel(n, r)(x)
    assert s.shape == ref_s.shape and np.max(np.abs(s - ref_s)) <= 1e-12 * math.sqrt(n)


@pytest.mark.parametrize("n, r", [(4096, 32), (1024, 511), (1000, 7), (999, 499), (7, 3)])
def test_mean_partial_sum_matches_reference(n, r):
    x = next(stream_blocks(SourceSpec(family="normal", master_seed=22), n, 0, 16, 16))
    ref_s, _ = partial_sums_batch(n, r, x)
    got = mean_partial_sum(x[:, 1:], mean_weights(n, r))
    assert np.max(np.abs(got - ref_s.mean(axis=1))) <= 1e-12 * math.sqrt(n)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 4096, BLOCK + 9])
def test_byte_table_means_match_the_float_signs(n):
    # the same streams as sign bytes and as float signs, against weights of
    # both signs; BLOCK + 9 is past ldp's table cap, and its float signs
    # are drawn in two chunks, so the word keys are checked across an edge
    spec = SourceSpec(family="rademacher", master_seed=2**64 - 9, stream_id=5)
    c = sample_prefix(SourceSpec(family="normal", master_seed=n), n)
    streams = 40 if n < BLOCK else 3
    x = np.vstack([b[:, 1:].copy() for b in stream_blocks(spec, n, 0, streams, 16)])
    table = mean_byte_table(c)
    assert table.shape == (8 * -(-n // 64), 256)

    def means(rows):
        return np.concatenate([mean_from_sign_bytes(b, table)
                               for b in stream_blocks(spec, n, 0, streams, rows, packed=True)])

    got = means(streams)
    assert np.max(np.abs(got - mean_partial_sum(x, c))) <= 4 * np.finfo(float).eps * np.sum(np.abs(c))
    # the block size changes no bit
    assert np.array_equal(means(1), got) and np.array_equal(means(7), got)


@pytest.mark.parametrize("n, packed", [(32768, True), (32769, False)])
def test_mean_kernel_packs_rademacher_while_the_byte_table_fits(n, packed):
    # the table holds 256 B per index of c padded to whole words: exactly
    # 8 MiB at n = 32768, 8.4 MB at 32769; both kernels read the same signs
    spec, c = SourceSpec(family="rademacher", master_seed=24), mean_weights(n, 3)
    kernel, got = mean_kernel("rademacher", c)
    assert got is packed
    x = next(stream_blocks(spec, n, 0, 2, 2))[:, 1:].copy()
    means = kernel(next(stream_blocks(spec, n, 0, 2, 2, packed=packed)))
    assert np.max(np.abs(means - mean_partial_sum(x, c))) <= 4 * np.finfo(float).eps * np.sum(np.abs(c))


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "rademacher"])
def test_mean_kernel_reads_floats_for_every_other_family(family):
    assert mean_kernel(family, mean_weights(64, 3))[1] is False


def test_float_mean_kernel_ignores_the_free_slot():
    # column 0 of a one-based block is the DFT's free slot, never an input
    x = next(stream_blocks(SourceSpec(family="normal", master_seed=25), 64, 0, 5, 5)).copy()
    x[:, 0] = np.nan
    c = mean_weights(64, 3)
    got = mean_kernel("normal", c)[0](x)
    assert np.all(np.isfinite(got)) and np.array_equal(got, mean_partial_sum(x[:, 1:], c))


@pytest.mark.parametrize("n, r", [(4096, 32), (999, 499), (7, 3), (65536, 64)])
def test_mean_weights_have_squared_norm_one_over_r(n, r):
    # the mean of r orthonormal rows; ldp_rate's Gaussian baseline rests on it
    c = mean_weights(n, r)
    assert abs(r * (c @ c) - 1.0) <= 1e-13


def test_gaussian_oracle_moments():
    # (s[1], s[2]) over 1e5 replicas: identity covariance within 0.02
    spec = SourceSpec(family="normal", master_seed=17)
    n, r, reps = 64, 8, 10**5
    xs = next(stream_blocks(spec, n, 0, reps, reps))
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
