import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascltlab import weights
from ascltlab.sources import SourceSpec
from ascltlab.transform import partial_sums_naive
from ascltlab.weights import (
    check_haar,
    check_trig,
    haar_rows,
    make_trig_pair,
    trig_column_sums,
    trig_rows,
    trig_tables,
    verify_trig_identities,
)

from .oracles import (
    trig_column_sums_fsum,
    trig_conditions_loop,
    trig_identity_worst_loop,
    trig_rows_u_angles,
    trig_rows_v_angles,
)

# n = _BLOCK_EDGE is the largest n at which n trig_rows fit one row block
_BLOCK_EDGE = math.isqrt(weights._SUM_BLOCK_BYTES // 8)
_BIT_IDENTITY_NS = sorted(
    set(range(3, 301)) | {_BLOCK_EDGE - 1, _BLOCK_EDGE, _BLOCK_EDGE + 1, 1024, 4095, 4096}
)


def normal_spec(seed, stream=0):
    return SourceSpec(family="normal", master_seed=seed, stream_id=stream)


def test_trig_entries_n8():
    cos_tab = trig_tables(8)[0]
    # u_{k,j} with 1-based (k, j)
    assert trig_rows(cos_tab, [1])[0, 0] == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)
    assert trig_rows(cos_tab, [2])[0, 1] == pytest.approx(-0.5, abs=1e-15)


def test_trig_rows_orthogonal_n8():
    u = trig_rows(trig_tables(8)[0], np.arange(1, 4))
    # k1 + k2 = 3 != 8, so the cross sum vanishes exactly
    assert abs(np.dot(u[0], u[1])) < 1e-14


def test_trig_r_bound_rejected():
    with pytest.raises(ValueError):
        make_trig_pair(8, 4)
    make_trig_pair(9, 4)  # floor((9-1)/2) = 4 is allowed


def test_trig_identity_exceptional_values_n8():
    # raw sums at the special index pairs, exact angle reduction
    n = 8
    j = np.arange(1, n + 1)
    ang = lambda k: 2.0 * np.pi * ((j * k) % n) / n
    assert np.sum(np.cos(ang(3)) * np.cos(ang(5))) == pytest.approx(4.0, abs=1e-12)
    assert np.sum(np.sin(ang(3)) * np.sin(ang(5))) == pytest.approx(-4.0, abs=1e-12)
    assert np.sum(np.cos(ang(4)) ** 2) == pytest.approx(8.0, abs=1e-12)
    assert np.sum(np.sin(ang(4)) ** 2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [8, 127, 1024])
def test_verify_trig_identities_small(n):
    worst = verify_trig_identities(n)
    assert worst <= 1e-9
    assert worst <= n * 2.0**-46


def test_check_conditions_trig_n8():
    rep = check_trig(8, 3, delta=1.0)
    assert rep["eps_orth_u"] < 1e-14
    assert rep["eps_orth_v"] < 1e-14
    assert rep["eps_cross"] < 1e-14
    assert rep["eps_entry_u"] == pytest.approx(math.sqrt(2.0 / 8.0), abs=1e-15)
    assert rep["log_scale"] == pytest.approx(math.log(4.0) ** 2)


def test_check_haar_unit_row():
    # the n = r = 1 Haar row is +-1
    rep = check_haar(1, 1, normal_spec(0), delta=1.0)
    assert rep["eps_entry_u"] == 1.0
    assert rep["eps_orth_u"] == 0.0
    # Haar rows have no companion V
    assert rep["eps_entry_v"] is None and rep["eps_orth_v"] is None and rep["eps_cross"] is None


def test_check_conditions_requires_positive_delta():
    for delta in (0.0, math.nan):
        with pytest.raises(ValueError):
            check_trig(8, 3, delta=delta)
        with pytest.raises(ValueError):
            check_haar(3, 3, normal_spec(0), delta=delta)


@given(
    n=st.integers(min_value=5, max_value=96),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=30, deadline=None)
def test_structured_matches_dense_conditions(n, seed):
    # the O(r) trig-condition scan must agree with brute-force Gram residuals
    r = (n - 1) // 2
    fast = check_trig(n, r, delta=1.0)
    ks = np.arange(1, r + 1)
    u, v = (trig_rows(table, ks) for table in trig_tables(n))
    gram_u = u @ u.T - np.eye(r)
    gram_v = v @ v.T - np.eye(r)
    assert fast["eps_orth_u"] == pytest.approx(np.max(np.abs(gram_u)), abs=1e-13)
    assert fast["eps_orth_v"] == pytest.approx(np.max(np.abs(gram_v)), abs=1e-13)
    assert fast["eps_cross"] == pytest.approx(np.max(np.abs(u @ v.T)), abs=1e-13)
    assert fast["eps_entry_u"] == pytest.approx(np.max(np.abs(u)), abs=1e-15)
    assert fast["eps_entry_v"] == pytest.approx(np.max(np.abs(v)), abs=1e-15)


def test_entry_bound_sqrt_2_over_n():
    for n in [16, 127, 1024]:
        rep = check_trig(n, (n - 1) // 2, delta=1.0)
        bound = math.sqrt(2.0 / n) * (1.0 + 1e-12)
        assert rep["eps_entry_u"] <= bound
        assert rep["eps_entry_v"] <= bound


def test_condition_i_single_constant_along_schedule():
    # eps_entry * (log(1+r))^2 stays bounded for n = 2^10 .. 2^16, delta = 1
    vals = []
    for e in range(10, 17):
        n = 2**e
        rep = check_trig(n, (n - 1) // 2, delta=1.0)
        vals.append(rep["eps_entry_u"] * rep["log_scale"])
    assert max(vals) < 10.0


def test_trig_column_sums_match_fsum():
    # the gcd sums against correctly rounded per-m sums of the n terms: the
    # worst error measured over n = 3..300, 1024 and 4095..4097 was
    # n 2^-52.9; 4095..4097 are left out for time
    for n in sorted(set(range(3, 201)) | {256, 257, 300, 1024}):
        s, t = trig_column_sums(n)
        s_ref, t_ref = trig_column_sums_fsum(n)
        assert s[0] == n and t[0] == 0.0, n
        assert np.max(np.abs(s - s_ref)) <= n * 2.0**-50, n
        assert np.max(np.abs(t - t_ref)) <= n * 2.0**-50, n


@pytest.mark.parametrize("n", [8192, 65536])
def test_trig_identity_residual_measures_rounding_at_powers_of_two(n):
    # a DFT of ones is exact at powers of two, so sums taken that way read
    # every residual as exactly 0 and the check measured nothing
    assert check_trig(n, (n - 1) // 2, 1.0)["trig_identity_residual"] > 0


def test_trig_identity_scan_bit_identical_to_loop():
    # 4097 = 17 * 241 and 8193 = 3 * 2731: sizes past 4096 with few divisors
    for n in _BIT_IDENTITY_NS + [4097, 8193]:
        s, t = trig_column_sums(n)
        assert verify_trig_identities(n) == trig_identity_worst_loop(n, s, t), n


@pytest.mark.parametrize("n", [4097, 8193])
def test_condition_scan_bit_identical_to_loop(n):
    # the computed S_0 - n and T_0 are exactly 0, so the diagonal of V V^T
    # is (E_0 - S_2k) / n = -S_2k / n and that of U V^T (T_2k + T_0) / n = T_2k / n
    s, t = trig_column_sums(n)
    for r in (1, 2, (n - 1) // 2):
        rep = check_trig(n, r, 1.0)
        got = (rep["eps_orth_u"], rep["eps_orth_v"], rep["eps_cross"])
        assert got == trig_conditions_loop(n, r, s, t), r


@pytest.mark.parametrize("n", [8, 127, 300, 1024, 4096, 4097, 8193])
def test_check_trig_identity_residual_is_verify_trig_identities(n):
    # one pass of column sums serves both scans of the check-weights point
    rep = check_trig(n, (n - 1) // 2, 1.0)
    assert rep["trig_identity_residual"] == verify_trig_identities(n)


def peak_bytes(call):
    """(call(), the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_trig_checks_memory_bounded():
    # summing over the n x n angle matrix took about 520 MB at this size
    _, peak = peak_bytes(lambda: (check_trig(4096, 2047, delta=1.0), verify_trig_identities(4096)))
    assert peak < 64 * 2**20


def test_trig_sums_refused_above_the_size_limit_before_allocating():
    # every trig check refuses n above _MATERIALIZE_LIMIT before the tables
    # and sums are allocated
    n = weights._MATERIALIZE_LIMIT + 1
    for check in (trig_column_sums, verify_trig_identities, lambda n: check_trig(n, 1, 1.0)):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="refusing"):
                check(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("n, r", [(4096, 2047), (4097, 2048), (1000, 499), (7, 3), (65536, 64)])
def test_trig_rows_match_the_angle_formula(n, r):
    ks = np.arange(1, r + 1)
    cos_tab, sin_tab = trig_tables(n)
    assert np.array_equal(trig_rows(cos_tab, ks), trig_rows_u_angles(n, ks))
    assert np.array_equal(trig_rows(sin_tab, ks), trig_rows_v_angles(n, ks))


def test_trig_materialize_memory_bounded():
    # beyond the rows themselves, trig_rows takes only the n-long tables and
    # two reused row blocks; no r x n temporary (angles, residues or a
    # finiteness mask) is built
    n, r = 4096, 2047
    u, peak = peak_bytes(lambda: trig_rows(trig_tables(n)[0], np.arange(1, r + 1)))
    assert u.nbytes == 8 * r * n
    assert peak < 8 * r * n + 4 * 2**20
    # the reference sums store no row, let alone the pair
    x = np.random.default_rng(0).standard_normal(n)
    _, peak = peak_bytes(lambda: partial_sums_naive(n, r, x))
    assert peak < 8 * 1024 * n + 8 * 2**20


def test_haar_n1_support():
    seen = set()
    for seed in range(40):
        val = float(haar_rows(1, normal_spec(seed))[0, 0])
        assert val == pytest.approx(1.0, abs=1e-12) or val == pytest.approx(-1.0, abs=1e-12)
        seen.add(round(val))
    assert seen == {-1, 1}


def test_haar_orthonormality():
    for n in [2, 16, 64]:
        u = haar_rows(n, normal_spec(5))
        gram = u @ u.T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


def test_haar_conditions_report():
    rep = check_haar(32, 32, normal_spec(1), delta=1.0)
    assert rep["eps_orth_u"] <= 1e-10
    assert rep["eps_cross"] is None


def test_haar_max_entry_law():
    # Jiang max-entry scale: <= 2 sqrt(log n / n); calibration over 1000
    # pre-build draws gives hit probability 0.90, so demand >= 85% of 200
    # (3.5 sigma below the calibrated rate)
    n = 256
    bound = 2.0 * math.sqrt(math.log(n) / n)
    hits = 0
    for seed in range(200):
        if np.max(np.abs(haar_rows(n, normal_spec(seed)))) <= bound:
            hits += 1
    assert hits >= 170


def test_haar_first_entry_moments():
    # first-row first-entry is uniform-on-sphere marginal: mean 0, var 1/16
    n, reps = 16, 10**4
    vals = np.array(
        [float(haar_rows(n, normal_spec(seed))[0, 0]) for seed in range(reps)]
    )
    mean_se = 1.0 / math.sqrt(n * reps)
    assert abs(np.mean(vals)) < 5.0 * mean_se
    var = np.var(vals)
    var_se = np.std((vals - np.mean(vals)) ** 2) / math.sqrt(reps)
    assert abs(var - 1.0 / n) < 5.0 * var_se


@pytest.mark.parametrize("n, r", [(8, 3), (256, 64), (1024, 64), (64, 64)])
def test_haar_thin_rows_match_the_full_matrix(n, r):
    # the thin QR of the first r normal columns against the full n x n QR:
    # equal up to the last ulp at r < n, bit for bit at r = n
    full = haar_rows(n, normal_spec(n + r))
    thin = haar_rows(n, normal_spec(n + r), r)
    assert thin.shape == (r, n)
    assert np.max(np.abs(thin - full[:r])) <= (0.0 if r == n else 1e-14)


def test_haar_deterministic_in_seed():
    assert np.array_equal(haar_rows(8, normal_spec(3)), haar_rows(8, normal_spec(3)))
