import math

import numpy as np
import pytest

from ascltlab import spectra
from ascltlab.empirical import (
    exponential_cdf,
    ks_to,
    normal_cdf,
)
from ascltlab.sources import SourceSpec, sample_prefix
from ascltlab.spectra import (
    periodogram_all,
    periodogram_ecdf_distance,
    reverse_circulant_spectrum,
    symmetric_circulant_spectrum,
)
from ascltlab.transform import partial_sums_fast

from .oracles import (
    char_poly_roots,
    chi2_2_cdf,
    circulant_dense,
    circulant_eigen_dft,
    jacobi_eigenvalues,
    match_complex_multisets,
    periodogram,
    symmetric_circulant_first_row,
)
from .test_weights import peak_bytes


def test_circulant_scalar_identity():
    row = np.array([3.5, 0.0, 0.0, 0.0, 0.0])
    eig = circulant_eigen_dft(row)
    assert np.allclose(eig, 3.5)


def test_circulant_known_row():
    eig = circulant_eigen_dft(np.array([1.0, 2.0, 3.0, 2.0]))
    assert sorted(np.round(eig.real, 9).tolist()) == [-2.0, -2.0, 0.0, 8.0]
    assert np.max(np.abs(eig.imag)) < 1e-12


def test_circulant_trace_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        row = rng.standard_normal(7)
        eig = circulant_eigen_dft(row)
        assert np.sum(eig).real == pytest.approx(7.0 * row[0], rel=1e-9, abs=1e-9)


def test_circulant_matches_char_poly_oracle():
    # 50 random rows for each n <= 8, matched as complex multisets
    rng = np.random.default_rng(77)
    for n in range(1, 9):
        for _ in range(50):
            row = rng.standard_normal(n)
            dft = circulant_eigen_dft(row)
            dense = char_poly_roots(circulant_dense(row))
            assert match_complex_multisets(dft, dense) < 1e-9 * max(1.0, np.max(np.abs(dft)))


def test_symmetric_first_row_mirrors():
    c = symmetric_circulant_first_row(np.array([1.0, 2.0, 3.0]), 5)
    assert np.array_equal(c, [1.0, 2.0, 3.0, 3.0, 2.0])


def _dirty_heap(n):
    """Fill and free n floats, so that memory read before it is written
    holds 7.5s rather than zeros."""
    np.full(n, 7.5)


@pytest.mark.parametrize("n", [8, 10, 4096])
def test_symmetric_first_row_even_n_uses_only_its_inputs(n):
    x = np.arange(1.0, n // 2 + 2)  # the n/2 + 1 free entries
    _dirty_heap(n)
    c = symmetric_circulant_first_row(x, n)
    i = np.arange(1, n)
    assert np.array_equal(c[i], c[n - i])
    assert np.array_equal(c[: n // 2 + 1], x)


def test_symmetric_spectrum_even_n_matches_dense():
    n = 8
    spec = SourceSpec(family="normal", master_seed=13)
    _dirty_heap(n)
    e, _ = symmetric_circulant_spectrum(n, spec)
    x = sample_prefix(spec, n // 2 + 1)
    c = np.concatenate([x, x[-2:0:-1]])  # x_0..x_4, then x_3, x_2, x_1
    dense = np.linalg.eigvalsh(circulant_dense(c) / math.sqrt(n))
    assert np.max(np.abs(e - dense)) < 1e-12


def test_symmetric_degenerate_zero_input():
    eig = circulant_eigen_dft(symmetric_circulant_first_row(np.zeros(3), 5))
    assert np.allclose(eig, 0.0)


@pytest.mark.parametrize("seed", [4, 19])
@pytest.mark.parametrize("n", [5, 8, 9, 16, 17, 64])
def test_symmetric_matches_jacobi_oracle(n, seed):
    spec = SourceSpec(family="normal", master_seed=seed)
    e, _ = symmetric_circulant_spectrum(n, spec)
    c = symmetric_circulant_first_row(sample_prefix(spec, n // 2 + 1), n)
    dense = jacobi_eigenvalues(circulant_dense(c) / math.sqrt(n))
    assert e.size == n
    assert np.max(np.abs(e - dense)) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 64, 65, 4096, 4097])
def test_symmetric_pairs_bit_equal(n):
    # lambda_k = lambda_{n-k}: every value but lambda_0 (and lambda_{n/2}
    # for even n) is one float written twice, so it occurs an even
    # number of times
    e, _ = symmetric_circulant_spectrum(n, SourceSpec(family="rademacher", master_seed=3))
    _, counts = np.unique(e.view(np.uint64), return_counts=True)
    assert np.count_nonzero(counts % 2) <= 2 - n % 2


@pytest.mark.parametrize("n, seed", [(4097, 3), (262145, 1)])
def test_symmetric_spectrum_near_complex_dft(n, seed):
    # the declared change from the complex DFT of the mirrored row is
    # roundoff: 1.8e-15 and 2.7e-15 at these sizes
    spec = SourceSpec(family="rademacher", master_seed=seed)
    e, _ = symmetric_circulant_spectrum(n, spec)
    c = symmetric_circulant_first_row(sample_prefix(spec, n // 2 + 1), n)
    old = np.sort(circulant_eigen_dft(c).real / math.sqrt(n))
    assert np.max(np.abs(e - old)) <= 1e-14


def test_symmetric_eigenvalue_pairing_vs_transform():
    # all but <= 2 eigenvalues come in pairs equal to the trig-weight sums
    n = 4097
    spec = SourceSpec(family="rademacher", master_seed=3)
    e, _ = symmetric_circulant_spectrum(n, spec)
    c = symmetric_circulant_first_row(sample_prefix(spec, (n + 1) // 2), n)
    r = (n - 1) // 2
    ps = partial_sums_fast(n, r, np.roll(c, -1))
    paired = np.sort(ps.s / math.sqrt(2.0))
    lam0 = float(np.sum(c)) / math.sqrt(n)
    expect = np.sort(np.concatenate([paired, paired, [lam0]]))
    assert np.max(np.abs(e - expect)) < 1e-9


def test_symmetric_esd_limit():
    spec = SourceSpec(family="rademacher", master_seed=3)
    e, _ = symmetric_circulant_spectrum(4097, spec)
    assert ks_to(e, normal_cdf) <= 0.03


def test_esd_insensitive_to_centering():
    # adding a constant to the first row shifts only the zero-frequency
    # eigenvalue, so the two ESDs differ by at most one atom
    rng = np.random.default_rng(8)
    n = 101
    row = symmetric_circulant_first_row(rng.standard_normal((n + 1) // 2), n)
    a = np.sort(circulant_eigen_dft(row).real)
    b = np.sort(circulant_eigen_dft(row + 0.7).real)
    worst = 0.0
    for x in np.concatenate([a, b]) + 1e-8:  # offset past roundoff-split ties
        fa = np.searchsorted(a, x, side="right") / n
        fb = np.searchsorted(b, x, side="right") / n
        worst = max(worst, abs(fa - fb))
    assert worst <= 2.0 / n


def test_reverse_circulant_degenerate_zero_input():
    mags = periodogram_all(np.zeros(9))
    assert np.allclose(mags, 0.0)


def test_reverse_circulant_symmetry_and_exceptional():
    spec = SourceSpec(family="rademacher", master_seed=3)
    e, point = reverse_circulant_spectrum(4096, spec)
    assert len(point["exceptional"]) == 2  # even n: frequencies 0 and n/2
    # the lower half is the upper one reversed, with the sign bit flipped
    bits = e.view(np.uint64)
    h = e.size // 2
    assert e.size == 2 * 2047 and not np.signbit(e[h:]).any()
    assert np.array_equal(bits[:h] ^ np.uint64(1 << 63), bits[h:][::-1])
    x = sample_prefix(spec, 4096)
    assert point["exceptional"][0] == pytest.approx(math.sqrt(2.0 / 4096) * np.sum(x))


@pytest.mark.parametrize("seed", [4, 19])
@pytest.mark.parametrize("n", [5, 8, 9, 16, 17, 64])
def test_reverse_circulant_matches_jacobi_oracle(n, seed):
    # the dense reverse circulant sqrt(2/n) [x_{(i+j) mod n}], x_0 = x_n
    spec = SourceSpec(family="normal", master_seed=seed)
    e, point = reverse_circulant_spectrum(n, spec)
    v = np.roll(sample_prefix(spec, n), 1)
    i = np.arange(n)
    dense = list(jacobi_eigenvalues(math.sqrt(2.0 / n) * v[(i[:, None] + i) % n]))
    assert len(point["exceptional"]) == 2 - n % 2
    for lam in point["exceptional"]:
        nearest = min(dense, key=lambda d: abs(d - lam))
        assert abs(nearest - lam) <= 1e-12
        dense.remove(nearest)
    assert e.size == len(dense) == 2 * ((n - 1) // 2)
    assert np.max(np.abs(e - np.array(dense))) <= 1e-12


def test_reverse_circulant_pairs_match_transform():
    n = 4097
    spec = SourceSpec(family="rademacher", master_seed=3)
    e, _ = reverse_circulant_spectrum(n, spec)
    ps = partial_sums_fast(n, (n - 1) // 2, sample_prefix(spec, n))
    mags = np.sqrt(ps.s**2 + ps.t**2)
    assert np.max(np.abs(np.sort(e[e >= 0]) - np.sort(mags))) < 1e-9


@pytest.mark.parametrize("n", [64, 65])
def test_reverse_circulant_refuses_an_overflowing_eigenvalue(monkeypatch, n):
    # draws of +-1e200 keep both exceptional eigenvalues finite, but the
    # squared magnitudes overflow: only the eigenvalues' own check sees it
    signs = np.random.default_rng(n).choice([-1e200, 1e200], n + 1)
    monkeypatch.setattr(spectra, "sample_path", lambda spec, n: signs.copy())
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite eigenvalues"):
            reverse_circulant_spectrum(n, SourceSpec("normal", master_seed=1))


@pytest.mark.parametrize("n", [2**20, 2**20 + 1])
def test_reverse_circulant_memory_bounded(n):
    # the one-based path and the rfft output are 16n bytes; the
    # frequency-n/2 eigenvalue of even n adds one copy of the path, freed
    # before the transform, and the path is released before the magnitudes
    # and eigenvalues (12n) are built.  Nothing of the transform's size is
    # checked finite, only the two ends of the sorted eigenvalues
    _, peak = peak_bytes(lambda: reverse_circulant_spectrum(n, SourceSpec("normal", master_seed=1)))
    assert peak <= 16 * n + 2**18, f"peaked at {peak / n:.2f}n bytes"


def test_periodogram_peaks_under_22n_bytes():
    # the one-based path, the rfft output and the n/2 ordinates: 20n bytes
    # measured at n = 2^20, with no copy of the path
    n, spec = 2**20, SourceSpec("rademacher", master_seed=1)
    _, peak = peak_bytes(lambda: periodogram_ecdf_distance(n, spec))
    assert peak <= 22 * n, f"peaked at {peak / n:.2f}n bytes"


def test_reverse_circulant_squared_magnitudes_chi2():
    n = 4097
    spec = SourceSpec(family="rademacher", master_seed=3)
    e, _ = reverse_circulant_spectrum(n, spec)
    sq = np.sort(e[e >= 0] ** 2)
    assert ks_to(sq, chi2_2_cdf) <= 0.03


def test_periodogram_examples():
    n = 64
    assert periodogram(np.ones(n), 5) == pytest.approx(0.0, abs=1e-12)
    k0 = 7
    j = np.arange(1, n + 1)
    x = np.cos(2.0 * np.pi * j * k0 / n)
    assert periodogram(x, k0) == pytest.approx(n / 4.0, rel=1e-9)


def test_periodogram_consistency_with_transform():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(129)
    ps = partial_sums_fast(129, 64, x)
    every = periodogram_all(np.concatenate(([0.0], x)))
    for k in [1, 17, 64]:
        expect = (ps.s[k - 1] ** 2 + ps.t[k - 1] ** 2) / 2.0
        assert periodogram(x, k) == pytest.approx(expect, rel=1e-9, abs=1e-12)
        assert every[k - 1] == pytest.approx(periodogram(x, k), rel=1e-9, abs=1e-12)


def test_periodogram_nonnegative_and_range_checked():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(33)
    assert np.all(periodogram_all(x) >= 0.0)
    with pytest.raises(ValueError):
        periodogram(x, 0)
    with pytest.raises(ValueError):
        periodogram(x, 17)


def test_periodogram_ecdf_distance_families():
    for family in ["normal", "rademacher"]:
        spec = SourceSpec(family=family, master_seed=2)
        assert periodogram_ecdf_distance(2**14, spec) <= 0.03


def test_periodogram_degenerate_zero_distance_one():
    assert ks_to(periodogram_all(np.zeros(9)), exponential_cdf) == 1.0


def test_spectrum_summary_and_csv():
    spec = SourceSpec(family="normal", master_seed=1)
    e, summary = symmetric_circulant_spectrum(17, spec)
    assert summary["count"] == e.size == 17
    assert 0.0 <= summary["ks_to_limit"] <= 1.0
