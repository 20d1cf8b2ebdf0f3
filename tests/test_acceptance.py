"""Acceptance gate: one test per stated criterion, each printing a single
PASS/FAIL line with the measured statistic.

Criterion 7 is split into 7a (variance window) and 7b (KS of the
standardized fluctuation sample).  7b asserts the stated 0.05 bound
faithfully even though the statistic has a hard lattice floor near 0.07
at r = 32: the count of sums below x = 0 is exactly Binomial(32, 1/2)
under the Gaussian oracle, whose central atom carries mass ~0.14, so the
KS distance to any continuous law is at least ~0.0699 no matter how many
replicas are used.  The bound is kept as written and the test stays red.
"""

import json
import math
import time

import numpy as np
import pytest

from ascltlab.cli import run as cli_run
from ascltlab.empirical import ks_to, normal_cdf
from ascltlab.experiments import (
    Schedule,
    asclt_bivariate,
    asclt_trajectory,
    char_variance_decay,
    clt_fluctuation,
    ldp_rate,
)
from ascltlab.sources import SourceSpec, sample_prefix
from ascltlab.spectra import (
    periodogram_ecdf_distance,
    reverse_circulant_spectrum,
    symmetric_circulant_spectrum,
)
from ascltlab.transform import partial_sums_fast, partial_sums_naive
from ascltlab.weights import (
    check_trig,
    haar_rows,
)

from .oracles import (
    char_poly_roots,
    circulant_dense,
    circulant_eigen_dft,
    match_complex_multisets,
)


def spec_of(family, seed, stream=0):
    return SourceSpec(family=family, master_seed=seed, stream_id=stream)


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_trig_identity_exactness():
    t0 = time.perf_counter()
    worst, ok = 0.0, True
    for n in [8, 127, 1024, 65536]:
        res = check_trig(n, 1, 1.0)["trig_identity_residual"]
        worst = max(worst, res / n)
        ok = ok and res <= 1e-9 and res <= n * 2.0**-46
    elapsed = time.perf_counter() - t0
    verdict(1, ok and elapsed < 5.0, f"worst residual/n {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_condition_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for e in range(8, 17):
        n = 2**e
        rep = check_trig(n, (n - 1) // 2, delta=1.0)
        worst = max(worst, rep["eps_orth_u"], rep["eps_orth_v"], rep["eps_cross"])
    elapsed = time.perf_counter() - t0
    verdict(2, worst <= 1e-9 and elapsed < 30.0, f"worst eps {worst:.3g}, {elapsed:.2f}s")


def test_criterion_03_transform_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 513))
        r = int(rng.integers(1, (n - 1) // 2 + 1))
        x = rng.standard_normal(n)
        ref = partial_sums_naive(n, r, x)
        fast = partial_sums_fast(n, r, x)
        dev = max(np.max(np.abs(fast.s - ref.s)), np.max(np.abs(fast.t - ref.t)))
        worst = max(worst, dev / math.sqrt(n))
    elapsed = time.perf_counter() - t0
    verdict(3, worst <= 1e-9 and elapsed < 10.0, f"worst dev/sqrt(n) {worst:.3g}, {elapsed:.2f}s")


def test_criterion_04_asclt_trajectory():
    t0 = time.perf_counter()
    single = asclt_trajectory(spec_of("rademacher", 7), Schedule(points=((2**14, 8191),)))
    ks_fixed = single.points[0]["ks_to_normal"]
    medians = []
    for e in [10, 12, 14]:
        n = 2**e
        sch = Schedule(points=((n, (n - 1) // 2),))
        ks = [
            asclt_trajectory(spec_of("normal", seed), sch).points[0]["ks_to_normal"]
            for seed in range(50)
        ]
        medians.append(float(np.median(ks)))
    decreasing = medians[0] > medians[1] > medians[2]
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        ks_fixed <= 0.03 and decreasing and elapsed < 120.0,
        f"KS {ks_fixed:.4f}, medians {[round(m, 4) for m in medians]}, {elapsed:.1f}s",
    )


def test_criterion_05_asclt_bivariate():
    t0 = time.perf_counter()
    sch = Schedule(points=((2**14, 8191),))
    devs = {
        fam: asclt_bivariate(spec_of(fam, 7), sch).points[0]["max_grid_deviation"]
        for fam in ["normal", "rademacher"]
    }
    elapsed = time.perf_counter() - t0
    verdict(
        5,
        max(devs.values()) <= 0.03 and elapsed < 120.0,
        f"grid deviations {devs}, {elapsed:.1f}s",
    )


def test_criterion_06_char_variance_decay():
    t0 = time.perf_counter()
    sch = Schedule(points=((128, 63), (512, 255), (2048, 1023)))
    rad = char_variance_decay(spec_of("rademacher", 3), sch, 1.0, 0.0, 500)
    rad_ok = all(p["estimate"] <= 3.0 / p["r"] for p in rad.points)
    gau = char_variance_decay(spec_of("normal", 3), sch, 1.0, 0.0, 500)
    gau_ok = all(
        abs(p["estimate"] - (1.0 - math.exp(-1.0)) / p["r"]) <= 3.0 * p["std_error"]
        for p in gau.points
    )
    elapsed = time.perf_counter() - t0
    verdict(
        6,
        rad_ok and gau_ok and elapsed < 180.0,
        f"rademacher<=3/r {rad_ok}, gaussian 3se {gau_ok}, {elapsed:.1f}s",
    )


def test_criterion_07a_clt_fluctuation_variance():
    t0 = time.perf_counter()
    res = clt_fluctuation(spec_of("rademacher", 3), 2**12, 32, 0.0, 2000)
    var = res.points[0]["w_variance"]
    elapsed = time.perf_counter() - t0
    verdict("7a", 0.20 <= var <= 0.30 and elapsed < 300.0, f"variance {var:.4f}, {elapsed:.1f}s")


def test_criterion_07b_clt_fluctuation_ks():
    # stated bound 0.05; the statistic has a lattice floor near 0.07 at
    # r = 32 (see module docstring), so this assertion is expected red
    res = clt_fluctuation(spec_of("rademacher", 3), 2**12, 32, 0.0, 2000)
    ks = res.points[0]["ks_standardized_to_normal"]
    verdict("7b", ks <= 0.05, f"standardized KS {ks:.4f}, lattice floor ~0.0699")


def test_criterion_08_ldp_oracle_relative():
    t0 = time.perf_counter()
    res = ldp_rate(spec_of("rademacher", 5), 2**12, 32, 0.5, 10**5, threads=4)
    p = res.points[0]
    ratio = p["rate_ratio_to_oracle"]
    elapsed = time.perf_counter() - t0
    verdict(
        8,
        1.0 / 1.5 <= ratio <= 1.5 and elapsed < 600.0,
        f"rate {p['rate']:.4f}, oracle {p['oracle_rate']:.4f}, target {p['target_rate']},"
        f" ratio {ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_periodogram_limit():
    t0 = time.perf_counter()
    dists = {
        fam: periodogram_ecdf_distance(2**14, spec_of(fam, 2))
        for fam in ["normal", "rademacher"]
    }
    elapsed = time.perf_counter() - t0
    verdict(9, max(dists.values()) <= 0.03 and elapsed < 60.0, f"distances {dists}, {elapsed:.1f}s")


def test_criterion_10_circulant_spectra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    oracle_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 9))
        row = rng.standard_normal(n)
        dft = circulant_eigen_dft(row)
        dense = char_poly_roots(circulant_dense(row))
        if match_complex_multisets(dft, dense) > 1e-9 * max(1.0, float(np.max(np.abs(dft)))):
            oracle_ok = False
    sym, _ = symmetric_circulant_spectrum(4097, spec_of("rademacher", 3))
    ks = ks_to(sym, normal_cdf)
    rev, _ = reverse_circulant_spectrum(4097, spec_of("rademacher", 3))
    ps = partial_sums_fast(4097, 2048, sample_prefix(spec_of("rademacher", 3), 4097))
    mags = np.sort(np.sqrt(ps.s**2 + ps.t**2))
    pair_dev = float(np.max(np.abs(np.sort(rev[rev >= 0]) - mags)))
    elapsed = time.perf_counter() - t0
    verdict(
        10,
        oracle_ok and ks <= 0.03 and pair_dev <= 1e-9 and elapsed < 120.0,
        f"oracle {oracle_ok}, sym KS {ks:.4f}, pair dev {pair_dev:.3g}, {elapsed:.1f}s",
    )


def test_criterion_11_haar_weights():
    t0 = time.perf_counter()
    n = 1024
    u = haar_rows(n, spec_of("normal", 2, stream=1 << 32), n)
    orth = float(np.max(np.abs(u @ u.T - np.eye(n))))
    x = sample_prefix(spec_of("rademacher", 2), n)
    ks = ks_to(u @ x, normal_cdf)
    elapsed = time.perf_counter() - t0
    verdict(
        11,
        ks <= 0.06 and orth <= 1e-10 and elapsed < 60.0,
        f"KS {ks:.4f}, orthonormality {orth:.3g}, {elapsed:.1f}s",
    )


def test_criterion_12_reproducibility(tmp_path):
    argv = ["clt-fluct", "--family", "rademacher", "--seed", "3", "--n", "1024",
            "--r", "16", "--x", "0", "--replicas", "200"]
    assert cli_run(argv + ["--threads", "1", "--out-dir", str(tmp_path / "a")]) == 0
    assert cli_run(argv + ["--threads", "8", "--out-dir", str(tmp_path / "b")]) == 0
    docs = []
    for sub in ["a", "b"]:
        d = tmp_path / sub
        name = [f for f in d.iterdir() if f.suffix == ".json"][0]
        doc = json.loads(name.read_text())
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    verdict(12, docs[0] == docs[1], "byte-identical JSON excluding timestamp across thread counts")
