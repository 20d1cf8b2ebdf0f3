import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ascltlab.sources import (
    SourceSpec,
    _rademacher,
    moment_report,
    sample,
    sample_block,
    sample_prefix,
    sample_rows,
)

FAMILIES = ["rademacher", "uniform", "two_point", "normal", "exponential"]


def make_spec(family, seed=0, stream=0):
    p = 0.3 if family == "two_point" else None
    return SourceSpec(family=family, master_seed=seed, stream_id=stream, p=p)


def test_rademacher_support():
    spec = make_spec("rademacher", seed=123)
    x = sample_prefix(spec, 1000)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_sample_deterministic():
    spec = make_spec("normal", seed=42)
    assert sample(spec, 5) == sample(spec, 5)


def test_uniform_monte_carlo_standardization():
    spec = make_spec("uniform", seed=7)
    x = sample_prefix(spec, 10**6)
    assert abs(np.mean(x)) < 0.005
    assert abs(np.var(x) - 1.0) < 0.01


@pytest.mark.parametrize("family", FAMILIES)
def test_all_families_standardized(family):
    # 5 standard errors around mean 0 and variance 1 over 1e6 draws
    spec = make_spec(family, seed=11)
    x = sample_prefix(spec, 10**6)
    m = 10**6
    assert abs(np.mean(x)) < 5.0 / math.sqrt(m)
    var_se = np.std((x - np.mean(x)) ** 2) / math.sqrt(m)
    assert abs(np.var(x) - 1.0) < 5.0 * var_se


@pytest.mark.parametrize("family", FAMILIES)
def test_lag1_autocorrelation(family):
    spec = make_spec(family, seed=19)
    x = sample_prefix(spec, 10**6)
    x = x - np.mean(x)
    rho = np.mean(x[:-1] * x[1:]) / np.var(x)
    assert abs(rho) < 5.0 / math.sqrt(x.size)


@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n1=st.integers(min_value=1, max_value=200),
    n2=st.integers(min_value=201, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_prefix_stability(family, seed, n1, n2):
    spec = make_spec(family, seed=seed)
    short = sample_prefix(spec, n1)
    long = sample_prefix(spec, n2)
    assert np.array_equal(short, long[:n1])


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    start=st.integers(min_value=1, max_value=500),
    count=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_block_matches_prefix(seed, start, count):
    # counter-based: any window equals the same slice of the prefix
    spec = make_spec("normal", seed=seed)
    block = sample_block(spec, start, count)
    prefix = sample_prefix(spec, start + count - 1)
    assert np.array_equal(block, prefix[start - 1 :])


def all_family_specs(seed, stream):
    mixed = (make_spec("rademacher"), make_spec("two_point"), make_spec("exponential"))
    return [make_spec(f, seed, stream) for f in FAMILIES] + [
        SourceSpec(family="heterogeneous", master_seed=seed, stream_id=stream, components=mixed)
    ]


# row ranges crossing the 512-replica chunk and the 218-row sub-block of n = 300
@pytest.mark.parametrize("spec", all_family_specs(29, 11), ids=lambda s: s.family)
@pytest.mark.parametrize("lo, hi", [(0, 1), (3, 20), (211, 230), (509, 515), (1021, 1034)])
def test_sample_rows_match_streams(spec, lo, hi):
    n = 300
    block = sample_rows(spec, lo, hi, 1, n)
    assert block.shape == (hi - lo, n)
    for i in range(lo, hi):
        assert np.array_equal(block[i - lo], sample_prefix(spec.with_stream(spec.stream_id + i), n))


@pytest.mark.parametrize("spec", all_family_specs(2**64 - 1, 0), ids=lambda s: s.family)
def test_sample_rows_window_matches_block(spec):
    block = sample_rows(spec, 2, 5, 7, 50)
    for i in range(2, 5):
        assert np.array_equal(block[i - 2], sample_block(spec.with_stream(i), 7, 50))


def test_sample_rows_rejects_stream_overflow():
    spec = make_spec("rademacher", stream=2**64 - 3)
    assert sample_rows(spec, 0, 3, 1, 4).shape == (3, 4)
    with pytest.raises(ValueError):
        sample_rows(spec, 0, 4, 1, 4)


def _splitmix64_uniform(seed, stream, j):
    """Scalar reference of the counter stream, in Python integers."""
    mask = 2**64 - 1
    gamma = 0x9E3779B97F4A7C15

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    key = mix(seed) ^ mix((stream + gamma) & mask)
    return ((mix((key + j * gamma) & mask) >> 11) + 0.5) * 2.0**-53


@pytest.mark.parametrize("family", ["rademacher", "uniform"])
def test_sample_rows_match_scalar_reference(family):
    spec = make_spec(family, seed=2**64 - 5, stream=2**63 + 1)
    block = sample_rows(spec, 3, 7, 1, 40)
    for i in range(3, 7):
        u = [_splitmix64_uniform(spec.master_seed, spec.stream_id + i, j) for j in range(1, 41)]
        if family == "rademacher":
            expected = [-1.0 if v < 0.5 else 1.0 for v in u]
        else:
            expected = [(2.0 * v - 1.0) * math.sqrt(3.0) for v in u]
        assert block[i - 3].tolist() == expected


def test_rademacher_sign_bit_matches_uniform_rule():
    edges = [0, 1, 2**11 - 1, 2**11, 2**63 - 2**11 - 1, 2**63 - 2**11, 2**63 - 1,
             2**63, 2**63 + 1, 2**63 + 2**11, 2**64 - 2**11, 2**64 - 1]
    z = np.array(edges, dtype=np.uint64)
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    expected = np.where(u < 0.5, -1.0, 1.0)
    assert np.array_equal(_rademacher(z.copy()), expected)
    assert list(expected[:7]) == [-1.0] * 7 and list(expected[7:]) == [1.0] * 5


def test_streams_differ():
    a = sample_prefix(make_spec("normal", seed=1, stream=0), 64)
    b = sample_prefix(make_spec("normal", seed=1, stream=1), 64)
    assert not np.array_equal(a, b)


def test_two_point_requires_valid_p():
    with pytest.raises(ValueError):
        SourceSpec(family="two_point", p=0.0)
    with pytest.raises(ValueError):
        SourceSpec(family="two_point", p=1.0)
    with pytest.raises(ValueError):
        SourceSpec(family="two_point")


def test_heterogeneous_cycles_families():
    spec = SourceSpec(
        family="heterogeneous",
        master_seed=3,
        components=(make_spec("rademacher"), make_spec("normal")),
    )
    x = sample_prefix(spec, 100)
    # odd j (0-based even index) come from the first component: all +-1
    assert np.all(np.abs(x[0::2]) == 1.0)
    assert not np.all(np.abs(x[1::2]) == 1.0)


def test_moment_report_rademacher():
    rep = moment_report(make_spec("rademacher"))
    assert rep.mean == 0.0
    assert rep.variance == 1.0
    assert rep.third_abs_moment == 1.0
    # closed form: tau = e^{W(1)}, the unique solution of e^{1/tau} = tau
    assert rep.exp_moment_tau == pytest.approx(1.7632228343518967, abs=1e-9)
    assert math.exp(1.0 / rep.exp_moment_tau) == pytest.approx(rep.exp_moment_tau, abs=1e-8)


def test_moment_report_normal_third_moment():
    rep = moment_report(make_spec("normal"))
    assert rep.third_abs_moment == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-12)
    # quadrature oracle
    oracle, _ = integrate.quad(
        lambda x: abs(x) ** 3 * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
        -np.inf,
        np.inf,
    )
    assert rep.third_abs_moment == pytest.approx(oracle, rel=1e-9)


def test_moment_report_uniform_third_moment():
    rep = moment_report(make_spec("uniform"))
    oracle, _ = integrate.quad(
        lambda x: abs(x) ** 3 / (2.0 * math.sqrt(3.0)), -math.sqrt(3.0), math.sqrt(3.0)
    )
    assert rep.third_abs_moment == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, abs=1e-12)
    assert rep.third_abs_moment == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_sakhanenko_tau_is_feasible_and_tight(family):
    spec = make_spec(family)
    rep = moment_report(spec)
    tau = rep.exp_moment_tau
    assert tau is not None and tau > 0

    if family == "normal":
        density = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        lo, hi = -np.inf, np.inf

        def weighted(t):
            val, _ = integrate.quad(
                lambda x: abs(x) ** 3 * math.exp(abs(x) / t) * density(x), lo, hi
            )
            return val

        assert weighted(tau) <= tau * (1.0 + 1e-6)
        assert weighted(0.98 * tau) > 0.98 * tau


def test_moment_report_deterministic_of_family_only():
    a = moment_report(make_spec("exponential", seed=0))
    b = moment_report(make_spec("exponential", seed=99))
    assert a == b
    assert a.exp_moment_tau is not None


def test_seed_bounds_rejected():
    with pytest.raises(ValueError):
        SourceSpec(family="normal", master_seed=-1)
    with pytest.raises(ValueError):
        SourceSpec(family="normal", master_seed=2**64)


def test_sample_index_must_be_positive():
    with pytest.raises(ValueError):
        sample(make_spec("normal"), 0)
