import math

import numpy as np
import pytest

from ascltlab.empirical import EmpiricalMeasure, ks_to, normal_cdf
from ascltlab.experiments import (
    Schedule,
    _replica_map,
    asclt_bivariate,
    asclt_trajectory,
    char_variance_decay,
    clt_fluctuation,
    ldp_rate,
    validate_growth,
)
from ascltlab.sources import SourceSpec, sample_prefix


def spec_of(family, seed, stream=0):
    return SourceSpec(family=family, master_seed=seed, stream_id=stream)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(points=())
    with pytest.raises(ValueError):
        Schedule(points=((64, 31), (64, 31)))  # not strictly increasing
    with pytest.raises(ValueError):
        Schedule(points=((10, 11),))  # r > n
    s = Schedule.parse("1024:511,4096:2047")
    assert s.points == ((1024, 511), (4096, 2047))
    with pytest.raises(ValueError):
        Schedule.parse("1024")


def test_growth_diagnostics_examples():
    d = validate_growth(Schedule(points=((4096, 8),)))[0]
    assert d["r3_log2_over_n"] == pytest.approx(512.0 * math.log(4096.0) ** 2 / 4096.0)
    assert d["r3_log2_over_n"] == pytest.approx(8.648, abs=1e-3)
    assert d["r4_over_n"] == 1.0


def test_growth_haar_case_flagged_nonvanishing():
    # r = n: every functional grows along the schedule
    diags = validate_growth(Schedule(points=((64, 64), (256, 256), (1024, 1024))))
    for key in ("r3_log2_over_n", "r4_over_n"):
        assert not diags[0][f"{key}_decreasing"]
        vals = [d[key] for d in diags]
        assert vals[0] < vals[-1]


def test_trajectory_gaussian_desk_scale():
    res = asclt_trajectory(spec_of("normal", 7), Schedule(points=((2**14, 8191),)))
    assert res.points[0]["ks_to_normal"] <= 0.025


def test_trajectory_rademacher_desk_scale():
    res = asclt_trajectory(spec_of("rademacher", 7), Schedule(points=((2**14, 8191),)))
    assert res.points[0]["ks_to_normal"] <= 0.03


def test_trajectory_degenerate_point_mass():
    # a zero sample path gives mu_n = delta_0 and KS exactly 0.5; the
    # stream families are all standardized, so the degenerate path is
    # exercised at the statistic level
    assert ks_to(EmpiricalMeasure(np.zeros(100)), normal_cdf) == 0.5


def test_trajectory_deterministic():
    sch = Schedule.parse("256:127,1024:511")
    a = asclt_trajectory(spec_of("rademacher", 5), sch)
    b = asclt_trajectory(spec_of("rademacher", 5), sch)
    assert a.points == b.points


def test_trajectory_prefix_hashes_chain():
    sch = Schedule.parse("128:63,512:255,2048:1023")
    res = asclt_trajectory(spec_of("uniform", 9), sch)
    digests = [p["prefix_sha256"] for p in res.points]
    assert len(set(digests)) == 3  # longer prefixes hash differently


def test_trajectory_haar_kind():
    res = asclt_trajectory(spec_of("rademacher", 2), Schedule(points=((1024, 1024),)), kind="haar")
    assert res.points[0]["ks_to_normal"] <= 0.06


def test_trajectory_median_ks_decreases():
    medians = []
    for e in [10, 12, 14]:
        n = 2**e
        ks = [
            asclt_trajectory(spec_of("normal", seed), Schedule(points=((n, (n - 1) // 2),)))
            .points[0]["ks_to_normal"]
            for seed in range(50)
        ]
        medians.append(float(np.median(ks)))
    assert medians[0] > medians[1] > medians[2]


def test_trajectory_rejects_bad_trig_schedule():
    with pytest.raises(ValueError):
        asclt_trajectory(spec_of("normal", 0), Schedule(points=((64, 40),)))


def test_bivariate_gaussian_and_rademacher():
    sch = Schedule(points=((2**14, 8191),))
    for family in ["normal", "rademacher"]:
        res = asclt_bivariate(spec_of(family, 7), sch)
        assert res.points[0]["max_grid_deviation"] <= 0.03


def test_bivariate_origin_value():
    from ascltlab.empirical import joint_cdf
    from ascltlab.sources import sample_prefix
    from ascltlab.transform import partial_sums_fast

    spec = spec_of("normal", 7)
    ps = partial_sums_fast(2**15, 10**4, sample_prefix(spec, 2**15))
    pairs = np.column_stack([ps.s, ps.t])
    assert abs(joint_cdf(pairs, 0.0, 0.0) - 0.25) <= 0.02


def test_bivariate_degenerate_origin_deviation():
    from ascltlab.empirical import joint_cdf

    pairs = np.zeros((100, 2))
    assert joint_cdf(pairs, 0.0, 0.0) == 1.0
    assert abs(1.0 - 0.25) == 0.75


def test_char_decay_gaussian_matches_closed_form():
    sch = Schedule(points=((128, 63), (512, 255), (2048, 1023)))
    res = char_variance_decay(spec_of("normal", 3), sch, 1.0, 0.0, 500)
    for p in res.points:
        target = (1.0 - math.exp(-1.0)) / p["r"]
        assert abs(p["estimate"] - target) <= 3.0 * p["std_error"]


def test_char_decay_rademacher_bound():
    sch = Schedule(points=((128, 63), (512, 255), (2048, 1023)))
    res = char_variance_decay(spec_of("rademacher", 3), sch, 1.0, 0.0, 500)
    for p in res.points:
        assert p["estimate"] <= 3.0 / p["r"]


def test_char_decay_zero_frequency_exact():
    res = char_variance_decay(spec_of("normal", 1), Schedule(points=((64, 31),)), 0.0, 0.0, 100)
    assert res.points[0]["estimate"] == 0.0


def test_char_decay_replica_floor():
    with pytest.raises(ValueError):
        char_variance_decay(spec_of("normal", 1), Schedule(points=((64, 31),)), 1.0, 0.0, 99)


def test_clt_fluctuation_gaussian():
    res = clt_fluctuation(spec_of("normal", 3), 2**12, 32, 0.0, 2000)
    p = res.points[0]
    assert abs(p["w_variance"] - 0.25) <= 0.05
    assert p["limit_variance"] == pytest.approx(0.25)
    se = math.sqrt(p["w_variance"] / res.replicas)
    assert abs(p["w_mean"]) <= 3.0 * se


def test_clt_fluctuation_rademacher():
    res = clt_fluctuation(spec_of("rademacher", 3), 2**12, 32, 0.0, 2000)
    assert abs(res.points[0]["w_variance"] - 0.25) <= 0.06


def test_clt_fluctuation_far_tail():
    res = clt_fluctuation(spec_of("normal", 3), 2**12, 32, 10.0, 100)
    p = res.points[0]
    assert abs(p["w_mean"]) <= 1e-12
    assert p["w_variance"] <= 1e-12


def test_clt_fluctuation_thread_count_invariant():
    a = clt_fluctuation(spec_of("normal", 3), 1024, 16, 0.0, 200, threads=1)
    b = clt_fluctuation(spec_of("normal", 3), 1024, 16, 0.0, 200, threads=8)
    assert a.points == b.points


def test_ldp_thread_count_invariant():
    a = ldp_rate(spec_of("rademacher", 6), 1024, 16, 0.3, 1000, threads=1)
    b = ldp_rate(spec_of("rademacher", 6), 1024, 16, 0.3, 1000, threads=2)
    assert a.points[0]["hits"] > 0
    assert a.points == b.points


def test_char_decay_thread_count_invariant():
    sched = Schedule(points=((128, 63), (512, 255)))
    a = char_variance_decay(spec_of("rademacher", 6), sched, 1.0, 0.5, 1000, threads=1)
    b = char_variance_decay(spec_of("rademacher", 6), sched, 1.0, 0.5, 1000, threads=2)
    assert a.points == b.points


def test_replica_map_follows_replica_streams():
    # 1100 replicas at n = 300: 218-row sub-blocks straddle the 512-replica chunks
    spec = spec_of("normal", 8, stream=40)
    got = _replica_map(lambda x: x[:, -1] + 2.0 * x[:, 0], spec, 300, 1100, threads=4)
    rows = [sample_prefix(spec.with_stream(40 + i), 300) for i in range(1100)]
    assert np.array_equal(got, np.array([x[-1] + 2.0 * x[0] for x in rows]))


def test_replica_map_rejects_negative_threads():
    with pytest.raises(ValueError):
        _replica_map(lambda x: x[:, 0], spec_of("normal", 8), 16, 10, threads=-1)


def test_clt_fluctuation_replica_floor():
    with pytest.raises(ValueError):
        clt_fluctuation(spec_of("normal", 3), 1024, 16, 0.0, 50)


def test_ldp_target_and_band():
    res = ldp_rate(spec_of("normal", 0), 2**12, 32, 0.5, 10**5, threads=4)
    p = res.points[0]
    assert p["target_rate"] == pytest.approx(0.125)
    assert 0.08 <= p["rate"] <= 0.19


def test_ldp_rademacher_vs_oracle_factor():
    res = ldp_rate(spec_of("rademacher", 5), 2**12, 32, 0.5, 10**5, threads=4)
    p = res.points[0]
    assert 1.0 / 1.5 <= p["rate_ratio_to_oracle"] <= 1.5


def test_ldp_tail_probability_monotone_in_a():
    lo = ldp_rate(spec_of("rademacher", 5), 1024, 16, 0.3, 2000, threads=2)
    hi = ldp_rate(spec_of("rademacher", 5), 1024, 16, 0.8, 2000, threads=2)
    assert lo.points[0]["p_hat"] >= hi.points[0]["p_hat"]


def test_ldp_zero_hits_flagged():
    res = ldp_rate(spec_of("rademacher", 5), 1024, 16, 4.0, 500)
    p = res.points[0]
    assert p["hits"] == 0
    assert p["rate_is_lower_bound"]
    assert p["p_hat"] == pytest.approx(1.0 / 500)


def test_ldp_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        ldp_rate(spec_of("rademacher", 5), 1024, 16, 0.0, 500)
