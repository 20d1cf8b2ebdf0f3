import hashlib
import math
import os

import numpy as np
import pytest
from scipy.special import ndtr

from ascltlab import experiments
from ascltlab.empirical import ks_to, normal_cdf
from ascltlab.experiments import (
    Schedule,
    _replica_map,
    asclt_bivariate,
    asclt_trajectory,
    char_variance_decay,
    clt_fluctuation,
    ldp_rate,
)
from ascltlab.sources import SourceSpec, sample_path, sample_prefix, stream_blocks
from ascltlab.transform import (
    mean_byte_table,
    mean_from_sign_bytes,
    mean_weights,
    partial_sums_fast,
)
from ascltlab.weights import check_trig, make_trig_pair

from .oracles import (
    clt_fluctuation_law,
    empirical_char,
    joint_cdf,
    ldp_normal_baseline,
    rademacher_mean_tail,
)
from .test_sources import all_family_specs
from .test_weights import peak_bytes


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


@pytest.mark.parametrize(
    "call",
    [
        lambda n, r: asclt_trajectory(spec_of("normal", 0), Schedule(points=((n, r),))),
        lambda n, r: clt_fluctuation(spec_of("normal", 0), n, r, 0.0, 100),
        lambda n, r: ldp_rate(spec_of("normal", 0), n, r, 0.5, 100),
        lambda n, r: partial_sums_fast(n, r, np.zeros(n)),
        lambda n, r: make_trig_pair(n, r),
        lambda n, r: check_trig(n, r, 1.0),
    ],
)
@pytest.mark.parametrize("n, r", [(64, 32), (9, 5), (2, 1)])
def test_every_trig_path_rejects_r_above_the_bound(call, n, r):
    with pytest.raises(ValueError, match=r"r <= floor\(\(n-1\)/2\)"):
        call(n, r)


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
    assert ks_to(np.zeros(100), normal_cdf) == 0.5


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


@pytest.mark.parametrize("harness", [asclt_trajectory, asclt_bivariate])
def test_fixed_path_is_sampled_once(monkeypatch, harness):
    import ascltlab.experiments as experiments

    lengths = []

    def counting_sample_path(spec, n):
        lengths.append(n)
        return sample_path(spec, n)

    monkeypatch.setattr(experiments, "sample_path", counting_sample_path)
    spec = spec_of("uniform", 9)
    res = harness(spec, Schedule.parse("128:63,512:255,2048:1023"))
    assert lengths == [2048]
    for p in res.points:
        if "prefix_sha256" in p:
            assert p["prefix_sha256"] == hashlib.sha256(sample_prefix(spec, p["n"])).hexdigest()


# the benchmark's trig path out to n = 2^20, and one bivariate point there
_TRIG_PATH = ",".join(f"{4**k}:{4**k // 2 - 1}" for k in range(5, 11))


@pytest.mark.parametrize("harness, schedule", [
    (asclt_trajectory, _TRIG_PATH),
    (asclt_bivariate, "1048576:524287"),
], ids=["asclt", "bivariate"])
def test_one_path_harness_peaks_under_22n_bytes(harness, schedule):
    # the one-based path and the rfft output are 16n bytes; asclt's sorted
    # copy of S adds 4n (21.5n measured) and bivariate a few blocks (17.2n);
    # a copy of the path would add 8n
    n = 2**20
    spec = spec_of("rademacher", 1)
    _, peak = peak_bytes(lambda: harness(spec, Schedule.parse(schedule)))
    assert peak <= 22 * n, f"{harness.__name__} peaked at {peak / n:.2f}n bytes"


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


@pytest.mark.parametrize("family", ["rademacher", "normal"])
def test_bivariate_matches_joint_cdf_reference(family):
    spec = spec_of(family, 7)
    res = asclt_bivariate(spec, Schedule.parse("1024:511,16384:8191"))
    grid = res.params["grid"]
    assert len(grid) == 9
    for p in res.points:
        ps = partial_sums_fast(p["n"], p["r"], sample_prefix(spec, p["n"]))
        pairs = np.column_stack([ps.s, ps.t])
        ref = max(
            abs(joint_cdf(pairs, x, y) - normal_cdf(x) * normal_cdf(y)) for x in grid for y in grid
        )
        assert abs(p["max_grid_deviation"] - ref) <= 1e-15


def test_bivariate_blocked_counts_match_one_pass_counts():
    # r = 199999 pairs make four blocks of grid counts, the last one partial
    spec = spec_of("rademacher", 13)
    n, r = 400000, 199999
    res = asclt_bivariate(spec, Schedule(points=((n, r),)))
    s, t = partial_sums_fast(n, r, sample_prefix(spec, n))
    gx = np.array(res.params["grid"])
    g = gx.size + 1
    cells = np.searchsorted(gx, s) * g + np.searchsorted(gx, t)
    counts = np.bincount(cells, minlength=g * g).reshape(g, g)
    joint = counts.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / r
    target = np.outer(normal_cdf(gx), normal_cdf(gx))
    assert res.points[0]["max_grid_deviation"] == float(np.max(np.abs(joint - target)))


def test_grid_cells_are_the_searchsorted_counts():
    # every grid point, its two neighbours, signed zeros and far values,
    # read strided as S and T are (views of the complex rfft output)
    gx = experiments._BIVARIATE_GRID
    v = np.concatenate([gx, np.nextafter(gx, -np.inf), np.nextafter(gx, np.inf),
                        [-0.0, 0.0, -1e300, 1e300, 5e-324, -5e-324],
                        np.random.default_rng(4).standard_normal(200) * 2.0])
    z = np.zeros(2 * v.size)
    z[::2] = v
    m = v.size
    got = experiments._grid_below(z[::2], np.empty(m), np.empty(m, dtype=bool),
                                  np.empty(m, dtype=np.uint8))
    assert np.array_equal(got, np.searchsorted(gx, v, side="left"))


def test_bivariate_degenerate_origin_deviation(monkeypatch):
    # a zero path puts every (s, t) at the origin: the joint ECDF is 1 on
    # the closed positive quadrant, where Phi(x)Phi(y) is smallest at 0
    import ascltlab.experiments as experiments

    monkeypatch.setattr(experiments, "sample_path", lambda spec, n: np.zeros(n + 1))
    res = asclt_bivariate(spec_of("normal", 7), Schedule.parse("128:63,1024:511"))
    assert [p["max_grid_deviation"] for p in res.points] == [0.75, 0.75]


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


def test_char_decay_matches_empirical_char_reference():
    spec, s, t, n, r, reps = spec_of("rademacher", 5), 1.0, 0.5, 128, 63, 100
    res = char_variance_decay(spec, Schedule(points=((n, r),)), s, t, reps)
    target = math.exp(-(s * s + t * t) / 2.0)
    sq = []
    for i in range(reps):
        x = sample_prefix(spec.with_stream(spec.stream_id + i), n)
        ps = partial_sums_fast(n, r, x)
        sq.append(abs(empirical_char(np.column_stack([ps.s, ps.t]), s, t) - target) ** 2)
    assert abs(res.points[0]["estimate"] - float(np.mean(sq))) <= 1e-12


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


@pytest.mark.parametrize("x", [0.3, -0.7])
@pytest.mark.parametrize("r", [3, 7])
def test_clt_fluctuation_rademacher_matches_the_exact_law(r, x):
    # at n = 16 the 2^16 sign vectors are equally likely, so W's mean and
    # variance are known exactly; the sample's lie within 4 SE of them.
    # x = 0.5 is left out: an atom sits exactly there at n = 16
    n, replicas = 16, 20_000
    mean, var, mu4, gap = clt_fluctuation_law(n, r, x)
    assert gap > 1e-9
    p = clt_fluctuation(spec_of("rademacher", 11), n, r, x, replicas).points[0]
    assert abs(p["w_mean"] - mean) <= 4.0 * math.sqrt(var / replicas)
    # the variance of the unbiased sample variance, from the exact moments
    var_se = math.sqrt((mu4 - var**2 * (replicas - 3) / (replicas - 1)) / replicas)
    assert abs(p["w_variance"] - var) <= 4.0 * var_se


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
    assert a.points[0]["oracle_hits"] > 0
    assert a.points == b.points


def test_char_decay_thread_count_invariant():
    sched = Schedule(points=((128, 63), (512, 255)))
    a = char_variance_decay(spec_of("rademacher", 6), sched, 1.0, 0.5, 1000, threads=1)
    b = char_variance_decay(spec_of("rademacher", 6), sched, 1.0, 0.5, 1000, threads=2)
    assert a.points == b.points


def test_replica_map_follows_replica_streams():
    # 1100 replicas at n = 300: 218-row sub-blocks, split between the workers
    spec = spec_of("normal", 8, stream=40)
    got = _replica_map(lambda x: x[:, -1] + 2.0 * x[:, 1], spec, 300, 1100, threads=4)
    rows = [sample_prefix(spec.with_stream(40 + i), 300) for i in range(1100)]
    assert np.array_equal(got, np.array([x[-1] + 2.0 * x[0] for x in rows]))


# rows [lo, hi) across 512, 1024 and the sub-blocks: 218 rows at n = 300,
# 16 rows at n = 4096
@pytest.mark.parametrize("spec", all_family_specs(31, 7), ids=lambda s: s.family)
@pytest.mark.parametrize("n, lo, hi", [(300, 509, 516), (300, 1021, 1035), (4096, 0, 17),
                                       (4096, 100, 613)])
def test_replica_sampler_matches_sample_rows_and_streams(spec, n, lo, hi):
    block = next(stream_blocks(spec, n, 0, hi + 3, hi + 3))[:, 1:]
    for i in range(lo, hi):
        assert np.array_equal(block[i], sample_prefix(spec.with_stream(spec.stream_id + i), n))
    for threads in (1, 2):
        # the identity statistic hands back the sampler's own buffers
        assert np.array_equal(_replica_map(lambda x: x[:, 1:], spec, n, hi + 3, threads), block)


@pytest.mark.parametrize("family", ["rademacher", "normal"])
@pytest.mark.parametrize("threads", [1, 2])
def test_replica_map_keeps_a_stat_that_views_its_block(family, threads):
    # x[:, 1] views the buffers that the next sub-block overwrites; 600
    # replicas at n = 300 take three 218-row sub-blocks
    spec = spec_of(family, 9, stream=3)
    got = _replica_map(lambda x: x[:, 1], spec, 300, 600, threads)
    assert np.array_equal(got, [sample_prefix(spec.with_stream(3 + i), 300)[0] for i in range(600)])


@pytest.mark.parametrize("threads", [1, 2])
def test_packed_replica_map_keeps_blocks_and_means_in_replica_order(threads):
    # 4000 replicas at n = 300 take three 1747-row packed sub-blocks, eight
    # times a float sub-block's rows; the byte-table means are the same bits
    # in one block of every replica, at any thread count
    spec, n, replicas = spec_of("rademacher", 10, stream=6), 300, 4000
    whole = next(stream_blocks(spec, n, 0, replicas, replicas, packed=True))
    got = _replica_map(lambda b: b, spec, n, replicas, threads, packed=True)
    assert np.array_equal(got, whole)
    table = mean_byte_table(mean_weights(n, 7))
    means = _replica_map(lambda b: mean_from_sign_bytes(b, table), spec, n, replicas, threads,
                         packed=True)
    assert np.array_equal(means, mean_from_sign_bytes(whole, table))


def test_ldp_builds_its_byte_table_only_under_the_cap():
    # the table takes 256 B per index.  At n = 32768 it is the 8 MiB cap, and
    # the run's peak holds it; at 65536 the run reads float signs, and its
    # peak stays under the 16 MiB the table would take
    for n, packed in ((32768, True), (65536, False)):
        _, peak = peak_bytes(lambda: ldp_rate(spec_of("rademacher", 2), n, 3, 0.5, 4))
        assert (peak >= 256 * n) == packed, f"n = {n}: peak {peak / 2**20:.1f} MiB"


def test_replica_map_rejects_negative_threads():
    with pytest.raises(ValueError):
        _replica_map(lambda x: x[:, 1], spec_of("normal", 8), 16, 10, threads=-1)


class _SerialPool:
    """A ThreadPoolExecutor stand-in that records its max_workers and runs
    every worker's run in the calling thread."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def pools(monkeypatch, cpus, n, replicas, threads):
    """The max_workers of each pool that _replica_map makes at each thread
    count, with cpu_count() giving cpus.  No real threads are started: the
    pool runs its workers serially, and each output is checked against
    threads = 1."""
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "workers", [])
    spec = spec_of("normal", 8)
    serial = _replica_map(lambda x: x[:, 1], spec, n, replicas, threads=1)
    for t in threads:
        assert np.array_equal(_replica_map(lambda x: x[:, 1], spec, n, replicas, t), serial)
    return _SerialPool.workers


@pytest.mark.parametrize("cpus, workers", [(3, [2, 3, 3]), (None, [])])
def test_replica_map_caps_its_workers_at_the_cpu_count(monkeypatch, cpus, workers):
    # 1100 replicas at n = 300 are six 218-row sub-blocks; at a cap of one
    # worker no pool is made
    assert pools(monkeypatch, cpus, 300, 1100, (2, 3, 100_000)) == workers


@pytest.mark.parametrize("n, replicas, threads, workers", [
    (16, 1100, (2, 3, 100_000), []),
    (300, 872, (3,), [2]),
])
def test_replica_map_makes_one_worker_per_run(monkeypatch, n, replicas, threads, workers):
    # 1100 replicas at n = 16 are one 4096-row sub-block, drawn in the
    # calling thread; 872 replicas at n = 300 are four 218-row sub-blocks,
    # which three workers split into two runs of two
    assert pools(monkeypatch, 3, n, replicas, threads) == workers


@pytest.mark.parametrize("threads, runs", [(1, [(0, 1100)]), (2, [(0, 654), (654, 1100)]),
                                           (8, [(0, 654), (654, 1100)])])
def test_replica_map_draws_one_run_of_whole_sub_blocks_per_worker(monkeypatch, threads, runs):
    # 218-row sub-blocks at n = 300, two CPUs: each worker's run starts at a
    # multiple of 218 and is drawn by one stream_blocks call
    calls = []

    def blocks(spec, n, lo, hi, rows):
        calls.append((lo, hi))
        return stream_blocks(spec, n, lo, hi, rows)

    monkeypatch.setattr(experiments, "stream_blocks", blocks)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = spec_of("normal", 8)
    got = _replica_map(lambda x: x[:, 1], spec, 300, 1100, threads)
    assert sorted(calls) == runs
    assert np.array_equal(got, [sample_prefix(spec.with_stream(i), 300)[0] for i in range(1100)])


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
    # the Wilson interval starts at exactly 0, which bounds no rate
    assert p["p_hat_lo"] == 0.0 and p["rate_hi"] is None
    assert p["p_hat_hi"] == pytest.approx(1.959963984540054**2 / (500 + 1.959963984540054**2))
    assert p["rate_lo"] == -math.log(p["p_hat_hi"]) / 16


@pytest.mark.parametrize("n, r", [(256, 8), (999, 13)])
def test_ldp_oracle_and_reference_land_on_the_normal_tail(n, r):
    # both baselines count Binomial(replicas, Phi(-a sqrt r)) hits
    a, replicas = 0.5, 20000
    spec = spec_of("rademacher", 9)
    mean = replicas * ndtr(-a * math.sqrt(r))
    band = 5.0 * math.sqrt(mean * (1.0 - mean / replicas))
    got = ldp_rate(spec, n, r, a, replicas).points[0]["oracle_hits"]
    ref = ldp_normal_baseline(spec, n, r, a, replicas)["hits"]
    assert abs(got - mean) <= band
    assert abs(ref - mean) <= band


@pytest.mark.parametrize("n, r, seed", [(16, 7, 1), (12, 3, 2), (16, 4, 3)])
def test_ldp_rademacher_hits_match_the_exact_law(n, r, seed):
    # every one of the 2^n sign vectors is equally likely, so the hit count
    # is Binomial(replicas, p) with p known exactly.  At (16, 4) atoms sit
    # exactly at a = 0.5, and the summation order decides their side: the
    # hits must lie between 4 SE below the law of > a and 4 SE above that
    # of >= a
    a, replicas = 0.5, 200_000
    p_gt, p_ge = rademacher_mean_tail(n, r, a)
    assert (p_gt < p_ge) == ((n, r) == (16, 4))
    hits = ldp_rate(spec_of("rademacher", seed), n, r, a, replicas).points[0]["hits"]
    assert replicas * p_gt - 4.0 * math.sqrt(replicas * p_gt * (1.0 - p_gt)) <= hits
    assert hits <= replicas * p_ge + 4.0 * math.sqrt(replicas * p_ge * (1.0 - p_ge))


def test_ldp_oracle_reads_the_first_draw_of_each_offset_stream():
    n, r, a, replicas = 512, 8, 0.5, 3000
    p = ldp_rate(spec_of("rademacher", 4, stream=17), n, r, a, replicas, threads=2).points[0]
    oracle_spec = spec_of("normal", 4, stream=17 + replicas)
    x1 = np.array([sample_prefix(oracle_spec.with_stream(oracle_spec.stream_id + i), 1)[0]
                   for i in range(replicas)])
    assert p["oracle_hits"] == int(np.sum(x1 / math.sqrt(r) >= a))


def test_ldp_wilson_interval():
    p = ldp_rate(spec_of("rademacher", 5), 1024, 16, 0.5, 2000).points[0]
    assert 0.0 < p["p_hat_lo"] < p["p_hat"] < p["p_hat_hi"] < 1.0
    assert p["rate_lo"] < p["rate"] < p["rate_hi"]
    assert p["rate_lo"] == -math.log(p["p_hat_hi"]) / 16
    assert p["rate_hi"] == -math.log(p["p_hat_lo"]) / 16


def test_ldp_rejects_nonpositive_a():
    for a in (0.0, math.nan):
        with pytest.raises(ValueError):
            ldp_rate(spec_of("rademacher", 5), 1024, 16, a, 500)
