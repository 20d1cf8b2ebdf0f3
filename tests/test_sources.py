import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascltlab import BLOCK
from ascltlab.sources import (
    BYTE_SIGNS,
    SourceSpec,
    _draw,
    _index_keys,
    _stream_keys,
    normal_grid,
    sample_prefix,
    stream_blocks,
)

from .test_weights import peak_bytes

FAMILIES = ["rademacher", "uniform", "two_point", "normal", "exponential"]


def make_spec(family, seed=0, stream=0):
    p = 0.3 if family == "two_point" else None
    return SourceSpec(family=family, master_seed=seed, stream_id=stream, p=p)


def test_rademacher_support():
    spec = make_spec("rademacher", seed=123)
    x = sample_prefix(spec, 1000)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_sample_deterministic():
    # a single draw X_5 is the same however it is reached
    spec = make_spec("normal", seed=42)
    assert sample_prefix(spec, 5)[4] == sample_prefix(spec, 5)[4] == sample_prefix(spec, 9)[4]


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


# rademacher word edges (64 indices to a hash, 8 to a byte) and chunk edges
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_prefix_in_blocks_matches_one_block_draw(family, n):
    # sample_prefix draws BLOCK indices at a time, advancing the stream key
    # from chunk to chunk; one _draw over all n index keys at once is the
    # same stream.  A rademacher stream hashes its words in one piece, so
    # it is held to the scalar reference instead
    spec = make_spec(family, seed=2**63 + 5, stream=7)
    if family == "rademacher":
        whole = _rademacher_reference(spec.master_seed, spec.stream_id, n)
    else:
        z = np.empty((1, n), dtype=np.uint64)
        whole = _draw(family, spec.p, _stream_keys(spec, 0, 1), _index_keys(n), z,
                      np.empty_like(z))[0]
    assert np.array_equal(sample_prefix(spec, n), whole)


@pytest.mark.parametrize("family", FAMILIES)
def test_prefix_memory_is_its_result_and_two_blocks(family):
    # the 8 MiB result plus a block of scratch and one of index keys, or a
    # rademacher stream's word rows; drawing all of it at once took 24 MiB
    x, peak = peak_bytes(lambda: sample_prefix(make_spec(family, seed=3), 2**20))
    assert x.size == 2**20
    assert peak <= 10 * 2**20, f"sample_prefix peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("family", FAMILIES)
def test_one_stream_blocks_hold_one_block_and_its_scratch(family):
    # three blocks of one stream at n = 2**20 share one 8 MiB buffer, next
    # to one BLOCK of scratch and one of index keys (drawing whole rows
    # took 24 MiB); a rademacher block holds no BLOCK scratch, only its
    # word rows (the words, their scratch and keys: 3n/8 bytes) and a
    # take's BLOCK bytes of indices
    n = 2**20

    def consume():
        for _ in stream_blocks(make_spec(family, seed=6), n, 0, 3, 1):
            pass

    _, peak = peak_bytes(consume)
    bound = 8 * (n + 1) + n // 2 if family == "rademacher" else 10 * 2**20
    assert peak <= bound, f"stream_blocks peaked at {peak / n:.3f}n bytes"


@pytest.mark.parametrize("family", FAMILIES)
def test_stream_blocks_share_one_buffer(family):
    # every family draws in the buffer of its block, so the next block
    # overwrites it
    first, second = stream_blocks(make_spec(family, seed=4), 100, 0, 6, 3)
    assert np.shares_memory(first, second)


def stacked(spec, n, lo, hi, rows):
    """X_1..X_n of every block of stream_blocks, copied and stacked in
    stream order."""
    return np.vstack([b[:, 1:].copy() for b in stream_blocks(spec, n, lo, hi, rows)])


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    streams=st.integers(min_value=1, max_value=40),
    rows=st.integers(min_value=1, max_value=50),
    count=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_block_matches_prefix(seed, streams, rows, count):
    # counter-based: the block size changes no draw, and each row is the
    # prefix of its own stream
    spec = make_spec("normal", seed=seed)
    blocks = [b[:, 1:].copy() for b in stream_blocks(spec, count, 0, streams, rows)]
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    block = np.vstack(blocks)
    for i in range(streams):
        assert np.array_equal(block[i], sample_prefix(spec.with_stream(i), count))


def all_family_specs(seed, stream):
    return [make_spec(f, seed, stream) for f in FAMILIES]


# row ranges crossing 512 and 1024, and the 218-row sub-block of n = 300
@pytest.mark.parametrize("spec", all_family_specs(29, 11), ids=lambda s: s.family)
@pytest.mark.parametrize("lo, hi", [(0, 1), (3, 20), (211, 230), (509, 515), (1021, 1034)])
def test_sample_rows_match_streams(spec, lo, hi):
    n = 300
    block = stacked(spec, n, lo, hi, 218)
    assert block.shape == (hi - lo, n)
    for i in range(lo, hi):
        assert np.array_equal(block[i - lo], sample_prefix(spec.with_stream(spec.stream_id + i), n))


@pytest.mark.parametrize("spec", all_family_specs(2**64 - 1, 0), ids=lambda s: s.family)
def test_sample_rows_window_matches_block(spec):
    # streams 2..4 in blocks of 2 and 1, in one column chunk and in two; the
    # 2-row block's second chunk at n = BLOCK + 9 is a strided 2 x 9 slice
    for n in (50, BLOCK + 1, BLOCK + 9):
        block = stacked(spec, n, 2, 5, 2)
        for i in range(2, 5):
            assert np.array_equal(block[i - 2], sample_prefix(spec.with_stream(i), n))


def test_sample_rows_rejects_stream_overflow():
    spec = make_spec("rademacher", stream=2**64 - 3)
    assert stacked(spec, 4, 0, 3, 3).shape == (3, 4)
    with pytest.raises(ValueError):
        stacked(spec, 4, 0, 4, 4)
    # the whole range is refused before its first block is drawn
    blocks = stream_blocks(spec, 4, 0, 4, 1)
    with pytest.raises(ValueError, match="below 2"):
        next(blocks)


def test_stream_blocks_memory_does_not_grow_with_the_stream_range():
    # a million streams at n = 16 in blocks of 4096: the stream keys are
    # derived one block at a time, next to the 557 KiB block and its words
    def consume():
        for _ in stream_blocks(make_spec("rademacher", seed=5), 16, 0, 10**6, 4096):
            pass

    _, peak = peak_bytes(consume)
    assert peak < 2 * 2**20


_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64_hash(seed, stream, j):
    """Scalar reference of the counter stream's hash at index j, in Python
    integers."""
    key = _mix(seed) ^ _mix((stream + _GAMMA) & _MASK)
    return _mix((key + j * _GAMMA) & _MASK)


def _splitmix64_uniform(seed, stream, j):
    return ((_splitmix64_hash(seed, stream, j) >> 11) + 0.5) * 2.0**-53


def _rademacher_reference(seed, stream, n):
    """X_1..X_n of a rademacher stream: index j reads bit (j - 1) % 64 of
    word (j - 1) // 64, the hash at the word's first index."""
    words = [_splitmix64_hash(seed, stream, 64 * w + 1) for w in range((n + 63) // 64)]
    return [1.0 if words[(j - 1) // 64] >> ((j - 1) % 64) & 1 else -1.0 for j in range(1, n + 1)]


@pytest.mark.parametrize("family", ["rademacher", "uniform", "two_point"])
def test_sample_rows_match_scalar_reference(family):
    # 200 indices cross the word edges 64/65 and 128/129, read bits 0 and 63
    # and end 8 bits into a fourth word
    n = 200
    spec = make_spec(family, seed=2**64 - 5, stream=2**63 + 1)
    block = stacked(spec, n, 3, 7, 3)
    p = spec.p
    for i in range(3, 7):
        u = [_splitmix64_uniform(spec.master_seed, spec.stream_id + i, j) for j in range(1, n + 1)]
        if family == "rademacher":
            expected = _rademacher_reference(spec.master_seed, spec.stream_id + i, n)
        elif family == "two_point":
            expected = [math.sqrt((1 - p) / p) if v < p else -math.sqrt(p / (1 - p)) for v in u]
        else:
            expected = [(2.0 * v - 1.0) * math.sqrt(3.0) for v in u]
        assert block[i - 3].tolist() == expected


def test_byte_sign_table_maps_every_byte_bit_by_bit():
    assert BYTE_SIGNS.shape == (256, 8) and BYTE_SIGNS.dtype == np.float64
    for v in range(256):
        assert BYTE_SIGNS[v].tolist() == [1.0 if v >> i & 1 else -1.0 for i in range(8)]


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 200, BLOCK + 9])
def test_packed_blocks_hold_the_float_signs_bit_by_bit(n):
    # bit i of byte k of a packed stream is X_{8k+i+1}, set where it is +1;
    # the float draw chunks at BLOCK and the packed one does not, so
    # BLOCK + 9 checks the word keys across a chunk edge
    spec = make_spec("rademacher", seed=2**64 - 3, stream=11)
    packed = np.vstack([b.copy() for b in stream_blocks(spec, n, 2, 9, 3, packed=True)])
    assert packed.dtype == np.uint8 and packed.shape == (7, 8 * -(-n // 64))
    bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :n]
    assert np.array_equal(np.where(bits, 1.0, -1.0), stacked(spec, n, 2, 9, 4))


@pytest.mark.parametrize("family", FAMILIES[1:])
def test_packed_blocks_are_rademacher_only(family):
    with pytest.raises(ValueError, match="rademacher"):
        next(stream_blocks(make_spec(family), 64, 0, 1, 1, packed=True))


def _within_4_se(hits, count, p):
    """Whether hits of count trials lie within 4 binomial SE of count * p."""
    return abs(hits - count * p) <= 4.0 * math.sqrt(count * p * (1.0 - p))


def test_rademacher_pair_frequencies_and_bit_balance():
    # 1024 streams of n = 4096 (64 words each).  Every band is 4 binomial SE
    # around the exact law of independent fair signs, over disjoint pairs:
    # the enumeration laws at n <= 16 read only bits 0..15 of word 0
    x = stacked(make_spec("rademacher", seed=31), 4096, 0, 1024, 1024) > 0
    words = x.reshape(1024, 64, 64)  # (stream, word, bit)
    for bit in (0, 63):
        column = words[:, :, bit]
        assert _within_4_se(column.sum(), column.size, 0.5), f"bit {bit}"
    pairs = {
        # (j, j+1) inside a word: bits 2i and 2i+1
        "inside a word": (words[:, :, 0::2], words[:, :, 1::2]),
        # (64w, 64w + 1): bit 63 of word w - 1 and bit 0 of word w
        "across a word edge": (words[:, :-1, 63], words[:, 1:, 0]),
        # (j, j+64): each bit of words 2k and 2k + 1
        "64 apart": (words[:, 0::2], words[:, 1::2]),
    }
    for name, (a, b) in pairs.items():
        for sa in (False, True):
            for sb in (False, True):
                hits = np.count_nonzero((a == sa) & (b == sb))
                assert _within_4_se(hits, a.size, 0.25), f"{name}: ({sa}, {sb}) {hits} of {a.size}"


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


def test_seed_bounds_rejected():
    with pytest.raises(ValueError):
        SourceSpec(family="normal", master_seed=-1)
    with pytest.raises(ValueError):
        SourceSpec(family="normal", master_seed=2**64)


# rademacher and two_point specs draw normals too; the last stream is
# within 10 of 2**64
@pytest.mark.parametrize(
    "spec",
    [make_spec("rademacher", 13, 4), make_spec("two_point", 2**64 - 1, 9),
     make_spec("normal", 3, 2**64 - 10)],
    ids=lambda s: s.family,
)
@pytest.mark.parametrize("n", [1, 5, 16])
def test_normal_grid_is_the_normal_prefix_in_rows_of_n(spec, n):
    # entry (i, c) is the draw at index i*n + c + 1 of the stream's normal prefix
    normal = SourceSpec("normal", spec.master_seed, spec.stream_id)
    rows = sample_prefix(normal, n * n).reshape(n, n)
    for r in range(1, n + 1):
        grid = normal_grid(spec, n, r)
        assert grid.shape == (n, r) and grid.tobytes() == rows[:, :r].copy().tobytes()
