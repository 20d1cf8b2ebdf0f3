import os
import subprocess
import sys

import numpy as np
import pytest

from ascltlab import accum
from ascltlab.accum import _split_rows, kahan_sum, ozaki_gram

from .oracles import exact_gram, ozaki_gram_unblocked
from .test_weights import peak_bytes

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def assert_within_one_ulp(got, a, b):
    want = exact_gram(a, b)  # correctly rounded exact Gram
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), np.max(np.abs(got - want))


def cross_block(a, b):
    """a @ b.T as the off-diagonal block of the Gram of a stacked on b."""
    return ozaki_gram(np.vstack([a, b]))[: len(a), len(a) :]


def scaled_rows(rng, rows, cols):
    a = rng.standard_normal((rows, cols))
    return a * np.ldexp(1.0, rng.choice([-150, 0, 150], size=rows))[:, None]


@pytest.mark.parametrize("shape_a, shape_b", [((3, 5), (4, 5)), ((7, 13), (2, 13)), ((6, 1), (5, 1))])
def test_random_matches_exact(shape_a, shape_b):
    rng = np.random.default_rng(sum(shape_a) * 31 + sum(shape_b))
    a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
    assert_within_one_ulp(cross_block(a, b), a, b)


def test_symmetric_matches_exact_and_is_symmetric():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 20)) * rng.uniform(1e-6, 1e6, size=(9, 20))
    g = ozaki_gram(a)
    assert_within_one_ulp(g, a, a)
    assert np.array_equal(g, g.T)


def test_rows_scaled_by_two_to_the_150():
    rng = np.random.default_rng(12)
    a, b = scaled_rows(rng, 6, 8), scaled_rows(rng, 5, 8)
    assert_within_one_ulp(cross_block(a, b), a, b)
    assert_within_one_ulp(ozaki_gram(a), a, a)


def test_zero_rows_and_zero_matrices():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 6))
    a[[0, 2]] = 0.0
    b = rng.standard_normal((3, 6))
    assert_within_one_ulp(cross_block(a, b), a, b)
    assert_within_one_ulp(ozaki_gram(a), a, a)
    z = np.zeros((3, 6))
    assert np.array_equal(cross_block(z, b), np.zeros((3, 3)))
    assert np.array_equal(ozaki_gram(z), np.zeros((3, 3)))


def test_cancellation_that_plain_blas_loses():
    a = np.array([[1.0, 2.0**-60, -1.0]])
    b = np.ones((1, 3))
    assert (a @ b.T)[0, 0] == 0.0
    assert cross_block(a, b)[0, 0] == 2.0**-60


def test_rejects_bad_input():
    for not_a_matrix in (np.ones(3), np.ones((2, 3, 4))):
        with pytest.raises(ValueError):
            ozaki_gram(not_a_matrix)
    for bad in (np.inf, np.nan, 1e300):
        a = np.ones((2, 3))
        a[1, 1] = bad
        with pytest.raises(FloatingPointError):
            ozaki_gram(a)


@pytest.mark.parametrize("count", [1, 3, 4, 5, 11])
def test_row_blocks_match_the_unblocked_gram(monkeypatch, count):
    # four rows per TwoSum block: one row, a block less one, one block, one
    # more row and two blocks and three rows, rows scaled by 2^+-150 and zero
    monkeypatch.setattr(accum, "BLOCK", 2 * count * 4)
    rng = np.random.default_rng(count)
    for cols in (1, 6, 40):
        a = scaled_rows(rng, count, cols)
        a[::3] = 0.0
        assert np.array_equal(ozaki_gram(a), ozaki_gram_unblocked(a))


@pytest.mark.parametrize("count", [1, 181, 182, 512, 513])
def test_blocked_gram_is_the_unblocked_one_bit_for_bit(count):
    # at the real BLOCK: one block, 181 rows in one full block, 180 + 2,
    # eight blocks of 64 and 63-row blocks with a tail of 9
    rng = np.random.default_rng(count)
    a = scaled_rows(rng, count, 64)
    a[1::7] = 0.0
    assert np.array_equal(ozaki_gram(a), ozaki_gram_unblocked(a))
    b = rng.standard_normal((count, count)) / np.sqrt(count)
    assert np.array_equal(ozaki_gram(b), ozaki_gram_unblocked(b))


def test_gram_peaks_at_its_slices_and_three_matrices():
    # beyond the S slices of a, the sum, its compensation and one product
    # buffer are r x r; the TwoSum scratch is four blocks of BLOCK / 2 values
    r = 512
    a = np.random.default_rng(3).standard_normal((r, r)) / np.sqrt(r)
    slices = len(_split_rows(a, (54 + (r - 1).bit_length()) // 2))
    _, peak = peak_bytes(lambda: ozaki_gram(a))
    assert peak <= (slices + 3) * 8 * r * r + 2**21, f"{peak / (8 * r * r):.2f} r x r matrices"


_THREAD_SCRIPT = """
import hashlib, numpy as np
from ascltlab.accum import ozaki_gram
rng = np.random.default_rng(5)
a = rng.standard_normal((300, 400)) * rng.uniform(1e-3, 1e3, size=(300, 400))
b = rng.standard_normal((200, 400))
print(hashlib.sha256(ozaki_gram(np.vstack([a, b])).tobytes() + ozaki_gram(a).tobytes()).hexdigest())
"""


def test_identical_at_blas_threads_1_and_2():
    # every slice product is exact, so BLAS summation order cannot matter
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _THREAD_SCRIPT], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_kahan_sum_unit_row_projection():
    # as u @ x, column by column: a unit row picks out its coordinate exactly
    u, x = np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([3.5, 1.0, -2.0, 7.0])
    got = kahan_sum((u[:, j] * x[j] for j in range(4)), 1)
    assert got.shape == (1,) and got[0] == 3.5
    # the compensation keeps the ten terms that plain summation drops
    terms = [np.array([1.0])] + [np.array([2.0**-53])] * 10
    assert sum(terms)[0] == 1.0 and kahan_sum(terms, 1)[0] == 1.0 + 10 * 2.0**-53


def test_kahan_sum_takes_a_shape_and_reads_views():
    # strided (2, 3) views of one buffer, summed without copies, each view
    # read before the next is drawn
    buf = np.arange(24.0).reshape(2, 4, 3)
    got = kahan_sum(buf.transpose(1, 0, 2), (2, 3))
    assert np.array_equal(got, buf.sum(axis=1))
