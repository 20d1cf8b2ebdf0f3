import os
import subprocess
import sys

import numpy as np
import pytest

from ascltlab.accum import kahan_sum, ozaki_gram

from .oracles import exact_gram

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
