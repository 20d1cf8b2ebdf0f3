import numpy as np
import pytest

from ascltlab import BLOCK, finite

from .test_weights import peak_bytes

_N = 2 * BLOCK + 5


def _plain():
    return np.linspace(-1.0, 1.0, _N)


def _strided():
    # the real part of an rfft output, as the transform's S is: a view
    # with a 16-byte stride
    return np.fft.rfft(np.linspace(-1.0, 1.0, 2 * _N - 2)).real


def _replicas():
    # a replica block, 32 sums per replica, so BLOCK values are whole rows
    return np.linspace(-1.0, 1.0, 32 * (_N // 32)).reshape(-1, 32)


def _complex():
    return np.exp(1j * np.linspace(-1.0, 1.0, _N))


_KINDS = {"1-D": _plain, "strided": _strided, "2-D": _replicas, "complex": _complex}
# flat positions: the first value, the last, and the two sides of the
# first BLOCK boundary
_SLOTS = {"first": 0, "last": -1, "block-end": BLOCK - 1, "block-start": BLOCK}


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("slot", _SLOTS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_finite_refuses_a_non_finite_value_at_any_slot(kind, slot, value):
    v = _KINDS[kind]()
    assert finite(v, "values") is v
    where = np.unravel_index(_SLOTS[slot] % v.size, v.shape)
    # a complex value is non-finite by its imaginary part alone
    (v.imag if kind == "complex" else v)[where] = value
    with pytest.raises(FloatingPointError, match="^non-finite values$"):
        finite(v, "values")


@pytest.mark.parametrize("kind", _KINDS)
def test_finite_accepts_the_extreme_finite_values(kind):
    v = _KINDS[kind]()
    edges = [np.finfo(float).max, -np.finfo(float).max, np.finfo(float).smallest_subnormal, -0.0]
    for i, e in enumerate(edges):
        for slot in _SLOTS.values():
            v.flat[(slot + i) % v.size] = e
    assert finite(v, "values") is v


def test_finite_reads_a_long_strided_view_in_small_slices():
    s = np.fft.rfft(np.zeros(2**21)).real[1:]
    assert s.size == 2**20 and not s.flags.contiguous
    _, peak = peak_bytes(lambda: finite(s, "S"))
    assert peak <= 128 * 1024, f"peaked at {peak} bytes"
