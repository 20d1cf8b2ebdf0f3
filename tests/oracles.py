"""Hand-written oracles for the test suite.

Kept out of the package on purpose. Production code never needs a dense
eigensolver (circulants are diagonalized exactly by the DFT), so those
exist only to anchor the DFT formulas at small n: the symmetric spectrum
and the reverse one (the dense sqrt(2/n) [x_{(i+j) mod n}]), up to
n = 64. The complex DFT of a whole first row (``circulant_eigen_dft``)
and the mirrored first row of the symmetric circulant
(``symmetric_circulant_first_row``) are the references the symmetric
spectrum's one inverse real DFT of its free entries is held to. The
trig row, column-sum, identity-scan and condition-scan oracles are
one-shot formulas or loops over k1, so that the
table-lookup, blocked and O(n) versions can be held to them bit for
bit. The Gram oracle is exact rational arithmetic.

Four statistics are written out directly, one value at a time, to check
the vectorized versions inside the pipeline: ``joint_cdf`` (the grid
deviation of the bivariate harness), ``empirical_char`` (the
characteristic function of the char-decay harness), ``periodogram`` (one
ordinate by the defining sum, against ``spectra.periodogram_all``) and
``chi2_2_cdf`` (the limit law of s^2 + t^2 in the reverse circulant).
``ks_to`` is the KS distance in one pass over the whole sorted sample,
the reference the blocked ``empirical.ks_to`` is held to bit for bit.

``csv_cells`` and ``write_csv_rows`` are the per-row CSV writer that
``cli._write_csv`` and its lines from ``cli._float_text`` (the orjson
cells of spectra and weight rows) are held to byte for byte: str of
every cell, one line per row.

``ldp_normal_baseline`` is the Gaussian baseline of ``ldp_rate`` by plain
Monte Carlo: every replica draws all n normal inputs and projects them on
the mean weights, where ``ldp_rate`` draws the mean from its exact law.
``rademacher_mean_tail`` is the exact law of its Rademacher hits at small
n, by enumerating all 2^n sign vectors, with atoms at the threshold
counted on both sides; ``clt_fluctuation_law`` gives the
exact moments of ``clt_fluctuation``'s W the same way.
"""

import math
from fractions import Fraction

import numpy as np

from ascltlab.empirical import normal_cdf
from ascltlab.experiments import _half_line_rate
from ascltlab.sources import SourceSpec
from ascltlab.transform import mean_weights, partial_sums_batch


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 50, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    assert a.shape == (n, n)
    assert np.allclose(a, a.T)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diagonal(a))


def char_poly_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small dense matrix via its characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recurrence; the roots of
    the resulting monic polynomial are the eigenvalues.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.roots(coeffs)


def circulant_eigen_dft(first_row: np.ndarray) -> np.ndarray:
    """Exact eigenvalues of the circulant with the given first row.

    lambda_k = sum_j c_j exp(-2 pi i j k / n), k = 0..n-1.
    """
    c = np.asarray(first_row, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("first_row must be a nonempty vector")
    return np.fft.fft(c)


def symmetric_circulant_first_row(x: np.ndarray, n: int) -> np.ndarray:
    """First row of the symmetric circulant: entries X_1..X_{[n/2]+1},
    then mirrored so row index i and n - i carry the same variable.

    Indices 0..[n/2] are free (for even n, index n/2 is its own mirror),
    which is (n+1)/2 entries for odd n and n/2 + 1 for even n.
    """
    half = n // 2 + 1
    x = np.asarray(x, dtype=float)
    if x.size < half:
        raise ValueError(f"need at least {half} inputs")
    c = np.empty(n)
    c[:half] = x[:half]
    c[half:] = c[n - half : 0 : -1]
    return c


def circulant_dense(first_row: np.ndarray) -> np.ndarray:
    """Dense circulant matrix with rows cyclically shifted right."""
    c = np.asarray(first_row, dtype=float)
    n = c.size
    return np.array([np.roll(c, i) for i in range(n)])


def match_complex_multisets(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest-neighbor multiset distance between complex spectra."""
    b = list(b)
    worst = 0.0
    for v in a:
        i = int(np.argmin([abs(v - w) for w in b]))
        worst = max(worst, abs(v - b.pop(i)))
    return worst


def trig_rows_u_angles(n: int, ks: np.ndarray) -> np.ndarray:
    """Rows sqrt(2/n) cos(2 pi j k / n), j = 1..n, for the given k values."""
    j = np.arange(1, n + 1, dtype=np.int64)
    idx = (np.asarray(ks, dtype=np.int64)[:, None] * j) % n
    return math.sqrt(2.0 / n) * np.cos(2.0 * np.pi * idx / n)


def trig_rows_v_angles(n: int, ks: np.ndarray) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=np.int64)
    idx = (np.asarray(ks, dtype=np.int64)[:, None] * j) % n
    return math.sqrt(2.0 / n) * np.sin(2.0 * np.pi * idx / n)


def trig_column_sums_fsum(n: int):
    """(S_m, T_m), each the correctly rounded sum (math.fsum) of its n terms
    cos/sin(2 pi ((m j) mod n) / n), j = 1..n."""
    j = np.arange(1, n + 1, dtype=np.int64)
    ang = 2.0 * np.pi * ((np.arange(n, dtype=np.int64)[:, None] * j) % n) / n
    return tuple(np.array([math.fsum(row) for row in f(ang).tolist()]) for f in (np.cos, np.sin))


def trig_identity_worst_loop(n: int, s: np.ndarray, t: np.ndarray) -> float:
    """Worst identity residual over 1 <= k1 <= k2 <= n, one k1 at a time."""
    e = s.copy()
    e[0] -= n
    worst = 0.0
    k = np.arange(1, n + 1, dtype=np.int64)
    for k1 in range(1, n + 1):
        k2 = k[k1 - 1 :]  # k2 >= k1
        d = (k2 - k1) % n
        sm = (k1 + k2) % n
        cc = np.abs(e[d] + e[sm]) / 2.0  # cos*cos, all cases folded
        ss = np.abs(e[d] - e[sm]) / 2.0  # sin*sin
        cs = np.abs(t[sm] + t[d]) / 2.0  # cos(k1 j) * sin(k2 j), k1 <= k2
        sc = np.abs(t[sm] - t[d]) / 2.0  # sin(k1 j) * cos(k2 j), k1 <= k2
        worst = max(worst, float(cc.max()), float(ss.max()), float(cs.max()), float(sc.max()))
    return worst


def trig_conditions_loop(n: int, r: int, s: np.ndarray, t: np.ndarray):
    """(eps_orth_u, eps_orth_v, eps_cross) of the trig pair from its column
    sums, over 1 <= k1 <= k2 <= r one k1 at a time: the Gram residuals are
    (E_d + E_s) / n for U, (E_d - E_s) / n for V and (T_s +- T_d) / n for
    U V^T (the +- being the two orders of k1, k2)."""
    e = s.copy()
    e[0] -= n
    uu = vv = uv = 0.0
    for k1 in range(1, r + 1):
        d = np.arange(r - k1 + 1)  # k2 - k1
        sm = 2 * k1 + d  # k1 + k2 < n
        uu = max(uu, float(np.abs(e[d] + e[sm]).max()))
        vv = max(vv, float(np.abs(e[d] - e[sm]).max()))
        uv = max(uv, float(np.abs(t[sm] + t[d]).max()), float(np.abs(t[sm] - t[d]).max()))
    return uu / n, vv / n, uv / n


def exact_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T computed exactly in rationals, then rounded once to float."""
    fa = [[Fraction(float(x)) for x in row] for row in a]
    fb = [[Fraction(float(x)) for x in row] for row in b]
    return np.array(
        [[float(sum((x * y for x, y in zip(ra, rb)), Fraction(0))) for rb in fb] for ra in fa]
    ).reshape(len(fa), len(fb))


def joint_cdf(pairs: np.ndarray, x: float, y: float) -> float:
    """Fraction of (s, t) pairs with s <= x and t <= y."""
    p = np.asarray(pairs, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 1:
        raise ValueError("pairs must be an (m, 2) array")
    return float(np.mean((p[:, 0] <= x) & (p[:, 1] <= y)))


def empirical_char(values_or_pairs, s: float, t: float = 0.0) -> complex:
    """(1/m) sum_k exp(i (s s_k + t t_k)); the t part is dropped when the
    sample is univariate."""
    a = np.asarray(values_or_pairs, dtype=float)
    if a.ndim == 1:
        phase = s * a
    elif a.ndim == 2 and a.shape[1] == 2:
        phase = s * a[:, 0] + t * a[:, 1]
    else:
        raise ValueError("expected a 1-D sample or an (m, 2) pair array")
    if phase.size < 1:
        raise ValueError("empty sample")
    return complex(np.mean(np.exp(1j * phase)))


def periodogram(x: np.ndarray, k: int) -> float:
    """I_n(2 pi k / n) = |sum_{j=1..n} e^{-i j 2 pi k / n} x_j|^2 / n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if not (1 <= k <= (n - 1) // 2):
        raise ValueError(f"need 1 <= k <= floor((n-1)/2) = {(n - 1) // 2}")
    j = np.arange(1, n + 1, dtype=np.int64)
    ang = 2.0 * np.pi * ((j * k) % n) / n
    c = float(np.cos(ang) @ x)
    s = float(np.sin(ang) @ x)
    return (c * c + s * s) / n


def chi2_2_cdf(x):
    """Chi-square with 2 degrees of freedom: (1 - e^{-x/2})_+."""
    x = np.asarray(x, dtype=float)
    res = np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0) / 2.0), 0.0)
    return float(res) if res.ndim == 0 else res


def ldp_normal_baseline(spec, n: int, r: int, a: float, replicas: int, threads: int = 0) -> dict:
    """The hit count and rate of ldp_rate's Gaussian baseline from all n
    normal draws of each of its streams, spec.stream_id + replicas + i."""
    c = mean_weights(n, r)
    oracle_spec = SourceSpec(
        family="normal",
        master_seed=spec.master_seed,
        stream_id=spec.stream_id + replicas,
    )
    return _half_line_rate(oracle_spec, c, r, a, replicas, threads)


def rademacher_mean_tail(n: int, r: int, a: float, tie: float = 1e-9) -> tuple[float, float]:
    """(P(x @ c > a), P(x @ c >= a)) over all 2^n equally likely sign
    vectors x, c = mean_weights(n, r), an atom within tie of a counted as
    a tie on both sides: ldp_rate's Rademacher hits land between the two
    laws, whichever way a summation order rounds an atom at a."""
    atoms = np.zeros(1)
    for cj in mean_weights(n, r):
        atoms = np.concatenate([atoms - cj, atoms + cj])
    return float(np.mean(atoms > a + tie)), float(np.mean(atoms >= a - tie))


def clt_fluctuation_law(n: int, r: int, x: float) -> tuple[float, float, float, float]:
    """(mean, variance, fourth central moment) of W = (1/sqrt r) sum_k
    (1_{S_k <= x} - Phi(x)) over all 2^n equally likely sign vectors, S
    from partial_sums_batch, and the distance from x to the nearest atom
    S_k: the exact law of clt_fluctuation's Rademacher W wherever no atom
    lies within rounding of x."""
    signs = np.empty((2**n, n + 1))  # one-based, as partial_sums_batch reads them
    signs[:, 1:] = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    s = partial_sums_batch(n, r, signs)[0]
    w = np.sum(s <= x, axis=1) / math.sqrt(r) - math.sqrt(r) * normal_cdf(x)
    d = w - np.mean(w)
    return (float(np.mean(w)), float(np.mean(d**2)), float(np.mean(d**4)),
            float(np.min(np.abs(s - x))))


def ks_to(samples, cdf) -> float:
    """Exact sup-distance between the ECDF of a sample and a continuous CDF
    in one pass over the whole sorted sample: the reference the blocked
    empirical.ks_to is held to bit for bit."""
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a nonempty 1-D sample")
    if not np.all(np.isfinite(v)):
        raise FloatingPointError("sample has non-finite values")
    m = v.size
    f = np.asarray(cdf(np.sort(v)), dtype=float)
    i = np.arange(1, m + 1)
    return float(np.max(np.maximum(np.abs(i / m - f), np.abs((i - 1) / m - f))))


def csv_cells(*columns):
    """Rows of cells, one per row of the columns: str of each value (a
    Python float's str is its shortest round-trip repr)."""
    return zip(*(map(str, col) for col in columns))


def write_csv_rows(path, header, rows) -> None:
    """The header line, then one ","-joined line per row of cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
