"""Weight matrices and almost-orthogonality diagnostics.

The trigonometric pair u_{k,j} = sqrt(2/n) cos(2 pi j k / n),
v_{k,j} = sqrt(2/n) sin(2 pi j k / n) is the workhorse.  Entries are
always computed from the residue (j*k) mod n in exact integer arithmetic
before the floating-point cosine, so the classical orthogonality
identities hold to near machine precision even at large j*k.  trig_rows
builds rows one at a time from the n-long tables of trig_tables(n), and
no pair is stored; Haar weights are a plain r x n array (haar_rows).

check_trig and check_haar each return the whole check-weights point as a
dict, in its CSV column order, through one builder of the nine columns
they share; trig adds its identity residual.  Condition residuals (max
entry, row-orthogonality defect, cross defect) are reported raw; whether
they are "small enough" is a statement across a schedule of n and is
left to the caller.  Trig pairs are checked through the column sums S_m, T_m (one
table sum per divisor of n), computed once per point: the residual of
each of the four trig identities is |E_a +- E_b| / 2 or |T_a +- T_b| / 2
(E = S minus its exact value), that of a Gram entry the same numerator
over n, and one pair scan serves both the conditions and the identities:
check_trig's trig_identity_residual is the one identity check.
Haar rows go through the error-free Gram ``accum.ozaki_gram``.
"""

from __future__ import annotations

import math

import numpy as np

from . import ConfigError, finite
from .accum import ozaki_gram
from .sources import SourceSpec, normal_grid

TRIG, HAAR = "trig", "haar"

# size guard: r*n entries of the trig U rows that gen-weights writes, of r
# Haar rows, or n of the trig column sums; check_trig peaks at 124 bytes
# per n (tracemalloc at n = 2^18 and 2^20), about 992 MiB at this limit
_MATERIALIZE_LIMIT = 1 << 23


def trig_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi i / n, i = 0..n-1: the value of every trig term
    with exact residue i."""
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.cos(ang), np.sin(ang)


def trig_rows(table: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Rows sqrt(2/n) table[(k j) mod n], j = 1..n, for the given k values.

    With a table of trig_tables(n) these are the u (cos) or v (sin) rows,
    bit for bit what evaluating cos/sin(2 pi ((k j) mod n) / n) gives.  The
    rows are written one at a time into the result, with O(n) temporaries.
    """
    n = table.size
    ks = np.asarray(ks, dtype=np.int64)
    scale = math.sqrt(2.0 / n)
    out = np.empty((ks.size, n))
    j = np.arange(1, n + 1, dtype=np.int64)
    for k, row in zip(ks, out):
        np.multiply(table[k * j % n], scale, out=row)
    return out


def require_trig(n: int, r: int) -> None:
    """Reject (n, r) outside the trig construction, whose rows are
    orthonormal only when 2r < n."""
    if not 1 <= r <= (n - 1) // 2:
        raise ConfigError(
            f"trig weights need 1 <= r <= floor((n-1)/2) = {(n - 1) // 2}, got n={n} r={r}"
        )


def make_trig_pair(n: int, r: int) -> tuple[int, int]:
    """(n, r), once require_trig accepts them; the pair's rows are never
    stored.  Kept, with transform.partial_sums, for the oracle op of
    bench/worker.py until it calls the two paths itself (ROADMAP item 3)."""
    require_trig(n, r)
    return n, r


def trig_u_rows(n: int, r: int):
    """The r U rows of the trig pair of (n, r), built one at a time from one
    cos table as they are read; V is never built.  r*n above
    _MATERIALIZE_LIMIT is refused before any row is built."""
    require_trig(n, r)
    if r * n > _MATERIALIZE_LIMIT:
        raise MemoryError(f"refusing to write {r}x{n} trig weights")
    cos_tab = trig_tables(n)[0]
    return (trig_rows(cos_tab, [k])[0] for k in range(1, r + 1))


def require_haar(n: int, r: int) -> None:
    """Reject (n, r) outside 1 <= r <= n, and refuse r*n above _MATERIALIZE_LIMIT."""
    if not 1 <= r <= n:
        raise ConfigError(f"haar weights need 1 <= r <= n, got n={n} r={r}")
    if r * n > _MATERIALIZE_LIMIT:
        raise MemoryError(f"refusing to sample {r} rows of a {n}x{n} Haar matrix")


def haar_rows(n: int, spec: SourceSpec, r: int) -> np.ndarray:
    """The first r rows of a Haar-distributed orthogonal n x n matrix, as
    an r x n array.

    Row i is column i of Q in G = QR, where the n x n G holds i.i.d.
    standard normals of the spec's counter-based stream, its first r
    columns being normal_grid(spec, n, r); rescaling each column so that
    R's diagonal is positive makes the law exactly Haar rather than merely
    orthogonal.  By Householder QR the first r columns of Q depend only on
    the first r columns of G, so only those n x r draws are made and
    factored by a thin QR; with the sign fix they are uniform on the
    Stiefel manifold (F. Mezzadri, "How to generate random matrices from
    the classical compact groups", Notices AMS 54, 2007).  At r = n this is
    the full matrix bit for bit; at r < n the rows differ from its first r
    only in the last ulp.  r*n above _MATERIALIZE_LIMIT is refused before
    anything is allocated (require_haar).
    """
    require_haar(n, r)
    q, rr = np.linalg.qr(normal_grid(spec, n, r))
    d = np.diagonal(rr)
    if np.any(d == 0.0):
        raise ArithmeticError("degenerate normal draw: QR produced a zero pivot")
    return (finite(q, "Haar rows") * np.sign(d)[None, :]).T.copy()


# --- trigonometric column sums ---------------------------------------------

def trig_column_sums(cos_tab: np.ndarray, sin_tab: np.ndarray):
    """(S_m, T_m) with S_m = sum_{j=1..n} cos(2 pi m j / n), T_m the sine
    sum, from the tables of trig_tables(n).

    Exact values are S_m = n for m = 0 mod n and 0 otherwise, T_m = 0;
    the computed arrays carry the actual floating-point residuals.  As j
    runs over 1..n, (m j) mod n hits every multiple of g = gcd(m, n)
    exactly g times, so S_m = g * sum_{i < n/g} cos_tab[g i] and T_m is the
    same sum over the sine table: one pairwise sum per divisor of n.
    gcd(m, n) is the largest divisor of n that divides m, so writing the
    divisors' sums in ascending order leaves each m with its own.  S_0 = n
    and T_0 = 0 come out exact.  At prime n every m > 0 shares the sum of
    the whole table; where that sum reads exactly 0, so do the residuals
    built on it, a property of the table rather than a skipped check.
    """
    n = cos_tab.size
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    s, t = np.empty(n), np.empty(n)
    for d in sorted({*low, *(n // d for d in low)}):
        s[::d] = d * cos_tab[::d].sum()
        t[::d] = d * sin_tab[::d].sum()
    return s, t


def _pair_residuals(e: np.ndarray, t: np.ndarray, m: int) -> tuple[float, float, float]:
    """Exact maxima over 1 <= k1 <= k2 <= m of |E_d + E_s| (cos*cos),
    |E_d - E_s| (sin*sin) and |T_s +- T_d| (cos*sin and sin*cos), with
    d = k2 - k1 and s = (k1 + k2) mod n.

    A pair (d, s) is realized iff d and s share parity and
    0 <= d <= min(s - 2, 2m - s), so per-parity prefix extrema of E_d and
    |T_d| give the extrema over the realized d of every s in O(m).
    Rounding is monotone, so the max of |E_d +- a| is attained at the min
    or the max of E_d, and max |a +- b| = |a| + |b| holds exactly.
    """
    n = e.size
    sv = np.arange(2, 2 * m + 1, dtype=np.int64)
    last = np.minimum(sv - 2, 2 * m - sv) // 2  # prefix index of the largest d
    cc = ss = cross = 0.0
    for p in (0, 1):
        d, i, sp = np.arange(p, m, 2), last[p::2], sv[p::2] % n
        hi, lo = np.maximum.accumulate(e[d])[i], np.minimum.accumulate(e[d])[i]
        es, ts = e[sp], np.abs(t[sp])
        cc = max(cc, np.abs(hi + es).max(initial=0.0), np.abs(lo + es).max(initial=0.0))
        ss = max(ss, np.abs(hi - es).max(initial=0.0), np.abs(lo - es).max(initial=0.0))
        top = np.maximum.accumulate(np.abs(t[d]))[i]
        cross = max(cross, (ts + top).max(initial=0.0))
    return float(cc), float(ss), float(cross)


def _check_point(n: int, r: int, delta: float, entry_u: float, orth_u: float,
                 entry_v=None, orth_v=None, cross=None) -> dict:
    """The nine check-weights columns both kinds share, in CSV order, with
    log_scale = log(1 + r)^(1 + delta); Haar rows have no V: those are None."""
    return {"eps_entry_u": entry_u, "eps_entry_v": entry_v, "eps_orth_u": orth_u,
            "eps_orth_v": orth_v, "eps_cross": cross, "log_scale": math.log1p(r) ** (1.0 + delta),
            "n": n, "r": r, "delta": delta}


def check_trig(n: int, r: int, delta: float) -> dict:
    """The check-weights point of the trig pair of (n, r): raw maxima for
    conditions (max entry / orthogonality / cross), then the worst residual
    of the four cos/sin identities over 1 <= k1 <= k2 <= n (k1 + k2 = n
    and 2k = n included), which depends on n alone.

    r and delta are checked, and n above _MATERIALIZE_LIMIT is refused,
    before the tables are built; the column sums are computed once for
    both scans; E is S minus its exact value and T is its own error.  Every
    Gram entry of the pair is an exact half-sum of two column sums S_m /
    T_m, so the r x r residual scan never reads the rows; it agrees with a
    plain BLAS Gram of the trig rows to 1e-13 at n <= 96 (asserted in the
    test suite).
    """
    require_trig(n, r)
    if not delta > 0:
        raise ConfigError("delta must be positive")
    if n > _MATERIALIZE_LIMIT:
        raise MemoryError(f"refusing to sum the {n} trig columns")
    cos_tab, sin_tab = trig_tables(n)
    e, t = trig_column_sums(cos_tab, sin_tab)
    sin_max = float(np.max(np.abs(sin_tab)))
    del cos_tab, sin_tab  # not held through the pair scans, which set the peak
    e[0] -= n
    cc, ss, cross = _pair_residuals(e, t, r)
    scale = math.sqrt(2.0 / n)
    # residue 0 is hit at j = n for every k, where |cos| = 1
    point = _check_point(n, r, delta, scale, cc / n, scale * sin_max, ss / n, cross / n)
    point["trig_identity_residual"] = max(_pair_residuals(e, t, n)) / 2.0
    return point


def check_haar(n: int, r: int, spec: SourceSpec, delta: float) -> dict:
    """The check-weights point of the first r Haar rows of (n, spec): raw
    maxima for conditions (max entry / orthogonality), through the
    error-free Gram ``ozaki_gram``.  delta is checked before the rows are
    drawn.  At its peak it holds the rows, the Gram's slices of them and
    three r x r matrices (see ozaki_gram)."""
    if not delta > 0:
        raise ConfigError("delta must be positive")
    u = haar_rows(n, spec, r)
    g = ozaki_gram(u)
    g.ravel()[:: r + 1] -= 1.0  # G - I in place: max |G - I| is max(max, -min)
    return _check_point(n, r, delta, float(np.max(np.abs(u))), float(max(g.max(), -g.min())))
