"""Exact integer / rational matrix machinery.

Small dense problems only (ranks up to 24), so everything is plain list-of-list
arithmetic over ``int`` and ``Fraction``: unimodular column reduction for
integer kernels and linear solves, symmetric congruence for signatures, and an
exact Fincke–Pohst style enumerator for definite quadrics used by the bounded
(-2)-class searches.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence


def mat_vec_int(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def _column_reduce(a: Sequence[Sequence[int]], ncols: int):
    """Unimodular column reduction of an integer matrix.

    Returns ``(cols, ucols, pivots, free)`` where ``cols`` are the reduced
    columns (column echelon: pivot column for row r has its first nonzero at
    r), ``ucols`` the columns of the unimodular transform U with A*U = reduced,
    ``pivots`` a list of (row, col) pairs in increasing row order and ``free``
    the non-pivot column indices (their U-columns span the kernel).
    """
    nrows = len(a)
    cols = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    ucols = [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]
    active = list(range(ncols))
    pivots = []
    for r in range(nrows):
        while True:
            live = [c for c in active if cols[c][r] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda c: (abs(cols[c][r]), c))
            c0 = live[0]
            e0 = cols[c0][r]
            for c in live[1:]:
                q = cols[c][r] // e0
                if q:
                    for i in range(r, nrows):
                        cols[c][i] -= q * cols[c0][i]
                    for i in range(ncols):
                        ucols[c][i] -= q * ucols[c0][i]
        live = [c for c in active if cols[c][r] != 0]
        if live:
            c0 = live[0]
            if cols[c0][r] < 0:
                cols[c0] = [-x for x in cols[c0]]
                ucols[c0] = [-x for x in ucols[c0]]
            pivots.append((r, c0))
            active.remove(c0)
    return cols, ucols, pivots, active


def kernel_basis(a: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list[list[int]]:
    """Basis of the integer kernel {x : a @ x = 0}; saturated by construction."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    _, ucols, _, free = _column_reduce(a, ncols)
    return [ucols[c] for c in sorted(free)]


def solve_integer(
    a: Sequence[Sequence[int]], b: Sequence[int], ncols: Optional[int] = None
) -> Optional[list[int]]:
    """One integer solution of ``a @ x = b``, or None."""
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    cols, ucols, pivots, _ = _column_reduce(a, ncols)
    residual = list(b)
    coeff = [0] * ncols
    for r, c in pivots:
        h = cols[c][r]
        if residual[r] % h != 0:
            return None
        t = residual[r] // h
        coeff[c] = t
        if t:
            for i in range(r, nrows):
                residual[i] -= t * cols[c][i]
    if any(residual):
        return None
    x = [0] * ncols
    for c in range(ncols):
        if coeff[c]:
            for i in range(ncols):
                x[i] += coeff[c] * ucols[c][i]
    return x


def rank_generic(rows: Iterable[Sequence]) -> int:
    """Rank by Gaussian elimination over any exact field (Fraction, QuadScalar)."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < cols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def signature_of(gram: Sequence[Sequence]) -> tuple[int, int, int]:
    """Inertia ``(n_plus, n_zero, n_minus)`` by exact symmetric congruence."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][i] != 0), None)
        if p is None:
            pair = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += n - k
                return pos, zero, neg
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            p = i
        if p != k:
            a[k], a[p] = a[p], a[k]
            for t in range(n):
                a[t][k], a[t][p] = a[t][p], a[t][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos, zero, neg


def is_negative_definite(gram: Sequence[Sequence]) -> bool:
    pos, zero, neg = signature_of(gram)
    return pos == 0 and zero == 0


# ---------------------------------------------------------------------------
# Exact enumeration on a definite quadric.


def ldl_posdef(p: Sequence[Sequence[Fraction]]):
    """LDL^T of a positive definite rational matrix: p = U^T diag(d) U."""
    n = len(p)
    d = [Fraction(0)] * n
    u = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        v = Fraction(p[i][i]) - sum(d[k] * u[k][i] * u[k][i] for k in range(i))
        if v <= 0:
            raise ValueError("matrix is not positive definite")
        d[i] = v
        for j in range(i + 1, n):
            w = Fraction(p[i][j]) - sum(d[k] * u[k][i] * u[k][j] for k in range(i))
            u[i][j] = w / v
    return d, u


def _floor_frac(f: Fraction) -> int:
    return f.numerator // f.denominator


def _floor_sqrt(f: Fraction) -> Fraction:
    # a rational lower bound r <= sqrt(f) with sqrt(f) - r < 1/denominator
    return Fraction(isqrt(f.numerator * f.denominator), f.denominator)


def _int_interval(gamma: Fraction, bound: Fraction) -> range:
    """Integers t with (t + gamma)^2 <= bound, as a range."""
    if bound < 0:
        return range(0, 0)
    s = _floor_sqrt(bound)
    lo = -_floor_frac(gamma + s)
    while (Fraction(lo - 1) + gamma) ** 2 <= bound:
        lo -= 1
    hi = _floor_frac(s - gamma)
    while (Fraction(hi + 1) + gamma) ** 2 <= bound:
        hi += 1
    while lo <= hi and (Fraction(lo) + gamma) ** 2 > bound:
        lo += 1
    while lo <= hi and (Fraction(hi) + gamma) ** 2 > bound:
        hi -= 1
    return range(lo, hi + 1)


def _sqrt_fraction(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def ldl_solve(factors, b: Sequence[Fraction]) -> list[Fraction]:
    """Solve p x = b by substitution against ``factors = ldl_posdef(p)``."""
    d, u = factors
    n = len(d)
    z = [Fraction(0)] * n
    for i in range(n):  # U^T z = b, U^T unit lower triangular
        z[i] = b[i] - sum(u[k][i] * z[k] for k in range(i))
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):  # U x = D^-1 z
        x[i] = z[i] / d[i] - sum(u[i][j] * x[j] for j in range(i + 1, n))
    return x


def enumerate_quadric(factors, w: Sequence[Fraction], r: Fraction) -> list[tuple[int, ...]]:
    """All integer y with (y - w)^T p (y - w) == r, for positive definite p
    given by its factorization ``factors = ldl_posdef(p)``.

    Finite because p is definite; output in lexicographic order.
    """
    d, u = factors
    n = len(d)
    r = Fraction(r)
    if n == 0:
        return [()] if r == 0 else []
    if r < 0:
        return []
    w = [Fraction(x) for x in w]
    out: list[tuple[int, ...]] = []
    y = [0] * n

    def descend(i: int, budget: Fraction):
        # z_i = (y_i - w_i) + sum_{j>i} u[i][j] (y_j - w_j)
        gamma = -w[i] + sum(u[i][j] * (y[j] - w[j]) for j in range(i + 1, n))
        if i == 0:
            c = budget / d[0]
            root = _sqrt_fraction(c)
            if root is None:
                return
            cands = {root - gamma, -root - gamma}
            for val in sorted(cands):
                if val.denominator == 1:
                    y[0] = val.numerator
                    out.append(tuple(y))
            return
        for t in _int_interval(gamma, budget / d[i]):
            y[i] = t
            descend(i - 1, budget - d[i] * (t + gamma) ** 2)

    descend(n - 1, r)
    return sorted(out)
