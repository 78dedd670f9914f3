"""Exact integer / rational matrix machinery.

Small dense problems only (ranks up to 24), so everything is plain list-of-list
arithmetic over ``int`` and ``Fraction``: unimodular column reduction for
integer kernels, symmetric congruence for signatures, integral LLL reduction,
and an exact Fincke–Pohst style enumerator for definite quadrics used by the
(-2)-class enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence


def mat_vec_int(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def kernel_basis(a: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list[list[int]]:
    """Basis of the integer kernel {x : a @ x = 0}; saturated by construction.

    Unimodular column reduction A U = (echelon): row by row, the live columns
    are reduced against the one of least absolute entry until a single pivot
    column remains, which then leaves the active set.  The columns of U that
    never become pivots span the kernel.
    """
    if ncols is None:
        ncols = len(a[0]) if a else 0
    nrows = len(a)
    cols = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    ucols = [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]
    active = list(range(ncols))
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
            active.remove(live[0])
    return [ucols[c] for c in sorted(active)]


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


def lll_reduce(gram: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """LLL reduction, delta = 3/4, of a positive definite integer Gram matrix.

    Returns ``(t, g)`` with t unimodular and g = t gram t^T reduced.  This is
    the integral LLL of Cohen (Algorithm 2.6.7): the Gram-Schmidt data are
    the integers d_i (leading principal minors) and lam[k][j] = d_{j+1} mu_kj,
    updated in place on every size reduction and swap, never recomputed.
    """
    n = len(gram)
    g = [[int(x) for x in row] for row in gram]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0:
        return t, g
    if g[0][0] <= 0:
        raise ValueError("matrix is not positive definite")
    d = [1, g[0][0]] + [0] * (n - 1)  # d[i + 1] belongs to basis vector i
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
        t[k] = [a - q * b for a, b in zip(t[k], t[l])]
        g[k] = [a - q * b for a, b in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        t[k], t[k - 1] = t[k - 1], t[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            x = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * x) // d[k]
            lam[i][k - 1] = (b * x + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:  # Gram-Schmidt data of a vector not seen before
            kmax = k
            for j in range(k + 1):
                u = g[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("matrix is not positive definite")
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return t, g


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
    # integer numerators: w = wn / wd and row i of u is num[i] / den[i]
    wd = lcm(*(x.denominator for x in w))
    wn = [x.numerator * (wd // x.denominator) for x in w]
    den = [lcm(*(x.denominator for x in row[i + 1 :])) for i, row in enumerate(u)]
    num = [[x.numerator * (den[i] // x.denominator) for x in row] for i, row in enumerate(u)]
    out: list[tuple[int, ...]] = []
    y = [0] * n

    def descend(i: int, budget: Fraction):
        # z_i = y_i + gamma_i with gamma_i = sum_{j>i} u[i][j] (y_j - w_j) - w_i = g / gd
        g = sum(num[i][j] * (wd * y[j] - wn[j]) for j in range(i + 1, n)) - den[i] * wn[i]
        gd = den[i] * wd
        c = budget / d[i]  # z_i^2 <= c
        if i == 0:
            root = _sqrt_fraction(c)
            if root is None:
                return
            gamma = Fraction(g, gd)
            for val in sorted({root - gamma, -root - gamma}):
                if val.denominator == 1:
                    y[0] = val.numerator
                    out.append(tuple(y))
            return
        if c < 0:
            return
        # |t gd + g| <= floor(sqrt(c) gd), an integer bound on an integer
        s = isqrt(c.numerator * gd * gd // c.denominator)
        gamma = Fraction(g, gd)
        for t in range(-((s + g) // gd), (s - g) // gd + 1):
            y[i] = t
            descend(i - 1, budget - d[i] * (t + gamma) ** 2)

    descend(n - 1, r)
    return sorted(out)
