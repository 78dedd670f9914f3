"""Exact integer matrix machinery; the one rational is the enumerator's
norm, a Fraction scaled to an integer at entry.

Small dense problems only (ranks up to 24), so everything is plain list-of-list
arithmetic: unimodular column reduction for integer kernels, which records its
column moves and replays their inverses into the rows dual to the kernel on
request, integral Gram-Schmidt data (the one factorization of a definite
matrix, which also decides definiteness), integral LLL reduction, which keeps
only what it reads again and builds its transform on request, and the
Fincke–Pohst enumerator of the vectors of one norm of a definite form, run at
norm 2 for the (-2)-classes, which walks one vector of each pair +-y and
appends the negations.  All of these run in integers only: the enumerator
scales its budget once at entry, so every level costs an integer and every
coordinate bound is an `isqrt`.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Callable, Optional, Sequence


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _column_reduce(
    a: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int], list[tuple[int, int, int]]]:
    """Unimodular column reduction A U = (echelon): ``(ucols, kernel, moves)``.

    Row by row, the live columns are reduced against the one of least
    absolute entry until a single pivot column remains, which then leaves the
    active set.  ``ucols`` are the columns of U, ``kernel`` the sorted
    indices of the columns that never become pivots, and ``moves`` the
    column moves (c, c0, q), column c -= q column c0, in the order made.
    """
    nrows = len(a)
    cols = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    ucols = _identity(ncols)
    moves = []
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
                    moves.append((c, c0, q))
                    for i in range(r, nrows):
                        cols[c][i] -= q * cols[c0][i]
                    for i in range(ncols):
                        ucols[c][i] -= q * ucols[c0][i]
        live = [c for c in active if cols[c][r] != 0]
        if live:
            active.remove(live[0])
    return ucols, sorted(active), moves


def _replay_inverse(moves: Sequence[tuple[int, int, int]], n: int) -> list[list[int]]:
    """U^-1 of U = E_1 ... E_m from the column moves E_k (c, c0, q): the
    inverse of column c -= q column c0 is row c0 += q row c of what follows
    it, so the moves are replayed in order on the rows of I."""
    v = _identity(n)
    for c, c0, q in moves:
        v[c0] = [x + q * y for x, y in zip(v[c0], v[c])]
    return v


def kernel_basis(
    a: Sequence[Sequence[int]], ncols: Optional[int] = None
) -> tuple[list[list[int]], Callable[[], list[list[int]]]]:
    """Basis b_k of the integer kernel {x : a @ x = 0}, and its dual.

    Returns ``(kernel, dual)``.  The column reduction A U = (echelon) of
    `_column_reduce` is unimodular, and the columns of U that never become
    pivots are the kernel: saturated by construction, since U is invertible
    over Z.  ``dual()`` replays the recorded moves into U^-1 (Cohen, GTM 138,
    Section 2.4) and returns its rows d_j at the kernel's column indices;
    U^-1 U = I gives d_j . b_k = delta_jk (plain coordinate dot products).
    Recording a move costs one append; U^-1 is built only when ``dual()`` is
    called, and the root lattice of `stability.p0_violations` never calls it.
    """
    if ncols is None:
        ncols = len(a[0]) if a else 0
    ucols, kernel, moves = _column_reduce(a, ncols)

    def dual() -> list[list[int]]:
        v = _replay_inverse(moves, ncols)
        return [v[c] for c in kernel]

    return [ucols[c] for c in kernel], dual


# ---------------------------------------------------------------------------
# Exact enumeration on a definite quadric.


def _gram_schmidt_row(g, d: list[int], lam: list[list[int]], k: int) -> None:
    """Fill d[k + 1] and lam[k][:k] from row k of g and the data of rows < k;
    every division is exact (the values are integer minors)."""
    gk, lk = g[k], lam[k]
    for j in range(k + 1):
        u, lj = gk[j], lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
        if j < k:
            lk[j] = u
        elif u <= 0:
            raise ValueError("matrix is not positive definite")
        else:
            d[k + 1] = u


def gram_schmidt(gram: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data ``(d, lam)`` of a positive definite integer
    Gram matrix, its only factorization here (Cohen, Algorithm 2.6.7).

    d[i] is the i-th leading principal minor (d[0] = 1) and, for j < k,
    lam[k][j] = d[j + 1] mu_kj: as an LDL^T, the pivot of row i is
    d[i + 1] / d[i] and its coefficient on row j > i is lam[j][i] / d[i + 1].
    Raises ValueError unless the matrix is positive definite.
    """
    n = len(gram)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        _gram_schmidt_row(gram, d, lam, k)
    return d, lam


def is_negative_definite(gram: Sequence[Sequence[int]]) -> bool:
    """Whether an integer Gram matrix is negative definite: minus it has
    Gram-Schmidt data."""
    try:
        gram_schmidt([[-x for x in row] for row in gram])
    except ValueError:
        return False
    return True


def lll_reduce(gram: Sequence[Sequence[int]]) -> tuple[Callable, list[int], list[list[int]]]:
    """LLL reduction, delta = 3/4, of a positive definite integer Gram matrix.

    Returns ``(transform, d, lam)``: ``(d, lam) = gram_schmidt(t gram t^T)``
    is reduced, and ``transform()`` replays the recorded moves into the
    unimodular t.  This is the integral LLL of Cohen (Algorithm 2.6.7): the
    Gram-Schmidt data are computed once per new vector, then updated on each
    move.  A new vector's data read only its Gram row, so a move updates only
    the lower triangles of the rows not yet seen; t gram t^T is never formed.

    The reduction starts from the basis sorted shortest first, by
    (gram[i][i], i), so t starts as that permutation.  A kernel basis from
    `kernel_basis` interleaves short vectors with a few very long ones; in
    this order the long ones come last and are size-reduced against the
    short ones instead of being swapped down past them (4.7 swaps per call
    instead of 49 on the 39 rank-19 root lattices that
    `stability.p0_violations` reduces for the forms with D <= 40).
    """
    n = len(gram)
    order = sorted(range(n), key=lambda i: (gram[i][i], i))
    g = [[gram[i][j] for j in order[: k + 1]] for k, i in enumerate(order)]  # lower triangle
    d = [1] + [0] * n  # d[i + 1] belongs to basis vector i
    lam = [[0] * n for _ in range(n)]
    moves = []  # (k, l, q): row k -= q row l, or swap rows k and l = k - 1 if q = 0

    def transform() -> list[list[int]]:
        t = [[int(i == j) for j in range(n)] for i in order]
        for k, l, q in moves:
            if q:
                t[k] = [a - q * b for a, b in zip(t[k], t[l])]
            else:
                t[k], t[l] = t[l], t[k]
        return t

    if n:
        _gram_schmidt_row(g, d, lam, 0)

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
        moves.append((k, l, q))
        for row in g[kmax + 1 :]:  # the vectors not yet seen
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        moves.append((k, k - 1, 0))
        for row in g[kmax + 1 :]:
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
            _gram_schmidt_row(g, d, lam, k)
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return transform, d, lam


def enumerate_quadric(factors, r: Fraction) -> list[tuple[int, ...]]:
    """All integer y with y^T p y == r, for positive definite p given by its
    Gram-Schmidt data ``factors = gram_schmidt(p)``.

    Finite because p is definite; output in lexicographic order.  The search
    runs in integers: the i-th Gram-Schmidt coordinate of y is X / d[i + 1]
    for the integer X = y_i d[i + 1] + g_i, and it costs X^2 / (d[i] d[i + 1])
    of the budget.  Scaling the budget by L = r.den * lcm_i(d[i] d[i + 1])
    makes every cost the integer c_i X^2 with c_i = L / (d[i] d[i + 1]), so
    the bounds on each X come from `isqrt` and the last level tests one exact
    square.

    The quadric is symmetric, y -> -y, and p is definite, so r = 0 has the
    zero vector alone and every other solution comes in a pair +-y of which
    exactly one has a positive last nonzero coordinate (Fincke and Pohst,
    Math. Comp. 44 (1985)).  The walk, which fixes y_{n-1} first, visits
    only that one: while every level above is 0, its offset g_i is 0, the
    level's range is symmetric, and it takes t >= 0 (t > 0 at level 0).  The
    negations are appended and the union sorted, the same list as a walk
    over both signs, in about half the nodes.

    The column of lam below each diagonal entry is listed once, so the offset
    of a level, g_i = sum_{j>i} lam[j][i] y_j, is one C-level
    `sum(map(mul, ...))`.
    """
    d, lam = factors
    n = len(lam)
    r = Fraction(r)
    if r < 0:
        return []
    if r == 0:
        return [(0,) * n]
    if n == 0:
        return []
    steps = [d[i] * d[i + 1] for i in range(n)]
    common = lcm(*steps)
    cost = [r.denominator * common // s for s in steps]
    cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]  # below the diagonal
    out: list[tuple[int, ...]] = []
    y = [0] * n

    def descend(i: int, budget: int, lead: bool) -> None:
        # lead: every level above is 0, so g = 0 and only t >= 0 is walked
        g = sum(map(mul, cols[i], y[i + 1 :]))  # X = t d[i + 1] + g
        gd = d[i + 1]
        c = cost[i]
        if i == 0:
            q, rem = divmod(budget, c)
            s = isqrt(q)
            if rem or s * s != q:
                return
            for x in (s,) if lead else sorted({-s, s}):
                t, off = divmod(x - g, gd)
                if not off:
                    y[0] = t
                    out.append(tuple(y))
            return
        s = isqrt(budget // c)  # c X^2 <= budget  <=>  |X| <= s
        for t in range(0 if lead else -((s + g) // gd), (s - g) // gd + 1):
            y[i] = t
            x = t * gd + g
            descend(i - 1, budget - c * x * x, lead and not t)

    descend(n - 1, r.numerator * common, True)  # r L
    out += [tuple(-a for a in v) for v in out]
    return sorted(out)
