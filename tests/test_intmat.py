from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.intmat import (
    enumerate_quadric,
    kernel_basis,
    ldl_posdef,
    ldl_solve,
    lll_reduce,
    rank_generic,
    signature_of,
)
from k3stab.lattice import MUKAI, LatticeVector, embed_gamma, orth_complement
from oracles import solve_integer, solve_rational


def test_kernel_basis_simple():
    a = [[1, 2, 3]]
    kern = kernel_basis(a)
    assert len(kern) == 2
    for v in kern:
        assert sum(x * y for x, y in zip(a[0], v)) == 0


def test_kernel_is_saturated():
    kern = kernel_basis([[2, 4]])
    assert len(kern) == 1
    x, y = kern[0]
    assert 2 * x + 4 * y == 0
    # the primitive generator, not a multiple of it
    assert abs(x) == 2 and abs(y) == 1


def test_solve_integer():
    # the integer solver of tests/oracles.py (the bounded-walk reference)
    a = [[2, 0], [0, 3]]
    assert solve_integer(a, [4, 9]) == [2, 3]
    assert solve_integer(a, [3, 9]) is None
    assert solve_integer([[1, 1]], [5]) is not None
    assert solve_integer([[0, 0]], [1]) is None


def test_signature():
    assert signature_of([[2, 0], [0, -3]]) == (1, 0, 1)
    assert signature_of([[0, 1], [1, 0]]) == (1, 0, 1)
    assert signature_of([[0, 0], [0, 0]]) == (0, 2, 0)
    assert signature_of([[2, 1], [1, 2]]) == (2, 0, 0)
    assert signature_of([]) == (0, 0, 0)


def test_rank_generic():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank_generic(rows) == 1
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert rank_generic(rows) == 2


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        ldl_posdef([[Fraction(-1)]])
    with pytest.raises(ValueError):
        ldl_posdef([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_enumerate_quadric_circle():
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    sols = enumerate_quadric(ldl_posdef(eye), [Fraction(0), Fraction(0)], Fraction(25))
    assert len(sols) == 12
    assert all(x * x + y * y == 25 for x, y in sols)
    assert sols == sorted(sols)


def test_enumerate_quadric_shifted():
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    sols = enumerate_quadric(ldl_posdef(eye), [Fraction(1, 2), Fraction(0)], Fraction(1, 4))
    assert sols == [(0, 0), (1, 0)]


def test_enumerate_quadric_empty_and_zero_dim():
    eye = [[Fraction(1)]]
    assert enumerate_quadric(ldl_posdef(eye), [Fraction(0)], Fraction(-1)) == []
    assert enumerate_quadric(ldl_posdef(eye), [Fraction(0)], Fraction(2)) == []
    assert enumerate_quadric(ldl_posdef([]), [], Fraction(0)) == [()]
    assert enumerate_quadric(ldl_posdef([]), [], Fraction(1)) == []


def test_enumerate_quadric_matches_brute_force():
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    for target in [2, 6, 8, 5]:
        sols = set(enumerate_quadric(ldl_posdef(g), [Fraction(0), Fraction(0)], Fraction(target)))
        brute = {
            (x, y)
            for x in range(-10, 11)
            for y in range(-10, 11)
            if 2 * x * x + 2 * x * y + 2 * y * y == target
        }
        assert sols == brute


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=2, max_size=2),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
)
def test_enumerate_quadric_matches_brute_force_off_centre(m, w, y0):
    p = [
        [Fraction(sum(m[2 * k + i] * m[2 * k + j] for k in range(2)) + (i == j)) for j in range(2)]
        for i in range(2)
    ]

    def q(y):
        z = [y[0] - w[0], y[1] - w[1]]
        return sum(z[i] * p[i][j] * z[j] for i in range(2) for j in range(2))

    r = q(y0)  # at least one solution
    # p = M^T M + I >= I, so every solution has |y_i - w_i| <= sqrt(r)
    box = range(-3 - isqrt(int(r) + 1), 4 + isqrt(int(r) + 1))
    brute = sorted((x, y) for x in box for y in box if q((x, y)) == r)
    assert tuple(y0) in brute
    assert enumerate_quadric(ldl_posdef(p), w, r) == brute


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        )
    )
)
def test_ldl_solve_matches_gauss_jordan(case):
    m, b = case
    n = len(m)
    # M^T M + I is positive definite
    p = [
        [Fraction(sum(m[k][i] * m[k][j] for k in range(n)) + (i == j)) for j in range(n)]
        for i in range(n)
    ]
    rhs = [Fraction(x) for x in b]
    assert ldl_solve(ldl_posdef(p), rhs) == solve_rational(p, rhs)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for i in range(len(m)):
        piv = next((j for j in range(i, len(m)) if m[j][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for j in range(i + 1, len(m)):
            f = m[j][i] / m[i][i]
            m[j] = [a - f * b for a, b in zip(m[j], m[i])]
    return det


def _assert_lll_reduced(gram):
    t, g = lll_reduce(gram)
    assert abs(_det(t)) == 1  # unimodular
    assert _mul(_mul(t, gram), [list(col) for col in zip(*t)]) == g
    # g = U^T diag(d) U: U holds the Gram-Schmidt coefficients mu_ij = u[j][i]
    d, u = ldl_posdef([[Fraction(x) for x in row] for row in g])
    for i in range(len(g)):
        for j in range(i):
            assert abs(u[j][i]) <= Fraction(1, 2)  # size reduced
    for k in range(1, len(g)):
        assert d[k] >= (Fraction(3, 4) - u[k - 1][k] ** 2) * d[k - 1]  # Lovasz


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n + 2, max_size=n + 2), min_size=n, max_size=n
        )
    )
)
def test_lll_reduce_is_unimodular_and_reduced(b):
    gram = _mul(b, [list(col) for col in zip(*b)])  # B B^T, definite when B has full rank
    if not _det(gram):
        with pytest.raises(ValueError):
            lll_reduce(gram)
        return
    _assert_lll_reduced(gram)


def test_lll_reduce_on_the_root_lattice_of_a_search_point(searched28):
    psi, period = searched28.psi, searched28.triple.Omega_check
    s = psi.s_part
    gens = [
        embed_gamma(period.re),
        embed_gamma(period.im),
        LatticeVector(list(psi.B.coords) + [1, s.re]),
        LatticeVector(list(psi.omega.coords) + [0, s.im]),
    ]
    kern = orth_complement(MUKAI, gens)
    neg_gram = [[-x for x in row] for row in kern.gram()]
    assert len(neg_gram) == 20
    _assert_lll_reduced(neg_gram)
    assert lll_reduce([]) == ([], [])
    with pytest.raises(ValueError):
        lll_reduce([[2, 3], [3, 2]])  # indefinite
