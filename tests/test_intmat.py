from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.intmat import (
    enumerate_quadric,
    kernel_basis,
    ldl_posdef,
    ldl_solve,
    rank_generic,
    signature_of,
    solve_integer,
)
from oracles import solve_rational


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
