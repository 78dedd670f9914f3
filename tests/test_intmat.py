import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3stab.intmat import (
    _column_reduce,
    _replay_inverse,
    enumerate_quadric,
    gram_schmidt,
    is_negative_definite,
    kernel_basis,
    lll_reduce,
)
from k3stab.attractor import hyperkahler_rotate
from k3stab.lattice import GAMMA, LatticeVector
from k3stab.mirror import mirror_period
from k3stab.scenario import build_scenario
from k3stab.stability import (
    SearchExhausted,
    StabilityPoint,
    _dual_eta,
    p0_violations,
    search_kahler_class,
)
from oracles import (
    MUKAI,
    dense_gram,
    dense_orth_complement,
    embed_gamma,
    fraction_enumerate_quadric,
    full_lll_reduce,
    full_sign_enumerate_quadric,
    ldl_posdef,
    rank_generic,
    signature_of,
    solve_integer,
)


def test_kernel_basis_simple():
    a = [[1, 2, 3]]
    kern, _ = kernel_basis(a)
    assert len(kern) == 2
    for v in kern:
        assert sum(x * y for x, y in zip(a[0], v)) == 0


def test_kernel_is_saturated():
    kern, _ = kernel_basis([[2, 4]])
    assert len(kern) == 1
    x, y = kern[0]
    assert 2 * x + 4 * y == 0
    # the primitive generator, not a multiple of it
    assert abs(x) == 2 and abs(y) == 1


_MATRIX = st.integers(0, 4).flatmap(
    lambda m: st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m
        ).map(lambda a: (a, n))
    )
)


@settings(max_examples=80, deadline=None)
@given(_MATRIX)
@example(([[1, 2, 3]], 3))
@example(([[0, 0]], 2))  # no moves: U = I
def test_kernel_dual_is_the_replayed_inverse(case):
    """The inverse moves replayed from I give U^-1 (the full replay times U
    is I), and its rows at the kernel indices are dual to the kernel:
    d_j . b_k = delta_jk."""
    a, n = case
    ucols, kernel, moves = _column_reduce(a, n)
    v = _replay_inverse(moves, n)
    assert [[sum(map(mul, row, col)) for col in ucols] for row in v] == [
        [int(i == j) for j in range(n)] for i in range(n)
    ]
    kern, dual = kernel_basis(a, n)
    assert kern == [ucols[c] for c in kernel]
    assert all(sum(map(mul, row, b)) == 0 for row in a for b in kern)
    assert [[sum(map(mul, d, b)) for b in kern] for d in dual()] == [
        [int(j == k) for k in range(len(kern))] for j in range(len(kern))
    ]


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
    for factor in (gram_schmidt, ldl_posdef):
        with pytest.raises(ValueError):
            factor([[-1]])
        with pytest.raises(ValueError):
            factor([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            factor([[2, 3], [3, 2]])  # positive first minor, negative determinant


def test_enumerate_quadric_circle():
    eye = [[1, 0], [0, 1]]
    sols = enumerate_quadric(gram_schmidt(eye), Fraction(25))
    assert len(sols) == 12
    assert all(x * x + y * y == 25 for x, y in sols)
    assert sols == sorted(sols)


def test_enumerate_quadric_empty_and_zero_dim():
    eye = [[1]]
    assert enumerate_quadric(gram_schmidt(eye), Fraction(-1)) == []
    assert enumerate_quadric(gram_schmidt(eye), Fraction(2)) == []
    assert enumerate_quadric(gram_schmidt([]), Fraction(0)) == [()]
    assert enumerate_quadric(gram_schmidt([]), Fraction(1)) == []


def test_enumerate_quadric_matches_brute_force():
    g = [[2, 1], [1, 2]]
    for target in [2, 6, 8, 5]:
        sols = set(enumerate_quadric(gram_schmidt(g), Fraction(target)))
        brute = {
            (x, y)
            for x in range(-10, 11)
            for y in range(-10, 11)
            if 2 * x * x + 2 * x * y + 2 * y * y == target
        }
        assert sols == brute


def _posdef(m):
    """M^T M + I, positive definite for every square integer M."""
    n = len(m)
    return [[sum(m[k][i] * m[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_enumerate_quadric_matches_fraction_oracle(data):
    n = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    p = _posdef(data.draw(st.lists(row, min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # r on the lattice: at least one solution
        y0 = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        r = sum(y0[i] * p[i][j] * y0[j] for i in range(n) for j in range(n))
    else:
        r = data.draw(st.fractions(-1, 24, max_denominator=6))
    factors = gram_schmidt(p)
    ys = enumerate_quadric(factors, r)
    assert ys == fraction_enumerate_quadric(factors, [0] * n, r)
    assert ys == full_sign_enumerate_quadric(factors, r)
    assert sorted(tuple(-a for a in y) for y in ys) == ys  # closed under negation


def test_enumerate_quadric_zero_norm_is_the_zero_vector():
    for n in range(1, 6):
        p = _posdef([[(i * j) % 3 - 1 for j in range(n)] for i in range(n)])
        assert enumerate_quadric(gram_schmidt(p), 0) == [(0,) * n]
        assert full_sign_enumerate_quadric(gram_schmidt(p), 0) == [(0,) * n]


_SQUARE = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None)
@given(_SQUARE)
def test_gram_schmidt_matches_rational_ldl(m):
    """d[i+1]/d[i] are the LDL pivots and lam[k][j]/d[j+1] the coefficients
    u[j][k] of the Fraction LDL^T, and every d[i] is a leading minor."""
    p = _posdef(m)
    d, lam = gram_schmidt(p)
    pivots, u = ldl_posdef(p)
    n = len(p)
    assert d[0] == 1 and len(d) == n + 1
    for i in range(n):
        assert Fraction(d[i + 1], d[i]) == pivots[i]
        assert d[i + 1] == _det([row[: i + 1] for row in p[: i + 1]])
    for k in range(n):
        for j in range(n):
            if j < k:
                assert Fraction(lam[k][j], d[j + 1]) == u[j][k]
            else:
                assert lam[k][j] == 0


def _near_negative_definite(n):
    """-(M^T M + I) plus a small symmetric S: negative definite for some
    draws and not for others."""
    square = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(square, square).map(
        lambda ms: [
            [-p + s + t for p, s, t in zip(prow, srow, tcol)]
            for prow, srow, tcol in zip(_posdef(ms[0]), ms[1], zip(*ms[1]))
        ]
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(_near_negative_definite))
@example([[-2, 1], [1, -2]])
@example([[-2, 0], [0, 0]])  # degenerate
@example([[0, 1], [1, 0]])  # hyperbolic
@example([[-2, 3], [3, -2]])  # negative first minor, indefinite
def test_is_negative_definite_matches_signature_oracle(gram):
    n = len(gram)
    assert is_negative_definite(gram) == (signature_of(gram) == (0, 0, n))


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
    transform, d, lam = lll_reduce(gram)
    t = transform()  # replayed from the recorded moves
    assert abs(_det(t)) == 1  # unimodular
    g = _mul(_mul(t, gram), [list(col) for col in zip(*t)])
    # the data kept through the reduction are those of the reduced matrix
    assert (d, lam) == gram_schmidt(g)
    for k in range(len(g)):
        for j in range(k):
            assert 2 * abs(lam[k][j]) <= d[j + 1]  # size reduced: |mu_kj| <= 1/2
    for k in range(1, len(g)):
        # Lovasz: B_k >= (3/4 - mu_k,k-1^2) B_k-1 with B_k = d[k+1]/d[k]
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2
    return t, g, d, lam


def _permuted(gram, perm):
    """The Gram matrix of the basis reordered by perm."""
    return [[gram[i][j] for j in perm] for i in perm]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-30, 30), min_size=n + 2, max_size=n + 2),
                min_size=n,
                max_size=n,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_lll_reduce_is_unimodular_and_reduced(case):
    b, perm = case
    gram = _mul(b, [list(col) for col in zip(*b)])  # B B^T, definite when B has full rank
    if not _det(gram):
        with pytest.raises(ValueError):
            lll_reduce(gram)
        return
    _, _, d, _ = _assert_lll_reduced(gram)
    # any order of the input basis: reduced again, with the same determinant
    assert _assert_lll_reduced(_permuted(gram, perm))[2][-1] == d[-1]


def _assert_lean_lll_matches_oracle(gram):
    """The lean reduction ends with the data of the full-bookkeeping one,
    and its replayed transform is the oracle's t."""
    transform, d, lam = lll_reduce(gram)
    t, _, d_full, lam_full = full_lll_reduce(gram)
    assert (d, lam) == (d_full, lam_full)
    assert transform() == t


_BASES = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-40, 40), min_size=n + 2, max_size=n + 2), min_size=n, max_size=n
    )
)


@settings(max_examples=80, deadline=None)
@given(_BASES)
@example([[1, 0, 0], [1000, 1, 0]])  # one long vector: a reduction, then a swap
def test_lean_lll_matches_the_full_bookkeeping_oracle(b):
    gram = _mul(b, [list(col) for col in zip(*b)])
    if not _det(gram):
        for reduce in (lll_reduce, full_lll_reduce):
            with pytest.raises(ValueError):
                reduce(gram)
        return
    _assert_lean_lll_matches_oracle(gram)


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(20)))
def test_lean_lll_matches_the_oracle_on_root_lattices(sc28, searched28, perm):
    """At the base point of diag(2,8) (482 roots) and at its search point
    (none), for any order of the kernel basis."""
    for point in (sc28, searched28):
        _, neg_gram = _root_kernel(point.psi, point.triple.Omega_check)
        _assert_lean_lll_matches_oracle(neg_gram)
        _assert_lean_lll_matches_oracle(_permuted(neg_gram, perm))


def _root_kernel(psi, period):
    """The integral basis (rows) of the Mukai classes orthogonal to Re and
    Im of the mirror period and of Psi, and minus its Gram matrix: the input
    of the reduction in the oracle `mukai_p0_violations`, whose roots are
    those of `p0_violations`."""
    s = psi.s_part
    gens = [
        embed_gamma(period.re),
        embed_gamma(period.im),
        LatticeVector(list(psi.B.coords) + [1, s.re]),
        LatticeVector(list(psi.omega.coords) + [0, s.im]),
    ]
    kern = dense_orth_complement(MUKAI, gens)
    return [v.int_coords() for v in kern], [[-x for x in row] for row in dense_gram(MUKAI, kern)]


def test_lll_reduce_on_the_root_lattice_of_a_search_point(searched28):
    _, neg_gram = _root_kernel(searched28.psi, searched28.triple.Omega_check)
    assert len(neg_gram) == 20
    _assert_lll_reduced(neg_gram)
    transform, d, lam = lll_reduce([])
    assert (transform(), d, lam) == ([], [1], [])
    with pytest.raises(ValueError):
        lll_reduce([[2, 3], [3, 2]])  # indefinite


def _exhausted_point_2_1_2():
    """The scenario, the candidate omega, and Psi and the mirror period at
    it, where the search on [2,1,2] fails (exit 4): the last halving of
    omega_J + 2^-k c_eta eta."""
    sc = build_scenario(form=[2, 1, 2])
    with pytest.raises(SearchExhausted) as err:
        search_kahler_class(sc)
    k, reason = err.value.rejections[-1]
    assert reason.startswith("annihilating (-2)-class")
    omega = sc.omega_J + sc.c_eta * Fraction(1, 2**k) * _dual_eta(sc)
    Omega_I = hyperkahler_rotate(sc.Omega, omega)
    triple = mirror_period(sc.split, Omega_I, sc.Omega.im, LatticeVector.zero(GAMMA.rank))
    return sc, omega, StabilityPoint(triple.B_check, triple.omega_check), triple.Omega_check


def _norm_two_classes(kern, neg_gram):
    """The sorted (r, D, s) of the vectors of norm 2 of minus the lattice
    with basis rows kern, by LLL and one enumeration, as `p0_violations`
    finds them."""
    transform, d, lam = lll_reduce(neg_gram)
    basis = [[sum(c * v[i] for c, v in zip(row, kern)) for i in range(MUKAI.rank)] for row in transform()]
    n = GAMMA.rank
    out = []
    for y in enumerate_quadric((d, lam), 2):
        x = [sum(c * v[i] for c, v in zip(y, basis)) for i in range(MUKAI.rank)]
        out.append((x[n], tuple(x[:n]), x[n + 1]))
    return sorted(out)


@pytest.mark.parametrize("point", ["base-2-0-8", "exhausted-2-1-2"])
def test_enumerate_quadric_matches_the_oracles_on_root_lattices(point, sc28):
    """The walk up to sign lists the same roots as the Fraction walk and the
    full-sign walk: the 482 of diag(2,8) at its base omega_J, and those of
    the candidate that fails the search on [2,1,2]."""
    if point == "base-2-0-8":
        psi, period = sc28.psi, sc28.triple.Omega_check
    else:
        _, _, psi, period = _exhausted_point_2_1_2()
    _, neg_gram = _root_kernel(psi, period)
    _, d, lam = lll_reduce(neg_gram)
    ys = enumerate_quadric((d, lam), 2)
    assert ys == fraction_enumerate_quadric((d, lam), [0] * len(lam), 2)
    assert ys == full_sign_enumerate_quadric((d, lam), 2)
    assert sorted(tuple(-a for a in y) for y in ys) == ys
    assert len(ys) == (482 if point == "base-2-0-8" else 2)  # +-(e2(U3) - e1(U3)) on [2,1,2]


@pytest.mark.parametrize("point", ["searched-2-0-8", "exhausted-2-1-2"])
def test_basis_order_does_not_change_the_root_enumeration(point, sc28, searched28):
    """`lll_reduce` sorts its input basis; any order of the oracle's Mukai
    kernel basis gives a reduced basis with the same determinant and the
    roots that `p0_violations` finds in GAMMA."""
    if point == "searched-2-0-8":
        sc, omega = sc28, searched28.omega_J
        psi, period = searched28.psi, searched28.triple.Omega_check
    else:
        sc, omega, psi, period = _exhausted_point_2_1_2()
    kern, neg_gram = _root_kernel(psi, period)
    n = len(kern)
    det = lll_reduce(neg_gram)[1][n]
    enumeration = p0_violations(sc, omega)
    roots = [(r.r, tuple(r.D.int_coords()), r.s) for r in enumeration.roots]
    assert _norm_two_classes(kern, neg_gram) == roots
    assert (len(roots) > 0) == (point == "exhausted-2-1-2")
    rng = random.Random(14)
    for _ in range(3):
        perm = rng.sample(range(n), n)
        _, _, d, _ = _assert_lll_reduced(_permuted(neg_gram, perm))
        assert d[n] == det
        assert _norm_two_classes([kern[i] for i in perm], _permuted(neg_gram, perm)) == roots
