import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.exact import FieldMismatch, QuadScalar
from k3stab.lattice import (
    GAMMA,
    MUKAI,
    MUKAI_W,
    MUKAI_WSTAR,
    U_GRAM,
    DimensionMismatch,
    GramLattice,
    LatticeVector,
    Sublattice,
    orth_complement,
    pair,
    project_off_hyperbolic,
    signature,
)
from oracles import minus_two_coefficients

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
P = GAMMA.basis(2) + GAMMA.basis(3)
Q = GAMMA.basis(4) + 4 * GAMMA.basis(5)

int_vectors = st.lists(st.integers(-4, 4), min_size=22, max_size=22).map(LatticeVector)


def test_standard_pairings():
    assert pair(GAMMA, GAMMA.basis(0), GAMMA.basis(1)) == 1
    assert pair(MUKAI, MUKAI_W.to_ambient(), MUKAI_WSTAR.to_ambient()) == 1
    for i in range(6, 22):
        assert pair(GAMMA, GAMMA.basis(i), GAMMA.basis(i)) == -2


def test_fibration_block_pairings():
    assert pair(GAMMA, F, SIGMA0) == 1
    assert pair(GAMMA, SIGMA0, SIGMA0) == -2
    assert pair(GAMMA, F, F) == 0


def test_signatures():
    assert signature(GAMMA) == (3, 0, 19)
    assert signature(MUKAI) == (4, 0, 20)
    four = orth_complement(GAMMA, [P, Q, F, SIGMA0])
    assert signature(four) == (0, 0, 18)


def test_e8_block_is_unimodular():
    block = [[GAMMA.gram[i][j] for j in range(6, 14)] for i in range(6, 14)]
    det = _det([[Fraction(x) for x in row] for row in block])
    assert abs(det) == 1
    assert signature(GramLattice(block)) == (0, 0, 8)


def _det(m):
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def test_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pair(GAMMA, MUKAI_W.to_ambient(), MUKAI_W.to_ambient())


def test_pair_zero():
    assert pair(GAMMA, F, LatticeVector.zero(22)) == 0


@given(int_vectors, int_vectors, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_pair_symmetric_bilinear(x, y, a, b):
    assert pair(GAMMA, x, y) == pair(GAMMA, y, x)
    z = a * x + b * y
    assert pair(GAMMA, z, y) == a * pair(GAMMA, x, y) + b * pair(GAMMA, y, y)


def test_orth_complement_ranks():
    ns = orth_complement(GAMMA, [P, Q])
    assert ns.rank == 20
    for v in ns.basis:
        assert pair(GAMMA, v, P) == 0 and pair(GAMMA, v, Q) == 0
    assert orth_complement(GAMMA, [GAMMA.basis(i) for i in range(22)]).rank == 0
    uprime = orth_complement(GAMMA, [F, SIGMA0])
    assert uprime.rank == 20
    assert signature(uprime) == (2, 0, 18)


def test_orth_complement_of_irrational_generators():
    # x.(P + sqrt(2) Q) = 0 for integral x exactly when x.P = x.Q = 0
    irrational = orth_complement(GAMMA, [Fraction(1, 3) * P + QuadScalar(0, 1, 2) * Q])
    assert irrational == orth_complement(GAMMA, [P, Q])
    assert orth_complement(GAMMA, [Fraction(1, 2) * F]) == orth_complement(GAMMA, [F])
    assert orth_complement(GAMMA, []).basis == tuple(GAMMA.basis(i) for i in range(22))


def test_ns_signature_recorded():
    # complement of the rank-2 positive definite charge lattice inside (3,19)
    assert signature(orth_complement(GAMMA, [P, Q])) == (1, 0, 19)


def test_rank_additivity_for_nondegenerate_generators():
    sub = orth_complement(GAMMA, [P, Q, F, SIGMA0])
    assert 4 + sub.rank == GAMMA.rank


def test_projection_examples():
    vstar = F + SIGMA0
    assert not project_off_hyperbolic(GAMMA, F, vstar, F)
    root = GAMMA.basis(6)
    assert project_off_hyperbolic(GAMMA, F, vstar, 2 * F + SIGMA0 + root) == root
    for v in orth_complement(GAMMA, [F, SIGMA0]).basis[:4]:
        assert project_off_hyperbolic(GAMMA, F, vstar, v) == v


@given(int_vectors)
@settings(max_examples=60)
def test_projection_idempotent_and_orthogonal(x):
    vstar = F + SIGMA0
    pr = project_off_hyperbolic(GAMMA, F, vstar, x)
    assert project_off_hyperbolic(GAMMA, F, vstar, pr) == pr
    assert pair(GAMMA, pr, F) == 0
    assert pair(GAMMA, pr, vstar) == 0


def test_minus_two_in_single_u():
    # the bounded scan of tests/oracles.py, the reference of the root enumeration
    u = GramLattice(U_GRAM)
    sub = Sublattice(u, [u.basis(0), u.basis(1)])
    hits = [sub.from_coefficients(c) for c in minus_two_coefficients(sub.gram(), 1)]
    assert sorted(v.int_coords() for v in hits) == [[-1, 1], [1, -1]]
    assert minus_two_coefficients(sub.gram(), 0) == []
    for v in hits:
        assert pair(u, v, v) == -2


def _naive_minus_two(sub, bound):
    gram = sub.gram()
    k = len(gram)
    out = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        norm = sum(
            coeffs[i] * gram[i][j] * coeffs[j] for i in range(k) for j in range(k)
        )
        if norm == -2:
            out.append(coeffs)
    return out


@pytest.mark.parametrize(
    "basis_idx,bound",
    [
        ((0, 1), 3),
        ((6, 7, 8), 3),
        ((0, 1, 6, 7), 2),
        ((0, 1, 2, 3, 6, 7), 2),
        ((2, 3, 6, 7, 8, 9), 3),
    ],
)
def test_minus_two_matches_naive_scan(basis_idx, bound):
    sub = Sublattice(GAMMA, [GAMMA.basis(i) for i in basis_idx])
    fast = minus_two_coefficients(sub.gram(), bound)
    assert sorted(fast) == sorted(_naive_minus_two(sub, bound))
    assert list(fast) == sorted(fast)  # deterministic lexicographic order


def test_vector_integrality():
    v = LatticeVector([Fraction(1, 2)] + [0] * 21)
    assert not v.is_integral
    with pytest.raises(ValueError):
        v.coords[0].as_int()
    assert (2 * v).is_integral


def test_sublattice_rejects_non_integral_basis():
    with pytest.raises(ValueError):
        Sublattice(GAMMA, [LatticeVector([Fraction(1, 2)] + [0] * 21)])


def test_mukai_vector_ambient_roundtrip():
    from k3stab.lattice import MukaiVector

    v = MukaiVector(2, SIGMA0, -3)
    amb = v.to_ambient()
    assert amb.int_coords()[:22] == SIGMA0.int_coords()
    assert amb.int_coords()[22:] == [2, -3]
    assert (-v).r == -2 and (v - v).s == 0


def test_scalar_vector_algebra():
    v = QuadScalar(0, 1, 2) * F
    assert v.coords[0] == QuadScalar(0, 1, 2)
    assert (v + v).coords[0] == QuadScalar(0, 2, 2)
    assert not v.is_integral


# ---------------------------------------------------------------------------
# The integer pairing kernel against the QuadScalar loop it replaced.


def _reference_pair(lat, x, y):
    total = QuadScalar(0)
    for i, j, g in lat._nonzero:
        xi, yj = x.coords[i], y.coords[j]
        if xi and yj:
            total = total + QuadScalar(g) * (xi * yj)
    return total


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero_rationals = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, -2, 3, -5]))


def field_vectors(m, dense=False):
    """Vectors of GAMMA over Q(sqrt m) (over Q when m == 0)."""
    b_part = nonzero_rationals if dense else small_rationals
    coord = st.builds(QuadScalar, small_rationals, b_part if m else st.just(0), st.just(m))
    if not dense:
        coord = st.one_of(st.just(QuadScalar(0)), coord)
    return st.lists(coord, min_size=22, max_size=22).map(LatticeVector)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_matches_quadscalar_loop(data):
    m = data.draw(st.sampled_from([2, 3, 5, 23]))
    x = data.draw(field_vectors(data.draw(st.sampled_from([0, m]))))
    y = data.draw(field_vectors(data.draw(st.sampled_from([0, m]))))
    value = pair(GAMMA, x, y)
    reference = _reference_pair(GAMMA, x, y)
    assert value == reference
    assert (value.a, value.b, value.m) == (reference.a, reference.b, reference.m)


@settings(max_examples=20, deadline=None)
@given(field_vectors(2, dense=True), field_vectors(3, dense=True))
def test_pair_mixed_radicands_raise(x, y):
    with pytest.raises(FieldMismatch):
        _reference_pair(GAMMA, x, y)
    with pytest.raises(FieldMismatch):
        pair(GAMMA, x, y)
    with pytest.raises(FieldMismatch):
        pair(GAMMA, y, x)
