import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.exact import FieldMismatch, QuadComplex, QuadScalar
from k3stab.lattice import (
    GAMMA,
    DimensionMismatch,
    GramLattice,
    LatticeVector,
    Sublattice,
    orth_complement,
    pair,
)
from k3stab.mirror import make_split
from k3stab.scenario import build_scenario
from k3stab.stability import search_kahler_class
from oracles import (
    MUKAI,
    MUKAI_W,
    MUKAI_WSTAR,
    QuadVector,
    dense_fibration,
    dense_gram,
    dense_orth_complement,
    densify,
    from_coefficients,
    minus_two_coefficients,
    mukai_ambient,
    nonzero_entries,
    quad_pair,
    signature,
    stepwise_project,
)

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
P = GAMMA.basis(2) + GAMMA.basis(3)
Q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
SPLIT = make_split(F, SIGMA0)
DENSE_SPLIT = make_split(*dense_fibration())

int_vectors = st.lists(st.integers(-4, 4), min_size=22, max_size=22).map(LatticeVector)


def test_standard_pairings():
    assert pair(GAMMA.basis(0), GAMMA.basis(1)) == 1
    assert quad_pair(MUKAI, MUKAI_W, MUKAI_WSTAR) == 1
    for i in range(6, 22):
        assert pair(GAMMA.basis(i), GAMMA.basis(i)) == -2


def test_fibration_block_pairings():
    assert pair(F, SIGMA0) == 1
    assert pair(SIGMA0, SIGMA0) == -2
    assert pair(F, F) == 0


def test_signatures():
    assert signature(GAMMA) == (3, 0, 19)
    assert signature(MUKAI) == (4, 0, 20)
    four = orth_complement([P, Q, F, SIGMA0])
    assert signature(four) == (0, 0, 18)


def test_gram_inverse():
    """A singular Gram matrix has no pivot and a non-unimodular one no
    integral inverse, and each raises ValueError; GAMMA's inverse is exact."""
    for singular in ([[0]], [[1, 1], [1, 1]]):
        with pytest.raises(ValueError, match="singular"):
            GramLattice(singular).inverse()
    with pytest.raises(ValueError, match="not unimodular"):
        GramLattice([[2]]).inverse()
    inv, n = GAMMA.inverse().gram, GAMMA.rank
    product = [[sum(GAMMA.gram[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


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
        pair(MUKAI_W, MUKAI_W)


def test_pair_of_a_list_takes_integral_classes_of_the_rank():
    """A list is paired in one pass over x's kept Gram image, which reads
    y's integers only: a rational or irrational y, or one of another length,
    is refused, not paired as its numerators."""
    x = LatticeVector([QuadScalar(1, 2, 3)] + [0] * 21)
    for bad in (LatticeVector([Fraction(1, 2)] + [0] * 21), LatticeVector([QuadScalar(0, 1, 3)] + [0] * 21)):
        with pytest.raises(ValueError, match="is not integral"):
            pair(x, [F, bad])
    with pytest.raises(DimensionMismatch):
        pair(x, [F, MUKAI_W])
    with pytest.raises(DimensionMismatch):
        pair(MUKAI_W, [F])
    assert pair(x, []) == []


@given(
    st.lists(st.integers(-4, 4), min_size=22, max_size=22),
    st.sampled_from([0, 2, 5]),
    st.integers(1, 6),
    st.lists(st.lists(st.integers(-3, 3), min_size=22, max_size=22), max_size=5),
)
@settings(max_examples=60)
def test_pair_of_a_list_is_the_list_of_pairings(a, m, den, rows):
    """pair(x, [y1, ...]) of integral ys is the list of the pairings (the
    dense oracle `quad_pair`), for x over Q and Q(sqrt m) with a
    denominator, and for a complex x, whose parts are each paired once."""
    x = LatticeVector([QuadScalar(Fraction(c, den), Fraction(c - 1, den) if m else 0, m) for c in a])
    ys = [LatticeVector.from_ints(r) for r in rows]
    assert pair(x, ys) == [quad_pair(GAMMA, x, y) for y in ys]
    w = LatticeVector.from_ints(a)
    expected = [QuadComplex(quad_pair(GAMMA, x, y), quad_pair(GAMMA, w, y)) for y in ys]
    assert pair(QuadComplex(x, w), ys) == expected


def test_pair_zero():
    assert pair(F, LatticeVector.zero(22)) == 0


@given(int_vectors, int_vectors, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_pair_symmetric_bilinear(x, y, a, b):
    assert pair(x, y) == pair(y, x)
    z = a * x + b * y
    assert pair(z, y) == a * pair(x, y) + b * pair(y, y)


def test_orth_complement_ranks():
    ns = orth_complement([P, Q])
    assert ns.rank == 20
    for v in ns.basis:
        assert pair(v, P) == 0 and pair(v, Q) == 0
    assert orth_complement([GAMMA.basis(i) for i in range(22)]).rank == 0
    uprime = orth_complement([F, SIGMA0])
    assert uprime.rank == 20
    assert signature(uprime) == (2, 0, 18)


def test_orth_complement_of_irrational_generators():
    # x.(P + sqrt(2) Q) = 0 for integral x exactly when x.P = x.Q = 0
    irrational = orth_complement([Fraction(1, 3) * P + QuadScalar(0, 1, 2) * Q])
    assert irrational == orth_complement([P, Q])
    assert orth_complement([Fraction(1, 2) * F]) == orth_complement([F])
    assert orth_complement([]).basis == tuple(GAMMA.basis(i) for i in range(22))


def test_ns_signature_recorded():
    # complement of the rank-2 positive definite charge lattice inside (3,19)
    assert signature(orth_complement([P, Q])) == (1, 0, 19)


def test_rank_additivity_for_nondegenerate_generators():
    sub = orth_complement([P, Q, F, SIGMA0])
    assert 4 + sub.rank == GAMMA.rank


def test_projection_examples():
    assert not SPLIT.project(F)
    root = GAMMA.basis(6)
    assert SPLIT.project(2 * F + SIGMA0 + root) == root
    for v in orth_complement([F, SIGMA0]).basis[:4]:
        assert SPLIT.project(v) == v


@given(int_vectors)
@settings(max_examples=60)
def test_projection_idempotent_and_orthogonal(x):
    pr = SPLIT.project(x)
    assert SPLIT.project(pr) == pr
    assert pair(pr, F) == 0
    assert pair(pr, SPLIT.vstar) == 0


def test_minus_two_in_single_u():
    # the bounded scan of tests/oracles.py, the reference of the root
    # enumeration, on the block U1 of GAMMA
    sub = Sublattice([GAMMA.basis(0), GAMMA.basis(1)])
    hits = [from_coefficients(sub, c) for c in minus_two_coefficients(sub.gram(), 1)]
    assert sorted(v.int_coords()[:2] for v in hits) == [[-1, 1], [1, -1]]
    assert all(not any(v.int_coords()[2:]) for v in hits)
    assert minus_two_coefficients(sub.gram(), 0) == []
    for v in hits:
        assert quad_pair(GAMMA, v, v) == -2


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
    sub = Sublattice([GAMMA.basis(i) for i in basis_idx])
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
        Sublattice([LatticeVector([Fraction(1, 2)] + [0] * 21)])


def test_mukai_vector_ambient_roundtrip():
    from k3stab.lattice import MukaiVector

    v = MukaiVector(2, SIGMA0, -3)
    amb = mukai_ambient(v)
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
    for i, j, g in nonzero_entries(lat):
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
    value = pair(x, y)
    reference = _reference_pair(GAMMA, x, y)
    assert value == reference
    assert (value.a, value.b, value.m) == (reference.a, reference.b, reference.m)


@settings(max_examples=20, deadline=None)
@given(field_vectors(2, dense=True), field_vectors(3, dense=True))
def test_pair_mixed_radicands_raise(x, y):
    with pytest.raises(FieldMismatch):
        _reference_pair(GAMMA, x, y)
    with pytest.raises(FieldMismatch):
        pair(x, y)
    with pytest.raises(FieldMismatch):
        pair(y, x)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_pair_through_kept_images_matches_oracle(data):
    """A vector keeps GAMMA's Gram image once it is paired: pairing the same
    objects again, in both orders, over Q and Q(sqrt m), gives the oracle's
    value."""
    m = data.draw(st.sampled_from([2, 3, 5, 23]))
    vectors = [data.draw(field_vectors(data.draw(st.sampled_from([0, m])))) for _ in range(3)]
    for _ in range(3):
        for x, y in itertools.product(vectors, repeat=2):
            value = pair(x, y)
            reference = _reference_pair(GAMMA, x, y)
            assert value == reference
            assert (value.a, value.b, value.m) == (reference.a, reference.b, reference.m)


# ---------------------------------------------------------------------------
# The integer-numerator vector against the QuadScalar-coordinate reference.


def coordinate_lists(m):
    """22 coordinates that are integers, rationals, or over Q(sqrt m)."""
    integral = st.integers(-5, 5).map(QuadScalar)
    rational = st.builds(QuadScalar, small_rationals)
    field = st.builds(QuadScalar, small_rationals, small_rationals, st.just(m))
    coord = st.sampled_from([integral, rational, field] if m else [integral, rational])
    return coord.flatmap(
        lambda c: st.lists(st.one_of(st.just(QuadScalar(0)), c), min_size=22, max_size=22)
    )


def both(coords):
    return LatticeVector(coords), QuadVector(coords)


def assert_same(new, old):
    assert new.coords == old.coords
    assert str(new) == str(old)
    assert bool(new) == bool(old)
    assert new.is_integral == old.is_integral
    if old.is_integral:
        assert new.int_coords() == old.int_coords()
    else:
        with pytest.raises(ValueError):
            new.int_coords()
    assert new == LatticeVector(old.coords) and hash(new) == hash(LatticeVector(old.coords))


def scalars_in(m):
    values = [st.integers(-4, 4), small_rationals, st.builds(QuadScalar, small_rationals)]
    if m:
        values.append(st.builds(QuadScalar, small_rationals, small_rationals, st.just(m)))
    return st.one_of(*values)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_vector_matches_quadscalar_reference(data):
    m = data.draw(st.sampled_from([0, 2, 3, 23]))
    x, x_ref = both(data.draw(coordinate_lists(m)))
    y, y_ref = both(data.draw(coordinate_lists(m)))
    s = data.draw(scalars_in(m))
    assert_same(x, x_ref)
    assert_same(x + y, x_ref + y_ref)
    assert_same(x - y, x_ref - y_ref)
    assert_same(-x, -x_ref)
    assert_same(s * x, s * x_ref)
    assert_same(x * s, x_ref * s)
    assert_same((x + y) - y, x_ref)
    assert (x == y) == (x_ref == y_ref)
    value, reference = pair(x, y), quad_pair(GAMMA, x_ref, y_ref)
    assert (value.a, value.b, value.m) == (reference.a, reference.b, reference.m)
    u, u_ref = both(data.draw(coordinate_lists(m)))
    w, w_ref = both(data.draw(coordinate_lists(m)))
    z = pair(QuadComplex(x, u), QuadComplex(y, w))
    assert z.re == quad_pair(GAMMA, x_ref, y_ref) - quad_pair(GAMMA, u_ref, w_ref)
    assert z.im == quad_pair(GAMMA, x_ref, w_ref) + quad_pair(GAMMA, u_ref, y_ref)
    assert pair(QuadComplex(x, u), y) == QuadComplex(
        quad_pair(GAMMA, x_ref, y_ref), quad_pair(GAMMA, u_ref, y_ref)
    )
    # a vector pair times a scalar pair, in either order, and times a real
    c = QuadComplex(s, data.draw(scalars_in(m)))
    for product in (QuadComplex(x, u) * c, c * QuadComplex(x, u)):
        assert_same(product.re, x_ref * c.re - u_ref * c.im)
        assert_same(product.im, x_ref * c.im + u_ref * c.re)
    assert QuadComplex(x, u) * s == QuadComplex(x * s, u * s) == s * QuadComplex(x, u)
    assert QuadComplex(x).im == LatticeVector.zero(len(x))  # the zero of re's kind


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shift_is_the_products_and_sums_it_replaces(data):
    """`SplitData.shift`, s (y - a v - b v*) in one pass, equals the vector
    products and sums, with the canonical form, over Q and Q(sqrt m), for
    int, Fraction and QuadScalar a, b, s, on the standard split and on one
    whose v and v* are dense; and `project` equals pr(x) by products and
    sums, orthogonal to v and v*."""
    m = data.draw(st.sampled_from([0, 2, 3, 23]))
    split = data.draw(st.sampled_from([SPLIT, DENSE_SPLIT]))
    y = LatticeVector(data.draw(coordinate_lists(m)))
    a, b, s = (data.draw(scalars_in(m)) for _ in range(3))
    out = split.shift(y, a, b, s)
    expected = s * (y - a * split.v - b * split.vstar)
    assert out == expected and out.coords == expected.coords
    assert split.shift(y, a, b) == y - a * split.v - b * split.vstar
    pr = split.project(y)
    assert pr == stepwise_project(split, y)
    assert not pair(pr, split.v) and not pair(pr, split.vstar)


def test_shift_of_two_radicands_raises():
    y = LatticeVector([QuadScalar(0, 1, 2)] + [0] * 21)
    with pytest.raises(FieldMismatch):
        SPLIT.shift(y, QuadScalar(0, 1, 3), 0)
    with pytest.raises(FieldMismatch):
        SPLIT.shift(y, 1, 1, QuadScalar(1, 1, 3))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_vector_field_mismatch(data):
    x, x_ref = both(data.draw(field_vectors(2, dense=True)).coords)
    y, y_ref = both(data.draw(field_vectors(3, dense=True)).coords)
    sqrt3 = QuadScalar(0, data.draw(nonzero_rationals), 3)
    for op in (
        lambda: x + y,
        lambda: x - y,
        lambda: sqrt3 * x,
        lambda: pair(x, y),
        lambda: LatticeVector(x.coords[:11] + y.coords[11:]),
    ):
        with pytest.raises(FieldMismatch):
            op()
    with pytest.raises(FieldMismatch):
        quad_pair(GAMMA, x_ref, y_ref)
    # a rational vector joins either field
    r = LatticeVector([Fraction(1, 3)] * 22)
    assert (r + x).m == 2 and (r - y).m == 3 and (sqrt3 * r).m == 3


# ---------------------------------------------------------------------------
# Sparse Gram images against the dense products they replaced.


def integral_vectors(lat):
    coord = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    return st.lists(coord, min_size=lat.rank, max_size=lat.rank).map(LatticeVector.from_ints)


def mixed_vectors(lat):
    """Unit vectors, single-entry supports, dense vectors and sparse ones."""
    n = lat.rank
    unit = st.integers(0, n - 1).map(lambda i: LatticeVector.unit(n, i))
    single = st.tuples(st.integers(0, n - 1), st.integers(-5, 5).filter(bool)).map(
        lambda t: LatticeVector.from_ints([t[1] * (j == t[0]) for j in range(n)])
    )
    dense = st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n)
    return st.one_of(unit, single, dense.map(LatticeVector.from_ints), integral_vectors(lat))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_gram_images_match_dense(data):
    sub = Sublattice(data.draw(st.lists(integral_vectors(GAMMA), min_size=1, max_size=8)))
    assert sub.gram() == dense_gram(GAMMA, sub.basis)
    mixed = Sublattice(data.draw(st.lists(mixed_vectors(GAMMA), min_size=1, max_size=8)))
    assert mixed.gram() == dense_gram(GAMMA, mixed.basis)
    assert [densify(x, GAMMA.rank) for x in mixed.supports] == [v.A for v in mixed.basis]
    assert all(0 not in x.values() for x in mixed.supports)
    gens = data.draw(st.lists(integral_vectors(GAMMA), min_size=1, max_size=3))
    m = data.draw(st.sampled_from([0, 2, 23]))
    if m:  # a generator over Q(sqrt m): it adds the two rows G A and G B
        x, y = data.draw(integral_vectors(GAMMA)), data.draw(integral_vectors(GAMMA))
        gens.append(Fraction(1, 3) * x + QuadScalar(0, 1, m) * y)
    fast, dense = orth_complement(gens), dense_orth_complement(GAMMA, gens)
    assert fast.gram() == dense_gram(GAMMA, dense)  # before the basis is built
    assert fast.basis == dense
    assert fast == Sublattice(dense)


@pytest.mark.parametrize("form", [[2, 0, 8], [4, 1, 6]])
def test_sparse_gram_of_the_pipeline_lattices_matches_dense(monkeypatch, form):
    """The eta lattice, the root lattice K at the search's candidate and
    NS(mirror), over Q (diag(2,8)) and over Q(sqrt 23) ([4,1,6]): the Gram
    matrix over the supports that the column reduction keeps is the dense
    one, on the basis of the dense reduction."""
    import k3stab.stability

    found = []

    def captured(gens):
        found.append((gens, orth_complement(gens)))
        return found[-1][1]

    monkeypatch.setattr(k3stab.stability, "orth_complement", captured)
    sc = build_scenario(form=form)
    found.append(([sc.charge.p, sc.charge.q, sc.split.f, sc.split.sigma0], sc.eta_lattice))
    result = search_kahler_class(sc)
    k3stab.stability.ns_of_mirror(result.triple.Omega_check)
    assert [sub.rank for _, sub in found] == [18, 19, 20]
    period = result.triple.Omega_check
    assert {c.m for c in period.re.coords + period.im.coords} == ({0} if form == [2, 0, 8] else {0, 23})
    for gens, sub in found:
        dense = dense_orth_complement(GAMMA, gens)
        assert sub.gram() == dense_gram(GAMMA, dense)
        assert sub.basis == dense


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_with_a_zero_radical_part_is_rational(data):
    """x = A + B sqrt(m) and y = C + D sqrt(m) with A, C in the U blocks and
    B, D in the E8 blocks pair to A.C + m B.D: the radical part A.D + B.C
    is 0, and the pairing comes out rational, with m == 0."""
    m = data.draw(st.sampled_from([2, 3, 5, 23]))

    def split_vector():
        u = data.draw(st.lists(small_rationals, min_size=6, max_size=6))
        e8 = data.draw(st.lists(small_rationals, min_size=16, max_size=16))
        return LatticeVector([QuadScalar(a) for a in u] + [QuadScalar(0, b, m) for b in e8])

    x, y = split_vector(), split_vector()
    for u, v in [(x, y), (y, x), (x, x), (x, y)]:  # the last one through kept images
        value = pair(u, v)
        # the oracle builds its result with the public constructor
        reference = quad_pair(GAMMA, QuadVector(u.coords), QuadVector(v.coords))
        assert value.m == 0 and value.is_rational
        assert (value.a, value.b, value.m) == (reference.a, reference.b, reference.m)
        assert value == reference and hash(value) == hash(reference)
