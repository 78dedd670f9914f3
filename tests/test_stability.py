import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.attractor import NotPositive, hyperkahler_rotate
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.lattice import (
    GAMMA,
    MUKAI,
    ComplexVector,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
)
from k3stab.mirror import PreconditionViolation, make_split, mirror_class, mirror_period
from k3stab.scenario import build_scenario, scenario_from_file
from k3stab.stability import (
    RealityViolation,
    SearchExhausted,
    SearchObstructed,
    SearchParams,
    StabilityPoint,
    WallFailure,
    central_charge,
    exp_point,
    fibration_obstruction,
    is_positive_plane,
    mukai_pair,
    ns_of_mirror,
    p0_violations,
    plane_gram,
    search_kahler_class,
    verify_reality,
    wall_intersection,
    wall_member,
    wall_table,
)
from k3stab.intmat import signature_of
from k3stab.stability import _dual_eta
from oracles import (
    bounded_p0_violations,
    dual_eta,
    phase_aligned,
    solve_integer,
    triple_charge,
    triple_plane_gram,
)

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
ZERO = LatticeVector.zero(22)


def test_mukai_pair_anchors():
    w = MukaiVector(0, ZERO, -1)
    wstar = MukaiVector(1, ZERO, 0)
    assert mukai_pair(w, wstar) == 1
    assert mukai_pair(MukaiVector(1, ZERO, 1), MukaiVector(1, ZERO, 1)) == -2


def test_mukai_pair_symmetric_and_matches_gram():
    rng = random.Random(3)
    for _ in range(100):
        u = MukaiVector(
            rng.randint(-3, 3),
            LatticeVector([rng.randint(-2, 2) for _ in range(22)]),
            rng.randint(-3, 3),
        )
        v = MukaiVector(
            rng.randint(-3, 3),
            LatticeVector([rng.randint(-2, 2) for _ in range(22)]),
            rng.randint(-3, 3),
        )
        lhs = mukai_pair(u, v)
        assert lhs == mukai_pair(v, u)
        assert lhs == pair(MUKAI, u.to_ambient(), v.to_ambient())


_RATIONALS = st.fractions(-3, 3, max_denominator=5)


def _field_vector(m):
    """A GAMMA vector over Q(sqrt m), m = 0 meaning Q, with sparse coordinates."""
    coord = st.builds(QuadScalar, _RATIONALS, _RATIONALS if m else st.just(0), st.just(m))
    return st.lists(st.one_of(st.just(QuadScalar(0)), coord), min_size=22, max_size=22).map(
        LatticeVector
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_central_charge_and_plane_gram_match_complex_triples(data):
    m = data.draw(st.sampled_from([0, 2, 3, 23]))
    psi = StabilityPoint(B=data.draw(_field_vector(m)), omega=data.draw(_field_vector(m)))
    d = st.lists(st.integers(-3, 3), min_size=22, max_size=22).map(LatticeVector.from_ints)
    v = MukaiVector(data.draw(st.integers(-3, 3)), data.draw(d), data.draw(st.integers(-3, 3)))
    assert central_charge(psi, v) == triple_charge(psi, v)
    assert plane_gram(psi) == triple_plane_gram(psi)


def test_exp_point_examples(sc28):
    psi = sc28.psi
    assert psi.s_part == QuadComplex(-4)
    # B = 0: third component is -omega^2/2
    q = sc28.charge.q
    assert exp_point(ZERO, q).s_part == QuadComplex(-4)
    # orthogonal B: real third component
    b = GAMMA.basis(6)
    psi2 = exp_point(b, q)
    assert psi2.s_part == QuadComplex(QuadScalar(Fraction(-2 - 8, 2)))
    with pytest.raises(NotPositive):
        exp_point(ZERO, GAMMA.basis(6))


def test_central_charge_anchors(sc28):
    psi = sc28.psi
    assert central_charge(psi, MukaiVector(0, ZERO, -1)) == QuadComplex(1)
    assert central_charge(psi, MukaiVector(1, ZERO, 1)) == QuadComplex(3)


def test_imaginary_part_is_minus_b_dot_omega():
    b = GAMMA.basis(5)  # b.q = 1 for q = e1 + 4 e2 in U3
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    psi = exp_point(b, q)
    z = central_charge(psi, MukaiVector(1, ZERO, 1))
    assert z.im == -pair(GAMMA, b, q)


def test_expansion_branches_agree_randomly():
    rng = random.Random(9)
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    for _ in range(1000):
        b = LatticeVector([rng.randint(-2, 2) if i > 5 else 0 for i in range(22)])
        psi = exp_point(b, q)
        v = MukaiVector(
            rng.randint(-2, 2),
            LatticeVector([rng.randint(-1, 1) for _ in range(22)]),
            rng.randint(-2, 2),
        )
        central_charge(psi, v)  # raises ExpansionMismatch on any disagreement


def test_central_charge_linear(sc28):
    psi = sc28.psi
    rng = random.Random(4)
    for _ in range(50):
        u = MukaiVector(
            rng.randint(-3, 3),
            LatticeVector([rng.randint(-2, 2) for _ in range(22)]),
            rng.randint(-3, 3),
        )
        v = MukaiVector(
            rng.randint(-3, 3),
            LatticeVector([rng.randint(-2, 2) for _ in range(22)]),
            rng.randint(-3, 3),
        )
        assert central_charge(psi, u + v) == central_charge(psi, u) + central_charge(psi, v)


def test_positive_plane(sc28):
    assert is_positive_plane(sc28.psi)
    gram = plane_gram(sc28.psi)
    assert gram == [[QuadScalar(8), QuadScalar(0)], [QuadScalar(0), QuadScalar(8)]]
    # degenerate omega: not a positive plane
    assert not is_positive_plane(StabilityPoint(B=ZERO, omega=GAMMA.basis(2)))
    assert not is_positive_plane(StabilityPoint(B=ZERO, omega=ZERO))


def test_ns_of_mirror(sc28, sc22):
    ns = ns_of_mirror(sc28.triple.Omega_check)
    assert ns.rank == 20
    for v in ns.basis:
        assert pair(GAMMA, v, sc28.triple.Omega_check.re) == 0
        assert pair(GAMMA, v, sc28.triple.Omega_check.im) == 0
    # the obstructing section class lies in the mirror Picard lattice for 2,2
    ns22 = ns_of_mirror(sc22.triple.Omega_check)
    cols = [list(v.int_coords()) for v in ns22.basis]
    matrix = [list(col) for col in zip(*cols)]
    assert solve_integer(matrix, SIGMA0.int_coords()) is not None


def test_ns_rank_drops_for_irrational_period():
    p = GAMMA.basis(2) + GAMMA.basis(3)
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    period = ComplexVector(p + QuadScalar(0, 1, 2) * q, ZERO)
    ns = ns_of_mirror(period)
    assert ns.rank == 20  # two rational constraints from one irrational vector


# ---------------------------------------------------------------------------
# Complete (-2)-class enumeration.


def test_falsifier_finds_sigma0_for_2_2_family(sc22):
    split = sc22.split
    eta = sc22.eta_basis[0]
    dual = _dual_eta(GAMMA, sc22.eta_basis)
    family = [
        2 * F + SIGMA0,
        3 * F + SIGMA0,
        16 * (2 * F + SIGMA0) + eta,
        400 * (2 * F + SIGMA0) + dual,
    ]
    for omega_J in family:
        assert pair(GAMMA, omega_J, omega_J).sign() > 0
        data = hyperkahler_rotate(sc22.charge, sc22.tau, omega_J)
        triple = mirror_period(split, data.Omega_I, data.omega_I, ZERO)
        psi = exp_point(triple.B_check, triple.omega_check)
        hits = p0_violations(psi, triple.Omega_check).roots
        found = {
            (h.r, tuple(h.D.int_coords()), h.s)
            for h in hits
            if h.r == 0 and h.s == 0 and (h.D == SIGMA0 or h.D == -SIGMA0)
        }
        assert len(found) == 2, f"sigma0 hits missing for omega_J={omega_J}"
        for h in hits:
            assert mukai_pair(psi, h) == QuadComplex(0)


def test_falsifier_empty_for_searched_2_8(searched28, sc28):
    enumeration = p0_violations(searched28.psi, searched28.triple.Omega_check)
    assert (enumeration.lattice_rank, enumeration.count, enumeration.roots) == (20, 0, [])
    assert searched28.enumeration == enumeration


def test_falsifier_hits_base_family_member(sc28):
    # with B-check = 0 every Gamma'-root annihilates the stability point
    hit = p0_violations(sc28.psi, sc28.triple.Omega_check, limit=1).roots[0]
    assert hit.r == 0 and hit.s == 0
    assert mukai_pair(sc28.psi, hit) == QuadComplex(0)


def _sort_key(delta):
    return (delta.r, tuple(delta.D.int_coords()), delta.s)


def test_falsifier_is_first_violation(sc28, searched28, sc22):
    """The roots come in (r, D, s) order and `limit` keeps a prefix of them."""
    points = [(sc28.psi, sc28.triple), (searched28.psi, searched28.triple)]
    points.append((sc22.psi, sc22.triple))
    counts = []
    for psi, triple in points:
        full = p0_violations(psi, triple.Omega_check)
        assert full.count == len(full.roots)
        assert full.roots == sorted(full.roots, key=_sort_key)
        assert len(set(full.roots)) == full.count
        assert set(full.roots) == {-h for h in full.roots}
        for limit in (1, 2):
            cut = p0_violations(psi, triple.Omega_check, limit=limit)
            assert cut.roots == full.roots[:limit]
            assert (cut.count, cut.lattice_rank) == (full.count, full.lattice_rank)
        counts.append(full.count)
    assert counts == [482, 0, 488]


def test_complete_list_contains_obstruction_delta(sc22):
    obstruction = fibration_obstruction(sc22.charge, sc22.split)
    roots = p0_violations(sc22.psi, sc22.triple.Omega_check).roots
    assert obstruction.delta in roots and -obstruction.delta in roots
    assert {obstruction.delta.D, -obstruction.delta.D} == {SIGMA0, -SIGMA0}


def test_complete_enumeration_contains_bounded_walk():
    """At the five shipped scenarios every hit of the bounded (r, s) coset
    walk is in the complete list; the complete list also finds roots that
    lie outside the walk's coefficient box."""
    for name, sc in _shipped_scenarios().items():
        complete = p0_violations(sc.psi, sc.triple.Omega_check)
        bounded = bounded_p0_violations(sc.psi, ns_of_mirror(sc.triple.Omega_check), 2)
        assert bounded and set(bounded) <= set(complete.roots), name
        assert complete.count > len(bounded), name


def test_enumeration_needs_a_positive_four_plane(sc28):
    # Im Psi = (q, 0, 0) is Re of this period, so the four vectors span only
    # a positive 3-plane and its complement is indefinite
    psi = exp_point(ZERO, sc28.charge.q)
    period = ComplexVector(sc28.charge.q, sc28.charge.p)
    with pytest.raises(RuntimeError, match="not negative definite"):
        p0_violations(psi, period)


def _naive_p0(psi, ns, bound):
    lat = ns.ambient
    k = ns.rank
    gram = ns.gram()
    c_psi = [mukai_pair(psi, MukaiVector(0, b, 0), lat) for b in ns.basis]
    s_part = psi.s_part
    hits = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        d_norm = sum(coeffs[i] * gram[i][j] * coeffs[j] for i in range(k) for j in range(k))
        base = QuadComplex(0)
        for c, x in zip(c_psi, coeffs):
            if x:
                base = base + x * c
        for r in range(-bound, bound + 1):
            for s in range(-bound, bound + 1):
                if d_norm - 2 * r * s != -2:
                    continue
                value = base - QuadComplex(s) - r * s_part
                if not value:
                    hits.add((r, coeffs, s))
    return hits


@pytest.mark.parametrize("basis_idx", [(0, 1), (0, 1, 6), (0, 1, 6, 7), (2, 3, 6, 7)])
def test_falsifier_matches_naive_scan(basis_idx, sc28):
    """The bounded-walk oracle equals a naive grid scan on small sublattices,
    (2, 3, 6, 7) with an indefinite kernel."""
    sub = Sublattice(GAMMA, [GAMMA.basis(i) for i in basis_idx])
    for b_vec, w_vec in [
        (ZERO, 2 * F + SIGMA0),
        (GAMMA.basis(6), 2 * F + SIGMA0),
        (F, 3 * F + SIGMA0),
    ]:
        psi = exp_point(b_vec, w_vec)
        fast = {
            (h.r, tuple(h.D.int_coords()), h.s) for h in bounded_p0_violations(psi, sub, 2)
        }
        naive = {
            (r, tuple(sub.from_coefficients(x).int_coords()), s)
            for r, x, s in _naive_p0(psi, sub, 2)
        }
        assert fast == naive


# ---------------------------------------------------------------------------
# Obstruction certificate.


def test_obstruction_2_8(sc28):
    ob = fibration_obstruction(sc28.charge, sc28.split)
    assert not ob.obstructed
    assert ob.delta is None
    assert sorted(ob.residuals) == [Fraction(-3), Fraction(3)]


def test_obstruction_2_2(sc22):
    ob = fibration_obstruction(sc22.charge, sc22.split)
    assert ob.obstructed
    assert ob.delta.r == 0 and ob.delta.s == 0
    assert ob.delta.D in (SIGMA0, -SIGMA0)
    assert mukai_pair(sc22.psi, ob.delta) == QuadComplex(0)


def test_obstruction_2_4(sc24):
    ob = fibration_obstruction(sc24.charge, sc24.split)
    assert not ob.obstructed
    assert sorted(ob.residuals) == [Fraction(-1), Fraction(1)]


def test_obstruction_requires_orthogonality(sc28):
    split = make_split(GAMMA.basis(2), GAMMA.basis(3) - GAMMA.basis(2))
    with pytest.raises(PreconditionViolation):
        fibration_obstruction(sc28.charge, split)


# ---------------------------------------------------------------------------
# Walls.


def test_wall_member_examples(sc28):
    psi = sc28.psi
    w_f = mirror_class(sc28.split, F)
    w_s = mirror_class(sc28.split, SIGMA0)
    rep = wall_member(psi, w_f, w_s)
    assert rep.member
    assert rep.z_i == QuadComplex(1) and rep.z_j == QuadComplex(3)
    assert wall_member(psi, w_f, w_f).member
    assert not wall_member(psi, w_f, mirror_class(sc28.split, -F)).member
    # zero charge fails membership
    zero_class = mirror_class(sc28.split, sc28.eta_basis[0])
    assert not wall_member(psi, w_f, zero_class).member


def test_verify_reality_2_8(sc28):
    values = verify_reality(sc28.split, sc28.psi, sc28.pic_basis)
    assert len(values) == 20
    assert values[0][1] == QuadScalar(1)  # fiber class
    assert values[1][1] == QuadScalar(3)  # section class
    assert [v for _, _, v in values] == [mirror_class(sc28.split, c) for c in sc28.pic_basis]


def test_reality_violation_detected(sc28):
    bad_psi = exp_point(GAMMA.basis(5), sc28.charge.q)  # B.omega != 0
    with pytest.raises(RealityViolation):
        verify_reality(sc28.split, bad_psi, [SIGMA0])


def test_reality_preserved_under_scaling(sc28):
    for t in (Fraction(1, 3), Fraction(2), Fraction(7)):
        data = hyperkahler_rotate(sc28.charge, sc28.tau, t * (2 * F + SIGMA0))
        triple = mirror_period(sc28.split, data.Omega_I, data.omega_I, ZERO)
        psi = exp_point(triple.B_check, triple.omega_check)
        verify_reality(sc28.split, psi, sc28.pic_basis)  # must not raise


def test_gamma_prime_charges_scale_invariant(searched28, sc28):
    # under omega_J -> t omega_J the mirror B-field is unchanged, so every
    # Gamma'-class keeps its real charge; only the section-class value moves
    base = dict()
    for t in (1, 2, 5):
        data = hyperkahler_rotate(sc28.charge, sc28.tau, t * searched28.omega_J)
        triple = mirror_period(sc28.split, data.Omega_I, data.omega_I, ZERO)
        psi = exp_point(triple.B_check, triple.omega_check)
        for cls in sc28.eta_basis:
            z = central_charge(psi, mirror_class(sc28.split, cls))
            assert not z.im
            key = tuple(cls.int_coords())
            if t == 1:
                base[key] = z.re
            else:
                assert z.re == base[key]


# ---------------------------------------------------------------------------
# Search and wall intersection.


def test_search_succeeds_2_8(searched28):
    assert searched28.candidates_tried >= 1
    assert len(searched28.charges) == 20
    for _, z in searched28.charges:
        assert z.sign() != 0


def test_search_deterministic(sc28):
    again = search_kahler_class(
        sc28.charge, sc28.split, sc28.tau, sc28.pic_basis, sc28.search, sc28.eta_basis
    )
    rerun = search_kahler_class(
        sc28.charge, sc28.split, sc28.tau, sc28.pic_basis, sc28.search, sc28.eta_basis
    )
    assert again.omega_J == rerun.omega_J
    assert again.candidate_index == rerun.candidate_index


def test_search_fails_fast_on_2_2(sc22):
    with pytest.raises(SearchObstructed) as err:
        search_kahler_class(
            sc22.charge, sc22.split, sc22.tau, sc22.pic_basis, sc22.search, sc22.eta_basis
        )
    assert err.value.obstruction.delta.D in (SIGMA0, -SIGMA0)


def test_search_exhausts_without_perturbation(sc28):
    # with c_eta = 0 the one candidate is omega0 itself
    params = SearchParams(omega0=2 * F + SIGMA0, c_eta=Fraction(0))
    with pytest.raises(SearchExhausted) as err:
        search_kahler_class(
            sc28.charge, sc28.split, sc28.tau, sc28.pic_basis, params, sc28.eta_basis
        )
    assert len(err.value.rejections) == 1
    assert all("zero real charge" in r or "annihilating" in r for _, r in err.value.rejections)


def _shipped_scenarios():
    from pathlib import Path

    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    return {path.stem: scenario_from_file(str(path)) for path in sorted(scenarios.glob("*.json"))}


def test_dual_eta_matches_gauss_jordan():
    cases = _shipped_scenarios()
    assert len(cases) == 5
    cases["form_2_1_2"] = build_scenario(form=[2, 1, 2])
    for name, sc in cases.items():
        eta = _dual_eta(GAMMA, sc.eta_basis)
        assert eta == dual_eta(GAMMA, sc.eta_basis), name
        products = {pair(GAMMA, eta, b) for b in sc.eta_basis}
        assert len(products) == 1 and products.pop().sign() < 0, name


def test_dual_eta_needs_a_negative_definite_basis(sc28):
    # a caller-chosen basis starting with the isotropic class f + sigma0
    with pytest.raises(PreconditionViolation):
        _dual_eta(GAMMA, [F + SIGMA0] + sc28.eta_basis[:3])
    # nonsingular but indefinite: P x = c 1 has a solution, definiteness does not hold
    indefinite = [F, SIGMA0] + sc28.eta_basis[:3]
    neg_gram = [[-pair(GAMMA, x, y).as_int() for y in indefinite] for x in indefinite]
    assert signature_of(neg_gram) == (4, 0, 1)
    with pytest.raises(PreconditionViolation):
        _dual_eta(GAMMA, indefinite)
    params = SearchParams(omega0=sc28.omega_J)
    with pytest.raises(PreconditionViolation):
        search_kahler_class(
            sc28.charge, sc28.split, sc28.tau, sc28.pic_basis, params, [F + SIGMA0]
        )


def test_wall_intersection_2_8(searched28, sc28):
    result = wall_intersection(searched28.charges)
    assert len(result.reports) == 190
    assert result.all_member
    for z in result.charges:
        assert z.sign() > 0


def test_wall_intersection_matches_flipped_central_charges(searched28, sc28):
    """The table built from the flipped values equals the one from a central
    charge of each flipped class: Z(mu(-l)) = -Z(mu(l))."""
    psi = searched28.psi
    result = wall_intersection(searched28.charges)
    assert any(result.flips) and not all(result.flips)
    flipped = [-cls if flip else cls for cls, flip in zip(sc28.pic_basis, result.flips)]
    zs = [central_charge(psi, mirror_class(sc28.split, cls)) for cls in flipped]
    assert [z.re for z in zs] == result.charges and not any(z.im for z in zs)
    reference = wall_table(zs)
    assert [(r.i, r.j, r.member, r.z_i, r.z_j) for r in result.reports] == [
        (r.i, r.j, r.member, r.z_i, r.z_j) for r in reference
    ]


def test_wall_intersection_rejects_zero_charge(sc28):
    charges = [(cls, z) for cls, z, _ in verify_reality(sc28.split, sc28.psi, sc28.pic_basis)]
    with pytest.raises(WallFailure):
        wall_intersection(charges)


# ---------------------------------------------------------------------------
# Rewritten kernels against the code they replaced.


def test_wall_table_matches_wall_member(sc28, searched28):
    vectors = [mirror_class(sc28.split, cls) for cls in sc28.pic_basis]
    mixed = [-v for v in vectors[:4]] + vectors[4:]
    for psi, vs in ((sc28.psi, vectors), (searched28.psi, vectors), (searched28.psi, mixed)):
        reports = wall_table([central_charge(psi, v) for v in vs])
        assert [(r.i, r.j) for r in reports] == list(itertools.combinations(range(len(vs)), 2))
        for rep in reports:
            ref = wall_member(psi, vs[rep.i], vs[rep.j])
            assert (rep.member, rep.z_i, rep.z_j) == (ref.member, ref.z_i, ref.z_j)
    assert not all(r.member for r in wall_table([central_charge(searched28.psi, v) for v in mixed]))


@st.composite
def _charge_lists(draw):
    """QuadComplex charges over Q or one Q(sqrt m): a few base charges, some
    of them zero, real or imaginary, and rational multiples of either sign of
    them, so that aligned and anti-aligned pairs both occur."""
    m = draw(st.sampled_from([0, 2, 5]))
    part = st.builds(QuadScalar, _RATIONALS, _RATIONALS if m else st.just(0), st.just(m))
    zero = st.just(QuadScalar(0))
    base = st.one_of(
        st.builds(QuadComplex, zero, zero),
        st.builds(QuadComplex, part, zero),
        st.builds(QuadComplex, zero, part),
        st.builds(QuadComplex, part, part),
    )
    bases = draw(st.lists(base, min_size=1, max_size=4))
    factors = st.fractions(-3, 3, max_denominator=4)
    picks = st.tuples(st.sampled_from(bases), factors)
    return [z * f for z, f in draw(st.lists(picks, min_size=2, max_size=8))]


@settings(max_examples=200, deadline=None)
@given(_charge_lists())
def test_wall_table_matches_phase_aligned_oracle(zs):
    reports = wall_table(zs)
    assert [(r.i, r.j) for r in reports] == list(itertools.combinations(range(len(zs)), 2))
    assert [r.member for r in reports] == [phase_aligned(r.z_i, r.z_j) for r in reports]


def test_wall_table_phase_examples():
    one, i = QuadComplex(1), QuadComplex(0, 1)
    z = QuadComplex(QuadScalar(1, 1, 2), QuadScalar(-3))
    zs = [one, 2 * one, -one, i, -i, z, z * Fraction(1, 3), -z, QuadComplex(0), z.conj()]
    members = {(r.i, r.j) for r in wall_table(zs) if r.member}
    assert members == {(0, 1), (5, 6)}


def test_s_part_memo_is_the_value(sc28):
    fresh = StabilityPoint(sc28.psi.B, sc28.psi.omega)
    d = ComplexVector(fresh.B, fresh.omega)
    expected = pair(GAMMA, d, d) * Fraction(1, 2)
    assert fresh.s_part == expected
    assert fresh.s_part is fresh.s_part
    assert fresh == StabilityPoint(sc28.psi.B, sc28.psi.omega)
    assert hash(fresh) == hash(StabilityPoint(sc28.psi.B, sc28.psi.omega))


def _reference_ns(omega_check, lat=GAMMA):
    """Oracle for NS(mirror): one pairing per basis vector, and the rational
    and the radical part of each functional scaled to an integer row by its
    own denominator."""
    from math import lcm

    from k3stab.intmat import kernel_basis

    rows = []
    for vec in (omega_check.re, omega_check.im):
        coeffs = [pair(lat, vec, lat.basis(i)) for i in range(lat.rank)]
        for part in ("a", "b"):
            cs = [getattr(c, part) for c in coeffs]
            if any(cs):
                denom = lcm(*(x.denominator for x in cs))
                rows.append([int(x * denom) for x in cs])
    if not rows:
        return tuple(lat.basis(i) for i in range(lat.rank))
    return tuple(lat.vector(v) for v in kernel_basis(rows, lat.rank))


def test_orth_complement_matches_per_basis_rows():
    periods = {name: sc.triple.Omega_check for name, sc in _shipped_scenarios().items()}
    assert len(periods) == 5
    # a perturbed search candidate over sqrt(23)
    sc = build_scenario(form=[4, 1, 6])
    omega = sc.omega_J + Fraction(1, 10) * sc.eta_basis[0]
    data = hyperkahler_rotate(sc.charge, sc.tau, omega)
    period = mirror_period(sc.split, data.Omega_I, data.omega_I, ZERO).Omega_check
    assert {c.m for c in period.re.coords + period.im.coords} == {0, 23}
    periods["perturbed_4_1_6"] = period
    for name, period in periods.items():
        ns = orth_complement(GAMMA, [period.re, period.im])
        assert ns.basis == _reference_ns(period), name
        for v in ns.basis:
            assert not pair(GAMMA, v, period.re) and not pair(GAMMA, v, period.im)
