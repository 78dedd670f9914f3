import itertools
import random
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3stab.attractor import (
    hyperkahler_rotate,
    threefold_central_charge,
    threefold_central_charges,
)
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.forms import enumerate_reduced
from k3stab.lattice import (
    GAMMA,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
)
from k3stab.mirror import PreconditionViolation, mirror_class, mirror_classes, mirror_period
from k3stab.scenario import build_scenario, scenario_from_file
from k3stab.stability import (
    RealityViolation,
    RootEnumeration,
    SearchExhausted,
    SearchObstructed,
    StabilityPoint,
    central_charge,
    central_charges,
    fibration_obstruction,
    mukai_pair,
    ns_of_mirror,
    p0_violations,
    search_kahler_class,
    verify_reality,
    wall_intersection,
    wall_count,
    wall_member,
)
from k3stab.stability import _dual_eta
from oracles import (
    MUKAI,
    bounded_p0_violations,
    dense_fibration,
    cone_violation,
    dual_eta,
    expanded_charge,
    explicit_charge,
    from_coefficients,
    mukai_ambient,
    mukai_p0_violations,
    per_class_charges,
    per_class_reality,
    per_class_threefold_charges,
    phase_aligned,
    phase_key,
    quad_pair,
    solve_integer,
    triple_pair,
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
        assert lhs == quad_pair(MUKAI, mukai_ambient(u), mukai_ambient(v))
        assert lhs == triple_pair(u, v)


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
    """Z(v) matches the complex-triple pairing, and the Mukai Gram matrix of
    Re Psi and Im Psi is omega^2 times the identity for every B and omega,
    so omega^2 > 0 is the positive-plane test."""
    m = data.draw(st.sampled_from([0, 2, 3, 23]))
    psi = StabilityPoint(B=data.draw(_field_vector(m)), omega=data.draw(_field_vector(m)))
    d = st.lists(st.integers(-3, 3), min_size=22, max_size=22).map(LatticeVector.from_ints)
    v = MukaiVector(data.draw(st.integers(-3, 3)), data.draw(d), data.draw(st.integers(-3, 3)))
    assert central_charge(psi, v) == triple_pair(psi, v)
    w = pair(psi.omega, psi.omega)
    assert triple_plane_gram(psi) == [[w, QuadScalar(0)], [QuadScalar(0), w]]


def test_exp_point_examples(sc28):
    psi = sc28.psi
    assert psi.s_part == QuadComplex(-4)
    # B = 0: third component is -omega^2/2
    q = sc28.charge.q
    assert StabilityPoint(ZERO, q).s_part == QuadComplex(-4)
    # orthogonal B: real third component
    b = GAMMA.basis(6)
    psi2 = StabilityPoint(b, q)
    assert psi2.s_part == QuadComplex(QuadScalar(Fraction(-2 - 8, 2)))


def test_central_charge_anchors(sc28):
    psi = sc28.psi
    assert central_charge(psi, MukaiVector(0, ZERO, -1)) == QuadComplex(1)
    assert central_charge(psi, MukaiVector(1, ZERO, 1)) == QuadComplex(3)


def test_imaginary_part_is_minus_b_dot_omega():
    b = GAMMA.basis(5)  # b.q = 1 for q = e1 + 4 e2 in U3
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    psi = StabilityPoint(b, q)
    z = central_charge(psi, MukaiVector(1, ZERO, 1))
    assert z.im == -pair(b, q)


def test_expansion_branches_agree_randomly():
    rng = random.Random(9)
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    for _ in range(1000):
        b = LatticeVector([rng.randint(-2, 2) if i > 5 else 0 for i in range(22)])
        psi = StabilityPoint(b, q)
        v = MukaiVector(
            rng.randint(-2, 2),
            LatticeVector([rng.randint(-1, 1) for _ in range(22)]),
            rng.randint(-2, 2),
        )
        assert central_charge(psi, v) == expanded_charge(psi, v)


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
    gram = triple_plane_gram(sc28.psi)
    assert gram == [[QuadScalar(8), QuadScalar(0)], [QuadScalar(0), QuadScalar(8)]]
    # degenerate omega: the plane Gram omega^2 I is not positive
    zero = QuadScalar(0)
    for omega in (GAMMA.basis(2), ZERO):
        assert triple_plane_gram(StabilityPoint(ZERO, omega)) == [[zero, zero], [zero, zero]]


def test_ns_of_mirror(sc28, sc22):
    ns = ns_of_mirror(sc28.triple.Omega_check)
    assert ns.rank == 20
    for v in ns.basis:
        assert pair(v, sc28.triple.Omega_check.re) == 0
        assert pair(v, sc28.triple.Omega_check.im) == 0
    # the obstructing section class lies in the mirror Picard lattice for 2,2
    ns22 = ns_of_mirror(sc22.triple.Omega_check)
    cols = [list(v.int_coords()) for v in ns22.basis]
    matrix = [list(col) for col in zip(*cols)]
    assert solve_integer(matrix, SIGMA0.int_coords()) is not None


def test_ns_rank_drops_for_irrational_period():
    p = GAMMA.basis(2) + GAMMA.basis(3)
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    period = QuadComplex(p + QuadScalar(0, 1, 2) * q, ZERO)
    ns = ns_of_mirror(period)
    assert ns.rank == 20  # two rational constraints from one irrational vector


# ---------------------------------------------------------------------------
# Complete (-2)-class enumeration.


def test_falsifier_finds_sigma0_for_2_2_family(sc22):
    split = sc22.split
    eta = sc22.eta_basis[0]
    dual = _dual_eta(sc22)
    family = [
        2 * F + SIGMA0,
        3 * F + SIGMA0,
        16 * (2 * F + SIGMA0) + eta,
        400 * (2 * F + SIGMA0) + dual,
    ]
    for omega_J in family:
        assert pair(omega_J, omega_J).sign() > 0
        Omega_I = hyperkahler_rotate(sc22.Omega, omega_J)
        triple = mirror_period(split, Omega_I, sc22.Omega.im, ZERO)
        psi = StabilityPoint(triple.B_check, triple.omega_check)
        hits = p0_violations(sc22, omega_J).roots
        found = {
            (h.r, tuple(h.D.int_coords()), h.s)
            for h in hits
            if h.r == 0 and h.s == 0 and (h.D == SIGMA0 or h.D == -SIGMA0)
        }
        assert len(found) == 2, f"sigma0 hits missing for omega_J={omega_J}"
        for h in hits:
            assert triple_pair(psi, h) == QuadComplex(0)


def test_falsifier_empty_for_searched_2_8(searched28, sc28):
    enumeration = p0_violations(sc28, searched28.omega_J)
    assert (enumeration.lattice_rank, enumeration.roots) == (20, [])
    assert searched28.enumeration == enumeration


def test_falsifier_hits_base_family_member(sc28):
    # with B-check = 0 every Gamma'-root annihilates the stability point
    hit = p0_violations(sc28, sc28.omega_J).roots[0]
    assert hit.r == 0 and hit.s == 0
    assert triple_pair(sc28.psi, hit) == QuadComplex(0)


def _sort_key(delta):
    return (delta.r, tuple(delta.D.int_coords()), delta.s)


def test_falsifier_is_first_violation(sc28, searched28, sc22):
    """The roots come in (r, D, s) order, each once, closed under negation."""
    points = [(sc28, sc28.omega_J), (sc28, searched28.omega_J), (sc22, sc22.omega_J)]
    counts = []
    for sc, omega in points:
        full = p0_violations(sc, omega)
        assert full.roots == sorted(full.roots, key=_sort_key)
        assert len(set(full.roots)) == len(full.roots)
        assert set(full.roots) == {-h for h in full.roots}
        counts.append(len(full.roots))
    assert counts == [482, 0, 488]


def test_complete_list_contains_obstruction_delta(sc22):
    obstruction = fibration_obstruction(sc22.charge, sc22.split)
    roots = p0_violations(sc22, sc22.omega_J).roots
    assert obstruction.delta in roots and -obstruction.delta in roots
    assert {obstruction.delta.D, -obstruction.delta.D} == {SIGMA0, -SIGMA0}


def test_complete_enumeration_contains_bounded_walk():
    """At the five shipped scenarios every hit of the bounded (r, s) coset
    walk is in the complete list; the complete list also finds roots that
    lie outside the walk's coefficient box."""
    for name, sc in _shipped_scenarios().items():
        complete = p0_violations(sc, sc.omega_J)
        bounded = bounded_p0_violations(sc.psi, ns_of_mirror(sc.triple.Omega_check), 2)
        assert bounded and set(bounded) <= set(complete.roots), name
        assert len(complete.roots) > len(bounded), name


def test_enumeration_needs_a_positive_four_plane(sc28):
    # Im Psi = (q, 0, 0) is Re of this period, so the four vectors span only
    # a positive 3-plane and its complement is indefinite
    psi = StabilityPoint(ZERO, sc28.charge.q)
    period = QuadComplex(sc28.charge.q, sc28.charge.p)
    with pytest.raises(RuntimeError, match="not negative definite"):
        mukai_p0_violations(psi, period)


def _mirror_point(sc, omega):
    """Psi and the mirror period of the data at omega with B = 0."""
    triple = mirror_period(sc.split, hyperkahler_rotate(sc.Omega, omega), sc.Omega.im, ZERO)
    return StabilityPoint(triple.B_check, triple.omega_check), triple.Omega_check


def _same_roots_as_mukai_oracle(sc, omega):
    """`p0_violations` after asserting that it equals the Mukai-lattice
    oracle at the mirror of (omega, B = 0) in lattice rank and in root
    order."""
    got = p0_violations(sc, omega)
    want = mukai_p0_violations(*_mirror_point(sc, omega))
    assert (got.lattice_rank, got.roots) == (want.lattice_rank, want.roots), sc.echo()
    return got


def _roots_at_base_and_candidate(monkeypatch, scenarios):
    """The enumeration of each scenario at its omega_J and, through the
    search, at the search's candidate, each checked against the oracle;
    returns the enumerations at the candidates, in order."""
    import k3stab.stability

    at_candidate = []

    def checked(*args):
        at_candidate.append(_same_roots_as_mukai_oracle(*args))
        return at_candidate[-1]

    monkeypatch.setattr(k3stab.stability, "p0_violations", checked)
    for sc in scenarios:
        _same_roots_as_mukai_oracle(sc, sc.omega_J)
        try:
            search_kahler_class(sc)
        except (SearchExhausted, SearchObstructed):
            pass
    return at_candidate


@pytest.mark.parametrize("fibration", ["standard", "dense"])
def test_root_enumeration_in_gamma_equals_the_mukai_oracle(monkeypatch, fibration):
    """On every reduced form with D <= 40, at omega_J and at the search's
    candidate, with the standard fibration classes and with dense ones: the
    enumeration in GAMMA through the mirror isometry has the lattice rank
    and the roots, in order, of the enumeration in the Mukai lattice."""
    split = {} if fibration == "standard" else dict(zip(("f", "sigma0"), dense_fibration()))
    forms = [form for disc in range(1, 41) for form in enumerate_reduced(disc)]
    scenarios = [build_scenario(form=form.as_list(), **split) for form in forms]
    # [2,0,2] is obstructed before its search reaches a candidate
    assert len(_roots_at_base_and_candidate(monkeypatch, scenarios)) == len(forms) - 1 == 39


def test_root_enumeration_in_gamma_on_the_e_root_and_irrational_cases(monkeypatch):
    """The mirror of the (r, s) root e = (1, 0, 1) on [2,0,2], where
    D = 2 p^2; the root e2(U3) - e1(U3) that exhausts the search on [2,1,2];
    and a candidate over Q(sqrt 2) from an irrational c_eta: each equal to
    the Mukai-lattice oracle."""
    sc22 = build_scenario(form=[2, 0, 2])
    base = _same_roots_as_mukai_oracle(sc22, sc22.omega_J)
    assert MukaiVector(0, SIGMA0, 0) in base.roots and MukaiVector(0, -SIGMA0, 0) in base.roots
    root = LatticeVector.from_ints([0, 0, 0, 0, -1, 1] + [0] * 16)
    irrational = build_scenario(form=[2, 0, 8], search={"c_eta": "sqrt(2)"})
    at_candidate = _roots_at_base_and_candidate(
        monkeypatch, [build_scenario(form=[2, 1, 2]), irrational]
    )
    assert [r.D for r in at_candidate[0].roots] == [root, -root]
    assert irrational.result.omega_J.m == 2 and at_candidate[1].roots == []


def test_root_enumeration_takes_only_its_kaehler_class():
    """On diag(2,8) with B = e8a.1 the enumeration at omega_J is that of the
    mirror of (omega_J, B = 0), whatever the scenario's B: it equals the
    Mukai-lattice oracle there, with rank 20 and diag(2,8)'s 482 roots."""
    sc = build_scenario(form=[2, 0, 8], B=[0] * 6 + [1] + [0] * 15)
    assert sc.B
    enumeration = _same_roots_as_mukai_oracle(sc, sc.omega_J)
    assert (enumeration.lattice_rank, len(enumeration.roots)) == (20, 482)


def test_search_re_verifies_every_root(monkeypatch, sc28):
    """The search checks each root it is given against its own Psi: a class
    (0, q, 0), whose charge there is 8i, is refused as a false positive."""
    import k3stab.stability

    fake = RootEnumeration(lattice_rank=20, roots=[MukaiVector(0, sc28.charge.q, 0)])
    monkeypatch.setattr(k3stab.stability, "p0_violations", lambda sc, omega: fake)
    with pytest.raises(AssertionError, match="pairs with Psi"):
        search_kahler_class(sc28)


def _naive_p0(psi, ns, bound):
    k = ns.rank
    gram = ns.gram()
    c_psi = [triple_pair(psi, MukaiVector(0, b, 0)) for b in ns.basis]
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
    sub = Sublattice([GAMMA.basis(i) for i in basis_idx])
    for b_vec, w_vec in [
        (ZERO, 2 * F + SIGMA0),
        (GAMMA.basis(6), 2 * F + SIGMA0),
        (F, 3 * F + SIGMA0),
    ]:
        psi = StabilityPoint(b_vec, w_vec)
        fast = {
            (h.r, tuple(h.D.int_coords()), h.s) for h in bounded_p0_violations(psi, sub, 2)
        }
        naive = {
            (r, tuple(from_coefficients(sub, x).int_coords()), s)
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
    assert triple_pair(sc22.psi, ob.delta) == QuadComplex(0)


def test_obstruction_2_4(sc24):
    ob = fibration_obstruction(sc24.charge, sc24.split)
    assert not ob.obstructed
    assert sorted(ob.residuals) == [Fraction(-1), Fraction(1)]


def test_obstruction_requires_orthogonality():
    # the case analysis needs f and sigma0 orthogonal to the charge; assembly
    # checks that once, for every command.  Here f = e1(U2) pairs to 1 with p
    f, sigma0 = GAMMA.basis(2), GAMMA.basis(3) - GAMMA.basis(2)
    with pytest.raises(PreconditionViolation, match="fibration classes must be orthogonal"):
        build_scenario(form=[2, 0, 8], f=f, sigma0=sigma0)


# ---------------------------------------------------------------------------
# Walls.


def test_wall_member_examples(sc28):
    psi = sc28.psi
    w_f = mirror_class(sc28.split, F)
    w_s = mirror_class(sc28.split, SIGMA0)
    assert wall_member(psi, w_f, w_s) is True
    assert central_charge(psi, w_f) == QuadComplex(1)
    assert central_charge(psi, w_s) == QuadComplex(3)
    assert wall_member(psi, w_f, w_f) is True
    assert wall_member(psi, w_f, mirror_class(sc28.split, -F)) is False
    # zero charge fails membership
    zero_class = mirror_class(sc28.split, sc28.eta_basis[0])
    assert wall_member(psi, w_f, zero_class) is False


def test_verify_reality_2_8(sc28):
    values = verify_reality(sc28.split, sc28.psi, sc28.pic_basis)
    assert len(values) == 20
    assert values[0][1] == QuadScalar(1)  # fiber class
    assert values[1][1] == QuadScalar(3)  # section class
    assert [v for _, _, v in values] == [mirror_class(sc28.split, c) for c in sc28.pic_basis]


def test_reality_violation_detected(sc28):
    bad_psi = StabilityPoint(GAMMA.basis(5), sc28.charge.q)  # B.omega != 0
    with pytest.raises(RealityViolation):
        verify_reality(sc28.split, bad_psi, [SIGMA0])


# Points of the charge passes: over Q (diag(2,8), D = 16) and over
# Q(sqrt 23) ([4,1,6]), each with B = 0, a rational B and, over Q(sqrt 23),
# an irrational B; every B has B.f = 0 (its e2(U1) entry is 0), as assembly
# requires, and `walls`, `verify 6.2` and `charge` accept B != 0.
_B_RATIONAL = ["1/2", 0, 1, -1, 0, 2, "-3/2"] + [0] * 15
_B_IRRATIONAL = ["sqrt(23)", 0, 0, 1, "1/3 - sqrt(23)"] + [0] * 17
_CHARGE_POINTS = [
    ((2, 0, 8), None),
    ((2, 0, 8), tuple(_B_RATIONAL)),
    ((4, 1, 6), None),
    ((4, 1, 6), tuple(_B_RATIONAL)),
    ((4, 1, 6), tuple(_B_IRRATIONAL)),
]


@cache
def _charge_point(form, B):
    return build_scenario(form=list(form), B=None if B is None else list(B))


# integral classes with a nonzero U' component (l.v = l[1] or l.v* = l[0]),
# so that the core l - a v - b v* of the mirror class is not l
_u_prime_classes = (
    st.lists(st.integers(-3, 3), min_size=22, max_size=22)
    .filter(lambda a: a[0] or a[1])
    .map(LatticeVector.from_ints)
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CHARGE_POINTS), st.lists(_u_prime_classes, min_size=1, max_size=6))
def test_charge_passes_equal_the_per_class_loops(point, classes):
    """The mirror classes, mirror central charges and threefold charges of
    one pass each equal the one-class-at-a-time loops (the oracles), as do
    their one-element cases, on classes whose core is not the class."""
    sc = _charge_point(*point)
    expected = per_class_charges(sc.split, sc.psi, classes)
    mus = mirror_classes(sc.split, classes)
    assert mus == [mu for _, mu, _ in expected]
    assert all(mu.D != cls for cls, mu in zip(classes, mus))
    zs = central_charges(sc.psi, mus)
    assert zs == [z for _, _, z in expected]
    assert [central_charge(sc.psi, mirror_class(sc.split, cls)) for cls in classes] == zs
    threefold = per_class_threefold_charges(sc.Omega_I, classes)
    assert threefold_central_charges(sc.Omega_I, classes) == threefold
    assert [threefold_central_charge(sc.Omega_I, cls) for cls in classes] == threefold
    assert verify_reality(sc.split, sc.psi, sc.pic_basis) == per_class_reality(
        sc.split, sc.psi, sc.pic_basis
    )


_perturbations = st.lists(st.integers(-1, 1), min_size=22, max_size=22).map(
    LatticeVector.from_ints
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CHARGE_POINTS), _perturbations)
@example(((2, 0, 8), None), GAMMA.basis(6))
def test_reality_violation_names_the_first_non_real_class(point, x):
    """At a point whose omega is moved off the scenario's by x, as the
    reality tests above perturb it, `verify_reality` raises at the first
    non-real charge in basis order with its class and complex value, as the
    per-class loop does, and otherwise returns the loop's values."""
    sc = _charge_point(*point)
    bad = StabilityPoint(sc.psi.B, sc.psi.omega + x)
    try:
        expected = per_class_reality(sc.split, bad, sc.pic_basis)
    except RealityViolation as exc:
        with pytest.raises(RealityViolation) as raised:
            verify_reality(sc.split, bad, sc.pic_basis)
        assert raised.value.cls == exc.cls and raised.value.value == exc.value
        assert str(raised.value) == str(exc)
    else:
        assert verify_reality(sc.split, bad, sc.pic_basis) == expected


def test_reality_violation_is_not_always_the_first_class(sc28):
    """The perturbation of the example above leaves f and sigma0 real (their
    mirror cores are 0 and B = 0), so the class named is a later one."""
    bad = StabilityPoint(sc28.psi.B, sc28.psi.omega + GAMMA.basis(6))
    with pytest.raises(RealityViolation) as raised:
        verify_reality(sc28.split, bad, sc28.pic_basis)
    assert raised.value.cls in sc28.eta_basis
    assert raised.value.value.im


def test_reality_preserved_under_scaling(sc28):
    for t in (Fraction(1, 3), Fraction(2), Fraction(7)):
        Omega_I = hyperkahler_rotate(sc28.Omega, t * (2 * F + SIGMA0))
        triple = mirror_period(sc28.split, Omega_I, sc28.Omega.im, ZERO)
        psi = StabilityPoint(triple.B_check, triple.omega_check)
        verify_reality(sc28.split, psi, sc28.pic_basis)  # must not raise


def test_gamma_prime_charges_scale_invariant(searched28, sc28):
    # under omega_J -> t omega_J the mirror B-field is unchanged, so every
    # Gamma'-class keeps its real charge; only the section-class value moves
    base = dict()
    for t in (1, 2, 5):
        Omega_I = hyperkahler_rotate(sc28.Omega, t * searched28.omega_J)
        triple = mirror_period(sc28.split, Omega_I, sc28.Omega.im, ZERO)
        psi = StabilityPoint(triple.B_check, triple.omega_check)
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
    again = search_kahler_class(sc28)
    rerun = search_kahler_class(sc28)
    assert again.omega_J == rerun.omega_J
    assert again.candidate_index == rerun.candidate_index


def test_search_fails_fast_on_2_2(sc22):
    with pytest.raises(SearchObstructed) as err:
        search_kahler_class(sc22)
    assert err.value.obstruction.delta.D in (SIGMA0, -SIGMA0)


def test_search_exhausts_without_perturbation():
    # with c_eta = 0 the one candidate is omega_J = 2f + sigma0 itself
    sc = build_scenario(form=[2, 0, 8], search={"c_eta": "0"})
    with pytest.raises(SearchExhausted) as err:
        search_kahler_class(sc)
    assert len(err.value.rejections) == 1
    assert all("zero real charge" in r or "annihilating" in r for _, r in err.value.rejections)


def test_search_rejects_a_base_outside_the_cone(sc28):
    # omega0 = -(2f + sigma0): positive square, but omega0.f = -1.  The
    # search's cone test refuses it as a base, and assembly runs that test at
    # omega_J, so no scenario (and no search) can start from it
    base = -sc28.omega_J
    assert cone_violation(base, F, "base") == (
        "base does not pair positively with the fiber class"
    )
    with pytest.raises(
        PreconditionViolation, match="omega_J does not pair positively with the fiber class"
    ):
        build_scenario(form=[2, 0, 8], omega_J=base)


def _halvings(sc):
    """The search's halvings by the oracle cone test on each built
    omega_k = omega_J + 2^-k c_eta eta: (least k inside the cone, the
    rejections before it)."""
    eta = sc.eta if sc.eta is not None else _dual_eta(sc)
    step = sc.c_eta * eta
    rejections, k = [], 0
    while (reason := cone_violation(sc.omega_J + Fraction(1, 2**k) * step, F, "candidate")):
        rejections.append((k, reason))
        k += 1
    return k, rejections


# eta = -(2f + sigma0) = -omega_J with c_eta = 4: omega_k = (1 - 2^(2-k)) omega_J
# is -3 omega_J and -omega_J (positive square, negative on f), then 0, then
# omega_J / 2, so every reason occurs before the full check fails
_AGAINST_OMEGA_J = {"c_eta": "4", "eta": [-1, -1] + [0] * 20}


@pytest.mark.parametrize(
    "form, search",
    [
        ([2, 0, 8], {"c_eta": "1000000"}),
        ([4, 1, 6], {"c_eta": "1000*sqrt(23)"}),
        ([2, 1, 2], None),
        ([2, 1, 2], {"c_eta": "1000"}),
        ([2, 0, 8], _AGAINST_OMEGA_J),
    ],
    ids=["2-0-8-large", "4-1-6-sqrt23", "2-1-2", "2-1-2-large", "against-omega-J"],
)
def test_halvings_match_the_built_candidates(form, search):
    """The cone test on the five coefficients takes the same k, with the same
    rejections in the same order, as the cone test on each built candidate."""
    sc = build_scenario(form=form, search=search)
    k, rejections = _halvings(sc)
    try:
        result = search_kahler_class(sc)
    except SearchExhausted as err:
        assert err.rejections[:-1] == rejections
        assert err.rejections[-1][0] == k
    else:
        assert (result.candidate_index, result.candidates_tried) == (k, k + 1)
        step = sc.c_eta * _dual_eta(sc)
        assert result.omega_J == sc.omega_J + Fraction(1, 2**k) * step
    if search == _AGAINST_OMEGA_J:
        fiber = "candidate does not pair positively with the fiber class"
        square = "candidate has nonpositive square"
        assert rejections == [(0, fiber), (1, fiber), (2, square)]


class _BuiltCandidate(Exception):
    pass


def test_cone_test_pairs_five_times(monkeypatch):
    """The halvings pair nothing: a = w0^2, b = w0.step, c = step^2,
    e = w0.f and g = step.f are paired once, here over k = 28 halvings."""
    import k3stab.stability

    sc = build_scenario(form=[2, 0, 8], search={"c_eta": "1000000"})
    assert search_kahler_class(sc).candidate_index == 28
    calls = []
    monkeypatch.setattr(k3stab.stability, "pair", lambda *a: calls.append(a) or pair(*a))

    def stop(Omega, omega):  # the first step after the cone test
        raise _BuiltCandidate(omega)

    monkeypatch.setattr(k3stab.stability, "hyperkahler_rotate", stop)
    with pytest.raises(_BuiltCandidate):
        search_kahler_class(sc)
    assert len(calls) == 5


def test_central_charge_pairs_twice(monkeypatch, sc28):
    import k3stab.stability

    psi = StabilityPoint(sc28.psi.B, sc28.psi.omega)
    psi.s_part  # kept on the instance
    calls = []
    monkeypatch.setattr(k3stab.stability, "pair", lambda *a: calls.append(a) or pair(*a))
    for v in (MukaiVector(0, SIGMA0, -1), MukaiVector(2, SIGMA0 + F, 3)):
        calls.clear()
        assert central_charge(psi, v) == expanded_charge(psi, v)
        assert len(calls) == 2


@cache
def _form_scenario(form):
    return build_scenario(form=list(form))


_combination = st.tuples(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.lists(st.integers(-2, 2), min_size=18, max_size=18),
)


@pytest.mark.parametrize("form", [(2, 0, 8), (4, 1, 6)])
@given(_combination, _combination)
@settings(max_examples=60, deadline=None)
def test_light_cone_lemma(form, x_coeffs, y_coeffs):
    # why the search's cone test needs no omega.omega0 test: in (p, q)^perp, of
    # signature (1,19), two classes of positive square that pair positively
    # with f pair positively with each other, omega_J among them
    sc = _form_scenario(form)

    def combine(a, b, cs):
        out = a * sc.omega_J + b * F
        for c, eta in zip(cs, sc.eta_basis):
            out = out + c * eta
        return out

    inside = []
    for coeffs in (x_coeffs, y_coeffs):
        omega = combine(*coeffs)
        if cone_violation(omega, F, "omega") is None:
            assert pair(omega, sc.omega_J).sign() > 0
            inside.append(omega)
    if len(inside) == 2:
        x, y = inside
        xy = pair(x, y)
        assert xy.sign() > 0
        assert (xy * xy - pair(x, x) * pair(y, y)).sign() >= 0


def _shipped_scenarios():
    from pathlib import Path

    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    return {path.stem: scenario_from_file(str(path)) for path in sorted(scenarios.glob("*.json"))}


def test_dual_eta_matches_gauss_jordan():
    cases = _shipped_scenarios()
    assert len(cases) == 5
    cases["form_2_1_2"] = build_scenario(form=[2, 1, 2])
    for name, sc in cases.items():
        eta = _dual_eta(sc)
        assert eta == dual_eta(GAMMA, sc.eta_basis), name
        products = {pair(eta, b) for b in sc.eta_basis}
        assert len(products) == 1 and products.pop().sign() < 0, name


def _assert_dual_eta_matches_the_oracle(sc):
    rows, basis = sc.eta_lattice.dual(), sc.eta_basis
    assert [[sum(map(mul, d, b.A)) for b in basis] for d in rows] == [
        [int(j == k) for k in range(len(basis))] for j in range(len(rows))
    ]
    assert _dual_eta(sc) == dual_eta(GAMMA, basis)


def test_dual_eta_matches_gauss_jordan_on_every_form_up_to_100():
    """On all 158 reduced forms with D <= 100; the rows that the eta basis's
    column reduction replays are dual to it."""
    forms = [form for disc in range(1, 101) for form in enumerate_reduced(disc)]
    assert len(forms) == 158
    for form in forms:
        _assert_dual_eta_matches_the_oracle(build_scenario(form=form.as_list()))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_eta_matches_gauss_jordan_on_explicit_charges(seed):
    """On explicit charges of the sampler of ROADMAP's State (`explicit_charge`):
    entries in [-2, 2] on U2 + U3, an optional +-1 E8 entry, degenerate draws
    discarded."""
    p, q = explicit_charge(random.Random(seed))
    _assert_dual_eta_matches_the_oracle(build_scenario(p=p, q=q))


def test_wall_intersection_2_8(searched28, sc28):
    flips, charges = wall_intersection(searched28.charges)
    assert len(flips) == len(charges) == 20
    for z in charges:
        assert z.sign() > 0


def test_wall_intersection_matches_flipped_central_charges(searched28, sc28):
    """The flipped values are the central charges of the flipped classes,
    Z(mu(-l)) = -Z(mu(l)), and every pair of them is on a wall."""
    psi = searched28.psi
    flips, charges = wall_intersection(searched28.charges)
    assert any(flips) and not all(flips)
    flipped = [-cls if flip else cls for cls, flip in zip(sc28.pic_basis, flips)]
    zs = [central_charge(psi, mirror_class(sc28.split, cls)) for cls in flipped]
    assert [z.re for z in zs] == charges and not any(z.im for z in zs)
    assert wall_count(charges) == 190


def test_wall_intersection_rejects_zero_charge(sc28):
    """A zero charge stays zero when flipped, and its pairs are no members."""
    charges = [(cls, z) for cls, z, _ in verify_reality(sc28.split, sc28.psi, sc28.pic_basis)]
    assert any(not z for _, z in charges)
    _, flipped = wall_intersection(charges)
    assert all(z.sign() >= 0 for z in flipped) and any(not z for z in flipped)
    assert wall_count(flipped) < 190


# ---------------------------------------------------------------------------
# Rewritten kernels against the code they replaced.


def test_wall_count_matches_wall_member(sc28, searched28):
    """The sign count of the real charges at a scenario's point and at the
    searched one agrees with the general phase test of `wall_member`."""
    vectors = [mirror_class(sc28.split, cls) for cls in sc28.pic_basis]
    mixed = [-v for v in vectors[:4]] + vectors[4:]
    counts = []
    for psi, vs in ((sc28.psi, vectors), (searched28.psi, vectors), (searched28.psi, mixed)):
        zs = [central_charge(psi, v) for v in vs]
        assert not any(z.im for z in zs)
        members = [wall_member(psi, v1, v2) for v1, v2 in itertools.combinations(vs, 2)]
        counts.append(wall_count([z.re for z in zs]))
        assert counts[-1] == sum(members)
    assert counts[2] < 190


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
def test_phase_key_matches_phase_aligned_oracle(zs):
    """Equal phase keys decide the general phase test on complex charges, and
    the sign count decides it on their real parts."""
    keys = [phase_key(z) for z in zs]
    for (k1, z1), (k2, z2) in itertools.combinations(zip(keys, zs), 2):
        assert (k1 is not None and k1 == k2) == phase_aligned(z1, z2)
    reals = [QuadComplex(z.re) for z in zs]
    aligned = sum(phase_aligned(z1, z2) for z1, z2 in itertools.combinations(reals, 2))
    assert wall_count([z.re for z in zs]) == aligned


def test_phase_key_examples():
    one, i = QuadComplex(1), QuadComplex(0, 1)
    z = QuadComplex(QuadScalar(1, 1, 2), QuadScalar(-3))
    zs = [one, 2 * one, -one, i, -i, z, z * Fraction(1, 3), -z, QuadComplex(0), z.conj()]
    keys = [phase_key(z) for z in zs]
    pairs = itertools.combinations(range(len(zs)), 2)
    assert {(a, b) for a, b in pairs if keys[a] and keys[a] == keys[b]} == {(0, 1), (5, 6)}
    # 1, 2, 1/2 + sqrt 2 are positive and -1, -3 negative: 3 + 1 pairs
    reals = [QuadScalar(1), QuadScalar(2), QuadScalar(-1), QuadScalar(0), QuadScalar(-3)]
    assert wall_count(reals + [QuadScalar(Fraction(1, 2), 1, 2)]) == 4
    assert wall_count([]) == wall_count([QuadScalar(0)] * 5) == 0


@cache
def _wall_scenario(form):
    return build_scenario(form=list(form))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wall_member_on_complex_charges_matches_the_phase_key_oracle(data):
    """`wall_member` decides by one product, Z(v1) conj(Z(v2)) a positive
    real, and the key oracle by the half plane and the cotangent.  At a
    point with B != 0, over Q ([2, 0, 8]) and Q(sqrt 23) ([4, 1, 6]), on
    random Mukai vectors, their multiples of either sign, the zero vector
    and (0, eta, B.eta), whose charge B.eta - B.eta vanishes."""
    sc = _wall_scenario(data.draw(st.sampled_from([(2, 0, 8), (4, 1, 6)])))
    small = st.integers(-3, 3)
    eta = sc.eta_basis[data.draw(st.integers(0, 17))]
    B = data.draw(st.integers(1, 3)) * eta + data.draw(small) * sc.charge.p
    psi = StabilityPoint(B, sc.omega_J + data.draw(small) * sc.Omega.im)
    vectors = [MukaiVector(0, ZERO, 0), MukaiVector(0, eta, pair(B, eta).as_int())]
    for _ in range(data.draw(st.integers(1, 3))):
        coords = data.draw(st.lists(small, min_size=22, max_size=22))
        r, D, s = data.draw(small), LatticeVector.from_ints(coords), data.draw(small)
        for k in data.draw(st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=1, max_size=3)):
            vectors.append(MukaiVector(k * r, k * D, k * s))
    zs = [central_charge(psi, v) for v in vectors]
    assert not zs[0] and not zs[1]
    assume(any(z.im for z in zs))
    keys = [phase_key(z) for z in zs]
    for (v1, k1), (v2, k2) in itertools.combinations(zip(vectors, keys), 2):
        assert wall_member(psi, v1, v2) == (k1 is not None and k1 == k2)
        assert wall_member(psi, v2, v1) == wall_member(psi, v1, v2)


def test_s_part_memo_is_the_value(sc28):
    fresh = StabilityPoint(sc28.psi.B, sc28.psi.omega)
    d = QuadComplex(fresh.B, fresh.omega)
    expected = pair(d, d) * Fraction(1, 2)
    assert fresh.s_part == expected
    assert fresh.s_part is fresh.s_part
    assert fresh == StabilityPoint(sc28.psi.B, sc28.psi.omega)
    assert hash(fresh) == hash(StabilityPoint(sc28.psi.B, sc28.psi.omega))


def _reference_ns(omega_check):
    """Oracle for NS(mirror): one pairing per basis vector, and the rational
    and the radical part of each functional scaled to an integer row by its
    own denominator."""
    from math import lcm

    from k3stab.intmat import kernel_basis

    rows = []
    for vec in (omega_check.re, omega_check.im):
        coeffs = [pair(vec, GAMMA.basis(i)) for i in range(GAMMA.rank)]
        for part in ("a", "b"):
            cs = [getattr(c, part) for c in coeffs]
            if any(cs):
                denom = lcm(*(x.denominator for x in cs))
                rows.append([int(x * denom) for x in cs])
    if not rows:
        return tuple(GAMMA.basis(i) for i in range(GAMMA.rank))
    return tuple(LatticeVector.from_ints(v) for v in kernel_basis(rows, GAMMA.rank)[0])


def test_orth_complement_matches_per_basis_rows():
    periods = {name: sc.triple.Omega_check for name, sc in _shipped_scenarios().items()}
    assert len(periods) == 5
    # a perturbed search candidate over sqrt(23)
    sc = build_scenario(form=[4, 1, 6])
    omega = sc.omega_J + Fraction(1, 10) * sc.eta_basis[0]
    Omega_I = hyperkahler_rotate(sc.Omega, omega)
    period = mirror_period(sc.split, Omega_I, sc.Omega.im, ZERO).Omega_check
    assert {c.m for c in period.re.coords + period.im.coords} == {0, 23}
    periods["perturbed_4_1_6"] = period
    for name, period in periods.items():
        ns = orth_complement([period.re, period.im])
        assert ns.basis == _reference_ns(period), name
        for v in ns.basis:
            assert not pair(v, period.re) and not pair(v, period.im)
