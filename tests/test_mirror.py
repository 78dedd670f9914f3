import random
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3stab.attractor import hyperkahler_rotate
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.forms import enumerate_reduced
from k3stab.lattice import (
    GAMMA,
    LatticeVector,
    MukaiVector,
    orth_complement,
    pair,
)
from k3stab.mirror import (
    PreconditionViolation,
    make_split,
    mirror_class,
    mirror_involution_check,
    mirror_period,
)
from k3stab.scenario import _rational_sqrt, build_scenario
from k3stab.stability import SearchExhausted, SearchObstructed, search_kahler_class
from oracles import (
    MUKAI,
    canonicalize_period,
    dense_fibration,
    general_mirror_class,
    gram_of,
    involution_reference,
    mukai_ambient,
    period_embed,
    quad_pair,
    stepwise_mirror_period,
    tube_map,
)

F = GAMMA.basis(0)
E2 = GAMMA.basis(1)
SIGMA0 = E2 - F
ZERO = LatticeVector.zero(22)


@pytest.fixture(scope="module")
def split():
    return make_split(F, SIGMA0)


def test_make_split(split):
    assert (split.v, split.vstar) == (F, E2)
    assert orth_complement([split.f, split.sigma0]).rank == 20
    assert pair(split.vstar, split.vstar) == 0
    assert pair(split.v, split.vstar) == 1


def test_make_split_rejects_bad_classes():
    with pytest.raises(PreconditionViolation, match="need f"):
        make_split(F, E2)  # sigma0^2 = 0 != -2


def mirror_b0_oracle(split, tau, charge, omega_J):
    """Independent evaluation of the B = 0 mirror formulas from raw scalars."""
    scale = pair(omega_J, split.f).inverse()
    omega_check = scale * (charge.q - tau.re * charge.p)
    b_check = scale * split.project(omega_J)
    f_coeff = tau.im * tau.im * charge.p2 * Fraction(1, 2) + 1
    omega_big = QuadComplex(
        scale * (f_coeff * split.f + split.sigma0), (scale * tau.im) * charge.p
    )
    return omega_big, omega_check, b_check


def test_mirror_diag_2_8(split, sc28):
    triple = sc28.triple
    assert triple.Omega_check == QuadComplex(5 * F + SIGMA0, 2 * sc28.charge.p)
    assert triple.omega_check == sc28.charge.q
    assert not triple.B_check


def test_mirror_diag_2_2(split, sc22):
    triple = sc22.triple
    assert triple.Omega_check == QuadComplex(2 * F + SIGMA0, sc22.charge.p)
    assert triple.omega_check == sc22.charge.q
    assert not triple.B_check


def test_general_formula_matches_b0_specialization(split, sc28):
    eta = sc28.eta_basis[0] + 2 * sc28.eta_basis[5]
    for omega_J in [2 * F + SIGMA0, 6 * F + 3 * SIGMA0 + eta, 9 * F + 2 * SIGMA0 + eta]:
        if pair(omega_J, omega_J).sign() <= 0:
            continue
        Omega_I = hyperkahler_rotate(sc28.Omega, omega_J)
        triple = mirror_period(split, Omega_I, sc28.Omega.im, ZERO)
        omega_big, omega_check, b_check = mirror_b0_oracle(split, sc28.tau, sc28.charge, omega_J)
        assert triple.Omega_check == omega_big
        assert triple.omega_check == omega_check
        assert triple.B_check == b_check


def test_b_zero_with_projected_omega_gives_zero_b(split, sc28):
    triple = mirror_period(split, sc28.Omega_I, sc28.Omega.im, ZERO)
    assert not triple.B_check  # pr(2f + sigma0) = 0


_FORMS_UP_TO_40 = [
    tuple(form.as_list()) for disc in range(1, 41) for form in enumerate_reduced(disc)
]


@cache
def _form_scenario(form):
    return build_scenario(form=list(form))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_period_data_meets_the_preconditions_by_construction(data):
    """Why `mirror_period` tests none of its preconditions: for every form
    with D <= 40, over Q and Q(sqrt m), and a class omega of positive square
    in (p, q)^perp, which the rotation makes Re(Omega_I), they hold for
    (Omega_I, Im(Omega), 0), and again for the mirror data that the
    involution check maps a second time."""
    sc = _form_scenario(data.draw(st.sampled_from(_FORMS_UP_TO_40)))
    f, p2, disc = sc.split.f, sc.charge.p2, sc.charge.disc
    part = st.integers(-30, 30)
    a, b = (
        QuadScalar(data.draw(part), data.draw(part) if sc.m else 0, sc.m) for _ in range(2)
    )
    omega = a * sc.omega_J + b * F
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=18, max_size=18))
    for c, eta in zip(coeffs, sc.eta_basis):
        omega = omega + c * eta
    assume(pair(omega, omega).sign() > 0)
    # the light-cone argument of the cone test of `stability.search_kahler_class`
    omega_f = pair(omega, f)
    assert omega_f
    if omega_f.sign() < 0:  # into the cone of omega_J
        omega, omega_f = -omega, -omega_f
    Omega_I = hyperkahler_rotate(sc.Omega, omega)
    assert not pair(Omega_I.im, f) and not pair(sc.Omega.im, f)
    assert pair(sc.Omega.im, sc.Omega.im) * p2 == disc
    first = mirror_period(sc.split, Omega_I, sc.Omega.im, ZERO)
    mirror_sq = pair(first.omega_check, first.omega_check)
    assert omega_f * omega_f * mirror_sq * p2 == disc
    # the input of the second application
    assert pair(first.Omega_check.re, f) == omega_f.inverse()
    assert not pair(first.Omega_check.im, f)
    assert not pair(first.omega_check, f) and not pair(first.B_check, f)


@cache
def _dense_scenario(form):
    f, sigma0 = dense_fibration()
    return build_scenario(form=list(form), f=f, sigma0=sigma0)


def _is_square(n):
    return isqrt(n) ** 2 == n


# a square D gives Q, any other D a Q(sqrt m)
_RATIONAL_FORMS = [f for f in _FORMS_UP_TO_40 if _is_square(f[0] * f[2] - f[1] ** 2)]
_IRRATIONAL_FORMS = [f for f in _FORMS_UP_TO_40 if f not in _RATIONAL_FORMS]


def _as_tuple(triple):
    return triple.Omega_check, triple.omega_check, triple.B_check


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mirror_period_equals_the_stepwise_map(data):
    """One `SplitData.shift` per output vector gives the projection, v-shift
    and scale of `oracles.stepwise_mirror_period`, over Q and Q(sqrt m), on
    the standard split and on one whose v and v* are dense, with B = 0 and
    with a B != 0 orthogonal to v (in the field), at a rotated Kaehler class
    drawn as in the precondition test above, and again on the involution's
    second application, whose input is the mirror data."""
    forms = _IRRATIONAL_FORMS if data.draw(st.booleans()) else _RATIONAL_FORMS
    form = data.draw(st.sampled_from(forms))
    sc = _dense_scenario(form) if data.draw(st.booleans()) else _form_scenario(form)
    assert bool(sc.m) == (forms is _IRRATIONAL_FORMS)
    f, v = sc.split.f, sc.split.v
    part = st.integers(-30, 30)
    a, b = (
        QuadScalar(data.draw(part), data.draw(part) if sc.m else 0, sc.m) for _ in range(2)
    )
    omega = a * sc.omega_J + b * f
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=18, max_size=18))
    for c, eta in zip(coeffs, sc.eta_basis):
        omega = omega + c * eta
    assume(pair(omega, omega).sign() > 0)
    if pair(omega, f).sign() < 0:
        omega = -omega
    B = ZERO
    if data.draw(st.booleans()):
        small = st.integers(-3, 3)
        B = (
            data.draw(small) * sc.eta_basis[data.draw(st.integers(0, 17))]
            + data.draw(small) * sc.charge.p
            + data.draw(small) * sc.charge.q
            + QuadScalar(data.draw(small), data.draw(small) if sc.m else 0, sc.m) * v
        )
        assert not pair(B, v)
    Omega_I = hyperkahler_rotate(sc.Omega, omega)
    first = mirror_period(sc.split, Omega_I, sc.Omega.im, B)
    assert _as_tuple(first) == stepwise_mirror_period(sc.split, Omega_I, sc.Omega.im, B)
    second = mirror_period(sc.split, *_as_tuple(first))
    assert _as_tuple(second) == stepwise_mirror_period(sc.split, *_as_tuple(first))


def test_mirror_period_equals_the_stepwise_map_at_the_search_candidate(monkeypatch):
    """At the Kaehler search's one candidate, on every form with D <= 40
    and, with the dense split, on the forms with D <= 12."""
    import k3stab.stability

    mapped = []

    def checked(split, Omega, omega, B):
        triple = mirror_period(split, Omega, omega, B)
        assert _as_tuple(triple) == stepwise_mirror_period(split, Omega, omega, B)
        mapped.append(split)
        return triple

    monkeypatch.setattr(k3stab.stability, "mirror_period", checked)
    small = [form for form in _FORMS_UP_TO_40 if form[0] * form[2] - form[1] ** 2 <= 12]
    scenarios = [_form_scenario(form) for form in _FORMS_UP_TO_40]
    scenarios += [_dense_scenario(form) for form in small]
    obstructed = 0
    for sc in scenarios:
        try:
            search_kahler_class(sc)
        except SearchObstructed:
            obstructed += 1  # before any candidate
            continue
        except SearchExhausted:
            pass
        assert mapped[-1] is sc.split
    # [2, 0, 2] is obstructed on either split, and every other search maps once
    assert obstructed == 2 and len(mapped) == len(scenarios) - 2


def test_both_mirror_period_asserts_still_fire(split, sc28):
    """The two invariants are decided from rr, ii and ri: B = e1 + e2 of U1
    (B.v = B.v* = 1, outside the preconditions) gives a period that is not
    null, and omega = an E8 root (square -2) with B = 0 a null period whose
    plane is not positive."""
    with pytest.raises(AssertionError, match="mirror period is not null"):
        mirror_period(split, sc28.Omega_I, sc28.Omega.im, GAMMA.basis(0) + GAMMA.basis(1))
    root = GAMMA.basis(6)
    assert pair(root, root) == -2
    with pytest.raises(AssertionError, match="mirror period plane is not positive"):
        mirror_period(split, sc28.Omega_I, root, ZERO)


def test_mirror_class_anchors(split):
    w = mirror_class(split, F)
    assert (w.r, w.s) == (0, -1) and not w.D
    ws = mirror_class(split, SIGMA0)
    assert (ws.r, ws.s) == (1, 1) and not ws.D
    for cls in [GAMMA.basis(6), GAMMA.basis(2) + GAMMA.basis(3)]:
        mc = mirror_class(split, cls)
        assert (mc.r, mc.s) == (0, 0) and mc.D == cls


def test_mirror_class_of_a_class_orthogonal_to_v_and_vstar_is_its_own_core(split, sc28):
    """The eta classes (every Picard class but f and sigma0) lie in Gamma':
    the mirror of l is (0, l, 0)."""
    for cls in sc28.eta_basis + [GAMMA.basis(6), GAMMA.basis(2) - 3 * GAMMA.basis(21)]:
        assert not pair(cls, split.v) and not pair(cls, split.vstar)
        mc = mirror_class(split, cls)
        assert mc == MukaiVector(0, cls, 0) and mc.D == cls


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=22, max_size=22), st.booleans())
def test_mirror_class_matches_the_general_formula(coords, in_gamma_prime):
    """mirror_class against l - a v - b v* on random integral classes, half
    of them drawn in Gamma' (no U1 part, where v and v* live)."""
    split = make_split(F, SIGMA0)
    if in_gamma_prime:
        coords[0] = coords[1] = 0
    cls = LatticeVector.from_ints(coords)
    assert mirror_class(split, cls) == general_mirror_class(split, cls)


def test_mirror_class_preserves_pairing(split):
    count = 0
    for i in range(22):
        for j in range(22):
            x, y = GAMMA.basis(i), GAMMA.basis(j)
            image = quad_pair(
                MUKAI,
                mukai_ambient(mirror_class(split, x)),
                mukai_ambient(mirror_class(split, y)),
            )
            assert image == pair(x, y)
            count += 1
    assert count == 484


def test_tube_map(split, sc28):
    q = sc28.charge.q
    assert tube_map(split, QuadComplex(ZERO)) == QuadComplex(split.vstar)
    image = tube_map(split, QuadComplex(ZERO, q))
    assert image == QuadComplex(4 * split.v + split.vstar, q)
    rng = random.Random(11)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        z = QuadComplex(
            coeffs[0] * sc28.charge.p + coeffs[1] * GAMMA.basis(6),
            coeffs[2] * q + coeffs[3] * GAMMA.basis(14),
        )
        assert pair(tube_map(split, z), QuadComplex(split.v)) == QuadComplex(1)
    with pytest.raises(PreconditionViolation):
        tube_map(split, QuadComplex(E2))


def test_period_embed_diag_2_8(split, sc28):
    p, q = sc28.charge.p, sc28.charge.q
    h1, h2 = period_embed(split, [5 * F + SIGMA0, 2 * p], q, ZERO)
    gram = gram_of(MUKAI, h1 + h2)
    expected = [[QuadScalar(8 if i == j else 0) for j in range(4)] for i in range(4)]
    assert gram == expected


def test_period_embed_b_zero_keeps_p_basis(split, sc28):
    p = sc28.charge.p
    h1, _ = period_embed(split, [5 * F + SIGMA0, 2 * p], sc28.charge.q, ZERO)
    assert [v.int_coords()[:22] for v in h1] == [
        (5 * F + SIGMA0).int_coords(),
        (2 * p).int_coords(),
    ]
    assert all(v.int_coords()[22:] == [0, 0] for v in h1)


def test_period_embed_orthogonality_with_b_field(split, sc28):
    p, q = sc28.charge.p, sc28.charge.q
    b = GAMMA.basis(6) + 2 * q
    omega = q + GAMMA.basis(6)  # orthogonal to P, positive square 6
    h1, h2 = period_embed(split, [5 * F + SIGMA0, 2 * p], omega, b)
    for x in h1:
        for y in h2:
            assert quad_pair(MUKAI, x, y) == 0


def test_period_embed_preconditions(split, sc28):
    p, q = sc28.charge.p, sc28.charge.q
    with pytest.raises(PreconditionViolation):
        period_embed(split, [F, SIGMA0], q, ZERO)  # not positive definite
    with pytest.raises(PreconditionViolation):
        period_embed(split, [5 * F + SIGMA0, 2 * p], p, ZERO)  # omega not orthogonal


def test_canonicalize_period(split, sc28):
    scaled = sc28.triple.Omega_check * QuadComplex(3, 2)
    canonical = canonicalize_period(split, scaled)
    assert pair(canonical, QuadComplex(split.v)) == QuadComplex(1)


def test_involution_diag_2_8(split, sc28):
    # norm-matched null representative of the rotated period plane
    omega = QuadComplex(2 * F + SIGMA0, Fraction(1, 2) * sc28.charge.q)
    assert pair(omega, omega) == QuadComplex(0)
    report = mirror_involution_check(split, omega, sc28.Omega.im, ZERO)
    assert report.holds and report.span_equal
    assert report.second.Omega_check == omega
    assert report.omega_v_shift == QuadScalar(0)


def test_involution_diag_2_2(split, sc22):
    omega = QuadComplex(2 * F + SIGMA0, sc22.charge.q)
    assert pair(omega, omega) == QuadComplex(0)
    report = mirror_involution_check(split, omega, sc22.Omega.im, ZERO)
    assert report.holds


def test_involution_on_random_tube_periods(split, sc28):
    rng = random.Random(5)
    p, q = sc28.charge.p, sc28.charge.q
    produced = 0
    while produced < 10:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c, d = rng.randint(-2, 2), rng.randint(-2, 2)
        omega0 = a * p + b * q + c * GAMMA.basis(7)
        if pair(omega0, omega0).sign() <= 0:
            continue
        b0 = d * GAMMA.basis(15) + c * p
        period = tube_map(split, QuadComplex(b0, omega0))
        # a second, independent Kaehler slot for the involution input
        omega1 = (a * a + 1) * q + d * GAMMA.basis(8) + rng.randint(0, 2) * split.v
        if pair(omega1, omega1).sign() <= 0:
            continue
        b1 = rng.randint(-2, 2) * GAMMA.basis(16) + rng.randint(-2, 2) * split.v
        report = mirror_involution_check(split, period, omega1, b1)
        assert report.span_equal
        assert report.second.Omega_check == period
        assert report.b_recovered
        assert report.omega_recovered  # up to the reported v-multiple
        produced += 1


def _involution_inputs(sc, rng):
    """Periods for the involution check on one scenario: three null tube
    periods T, T + i v (Re in the returned plane, Im not), Omega_I and
    3/2 Omega_I (not null unless omega_J^2 = Re(Omega)^2), the norm-matched
    null period of `mirror_report` when the norm ratio is a rational square,
    and two degenerate planes x + i x: at x = Re(Omega) + v*, which lies in
    the returned plane, and at x = omega_J + Re(Omega), which does not."""
    p, q, eta = sc.charge.p, sc.charge.q, sc.eta_basis
    periods = []
    while len(periods) < 3:
        omega0 = rng.randint(-3, 3) * p + rng.randint(-3, 3) * q + rng.randint(-1, 1) * eta[0]
        if pair(omega0, omega0).sign() > 0:
            b0 = rng.randint(-2, 2) * eta[rng.randrange(18)] + rng.randint(-2, 2) * p
            periods.append(tube_map(sc.split, QuadComplex(b0, omega0)))
    periods += [periods[0] + QuadComplex(ZERO, sc.split.v), sc.Omega_I, sc.Omega_I * Fraction(3, 2)]
    ratio = pair(sc.omega_J, sc.omega_J) / pair(sc.Omega.re, sc.Omega.re)
    root = _rational_sqrt(ratio.as_fraction()) if ratio.is_rational else None
    if root is not None:
        periods.append(QuadComplex(sc.omega_J, root * sc.Omega.re))
    for x in (sc.Omega.re + sc.split.vstar, sc.omega_J + sc.Omega.re):
        periods.append(QuadComplex(x, x))
    return periods


def test_involution_check_equals_the_rank_and_coordinate_reference():
    """The plane test by pairings (n x = (x.c) c + (x.d) d for both input
    parts, and a nonzero determinant of their coefficients) and the v-shift
    t = delta.v* against the rank elimination and coordinate division of
    `oracles.involution_reference`, on every form with D <= 40: with
    omega = Im(Omega) and B = 0 or eta + v, and with omega = Im(Omega) + v*,
    which pairs to 1 with v and so does not return, and B = 0 or eta + v*
    (the first map's period is null when (B + i omega).v* = 0).  The plane
    returns exactly for the null inputs.  On the standard split the
    coordinate ratio of the reference is delta.v* whether omega returns or
    not.  The
    degenerate plane omega_J + i omega_J is refused by both: the default
    omega_J = v + v* has pr(omega_J) = 0, so the first map's omega has
    square 0.  The check decides that precondition of the second map and
    raises `PreconditionViolation`; the reference maps again and its
    assert finds the second period plane not positive."""
    rng = random.Random(30)
    seen = {True: 0, False: 0}
    for form in _FORMS_UP_TO_40:
        sc = _form_scenario(form)
        degenerate = QuadComplex(sc.omega_J, sc.omega_J)
        with pytest.raises(PreconditionViolation, match="omega has square <= 0"):
            mirror_involution_check(sc.split, degenerate, sc.Omega.im, ZERO)
        with pytest.raises(AssertionError, match="mirror period plane is not positive"):
            involution_reference(sc.split, degenerate, sc.Omega.im, ZERO)
        periods = _involution_inputs(sc, rng)
        eta, v, vstar = sc.eta_basis[1], sc.split.v, sc.split.vstar
        for omega, B in (
            (sc.Omega.im, ZERO),
            (sc.Omega.im, eta + v),
            (sc.Omega.im + vstar, ZERO),
            (sc.Omega.im + vstar, eta + vstar),
        ):
            for period in periods:
                rep = mirror_involution_check(sc.split, period, omega, B)
                got = (rep.span_equal, rep.omega_recovered, rep.b_recovered, rep.omega_v_shift)
                assert got == involution_reference(sc.split, period, omega, B)
                null = not pair(period, period)
                assert rep.span_equal == null
                assert rep.omega_recovered == (omega is sc.Omega.im)
                seen[null] += 1
    assert min(seen.values()) > 12 * len(_FORMS_UP_TO_40)


def test_involution_reports_failure_for_non_null_input(split, sc28):
    # unnormalized rotated data is not a period: the check must say so
    report = mirror_involution_check(split, sc28.Omega_I, sc28.Omega.im, ZERO)
    assert not report.span_equal
