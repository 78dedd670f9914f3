"""Acceptance suite: every criterion exact (tolerance zero), one line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion PASS/FAIL
lines appear in the terminal summary.
"""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import acceptance_criterion

from k3stab.attractor import (
    NotAttractor,
    hyperkahler_rotate,
    threefold_central_charge,
    verify_attractor,
    z_k3,
)
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.forms import BinaryEvenForm, SL2Witness, enumerate_reduced, gauss_reduce, sl2_equivalent
from k3stab.lattice import (
    GAMMA,
    MUKAI,
    ComplexVector,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
    signature,
)
from k3stab.mirror import mirror_class, mirror_involution_check, mirror_period, tube_map
from oracles import bounded_p0_violations, minus_two_coefficients
from k3stab.stability import (
    exp_point,
    fibration_obstruction,
    mukai_pair,
    p0_violations,
    plane_gram,
    verify_reality,
    wall_intersection,
    wall_member,
)

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
ZERO = LatticeVector.zero(22)


def test_criterion_1_attractor_solution(sc28):
    with acceptance_criterion("attractor solution diag(2,8)"):
        assert sc28.tau == QuadComplex(0, 2)
        assert pair(GAMMA, sc28.Omega, sc28.Omega) == QuadComplex(0)
        assert pair(GAMMA, sc28.Omega, sc28.Omega.conj()) == QuadComplex(16)
        lam = verify_attractor(sc28.charge, sc28.tau, sc28.Omega)
        assert lam == QuadComplex(0, Fraction(-1, 4))
        rng = random.Random(17)
        for _ in range(100):
            dr = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            di = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            if dr == 0 and di == 0:
                dr = Fraction(1, 7)
            bad = QuadComplex(sc28.tau.re + QuadScalar(dr), sc28.tau.im + QuadScalar(di))
            with pytest.raises(NotAttractor):
                verify_attractor(sc28.charge, bad, sc28.Omega)


def test_criterion_2_slag_reality(sc28):
    with acceptance_criterion("special-Lagrangian charge reality (20 classes)"):
        assert len(sc28.pic_basis) == 20
        for cls in sc28.pic_basis:
            z = threefold_central_charge(sc28.data, ZERO, cls)
            assert not z.im
            assert z.re == z_k3(GAMMA, sc28.data.omega_J, cls)


def _mirror_b0_oracle(split, tau, charge, omega_J):
    """Independent (specialized, raw-scalar) evaluation of the B = 0 mirror."""
    lat = split.lat
    scale = pair(lat, omega_J, split.f).inverse()
    omega_check = scale * (charge.q - tau.re * charge.p)
    b_check = scale * split.project(omega_J)
    f_coeff = tau.im * tau.im * charge.p2 * Fraction(1, 2) + 1
    period = ComplexVector(
        scale * (f_coeff * split.f + split.sigma0), (scale * tau.im) * charge.p
    )
    return period, omega_check, b_check


def test_criterion_3_mirror_formulas(sc28):
    with acceptance_criterion("mirror formulas and double-mirror involution"):
        assert sc28.triple.Omega_check == ComplexVector(5 * F + SIGMA0, 2 * sc28.charge.p)
        assert sc28.triple.omega_check == sc28.charge.q
        assert not sc28.triple.B_check
        # the general map specializes term-for-term at B = 0
        eta = sc28.eta_basis[0] + 3 * sc28.eta_basis[7]
        for omega_J in [2 * F + SIGMA0, 7 * F + 3 * SIGMA0 + eta]:
            data = hyperkahler_rotate(sc28.charge, sc28.tau, omega_J)
            triple = mirror_period(sc28.split, data.Omega_I, data.omega_I, ZERO)
            period, omega_check, b_check = _mirror_b0_oracle(
                sc28.split, sc28.tau, sc28.charge, omega_J
            )
            assert triple.Omega_check == period
            assert triple.omega_check == omega_check
            assert triple.B_check == b_check
        # double mirror on random valid rational triples
        rng = random.Random(23)
        split = sc28.split
        p, q = sc28.charge.p, sc28.charge.q
        produced = 0
        while produced < 10:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            omega0 = a * p + b * q + rng.randint(-2, 2) * GAMMA.basis(9)
            if pair(GAMMA, omega0, omega0).sign() <= 0:
                continue
            b0 = rng.randint(-2, 2) * GAMMA.basis(17) + rng.randint(-2, 2) * p
            period = tube_map(split, ComplexVector(b0, omega0))
            omega1 = (1 + a * a) * p + rng.randint(0, 2) * split.v
            b1 = rng.randint(-2, 2) * GAMMA.basis(18) + rng.randint(-2, 2) * split.v
            report = mirror_involution_check(split, period, omega1, b1)
            assert report.span_equal
            assert report.second.Omega_check == period
            produced += 1


def test_criterion_4_mirror_class_pairing(sc28):
    with acceptance_criterion("mirror class preserves the pairing (484 checks)"):
        split = sc28.split
        mu_f = mirror_class(split, F)
        assert (mu_f.r, mu_f.s) == (0, -1) and not mu_f.D
        mu_s = mirror_class(split, SIGMA0)
        assert (mu_s.r, mu_s.s) == (1, 1) and not mu_s.D
        checks = 0
        for i in range(22):
            for j in range(22):
                x, y = GAMMA.basis(i), GAMMA.basis(j)
                lhs = pair(
                    MUKAI,
                    mirror_class(split, x).to_ambient(),
                    mirror_class(split, y).to_ambient(),
                )
                assert lhs == pair(GAMMA, x, y)
                checks += 1
        assert checks == 484


def test_criterion_5_mirror_reality(sc28):
    with acceptance_criterion("mirror central charges exactly real (20 classes)"):
        values = verify_reality(sc28.split, sc28.psi, sc28.pic_basis)
        assert len(values) == 20
        assert values[0][0] == F and values[0][1] == QuadScalar(1)


def test_criterion_6_regular_point_search(sc28, searched28):
    with acceptance_criterion("regular stability point found for diag(2,8)"):
        enumeration = p0_violations(searched28.psi, searched28.triple.Omega_check)
        assert enumeration.lattice_rank == 20 and enumeration.count == 0
        assert all(z.sign() != 0 for _, z in searched28.charges)
        # the unperturbed family member has plane Gram diag(8,8)
        gram = plane_gram(sc28.psi)
        assert gram == [[QuadScalar(8), QuadScalar(0)], [QuadScalar(0), QuadScalar(8)]]


def test_criterion_7_obstruction_sharpness(sc22):
    with acceptance_criterion("obstruction D = 2p^2 produces (0, sigma0, 0) on diag(2,2)"):
        ob = fibration_obstruction(sc22.charge, sc22.split)
        assert ob.obstructed
        assert ob.delta.r == 0 and ob.delta.s == 0
        assert ob.delta.D in (SIGMA0, -SIGMA0)
        family = [2 * F + SIGMA0, 5 * F + 2 * SIGMA0, 16 * (2 * F + SIGMA0) + sc22.eta_basis[0]]
        for omega_J in family:
            data = hyperkahler_rotate(sc22.charge, sc22.tau, omega_J)
            triple = mirror_period(sc22.split, data.Omega_I, data.omega_I, ZERO)
            psi = exp_point(triple.B_check, triple.omega_check)
            hits = p0_violations(psi, triple.Omega_check).roots
            sigma_hits = [
                h for h in hits if h.r == 0 and h.s == 0 and h.D in (SIGMA0, -SIGMA0)
            ]
            assert len(sigma_hits) == 2
            for h in sigma_hits:
                assert mukai_pair(psi, h) == QuadComplex(0)


def test_criterion_8_wall_intersection(sc28, searched28):
    with acceptance_criterion("190/190 generalized walls meet at the mirror point"):
        result = wall_intersection(sc28.split, searched28.psi, sc28.pic_basis)
        assert len(result.reports) == 190 and result.all_member
        aligned = [
            mirror_class(sc28.split, -cls if flip else cls)
            for cls, flip in zip(sc28.pic_basis, result.flips)
        ]
        # flipping any single class back breaks exactly its 19 walls
        for i in range(20):
            broken = [
                j
                for j in range(20)
                if j != i
                and not wall_member(searched28.psi, -aligned[i], aligned[j]).member
            ]
            assert broken == [j for j in range(20) if j != i]
        for i in (0, 7, 19):
            vectors = list(aligned)
            vectors[i] = -vectors[i]
            bad_pairs = {
                (a, b)
                for a in range(20)
                for b in range(a + 1, 20)
                if not wall_member(searched28.psi, vectors[a], vectors[b]).member
            }
            assert bad_pairs == {(min(i, j), max(i, j)) for j in range(20) if j != i}


def _naive_reduced_forms(disc):
    from math import isqrt

    out = []
    for a in range(2, 2 * disc + 1, 2):
        for c in range(a, 2 * disc + 1, 2):
            b_sq = a * c - disc
            if b_sq < 0:
                continue
            b = isqrt(b_sq)
            if b * b != b_sq:
                continue
            for bb in {b, -b}:
                if -a < 2 * bb <= a and not (a == c and bb < 0):
                    out.append((a, bb, c))
    return sorted(out)


def test_criterion_9_forms_oracle():
    with acceptance_criterion("form reduction matches the naive oracle (D <= 100)"):
        for disc in range(1, 101):
            fast = sorted((f.a, f.b, f.c) for f in enumerate_reduced(disc))
            assert fast == _naive_reduced_forms(disc)
        rng = random.Random(31)
        for _ in range(40):
            a, c = 2 * rng.randint(1, 6), 2 * rng.randint(1, 8)
            b = rng.randint(-5, 5)
            if a * c - b * b <= 0:
                continue
            form = BinaryEvenForm(a, b, c)
            reduced, witness = gauss_reduce(form)
            assert witness.conjugate(reduced) == form  # external re-check
            other = SL2Witness(((1, rng.randint(-3, 3)), (0, 1))).conjugate(form)
            w = sl2_equivalent(form, other)
            assert w is not None and w.conjugate(other) == form
        assert sl2_equivalent(BinaryEvenForm(2, 0, 8), BinaryEvenForm(4, 0, 4)) is None
        assert BinaryEvenForm(2, 0, 8).discriminant() == BinaryEvenForm(4, 0, 4).discriminant()


def _naive_minus_two(sub, bound):
    gram = sub.gram()
    k = len(gram)
    out = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        norm = sum(coeffs[i] * gram[i][j] * coeffs[j] for i in range(k) for j in range(k))
        if norm == -2:
            out.append(coeffs)
    return sorted(out)


def _naive_p0(psi, sub, bound):
    gram = sub.gram()
    k = len(gram)
    charges = [mukai_pair(psi, MukaiVector(0, b, 0)) for b in sub.basis]
    hits = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        norm = sum(coeffs[i] * gram[i][j] * coeffs[j] for i in range(k) for j in range(k))
        base = QuadComplex(0)
        for c, x in zip(charges, coeffs):
            if x:
                base = base + x * c
        for r in range(-bound, bound + 1):
            for s in range(-bound, bound + 1):
                if norm - 2 * r * s != -2:
                    continue
                if not (base - QuadComplex(s) - r * psi.s_part):
                    hits.add((r, coeffs, s))
    return hits


def test_criterion_10_brute_force_equivalence(sc28):
    with acceptance_criterion("bounded enumerations match naive grid scans"):
        # the bounded scans are the oracles of the complete root enumeration
        assert signature(GAMMA) == (3, 0, 19)
        four = orth_complement(
            GAMMA, [sc28.charge.p, sc28.charge.q, F, SIGMA0]
        )
        assert signature(four) == (0, 0, 18)
        for idx in [(0, 1), (0, 1, 6), (0, 1, 6, 7)]:
            sub = Sublattice(GAMMA, [GAMMA.basis(i) for i in idx])
            assert sorted(minus_two_coefficients(sub.gram(), 2)) == _naive_minus_two(sub, 2)
            psi = exp_point(GAMMA.basis(6) if len(idx) > 2 else ZERO, 2 * F + SIGMA0)
            fast = {
                (h.r, tuple(h.D.int_coords()), h.s)
                for h in bounded_p0_violations(psi, sub, 2)
            }
            naive = {
                (r, tuple(sub.from_coefficients(x).int_coords()), s)
                for r, x, s in _naive_p0(psi, sub, 2)
            }
            assert fast == naive
