"""Acceptance suite: every criterion exact (tolerance zero), one line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion PASS/FAIL
lines appear in the terminal summary.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from conftest import acceptance_criterion

from k3stab.attractor import (
    NotAttractor,
    hyperkahler_rotate,
    threefold_central_charge,
    verify_attractor,
)
from k3stab.cli import main
from k3stab.exact import QuadComplex, QuadScalar, parse_quad
from k3stab.forms import BinaryEvenForm, SL2Witness, enumerate_reduced, gauss_reduce, sl2_equivalent
from k3stab.lattice import (
    GAMMA,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
)
from k3stab.mirror import mirror_class, mirror_involution_check, mirror_period
from k3stab.scenario import build_scenario
from oracles import (
    MUKAI,
    bounded_p0_violations,
    from_coefficients,
    minus_two_coefficients,
    mukai_ambient,
    phase_aligned,
    quad_pair,
    signature,
    triple_pair,
    triple_plane_gram,
    tube_map,
)
from k3stab.stability import (
    StabilityPoint,
    central_charge,
    fibration_obstruction,
    p0_violations,
    verify_reality,
    wall_member,
)

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
ZERO = LatticeVector.zero(22)


def test_criterion_1_attractor_solution(sc28):
    with acceptance_criterion("attractor solution diag(2,8)"):
        assert sc28.tau == QuadComplex(0, 2)
        assert pair(sc28.Omega, sc28.Omega) == QuadComplex(0)
        assert pair(sc28.Omega, sc28.Omega.conj()) == QuadComplex(16)
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
            z = threefold_central_charge(sc28.Omega_I, cls)
            assert not z.im
            assert z.re == pair(sc28.omega_J, cls)


def _mirror_b0_oracle(split, tau, charge, omega_J):
    """Independent (specialized, raw-scalar) evaluation of the B = 0 mirror."""
    scale = pair(omega_J, split.f).inverse()
    omega_check = scale * (charge.q - tau.re * charge.p)
    b_check = scale * split.project(omega_J)
    f_coeff = tau.im * tau.im * charge.p2 * Fraction(1, 2) + 1
    period = QuadComplex(
        scale * (f_coeff * split.f + split.sigma0), (scale * tau.im) * charge.p
    )
    return period, omega_check, b_check


def test_criterion_3_mirror_formulas(sc28):
    with acceptance_criterion("mirror formulas and double-mirror involution"):
        assert sc28.triple.Omega_check == QuadComplex(5 * F + SIGMA0, 2 * sc28.charge.p)
        assert sc28.triple.omega_check == sc28.charge.q
        assert not sc28.triple.B_check
        # the general map specializes term-for-term at B = 0
        eta = sc28.eta_basis[0] + 3 * sc28.eta_basis[7]
        for omega_J in [2 * F + SIGMA0, 7 * F + 3 * SIGMA0 + eta]:
            Omega_I = hyperkahler_rotate(sc28.Omega, omega_J)
            triple = mirror_period(sc28.split, Omega_I, sc28.Omega.im, ZERO)
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
            if pair(omega0, omega0).sign() <= 0:
                continue
            b0 = rng.randint(-2, 2) * GAMMA.basis(17) + rng.randint(-2, 2) * p
            period = tube_map(split, QuadComplex(b0, omega0))
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
                lhs = quad_pair(
                    MUKAI,
                    mukai_ambient(mirror_class(split, x)),
                    mukai_ambient(mirror_class(split, y)),
                )
                assert lhs == pair(x, y)
                checks += 1
        assert checks == 484


def test_criterion_5_mirror_reality(sc28):
    with acceptance_criterion("mirror central charges exactly real (20 classes)"):
        values = verify_reality(sc28.split, sc28.psi, sc28.pic_basis)
        assert len(values) == 20
        assert values[0][0] == F and values[0][1] == QuadScalar(1)


def test_criterion_6_regular_point_search(sc28, searched28):
    with acceptance_criterion("regular stability point found for diag(2,8)"):
        enumeration = p0_violations(sc28, searched28.omega_J)
        assert enumeration.lattice_rank == 20 and enumeration.roots == []
        assert all(z.sign() != 0 for _, z in searched28.charges)
        # the unperturbed family member has plane Gram omega^2 I = diag(8,8)
        gram = triple_plane_gram(sc28.psi)
        assert gram == [[QuadScalar(8), QuadScalar(0)], [QuadScalar(0), QuadScalar(8)]]


def test_criterion_7_obstruction_sharpness(sc22):
    with acceptance_criterion("obstruction D = 2p^2 produces (0, sigma0, 0) on diag(2,2)"):
        ob = fibration_obstruction(sc22.charge, sc22.split)
        assert ob.obstructed
        assert ob.delta.r == 0 and ob.delta.s == 0
        assert ob.delta.D in (SIGMA0, -SIGMA0)
        family = [2 * F + SIGMA0, 5 * F + 2 * SIGMA0, 16 * (2 * F + SIGMA0) + sc22.eta_basis[0]]
        for omega_J in family:
            Omega_I = hyperkahler_rotate(sc22.Omega, omega_J)
            triple = mirror_period(sc22.split, Omega_I, sc22.Omega.im, ZERO)
            psi = StabilityPoint(triple.B_check, triple.omega_check)
            hits = p0_violations(sc22, omega_J).roots
            sigma_hits = [
                h for h in hits if h.r == 0 and h.s == 0 and h.D in (SIGMA0, -SIGMA0)
            ]
            assert len(sigma_hits) == 2
            for h in sigma_hits:
                assert triple_pair(psi, h) == QuadComplex(0)


def _cli_report(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_8_wall_intersection(tmp_path, capsys):
    """verify 6.4 states the 20 flipped charges and no wall table; `walls` at
    the omega_J that 6.4 reports states the same charges unflipped, and each
    of the 190 pairs is checked with the general phase test."""
    with acceptance_criterion("190/190 generalized walls meet at the mirror point"):
        path = tmp_path / "scenario.json"
        for form in ([2, 0, 8], [4, 1, 6]):
            path.write_text(json.dumps({"form": form}))
            cert = _cli_report(capsys, ["verify", "6.4", "--scenario", str(path)])
            assert "walls" not in cert
            assert (cert["member_count"], cert["pairs"], cert["pass"]) == (190, 190, True)
            path.write_text(json.dumps({"form": form, "omega_J": cert["omega_J"]}))
            table = _cli_report(capsys, ["walls", "--scenario", str(path)])
            assert "walls" not in table and "pass" not in table
            zs = [parse_quad(z) for z in table["charges"]]
            signs = [z.sign() for z in zs]
            assert len(zs) == 20 and 0 not in signs
            assert [sign < 0 for sign in signs] == cert["flips"]
            assert [str(-z if sign < 0 else z) for z, sign in zip(zs, signs)] == cert["charges"]
            pairs = list(itertools.combinations(range(20), 2))
            same_sign = [(i, j) for i, j in pairs if signs[i] == signs[j]]
            assert table["member_count"] == len(same_sign) < 190

            # once flipped, 190 of 190 by the general phase test; flipping
            # any single class back breaks exactly its 19 walls
            sc = build_scenario(form=form, omega_J=cert["omega_J"])
            aligned = [
                mirror_class(sc.split, -cls if flip else cls)
                for cls, flip in zip(sc.pic_basis, cert["flips"])
            ]
            flipped = [central_charge(sc.psi, v) for v in aligned]
            assert [str(z.re) for z in flipped] == cert["charges"]
            assert all(wall_member(sc.psi, aligned[i], aligned[j]) for i, j in pairs)
            unflipped = [mirror_class(sc.split, cls) for cls in sc.pic_basis]
            members = [(i, j) for i, j in pairs if wall_member(sc.psi, unflipped[i], unflipped[j])]
            assert members == same_sign
            for i in range(20):
                broken = [
                    j
                    for j in range(20)
                    if j != i and not wall_member(sc.psi, -aligned[i], aligned[j])
                ]
                assert broken == [j for j in range(20) if j != i]


def test_walls_charges_are_real_for_every_b_field(tmp_path, capsys):
    """On every reduced form with D <= 40, at B = 0, at e8a.1 and at
    1/2 e1(U2), which pairs with p, each central charge of `walls` is exactly
    real by the expanded pairing (`oracles.triple_pair`), and `member_count`
    is the number of pairs that the general phase test
    (`oracles.phase_aligned`) puts on a wall."""
    fields = [0] * 22, [0] * 6 + [1] + [0] * 15, [0, 0, "1/2"] + [0] * 19
    path = tmp_path / "scenario.json"
    forms = [form.as_list() for disc in range(1, 41) for form in enumerate_reduced(disc)]
    assert len(forms) == 40
    for form in forms:
        for b_field in fields:
            path.write_text(json.dumps({"form": form, "B": b_field}))
            report = _cli_report(capsys, ["walls", "--scenario", str(path)])
            sc = build_scenario(form=form, B=b_field)
            zs = [triple_pair(sc.psi, mirror_class(sc.split, cls)) for cls in sc.pic_basis]
            assert not any(z.im for z in zs), (form, b_field)
            assert [str(z.re) for z in zs] == report["charges"]
            aligned = sum(phase_aligned(z1, z2) for z1, z2 in itertools.combinations(zs, 2))
            assert report["member_count"] == aligned, (form, b_field)


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
    charges = [triple_pair(psi, MukaiVector(0, b, 0)) for b in sub.basis]
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
            [sc28.charge.p, sc28.charge.q, F, SIGMA0]
        )
        assert signature(four) == (0, 0, 18)
        for idx in [(0, 1), (0, 1, 6), (0, 1, 6, 7)]:
            sub = Sublattice([GAMMA.basis(i) for i in idx])
            assert sorted(minus_two_coefficients(sub.gram(), 2)) == _naive_minus_two(sub, 2)
            psi = StabilityPoint(GAMMA.basis(6) if len(idx) > 2 else ZERO, 2 * F + SIGMA0)
            fast = {
                (h.r, tuple(h.D.int_coords()), h.s)
                for h in bounded_p0_violations(psi, sub, 2)
            }
            naive = {
                (r, tuple(from_coefficients(sub, x).int_coords()), s)
                for r, x, s in _naive_p0(psi, sub, 2)
            }
            assert fast == naive
