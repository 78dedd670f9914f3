import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.attractor import (
    Charge,
    DegenerateCharge,
    NotAttractor,
    hyperkahler_rotate,
    solve_attractor,
    threefold_central_charge,
    verify_attractor,
)
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.forms import enumerate_reduced
from k3stab.lattice import GAMMA, LatticeVector, pair
from k3stab.scenario import build_scenario
from oracles import ns_lattice, signature, solve_integer, solve_lambda

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
P = GAMMA.basis(2) + GAMMA.basis(3)


def diag_charge(k: int) -> Charge:
    """The block realization of the form diag(2, 2k)."""
    return Charge(P, GAMMA.basis(4) + k * GAMMA.basis(5))


def test_tau_for_diag_2_8():
    tau, omega = solve_attractor(diag_charge(4))
    assert tau == QuadComplex(0, 2)
    assert pair(omega, omega) == QuadComplex(0)
    assert pair(omega, omega.conj()) == QuadComplex(16)


def test_tau_for_diag_2_2():
    tau, _ = solve_attractor(diag_charge(1))
    assert tau == QuadComplex(0, 1)


def test_tau_irrational_case():
    # p^2 = 2, q^2 = 6: D = 12, sqrt(12) = 2 sqrt(3)
    ch = diag_charge(3)
    tau, omega = solve_attractor(ch)
    assert tau.im == QuadScalar(0, 1, 3)
    assert pair(omega, omega) == QuadComplex(0)


def test_degenerate_charges():
    with pytest.raises(DegenerateCharge):
        solve_attractor(Charge(GAMMA.basis(2), GAMMA.basis(4)))  # p^2 = 0
    with pytest.raises(DegenerateCharge):
        solve_attractor(Charge(P, P))  # D = 0


def test_negative_definite_charge_is_degenerate():
    # p = e8a.1, q = e8a.2: p^2 = q^2 = -2, p.q = 0, so D = 4 > 0 but the
    # charge plane is negative definite
    charge = Charge(GAMMA.basis(6), GAMMA.basis(7))
    assert (charge.p2, charge.pq, charge.disc) == (-2, 0, 4)
    with pytest.raises(DegenerateCharge, match=r"^p\^2=-2, D=4$"):
        solve_attractor(charge)


def test_lambda_for_diag_2_8():
    ch = diag_charge(4)
    tau, omega = solve_attractor(ch)
    lam = verify_attractor(ch, tau, omega)
    assert lam == QuadComplex(0, Fraction(-1, 4))


def test_lambda_for_diag_2_2():
    ch = diag_charge(1)
    tau, omega = solve_attractor(ch)
    assert verify_attractor(ch, tau, omega) == QuadComplex(0, Fraction(-1, 2))


def test_verify_rejects_perturbed_tau():
    ch = diag_charge(4)
    tau, omega = solve_attractor(ch)
    rng = random.Random(7)
    rejected = 0
    for _ in range(100):
        dr = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        di = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if dr == 0 and di == 0:
            dr = Fraction(1, 10)
        bad = QuadComplex(tau.re + QuadScalar(dr), tau.im + QuadScalar(di))
        with pytest.raises(NotAttractor):
            verify_attractor(ch, bad, omega)
        rejected += 1
    assert rejected == 100


def test_lambda_matches_the_solver_on_reduced_forms():
    """The witness -i / (2 Im tau) is the lambda that the linear system of
    the dx and dy components solves for, on every reduced form with D <= 40."""
    forms = [form for disc in range(1, 41) for form in enumerate_reduced(disc)]
    assert len(forms) == 40
    for form in forms:
        sc = build_scenario(form=form.as_list())
        lam = verify_attractor(sc.charge, sc.tau, sc.Omega)
        assert lam == solve_lambda(sc.charge, sc.tau, sc.Omega), form
        assert lam == QuadComplex(0, sc.tau.im.inverse() * Fraction(-1, 2))


@pytest.mark.parametrize("im", [Fraction(0), Fraction(-2), Fraction(-1, 3)])
def test_verify_refuses_nonpositive_im_tau(im):
    # the witness divides by Im tau, so Im tau = 0 must be refused before it
    ch = diag_charge(4)
    tau, omega = solve_attractor(ch)
    with pytest.raises(NotAttractor, match="Im tau is not positive"):
        verify_attractor(ch, QuadComplex(tau.re, QuadScalar(im)), omega)
    # (conj tau, conj Omega) meets every other identity, with lambda
    # conjugated, so the sign of Im tau is what refuses it
    assert solve_lambda(ch, tau.conj(), omega.conj()) == QuadComplex(0, Fraction(1, 4))
    with pytest.raises(NotAttractor, match="Im tau is not positive"):
        verify_attractor(ch, tau.conj(), omega.conj())


def test_verify_and_solver_reject_the_same_perturbations():
    ch = diag_charge(3)  # tau.im = sqrt(3)
    tau, omega = solve_attractor(ch)
    rng = random.Random(11)
    for _ in range(50):
        dr = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        di = Fraction(rng.randint(-5, 20), rng.randint(1, 20))
        if dr == 0 and di == 0:
            dr = Fraction(1, 10)
        bad = QuadComplex(tau.re + dr, tau.im + di)
        with pytest.raises(NotAttractor):
            verify_attractor(ch, bad, omega)
        with pytest.raises(NotAttractor):
            solve_lambda(ch, bad, omega)


def test_verify_rejects_non_null_period():
    # recomputing Omega from a perturbed tau keeps the linear system consistent
    # but breaks the period quadric
    ch = diag_charge(4)
    tau, _ = solve_attractor(ch)
    bad_tau = QuadComplex(tau.re + QuadScalar(Fraction(1, 10)), tau.im)
    bad_omega = QuadComplex(ch.q - bad_tau.re.as_fraction() * ch.p, bad_tau.im * ch.p)
    with pytest.raises(NotAttractor):
        verify_attractor(ch, bad_tau, bad_omega)


def test_rotation_fields_diag_2_8():
    # tau = 2i, so Omega = q + 2i p: the Kaehler class of I is Im(Omega) = 2p
    # and Omega_I = omega_J + i Re(Omega) = omega_J + i q
    ch = diag_charge(4)
    _, Omega = solve_attractor(ch)
    assert Omega.im == 2 * ch.p
    omega_J = 2 * F + SIGMA0
    assert hyperkahler_rotate(Omega, omega_J) == QuadComplex(omega_J, ch.q)


def test_rotation_pairs_nothing(monkeypatch, sc28):
    # assembly checks omega_J (ERROR_TABLE), so the rotation only relabels
    import k3stab.attractor

    calls = []
    monkeypatch.setattr(k3stab.attractor, "pair", lambda *a: calls.append(a) or pair(*a))
    assert hyperkahler_rotate(sc28.Omega, sc28.omega_J) == sc28.Omega_I
    assert calls == []
    threefold_central_charge(sc28.Omega_I, F)  # the counter sees a pairing
    assert len(calls) == 1


@given(st.integers(1, 6), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_rotated_norms_agree(k, b):
    # omega_I^2 = (Im Omega_I)^2, that is (Im Omega)^2 = (Re Omega)^2, is
    # D / p^2 identically
    p = GAMMA.basis(2) + GAMMA.basis(3)
    q = b * GAMMA.basis(3) + GAMMA.basis(4) + k * GAMMA.basis(5)
    ch = Charge(p, q)
    if ch.disc <= 0:
        return
    _, Omega = solve_attractor(ch)
    lhs = pair(Omega.re, Omega.re)
    rhs = pair(Omega.im, Omega.im)
    assert lhs == rhs
    assert lhs == QuadScalar(Fraction(ch.disc, ch.p2))


def test_ns_lattice():
    ch = diag_charge(4)
    ns = ns_lattice(ch)
    assert ns.rank == 20
    basis_cols = [list(v.int_coords()) for v in ns.basis]
    matrix = [list(col) for col in zip(*basis_cols)]
    for member in (F, SIGMA0):
        assert solve_integer(matrix, member.int_coords()) is not None
    assert signature(ns) == (1, 0, 19)


def test_z_k3_examples():
    # the K3 central charge of a class is its pairing with omega_J
    omega_J = 2 * F + SIGMA0
    assert pair(omega_J, F) == 1
    assert pair(omega_J, LatticeVector.zero(22)) == 0
    assert pair(omega_J, SIGMA0) == 0


def test_threefold_charges(sc28):
    # omega_J = 2f + sigma0 pairs to 1 with f and to 0 with sigma0
    Omega_I = sc28.Omega_I
    assert threefold_central_charge(Omega_I, LatticeVector.zero(22)) == QuadComplex(0)
    assert threefold_central_charge(Omega_I, F) == QuadComplex(1)
    assert threefold_central_charge(Omega_I, SIGMA0) == QuadComplex(0)


def test_slag_reality_and_alignment(sc28):
    charges = []
    for cls in sc28.pic_basis:
        z = threefold_central_charge(sc28.Omega_I, cls)
        assert not z.im
        assert z.re == pair(sc28.omega_J, cls)
        charges.append(z)
    nonzero = [z for z in charges if z]
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            zi, zj = nonzero[i], nonzero[j]
            assert zi.re * zj.im - zi.im * zj.re == QuadScalar(0)
