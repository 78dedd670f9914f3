import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.attractor import (
    Charge,
    DegenerateCharge,
    NotAttractor,
    NotOrthogonal,
    NotPositive,
    hyperkahler_rotate,
    ns_lattice,
    solve_attractor,
    threefold_central_charge,
    verify_attractor,
    z_k3,
)
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.lattice import GAMMA, ComplexVector, LatticeVector, pair, signature
from oracles import solve_integer

F = GAMMA.basis(0)
SIGMA0 = GAMMA.basis(1) - GAMMA.basis(0)
P = GAMMA.basis(2) + GAMMA.basis(3)


def diag_charge(k: int) -> Charge:
    """The block realization of the form diag(2, 2k)."""
    return Charge(P, GAMMA.basis(4) + k * GAMMA.basis(5))


def test_tau_for_diag_2_8():
    tau, omega = solve_attractor(diag_charge(4))
    assert tau == QuadComplex(0, 2)
    assert pair(GAMMA, omega, omega) == QuadComplex(0)
    assert pair(GAMMA, omega, omega.conj()) == QuadComplex(16)


def test_tau_for_diag_2_2():
    tau, _ = solve_attractor(diag_charge(1))
    assert tau == QuadComplex(0, 1)


def test_tau_irrational_case():
    # p^2 = 2, q^2 = 6: D = 12, sqrt(12) = 2 sqrt(3)
    ch = diag_charge(3)
    tau, omega = solve_attractor(ch)
    assert tau.im == QuadScalar(0, 1, 3)
    assert pair(GAMMA, omega, omega) == QuadComplex(0)


def test_degenerate_charges():
    with pytest.raises(DegenerateCharge):
        solve_attractor(Charge(GAMMA.basis(2), GAMMA.basis(4)))  # p^2 = 0
    with pytest.raises(DegenerateCharge):
        solve_attractor(Charge(P, P))  # D = 0


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


def test_verify_rejects_non_null_period():
    # recomputing Omega from a perturbed tau keeps the linear system consistent
    # but breaks the period quadric
    ch = diag_charge(4)
    tau, _ = solve_attractor(ch)
    bad_tau = QuadComplex(tau.re + QuadScalar(Fraction(1, 10)), tau.im)
    bad_omega = ComplexVector(ch.q - bad_tau.re.as_fraction() * ch.p, bad_tau.im * ch.p)
    with pytest.raises(NotAttractor):
        verify_attractor(ch, bad_tau, bad_omega)


def test_rotation_fields_diag_2_8():
    ch = diag_charge(4)
    tau, _ = solve_attractor(ch)
    data = hyperkahler_rotate(ch, tau, 2 * F + SIGMA0)
    assert data.omega_I == 2 * ch.p
    assert data.im_omega_I == ch.q
    assert not data.is_normalized  # omega_J^2 = 2 while D / p^2 = 8
    assert data.m == 0


def test_rotation_rejections():
    ch = diag_charge(4)
    tau, _ = solve_attractor(ch)
    with pytest.raises(NotOrthogonal):
        hyperkahler_rotate(ch, tau, GAMMA.basis(2))
    with pytest.raises(NotPositive):
        hyperkahler_rotate(ch, tau, GAMMA.basis(6))  # a (-2)-class


@given(st.integers(1, 6), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_rotated_norms_agree(k, b):
    # omega_I^2 = (Im Omega_I)^2 = D / p^2 identically
    p = GAMMA.basis(2) + GAMMA.basis(3)
    q = b * GAMMA.basis(3) + GAMMA.basis(4) + k * GAMMA.basis(5)
    ch = Charge(p, q)
    if ch.disc <= 0:
        return
    tau, _ = solve_attractor(ch)
    data = hyperkahler_rotate(ch, tau, 2 * F + SIGMA0)
    lhs = pair(GAMMA, data.omega_I, data.omega_I)
    rhs = pair(GAMMA, data.im_omega_I, data.im_omega_I)
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
    omega_J = 2 * F + SIGMA0
    assert z_k3(GAMMA, omega_J, F) == 1
    assert z_k3(GAMMA, omega_J, LatticeVector.zero(22)) == 0
    assert z_k3(GAMMA, omega_J, SIGMA0) == 0


def test_threefold_charges(sc28):
    zero = LatticeVector.zero(22)
    assert threefold_central_charge(sc28.data, zero, zero) == QuadComplex(0)
    z = threefold_central_charge(sc28.data, zero, F)
    assert z == QuadComplex(1)
    assert threefold_central_charge(sc28.data, sc28.charge.p, zero) == QuadComplex(0)


def test_slag_reality_and_alignment(sc28):
    zero = LatticeVector.zero(22)
    charges = []
    for cls in sc28.pic_basis:
        z = threefold_central_charge(sc28.data, zero, cls)
        assert not z.im
        assert z.re == z_k3(GAMMA, sc28.data.omega_J, cls)
        charges.append(z)
    nonzero = [z for z in charges if z]
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            zi, zj = nonzero[i], nonzero[j]
            assert zi.re * zj.im - zi.im * zj.re == QuadScalar(0)
