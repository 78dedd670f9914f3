"""Attractor data for a charge (p, q) on K3 x T^2.

For p, q in the K3 lattice with p^2 > 0 and D = p^2 q^2 - (p.q)^2 > 0 the
attractor equation fixes the torus modulus tau = (p.q + i*sqrt(D)) / p^2 and
the K3 period Omega = q - conj(tau) p.  Everything here is exact: sqrt(D) lives in
Q(sqrt(m)) for the square-free part m of D.

The attractor decomposition p dx + q dy = lambda (dx + tau dy) ^ Omega + c.c.
has the closed-form witness lambda = -i / (2 Im tau).  Equating the dx and dy
components asks for p = 2 Re(lambda Omega) and q = 2 Re(lambda tau Omega).
With Omega = q - conj(tau) p the first is
(lambda + conj(lambda)) q - (lambda conj(tau) + conj(lambda) tau) p = p,
so lambda = i t is imaginary and 2 t Im tau = -1; the second then reads
2 Re(lambda tau) q = (Im tau / Im tau) q = q.  The witness is unique: Omega
and conj(Omega) are linearly independent (Omega^2 = 0 while
Omega.conj(Omega) > 0), so the coefficients of p in the basis (Omega,
conj(Omega)) are fixed.

The hyperkaehler rotation bookkeeping follows the standard triple (I, J, K):
the given complex structure is J, rotation to I turns holomorphic cycles into
special Lagrangians, and it relabels the attractor period Omega:

    omega_I     = Im(Omega) = Im(tau) p      (the Kaehler class of I, up to scale)
    Im(Omega_I) = Re(Omega) = q - Re(tau) p
    Re(Omega_I) = omega_J                    (the chosen Kaehler representative of J)

Omega_I is a null period only when omega_J^2 = D / p^2, and that
normalization is never enforced: the downstream reality and wall statements
are invariant under positive rescaling of omega_J, and the Kaehler search
needs the scale free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import QuadComplex, QuadScalar
from .lattice import LatticeVector, pair


class DegenerateCharge(ValueError):
    """p^2 <= 0 or D <= 0: the charge plane is not positive definite."""


class NotAttractor(ValueError):
    """The supplied (tau, Omega) do not decompose the charge."""


@dataclass(frozen=True)
class Charge:
    """An integral pair (p, q) in the K3 lattice."""

    p: LatticeVector
    q: LatticeVector

    def __post_init__(self):
        if not (self.p.is_integral and self.q.is_integral):
            raise ValueError("charge vectors must be integral")

    @cached_property
    def p2(self) -> int:
        return pair(self.p, self.p).as_int()

    @cached_property
    def q2(self) -> int:
        return pair(self.q, self.q).as_int()

    @cached_property
    def pq(self) -> int:
        return pair(self.p, self.q).as_int()

    @cached_property
    def disc(self) -> int:
        """D = p^2 q^2 - (p.q)^2."""
        return self.p2 * self.q2 - self.pq * self.pq


def solve_attractor(charge: Charge) -> tuple[QuadComplex, QuadComplex]:
    """Exact attractor solution (tau, Omega) with Omega = q - conj(tau) p,
    for a positive definite charge plane (p^2 > 0 and D > 0)."""
    if charge.p2 <= 0 or charge.disc <= 0:
        raise DegenerateCharge(f"p^2={charge.p2}, D={charge.disc}")
    re = QuadScalar(Fraction(charge.pq, charge.p2))
    im = QuadScalar.sqrt(charge.disc) * Fraction(1, charge.p2)
    tau = QuadComplex(re, im)
    omega = QuadComplex(charge.q - re * charge.p, im * charge.p)
    return tau, omega


def verify_attractor(charge: Charge, tau: QuadComplex, omega: QuadComplex) -> QuadComplex:
    """Check p dx + q dy = lambda * (dx + tau dy) ^ Omega + c.c. with the
    witness lambda = -i / (2 Im tau) (module docstring) and return lambda.

    Im tau must be positive and Omega a genuine period (Omega^2 = 0,
    Omega.conj(Omega) > 0); then the dx and dy components must give p and q.
    Any perturbation of the attractor solution makes some test fail.
    """
    if tau.im.sign() <= 0:
        raise NotAttractor("Im tau is not positive")
    if pair(omega, omega):
        raise NotAttractor("Omega^2 is nonzero: not a period vector")
    norm = pair(omega, omega.conj())
    if norm.im or norm.re.sign() <= 0:
        raise NotAttractor("Omega . conj(Omega) is not positive")
    lam = QuadComplex(0, tau.im.inverse() * Fraction(-1, 2))
    lam_bar = lam.conj()
    dx = omega * lam + omega.conj() * lam_bar
    if dx != QuadComplex(charge.p):
        raise NotAttractor("dx component mismatch")
    dy = omega * (lam * tau) + omega.conj() * (lam_bar * tau.conj())
    if dy != QuadComplex(charge.q):
        raise NotAttractor("dy component mismatch")
    return lam


def hyperkahler_rotate(Omega: QuadComplex, omega_J: LatticeVector) -> QuadComplex:
    """The period Omega_I = omega_J + i Re(Omega) of the complex structure I,
    from the attractor period Omega of the charge.

    omega_J must annihilate p and q and have positive square; scenario
    assembly checks both, so the rotation only relabels.  Its scale is free
    (module docstring).
    """
    return QuadComplex(omega_J, Omega.re)


def threefold_central_charges(
    Omega_I: QuadComplex, classes: Sequence[LatticeVector]
) -> list[QuadComplex]:
    """Central charges of the charges cls dy (p' = 0) of integral classes
    against Omega_I ^ (dx + tau dy).

    With the unit torus normalization the pairing collapses to
    Omega_I . (q' - tau p') = Omega_I . cls, so tau does not enter; Re and
    Im of Omega_I are each paired with every class in one pass.
    """
    return pair(Omega_I, list(classes))


def threefold_central_charge(Omega_I: QuadComplex, cls: LatticeVector) -> QuadComplex:
    """The threefold central charge of one integral class: the one-element
    case of `threefold_central_charges`."""
    return threefold_central_charges(Omega_I, [cls])[0]
