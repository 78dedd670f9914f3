"""Positive-definite even integral binary quadratic forms.

A form is the symmetric matrix [[a, b], [b, c]] with even diagonal, acting as
a*x^2 + 2*b*x*y + c*y^2; its discriminant is det = a*c - b^2 > 0.  Proper
(SL2(Z)) equivalence only: Q1 ~ Q2 iff Q1 = r^T Q2 r with det r = 1.

Reduction convention: -a < 2b <= a <= c, with b >= 0 when a = c.  Every
returned witness matrix is re-verified against its defining identity before it
leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional


@dataclass(frozen=True)
class BinaryEvenForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise ValueError("diagonal entries must be positive")
        if self.a % 2 or self.c % 2:
            raise ValueError("diagonal entries must be even")
        if self.discriminant() <= 0:
            raise ValueError("form must be positive definite (a*c - b^2 > 0)")

    def discriminant(self) -> int:
        return self.a * self.c - self.b * self.b

    def as_list(self) -> list[int]:
        return [self.a, self.b, self.c]

    def __str__(self):
        return f"[{self.a}, {self.b}, {self.c}]"


@dataclass(frozen=True)
class SL2Witness:
    entries: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        (p, q), (r, s) = self.entries
        if p * s - q * r != 1:
            raise ValueError("witness must have determinant 1")

    @classmethod
    def identity(cls) -> "SL2Witness":
        return cls(((1, 0), (0, 1)))

    def __matmul__(self, other: "SL2Witness") -> "SL2Witness":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return SL2Witness(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))

    def inverse(self) -> "SL2Witness":
        (a, b), (c, d) = self.entries
        return SL2Witness(((d, -b), (-c, a)))

    def conjugate(self, form: BinaryEvenForm) -> BinaryEvenForm:
        """r^T Q r for r = self."""
        (p, q), (r, s) = self.entries
        a, b, c = form.a, form.b, form.c
        na = a * p * p + 2 * b * p * r + c * r * r
        nb = a * p * q + b * (p * s + q * r) + c * r * s
        nc = a * q * q + 2 * b * q * s + c * s * s
        return BinaryEvenForm(na, nb, nc)

    def as_rows(self) -> list[list[int]]:
        return [list(self.entries[0]), list(self.entries[1])]

    def __str__(self):
        return str(self.as_rows())


_SWAP = SL2Witness(((0, -1), (1, 0)))


def _shear(k: int) -> SL2Witness:
    return SL2Witness(((1, -k), (0, 1)))


def gauss_reduce(form: BinaryEvenForm) -> tuple[BinaryEvenForm, SL2Witness]:
    """Reduced representative plus a witness w with  input = w^T * reduced * w."""
    current = form
    total = SL2Witness.identity()  # current = total^T * form * total
    while True:
        if not (-current.a < 2 * current.b <= current.a):
            # translate b into (-a/2, a/2]
            k = (2 * current.b + current.a - 1) // (2 * current.a)
            step = _shear(k)
            current = step.conjugate(current)
            total = total @ step
            continue
        if current.a > current.c or (current.a == current.c and current.b < 0):
            current = _SWAP.conjugate(current)
            total = total @ _SWAP
            continue
        break
    witness = total.inverse()  # form = witness^T * current * witness
    assert witness.conjugate(current) == form, "reduction witness failed verification"
    return current, witness


def sl2_equivalent(q1: BinaryEvenForm, q2: BinaryEvenForm) -> Optional[SL2Witness]:
    """A witness r with q1 = r^T * q2 * r, or None when inequivalent."""
    r1, w1 = gauss_reduce(q1)  # q1 = w1^T r1 w1
    r2, w2 = gauss_reduce(q2)  # q2 = w2^T r2 w2
    if r1 != r2:
        return None
    witness = w2.inverse() @ w1
    assert witness.conjugate(q2) == q1, "equivalence witness failed verification"
    return witness


def enumerate_reduced(disc: int) -> list[BinaryEvenForm]:
    """All reduced even positive-definite forms of the given discriminant.

    Reduction forces 3*a^2/4 <= a*c - b^2 = disc, so a runs up to
    sqrt(4*disc/3); ascending (a, b) order.
    """
    if disc <= 0:
        raise ValueError("discriminant must be positive")
    out = []
    a_max = isqrt(4 * disc // 3)
    for a in range(2, a_max + 1, 2):
        for b in range(-(a // 2) + 1, a // 2 + 1):
            num = disc + b * b
            if num % a:
                continue
            c = num // a
            if c % 2 or c < a:
                continue
            if a == c and b < 0:
                continue
            out.append(BinaryEvenForm(a, b, c))
    return out

