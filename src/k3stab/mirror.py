"""The lattice-level mirror map.

An elliptic fibration with section gives classes f (fiber) and sigma0
(section) with f^2 = 0, f.sigma0 = 1, sigma0^2 = -2, hence a hyperbolic
summand U' spanned by v = f, v* = f + sigma0, and a splitting
Gamma = Gamma' + U' with Gamma' = (U')^perp.

The mirror map swaps U' with the (r, s) Mukai block U via v -> w = (0,0,-1),
v* -> w* = (1,0,0) (equivalently f -> w, sigma0 -> (1,0,1)) and is the
identity on Gamma'.  On period data ((P, omega), B), with P spanned by Omega,
Im(Omega) orthogonal to v, omega and B in Gamma'_R + R*v, omega^2 > 0 and
Re(Omega).v != 0, it acts by

    mirror Omega   = (pr(B + i omega) - 1/2 (B + i omega)^2 v + v*) / (Re(Omega).v)
    mirror B+i omega = (pr(Omega) - (Omega.B) v) / (Re(Omega).v)

where pr = `SplitData.project` kills the U' components.  Applying the map
twice returns the input period exactly whenever the input satisfies
Omega^2 = 0; for non-null inputs (e.g. unnormalized hyperkaehler data) only
the Kaehler-side data returns, and the involution check reports that honestly
instead of asserting it.

With pr(x) = x - (x.v*) v - (x.v) v*, each of the four output vectors (Re
and Im of mirror Omega, mirror omega, mirror B) is s (y - a v - b v*) for
one input vector y, s = 1 / (Re(Omega).v) and scalars a, b gathered from
the formula: for Re(mirror Omega), y = B, a = B.v* + (B^2 - omega^2) / 2
and b = B.v - 1.  `SplitData.shift` computes it in one pass over the
numerators of y and the integers of v and v*, and reduces the result
once; `project` is its s = 1 case, and the core of a mirror class its
integer case.  The pairings are one list pairing pair(x, [v, v*]) per
input vector x and five real ones (B.B, omega.omega, B.omega, Re(Omega).B,
Im(Omega).B); no pairing is expanded.  The two invariants of the output
period come from three pairings of its parts, rr, ii and ri:
(mirror Omega)^2 = (rr - ii) + 2i ri, so null means rr = ii and ri = 0,
and (mirror Omega).conj(mirror Omega) = rr + ii, whose imaginary part a
symmetric pairing makes zero, so a positive plane means rr + ii > 0.

The involution check decides by pairings too, resting on those asserts:
the second period c + i d has c.d = 0 and c.c = d.d = n > 0, so x lies in
span(c, d) exactly when n x = (x.c) c + (x.d) d, and Re and Im of the input
then span it exactly when (Re.c)(Im.d) - (Re.d)(Im.c) != 0; and as v^2 = 0
and v.v* = 1, omega returns up to a v-multiple exactly when
delta = omega'' - omega equals t v for t = delta.v*.

The preconditions are the caller's, and `mirror_period` tests none of them.
Scenario assembly proves them for the data (Omega_I, Im(Omega), B) at
omega_J, where only B.v = 0 needs a test: Im(Omega_I) = Re(Omega) and
Im(Omega) lie in span(p, q), which is orthogonal to v = f;
Im(Omega)^2 = D / p^2 > 0; and Re(Omega_I).v = omega_J.f is nonzero since
omega_J^2 > 0 (the light-cone argument of `stability.search_kahler_class`).
They hold alike at the Kaehler search's candidate, and for the mirror data
that the involution check maps a second time (its Re(Omega).v is the
inverse of the input's) except omega^2 > 0: that square is
Im(Omega)^2 / (Re(Omega).v)^2 when Im(Omega).v = 0, and 0 on the plane
omega_J + i omega_J at omega_J = v + v*, where pr(omega_J) = 0, so the
check decides it by one pairing and raises `PreconditionViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exact import QuadComplex, QuadScalar, _join, _parts
from .lattice import LatticeVector, MukaiVector, pair, pair_numerators


_HALF = Fraction(1, 2)


class PreconditionViolation(ValueError):
    """An input violates a documented precondition."""


@dataclass(frozen=True)
class SplitData:
    """A fixed hyperbolic splitting Gamma = Gamma' + U' with U' = <f, f+sigma0>."""

    f: LatticeVector
    sigma0: LatticeVector
    v: LatticeVector
    vstar: LatticeVector

    def project(self, x: LatticeVector) -> LatticeVector:
        """The projection pr onto Gamma'_R, pr(x) = x - (x.v*) v - (x.v) v*:
        v^2 = v*^2 = 0 and v.v* = 1, so the image pairs to zero with both v
        and v*.  The s = 1 case of `shift`."""
        x_vstar, x_v = pair(x, [self.vstar, self.v])
        return self.shift(x, x_vstar, x_v)

    def shift(self, y: LatticeVector, a, b, s=1) -> LatticeVector:
        """s (y - a v - b v*) for exact scalars a, b, s (int, Fraction or
        QuadScalar), in one pass over the numerators of y and the integers
        of v and v* (`make_split` checks that both are integral).

        Over the common denominator D of y, a and b, and with
        s = (s_p + s_q sqrt(m)) / s_d, each numerator of the result is one
        integer combination of y's numerators and of v's and v*'s integers,
        whose coefficients are products of the scalars' integers; the list
        over D s_d is reduced once.  Nothing is built per term."""
        pa, qa, da, ma = _parts(a)
        pb, qb, db, mb = _parts(b)
        ps, qs, ds, ms = _parts(s)
        m = _join(_join(y.m, ma), _join(mb, ms))
        den = lcm(y.den, da, db)
        t = den // y.den
        ca, cb = -den // da, -den // db  # -a and -b over den
        pa, qa, pb, qb = pa * ca, qa * ca, pb * cb, qb * cb
        A, B, V, W = y.A, y.B, self.v.A, self.vstar.A
        if not m:  # every radical part is zero
            k, kv, kw = ps * t, ps * pa, ps * pb
            return LatticeVector._reduced(
                [k * x + kv * g + kw * h for x, g, h in zip(A, V, W)], None, den * ds, 0
            )
        # (s_p + s_q r)((t A + pa v + pb w) + (t B + qa v + qb w) r), r = sqrt(m)
        mq = m * qs
        k, kv, kw = ps * t, ps * pa + mq * qa, ps * pb + mq * qb
        j, jv, jw = qs * t, qs * pa + ps * qa, qs * pb + ps * qb
        kb, jb = mq * t, ps * t
        rows = list(zip(A, B or [0] * len(A), V, W))
        return LatticeVector._reduced(
            [k * x + kb * z + kv * g + kw * h for x, z, g, h in rows],
            [j * x + jb * z + jv * g + jw * h for x, z, g, h in rows],
            den * ds,
            m,
        )


def make_split(f: LatticeVector, sigma0: LatticeVector) -> SplitData:
    if not (f.is_integral and sigma0.is_integral):
        raise PreconditionViolation(f"f and sigma0 must be integral classes; got {f}, {sigma0}")
    if pair(f, f) != 0 or pair(f, sigma0) != 1 or pair(sigma0, sigma0) != -2:
        raise PreconditionViolation(
            "need f^2 = 0, f.sigma0 = 1, sigma0^2 = -2; got "
            f"{pair(f, f)}, {pair(f, sigma0)}, {pair(sigma0, sigma0)}"
        )
    return SplitData(f=f, sigma0=sigma0, v=f, vstar=f + sigma0)


@dataclass(frozen=True)
class MirrorTriple:
    """Mirror period Omega, complexified Kaehler class omega and B-field."""

    Omega_check: QuadComplex
    omega_check: LatticeVector
    B_check: LatticeVector


def mirror_period(
    split: SplitData, Omega: QuadComplex, omega: LatticeVector, B: LatticeVector
) -> MirrorTriple:
    """Apply the mirror map to period data that meets the preconditions of
    the module docstring; all scalars exact.  Each output vector is one
    `SplitData.shift` of an input vector, its coefficients gathered from
    pr(x) = x - (x.v*) v - (x.v) v* and the v-shift of the formula.  The
    two invariants of the output period are asserted."""
    v, vstar = split.v, split.vstar
    re, im = Omega.re, Omega.im
    (B_v, B_w), (w_v, w_w), (r_v, r_w), (i_v, i_w) = (
        pair(x, [v, vstar]) for x in (B, omega, re, im)
    )
    scale = r_v.inverse()
    B_omega = pair(B, omega)
    # (B + i omega)^2 / 2 = (B.B - omega.omega) / 2 + i B.omega
    half_sq_re = (pair(B, B) - pair(omega, omega)) * _HALF
    triple = MirrorTriple(
        Omega_check=QuadComplex(
            split.shift(B, B_w + half_sq_re, B_v - 1, scale),
            split.shift(omega, w_w + B_omega, w_v, scale),
        ),
        omega_check=split.shift(im, i_w + pair(im, B), i_v, scale),
        B_check=split.shift(re, r_w + pair(re, B), r_v, scale),
    )
    # the two invariants from three pairings (module docstring)
    check = triple.Omega_check
    rr, ii, ri = pair(check.re, check.re), pair(check.im, check.im), pair(check.re, check.im)
    assert rr == ii and not ri, "mirror period is not null"
    assert (rr + ii).sign() > 0, "mirror period plane is not positive"
    return triple


def mirror_classes(split: SplitData, classes: Sequence[LatticeVector]) -> list[MukaiVector]:
    """Mukai vectors of the mirrors of integral classes.

    Decompose cls = pr(cls) + a v + b v*; the result is (b, pr(cls), -a), the
    identity on Gamma' with f -> (0,0,-1) and sigma0 -> (1,0,1).  The
    integers a = cls.v* and b = cls.v of every class come from one pass each
    over the kept Gram images of v* and v (`pair_numerators`; both are
    integral, `make_split` checks it), and the core cls - a v - b v* is
    one `SplitData.shift`.  A class in Gamma' (a = b = 0, as every eta
    class is) is its own core.
    """
    A, _ = pair_numerators(split.vstar, classes)  # ValueError unless every class is integral
    B, _ = pair_numerators(split.v, classes)
    out = []
    for cls, a, b in zip(classes, A, B):
        if a or b:
            out.append(MukaiVector(b, split.shift(cls, a, b), -a))
        else:
            out.append(MukaiVector(0, cls, 0))
    return out


def mirror_class(split: SplitData, cls: LatticeVector) -> MukaiVector:
    """The Mukai vector of the mirror of one integral class: the one-element
    case of `mirror_classes`."""
    return mirror_classes(split, [cls])[0]


@dataclass(frozen=True)
class InvolutionReport:
    """Outcome of applying the mirror map twice."""

    span_equal: bool
    omega_recovered: bool  # up to a multiple of v
    b_recovered: bool
    omega_v_shift: QuadScalar  # coefficient of v in (omega'' - omega)
    second: MirrorTriple

    @property
    def holds(self) -> bool:
        return self.span_equal and self.omega_recovered and self.b_recovered


def mirror_involution_check(
    split: SplitData, Omega: QuadComplex, omega: LatticeVector, B: LatticeVector
) -> InvolutionReport:
    """Apply the mirror map twice and compare with the input.

    The period-plane equality is guaranteed for null input periods
    (Omega^2 = 0); the Kaehler-side data returns exactly in B and up to an
    explicit v-multiple in omega, whose coefficient is reported.  An input
    whose image has omega^2 <= 0 raises `PreconditionViolation`.

    Both tests are pairings.  The second period c + i d is an output of
    `mirror_period`, whose asserts give c.d = 0 and c.c = d.d = n > 0, so
    a vector x lies in span(c, d) exactly when n x = (x.c) c + (x.d) d, and
    Re and Im of the input, once both lie there, span it exactly when
    (Re.c)(Im.d) - (Re.d)(Im.c) != 0.  Since v^2 = 0 and v.v* = 1, the only
    candidate coefficient of v in delta = omega'' - omega is t = delta.v*,
    and omega returns exactly when delta = t v.
    """
    first = mirror_period(split, Omega, omega, B)
    if pair(first.omega_check, first.omega_check).sign() <= 0:
        raise PreconditionViolation(
            "the mirror image's omega has square <= 0, so the map cannot be applied again"
        )
    second = mirror_period(split, first.Omega_check, first.omega_check, first.B_check)
    c, d = second.Omega_check.re, second.Omega_check.im
    n = pair(c, c)
    (rc, rd), (ic, id_) = ((pair(x, c), pair(x, d)) for x in (Omega.re, Omega.im))
    span_equal = (
        n * Omega.re == rc * c + rd * d
        and n * Omega.im == ic * c + id_ * d
        and bool(rc * id_ - rd * ic)
    )
    delta = second.omega_check - omega
    shift = pair(delta, split.vstar)
    return InvolutionReport(
        span_equal=span_equal,
        omega_recovered=delta == shift * split.v,
        b_recovered=second.B_check == B,
        omega_v_shift=shift,
        second=second,
    )
