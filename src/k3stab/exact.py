"""Exact scalar arithmetic over Q and over a real quadratic extension Q(sqrt(m)).

Every quantity in this package is an exact number: a rational, a value
``a + b*sqrt(m)`` with ``a, b`` rational and ``m`` a square-free positive
integer, or a complex pair of such values.  Signs (hence all inequalities,
positivity tests and wall conditions) are decided exactly, never through
floating point.  ``QuadScalar.sign()`` is the one order: scalars define no
``<`` or ``>``, and every comparison is written as the sign of a difference.

The design is deliberately restrictive: a single radical per computation.
Mixing ``sqrt(2)`` with ``sqrt(3)`` raises :class:`FieldMismatch` instead of
silently working in a larger field.  One auxiliary radical is all the
attractor and mirror formulas ever need.

:class:`QuadScalar` is the scalar type of pairings, charges, parsing and
serialization.  Lattice vectors do not hold one per coordinate: a
``lattice.LatticeVector`` keeps integer numerators over one common
denominator in one field, and converts to QuadScalars only for rendering.

A scalar is canonicalized once, where its parts come from outside: the
public constructor coerces them to Fractions and splits the square part off
the radicand.  Every arithmetic result, and every pairing and rendered
coordinate in ``lattice``, already has canonical parts (Fractions, a
square-free radicand, and m = 0 when b = 0, which the result sets itself
when the radicals cancel), so it is wrapped by ``QuadScalar._canon``, which
coerces and splits nothing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union

Rational = Union[int, Fraction]


class FieldMismatch(ValueError):
    """Arithmetic between two irrational scalars with different radicands."""


def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*m`` with ``m`` square-free; return ``(s, m)``.

    ``n`` must be nonnegative; ``0`` splits as ``(0, 1)``.  Trial division
    stops once d^3 exceeds the cofactor: its primes are all at least d, so
    it has at most two, and it is either a prime square or square-free.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, m, d = 1, 1, 2
    while d * d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            s *= d ** (count // 2)
            if count % 2:
                m *= d
        d += 1 if d == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return s * r, m
    return s, m * n


class QuadScalar:
    """An exact real number ``a + b*sqrt(m)``.

    Canonical form: ``a`` and ``b`` are reduced fractions, ``m`` is square-free,
    and ``b == 0`` forces ``m == 0``.  Instances are immutable by convention.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Rational = 0, b: Rational = 0, m: int = 0):
        # Fraction() of a Fraction would pass the slow numbers.Rational check
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        m = int(m)
        if m < 0:
            raise ValueError("radicand must be nonnegative")
        if b:
            s, m = squarefree_split(m)
            b *= s
            if m == 1:
                a += b
                b = Fraction(0)
                m = 0
        if not b:
            m = 0
        self.a = a
        self.b = b
        self.m = m

    @staticmethod
    def _canon(a: Fraction, b: Fraction, m: int) -> "QuadScalar":
        """Wrap parts that are already canonical: Fractions a and b, m
        square-free, and m == 0 when b == 0.  Nothing is coerced or split."""
        x = _new(QuadScalar)
        x.a = a
        x.b = b
        x.m = m
        return x

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt(cls, n: Rational) -> "QuadScalar":
        """Exact square root of a nonnegative rational."""
        n = Fraction(n)
        if n < 0:
            raise ValueError("negative radicand")
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(0, Fraction(1, n.denominator), n.numerator * n.denominator)

    @staticmethod
    def _coerce(x) -> "QuadScalar | None":
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _canon(x if type(x) is Fraction else Fraction(x), _ZERO, 0)
        return None

    def _join(self, other: "QuadScalar") -> int:
        if self.m and other.m and self.m != other.m:
            raise FieldMismatch(f"sqrt({self.m}) vs sqrt({other.m})")
        return self.m or other.m

    # -- ring / field operations --------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join(o)
        b = self.b + o.b
        return _canon(self.a + o.a, b, m if b else 0)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join(o)
        b = self.b - o.b
        return _canon(self.a - o.a, b, m if b else 0)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # rational factor: no field join
            b = self.b * other
            return _canon(self.a * other, b, self.m if b else 0)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join(o)
        b = self.a * o.b + self.b * o.a  # 0 also when the radicals cancel
        return _canon(self.a * o.a + m * self.b * o.b, b, m if b else 0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self):
        return _canon(-self.a, -self.b, self.m)

    def inverse(self) -> "QuadScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return _canon(self.a / n, -self.b / n, self.m)

    def conj(self) -> "QuadScalar":
        """Galois conjugate ``a - b*sqrt(m)``."""
        return _canon(self.a, -self.b, self.m)

    def norm(self) -> Fraction:
        """Field norm ``a*a - m*b*b`` (rational)."""
        return self.a * self.a - self.m * self.b * self.b

    # -- exact decisions ------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by comparing a^2 with m*b^2."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite signs: the larger of a^2 and m*b^2 wins; they cannot tie
        # because sqrt(m) is irrational in canonical form.
        return sa if self.a * self.a > self.m * self.b * self.b else sb

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.m == o.m

    def __hash__(self):
        # equal values hash alike: a rational scalar equals its Fraction
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    # -- views ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return f.numerator

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.m ** 0.5

    # -- serialization ----------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b < 0:
            return f"{self.a} - {-self.b}*sqrt({self.m})"
        return f"{self.a} + {self.b}*sqrt({self.m})"

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, {self.m})"


_new = object.__new__
_canon = QuadScalar._canon
_ZERO = Fraction(0)


_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:(?P<root>sqrt\((?P<m>\d+)\)))?\s*"
)


def parse_quad(text: str) -> QuadScalar:
    """Parse the ``"a + b*sqrt(m)"`` serialization (also plain ``"a"``)."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    result = QuadScalar(0)
    pos = 0
    while pos < len(s):
        match = _TERM.match(s, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r} at position {pos}")
        if match.group("coef") is None and match.group("root") is None:
            raise ValueError(f"cannot parse scalar {text!r} at position {pos}")
        sign = -1 if match.group("sign") == "-" else 1
        coef = Fraction(match.group("coef")) if match.group("coef") else Fraction(1)
        if match.group("root"):
            term = QuadScalar(0, sign * coef, int(match.group("m")))
        else:
            term = QuadScalar(sign * coef)
        result = result + term
        pos = match.end()
    return result


class QuadComplex:
    """A complex number with :class:`QuadScalar` real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, QuadScalar) else QuadScalar(re)
        self.im = im if isinstance(im, QuadScalar) else QuadScalar(im)

    @staticmethod
    def _coerce(x) -> "QuadComplex | None":
        if isinstance(x, QuadComplex):
            return x
        if isinstance(x, (int, Fraction, QuadScalar)):
            return QuadComplex(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self):
        return QuadComplex(-self.re, -self.im)

    def inverse(self) -> "QuadComplex":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return QuadComplex(self.re / n, -self.im / n)

    def conj(self) -> "QuadComplex":
        return QuadComplex(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal values hash alike: a real complex equals its real part
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        return f"({self.re}) + ({self.im})*i"

    def __repr__(self):
        return f"QuadComplex({self.re!r}, {self.im!r})"

