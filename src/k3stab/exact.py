"""Exact scalar arithmetic over Q and over a real quadratic extension Q(sqrt(m)).

Every quantity in this package is an exact number: a rational, a value
``a + b*sqrt(m)`` with ``a, b`` rational and ``m`` a square-free positive
integer, or a complex pair of such values.  Signs (hence all inequalities,
positivity tests and wall conditions) are decided exactly, never through
floating point.

The design is deliberately restrictive: a single radical per computation.
Mixing ``sqrt(2)`` with ``sqrt(3)`` raises :class:`FieldMismatch` instead of
silently working in a larger field.  One auxiliary radical is all the
attractor and mirror formulas ever need.

:class:`QuadScalar` is the scalar type of pairings, charges, parsing and
serialization.  Lattice vectors do not hold one per coordinate: a
``lattice.LatticeVector`` keeps integer numerators over one common
denominator in one field, and converts to QuadScalars only for rendering.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class FieldMismatch(ValueError):
    """Arithmetic between two irrational scalars with different radicands."""


def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*m`` with ``m`` square-free; return ``(s, m)``.

    ``n`` must be nonnegative; ``0`` splits as ``(0, 1)``.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, m, d = 1, 1, 2
    while d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            s *= d ** (count // 2)
            if count % 2:
                m *= d
        d += 1 if d == 2 else 2
    return s, m * n


class QuadScalar:
    """An exact real number ``a + b*sqrt(m)``.

    Canonical form: ``a`` and ``b`` are reduced fractions, ``m`` is square-free,
    and ``b == 0`` forces ``m == 0``.  Instances are immutable by convention.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Rational = 0, b: Rational = 0, m: int = 0):
        a = Fraction(a)
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
            return QuadScalar(x)
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
        return QuadScalar(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.a - o.a, self.b - o.b, self._join(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # rational factor: no field join
            return QuadScalar(self.a * other, self.b * other, self.m)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join(o)
        return QuadScalar(
            self.a * o.a + m * self.b * o.b, self.a * o.b + self.b * o.a, m
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.m)

    def __pos__(self):
        return self

    def inverse(self) -> "QuadScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return QuadScalar(self.a / n, -self.b / n, self.m)

    def conj(self) -> "QuadScalar":
        """Galois conjugate ``a - b*sqrt(m)``."""
        return QuadScalar(self.a, -self.b, self.m)

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

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- views ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

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


def qs_sign(x: QuadScalar | Rational) -> int:
    """Exact sign of a scalar (module-level convenience)."""
    if isinstance(x, QuadScalar):
        return x.sign()
    return (x > 0) - (x < 0)


ZERO = QuadScalar(0)
ONE = QuadScalar(1)


class QuadComplex:
    """A complex number with :class:`QuadScalar` real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0, m: int | None = None):
        if m is not None:
            re = QuadScalar(re, 0, 0) if not isinstance(re, QuadScalar) else re
            im = QuadScalar(0, im, m) if not isinstance(im, QuadScalar) else im
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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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


I = QuadComplex(0, 1)
