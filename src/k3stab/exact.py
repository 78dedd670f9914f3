"""Exact scalar arithmetic over Q and over a real quadratic extension Q(sqrt(m)).

Every quantity in this package is an exact number: a rational, a value
``a + b*sqrt(m)`` with ``a, b`` rational and ``m`` a square-free positive
integer, or a complex pair (`QuadComplex`) of such values or of lattice
vectors.  Signs (hence all inequalities, positivity tests and wall
conditions) are decided exactly, never through floating point.
``QuadScalar.sign()`` is the one order: scalars define no ``<`` or ``>``,
and every comparison is written as the sign of a difference.

The design is deliberately restrictive: a single radical per computation.
Mixing ``sqrt(2)`` with ``sqrt(3)`` raises :class:`FieldMismatch` instead of
silently working in a larger field.  One auxiliary radical is all the
attractor and mirror formulas ever need.

:class:`QuadScalar` is the scalar type of pairings, charges, parsing and
serialization.  It holds four integers ``(p, q, d, m)``, read as
``(p + q*sqrt(m)) / d``: one denominator for both parts, as a
``lattice.LatticeVector`` keeps one for all its coordinates.  The form is
canonical, so two scalars are equal exactly when their integers are:
``d > 0``, ``gcd(p, q, d) = 1``, ``m`` square-free, and ``q = 0`` forces
``m = 0``.

A scalar is canonicalized where its parts come from outside: the public
constructor takes rational parts ``a`` and ``b`` and splits the square part
off the radicand.  Every arithmetic result, and every pairing and rendered
coordinate in ``lattice``, is built from integer products by
``QuadScalar._ints``, which divides out one gcd and drops ``m`` when the
radicals cancel; no Fraction is built on the way.  ``str`` writes a scalar
from its integers too.  The rational parts ``a = p/d`` and ``b = q/d`` are
read-only Fraction views, for callers that want a rational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Union

Rational = Union[int, Fraction]


class FieldMismatch(ValueError):
    """Arithmetic between two irrational scalars with different radicands."""


_TRIAL, _PROVEN, _RHO_STEPS = 10**6, 3317044064679887385961981, 2**17


class UnsplitRadicand(ValueError):
    """A radicand whose square part cannot be split off in bounded time."""


def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*m`` with ``m`` square-free; return ``(s, m)``.

    ``n`` must be nonnegative; ``0`` splits as ``(0, 1)``.  Trial division
    stops at ``_TRIAL`` or once d^3 exceeds the cofactor.  In the second
    case the cofactor's primes are all at least d, so it has at most two,
    and it is either a prime square or square-free.  Otherwise Pollard-Brent
    rho splits the cofactor into squares and primes, each proven prime by
    Miller-Rabin on the first 13 prime bases, a test proven below
    ``_PROVEN`` (Sorenson and Webster, Math. Comp. 2017).
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, m, d = 1, 1, 2
    while d < _TRIAL and d * d * d <= n:
        if d % 256 == 1 and gcd(n, prod(range(d, d + 256, 2))) == 1:
            d += 256  # one gcd clears the 128 odd d of a block
            continue
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            s *= d ** (count // 2)
            if count % 2:
                m *= d
        d += 1 if d == 2 else 2
    if d * d * d > n:
        r = isqrt(n)
        return (s * r, m) if r * r == n else (s, m * n)
    odd: set[int] = set()  # the primes found an odd number of times
    pending = [n]  # factors that no d < _TRIAL divides
    while pending:
        x = pending.pop()
        r = isqrt(x)
        if r * r == x:
            s *= r
        elif x < _TRIAL * _TRIAL or x < _PROVEN and _is_prime(x):
            s *= x if x in odd else 1
            odd ^= {x}
        else:
            pending += [y := _rho_factor(x), x // y]
    return s, m * prod(odd)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases: a proof for 41 < n < _PROVEN."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    xs = (pow(a, (n - 1) >> r, n) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    return all(x == 1 or n - 1 in {pow(x, 1 << i, n) for i in range(r)} for x in xs)


def _rho_factor(n: int) -> int:
    """A proper factor of an odd n, no square and no prime below _PROVEN, by
    rho on x^2 + c, c = 1, 2, ..., one gcd per 128 steps.  n over _PROVEN may
    be prime: UnsplitRadicand after _RHO_STEPS steps, at once over _PROVEN^2."""
    spent, c = 0, 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            if n >= _PROVEN and (spent >= _RHO_STEPS or n >= _PROVEN * _PROVEN):
                raise UnsplitRadicand(
                    f"a radicand has a factor over {_PROVEN}, the bound of the primality "
                    "proof, that is not a perfect square and that rho leaves unsplit"
                )
            x, q = y, 1
            for start in range(0, r, 128):
                for _ in range(min(128, r - start)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            spent, r = spent + r, 2 * r
        if g != n:  # else the batch overshot: the next c
            return g


class QuadScalar:
    """An exact real number ``(p + q*sqrt(m)) / d``, read as ``a + b*sqrt(m)``.

    Canonical form: ``d > 0``, ``gcd(p, q, d) == 1``, ``m`` square-free, and
    ``q == 0`` forces ``m == 0``.  Instances are immutable by convention.
    """

    __slots__ = ("p", "q", "d", "m")

    def __init__(self, a: Rational = 0, b: Rational = 0, m: int = 0):
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        m = int(m)
        if m < 0:
            raise ValueError("radicand must be nonnegative")
        p, q, d = an * bd, bn * ad, ad * bd
        if q:
            s, m = squarefree_split(m)
            q *= s
            if m == 1:
                p, q = p + q, 0
        g = gcd(p, q, d)
        self.p = p // g
        self.q = q // g
        self.d = d // g
        self.m = m if q else 0

    @staticmethod
    def _ints(p: int, q: int, d: int, m: int) -> "QuadScalar":
        """The canonical scalar ``(p + q*sqrt(m)) / d`` for integers with
        d > 0 and m square-free: one gcd divides out the common factor, and
        m drops when q == 0.  Nothing is coerced or split."""
        if d != 1:
            g = gcd(p, q, d)
            if g != 1:
                p //= g
                q //= g
                d //= g
        x = _new(QuadScalar)
        x.p = p
        x.q = q
        x.d = d
        x.m = m if q else 0
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

    # -- ring / field operations --------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d, m = o
        m = _join(self.m, m)
        if d == self.d:
            return _ints(self.p + p, self.q + q, d, m)
        return _ints(self.p * d + p * self.d, self.q * d + q * self.d, self.d * d, m)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d, m = o
        m = _join(self.m, m)
        if d == self.d:
            return _ints(self.p - p, self.q - q, d, m)
        return _ints(self.p * d - p * self.d, self.q * d - q * self.d, self.d * d, m)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d, m = o
        m = _join(self.m, m)  # a rational factor has m == 0 and q == 0
        # the radical part is 0 also when the radicals cancel
        return _ints(self.p * p + m * self.q * q, self.p * q + self.q * p, self.d * d, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self * _ints(*o).inverse()

    def __neg__(self):
        return _ints(-self.p, -self.q, self.d, self.m)

    def inverse(self) -> "QuadScalar":
        """``d (p - q*sqrt(m)) / (p^2 - m q^2)``, the denominator made positive."""
        p, q, d = self.p, self.q, self.d
        n = p * p - self.m * q * q  # 0 only for zero: sqrt(m) is irrational
        if not n:
            raise ZeroDivisionError("inverse of zero")
        if n < 0:
            return _ints(-d * p, d * q, -n, self.m)
        return _ints(d * p, -d * q, n, self.m)

    def conj(self) -> "QuadScalar":
        """Galois conjugate ``a - b*sqrt(m)``."""
        return _ints(self.p, -self.q, self.d, self.m)

    # -- exact decisions ------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by comparing p^2 with m*q^2."""
        p, q = self.p, self.q
        sp = (p > 0) - (p < 0)
        sq = (q > 0) - (q < 0)
        if sq == 0:
            return sp
        if sp == 0 or sp == sq:
            return sq
        # opposite signs: the larger of p^2 and m*q^2 wins; they cannot tie
        # because sqrt(m) is irrational in canonical form.
        return sp if p * p > self.m * q * q else sq

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.d, self.m) == o

    def __hash__(self):
        # equal values hash alike: a rational scalar equals its Fraction
        if not self.q:
            return hash(self.p) if self.d == 1 else hash(self.a)
        return hash((self.p, self.q, self.d, self.m))

    # -- views ----------------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part ``p/d``."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient ``q/d`` of ``sqrt(m)``."""
        return Fraction(self.q, self.d)

    @property
    def is_rational(self) -> bool:
        return not self.q

    def as_fraction(self) -> Fraction:
        if self.q:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_int(self) -> int:
        if self.q:
            raise ValueError(f"{self} is irrational")
        if self.d != 1:
            raise ValueError(f"{self} is not an integer")
        return self.p

    def __float__(self) -> float:
        """The double nearest to the value, ties to even, from integers only;
        OverflowError beyond the float range.

        For the absolute value x, a lower bound 2^e on x d comes from bit
        lengths, and the scale 2^k puts x 2^k above 2^55.  Its integer part n,
        from one isqrt, then has at least 56 bits, and n | 1 rounds to 53 bits
        as x 2^k does: x is irrational, so the dropped fraction is never 0.
        Python rounds int division and int-to-float conversion correctly."""
        p, q, d, m = self.p, self.q, self.d, self.m
        if not q:
            return p / d
        sign = self.sign()
        p, q = sign * p, sign * q
        if p < 0 or q < 0:  # opposite signs: p + q sqrt(m) = (p^2 - m q^2) / (p - q sqrt(m))
            e = abs(p * p - m * q * q).bit_length() - 1 - (abs(p) + abs(q) * m).bit_length()
        else:
            e = max(p.bit_length(), q.bit_length()) - 1
        k = 55 - e + d.bit_length()
        a, b = max(k, 0), max(-k, 0)
        t = q << a
        root = isqrt(m * t * t)  # floor(|t| sqrt(m)), never exact
        n = ((p << a) + (root if t > 0 else -root - 1)) // (d << b)  # floor(x 2^k)
        return sign * ((n | 1) / (1 << k) if k >= 0 else float((n | 1) << b))

    # -- serialization ----------------------------------------------------

    def __str__(self):
        """``a``, ``a + b*sqrt(m)`` or ``a - |b|*sqrt(m)``, each of a and b
        written as ``str(Fraction)`` writes it, from the integers: a rational
        p/d is in lowest terms already, and an irrational one takes one gcd
        per part."""
        p, q, d = self.p, self.q, self.d
        if not q:
            return _ratio_str(p, d)
        g, h = gcd(p, d), gcd(q, d)
        a = _ratio_str(p // g, d // g)
        if q < 0:
            return f"{a} - {_ratio_str(-q // h, d // h)}*sqrt({self.m})"
        return f"{a} + {_ratio_str(q // h, d // h)}*sqrt({self.m})"

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, {self.m})"


_new = object.__new__
_ints = QuadScalar._ints
# exact types: an isinstance test of Fraction goes through ABCMeta
_RATIONALS = frozenset((int, Fraction))


def _ratio_str(n: int, d: int) -> str:
    """The text of n/d for coprime n and d > 0, as `str(Fraction)` gives it."""
    return int.__repr__(n) if d == 1 else f"{n}/{d}"


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational constructor argument."""
    if isinstance(x, int):
        return int(x), 1
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def _parts(x) -> "tuple[int, int, int, int] | None":
    """(p, q, d, m) of a QuadScalar, int or Fraction operand; None for any
    other type."""
    if isinstance(x, QuadScalar):
        return x.p, x.q, x.d, x.m
    if isinstance(x, int):
        return x, 0, 1, 0
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, 0
    return None


def _join(m1: int, m2: int) -> int:
    """The radicand of a result over the fields of both operands."""
    if m1 and m2 and m1 != m2:
        raise FieldMismatch(f"sqrt({m1}) vs sqrt({m2})")
    return m1 or m2


_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:(?P<root>sqrt\((?P<m>\d+)\)))?\s*"
)


_QUOTE_LIMIT = 200


def quoted(value) -> str:
    """repr(value) for an error message, cut after its first 200 characters:
    an input, and so the message that quotes it, can be as long as its file."""
    text = repr(value)
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


def parse_quad(text: str) -> QuadScalar:
    """Parse the ``"a + b*sqrt(m)"`` serialization (also plain ``"a"``).

    A term is a coefficient, a root or both (``"3 sqrt(5)"``, ``"3*sqrt(5)"``);
    every term after the first needs its ``+`` or ``-``, so ``"1 2"`` is an
    error and not 3."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    result = QuadScalar(0)
    pos = 0
    while pos < len(s):
        match = _TERM.match(s, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse scalar {quoted(text)} at position {pos}")
        if (match.group("coef") is None and match.group("root") is None) or (
            pos and not match.group("sign")
        ):
            raise ValueError(f"cannot parse scalar {quoted(text)} at position {pos}")
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
    """An exact complex pair ``re + i*im``: two :class:`QuadScalar` parts (a
    complex number), or two ``lattice.LatticeVector`` parts of one length (a
    complexified class).  ``im`` defaults to the zero of ``re``'s kind.

    A real factor (QuadScalar, int or Fraction) multiplies both parts; a
    QuadComplex factor takes the four products, so a vector pair times a
    scalar pair works in either order through the vector's reflected
    product."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=None):
        if type(re) in _RATIONALS:
            re = QuadScalar(re)
        if im is None:
            im = re * 0
        elif type(im) in _RATIONALS:
            im = QuadScalar(im)
        self.re = re
        self.im = im

    @staticmethod
    def _coerce(x) -> "QuadComplex | None":
        if isinstance(x, QuadComplex):
            return x
        if isinstance(x, (QuadScalar, int, Fraction)):
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
        if isinstance(other, QuadComplex):
            re, im = other.re, other.im
            return QuadComplex(self.re * re - self.im * im, self.re * im + self.im * re)
        if isinstance(other, (QuadScalar, int, Fraction)):
            return QuadComplex(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return QuadComplex(-self.re, -self.im)

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

