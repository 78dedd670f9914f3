"""The K3 lattice Gamma = 2(-E8) + 3U, its vectors, and exact lattice ops.

Basis order of the rank-22 lattice Gamma, of signature (3,19):

    index 0..1   U1  (e1, e2)          -- hosts the fibration classes
    index 2..3   U2  (e1, e2)
    index 4..5   U3  (e1, e2)
    index 6..13  E8(-1), negated Cartan matrix, Bourbaki node order
    index 14..21 E8(-1), second copy

GAMMA is the only lattice the library builds.  A Mukai vector (r, D, s)
keeps D in Gamma, and the stability module pairs triples by pairings in
GAMMA (its docstring gives the Mukai pairing).

A `LatticeVector` lives in one field Q(sqrt m): it is stored as integer
numerator lists (A, B) over one common denominator, so sums, scalings and the
pairing `pair` of GAMMA are integer list operations with one field check
each.  Every charge, period and class is a Gamma vector, and `pair`,
`Sublattice.gram` and `orth_complement` all pair in GAMMA.
QuadScalar is the scalar type at the boundary: the constructor parses
QuadScalar coordinates, `pair` returns one, and `coords` renders the vector
as QuadScalars.  A QuadScalar keeps the same kind of integer parts, (p + q
sqrt(m)) / d, so all three read or build those integers directly: `pair`
and `coords` wrap them by `QuadScalar._ints`, and no Fraction is built.

A fixed vector paired with many integral classes (the Picard classes of a
scenario against v, v*, B, omega or Omega_I) is paired with all of them in
one pass, `pair(x, [y1, y2, ...])`: an integral y has no denominator and no
radical part, so x.y is one dot product of y's integers with each numerator
list of x's kept image (`pair_numerators`), with no per-class field join.

A `GramLattice` keeps the nonzero entries of each Gram row (at most 3 in
GAMMA), and every integer image G x -- the Gram matrix of a `Sublattice`,
the rows of `orth_complement`, GAMMA's image a vector keeps for `pair` -- is
summed over those entries and the nonzero coordinates of x, never over the
dense matrix.  A pairing x.y is then one dot product of the numerators of x
with the kept image of y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Union

from .exact import FieldMismatch, QuadComplex, QuadScalar, _join
from .intmat import kernel_basis

Scalar = Union[int, Fraction, QuadScalar]

_ints = QuadScalar._ints


class DimensionMismatch(ValueError):
    """Vector length does not match the ambient lattice rank."""


class LatticeVector:
    """An exact vector (A + B sqrt(m)) / den in a fixed basis.

    `A` and `B` are integer lists (`B` is None when the vector is rational),
    `den` > 0 is one common denominator with gcd(den, A, B) = 1, and `m` is
    the square-free radicand (0 when rational).  The form is canonical, so two
    vectors are equal exactly when their numerators are.  Arithmetic works on
    the integer lists with one field check per operation; two different
    radicands meeting raise FieldMismatch.  `coords`, the coordinates as
    QuadScalars, is built on first read, for rendering.  No code writes to
    `A` or `B`, so a vector paired in GAMMA keeps the GAMMA Gram image of
    its numerators (`_pair_real`).
    """

    __slots__ = ("A", "B", "den", "m", "_coords", "_image")

    def __init__(self, coords: Iterable[Scalar]):
        """Parse exact scalars; a vector with two radicands raises FieldMismatch."""
        qs = tuple(c if isinstance(c, QuadScalar) else QuadScalar(c) for c in coords)
        m = 0
        den = 1
        for c in qs:
            if c.m and c.m != m:
                if m:
                    raise FieldMismatch(f"sqrt({m}) vs sqrt({c.m})")
                m = c.m
            den = lcm(den, c.d)
        # gcd(p, q, d) = 1 in each coordinate, so gcd(den, A, B) = 1
        self.A = [c.p * (den // c.d) for c in qs]
        self.B = [c.q * (den // c.d) for c in qs] if m else None
        self.den = den
        self.m = m
        self._coords = qs
        self._image = None

    @classmethod
    def _raw(cls, A: list[int], B: Optional[list[int]], den: int, m: int) -> "LatticeVector":
        """Wrap numerators that are already in canonical form."""
        v = object.__new__(cls)
        v.A, v.B, v.den, v.m, v._coords, v._image = A, B, den, m, None, None
        return v

    @classmethod
    def _reduced(cls, A: list[int], B: Optional[list[int]], den: int, m: int) -> "LatticeVector":
        """The canonical form of (A + B sqrt(m)) / den, den > 0."""
        if B is not None and not any(B):
            B, m = None, 0
        if den != 1:
            g = gcd(den, *A) if B is None else gcd(den, *A, *B)
            if g != 1:
                A = [a // g for a in A]
                if B is not None:
                    B = [b // g for b in B]
                den //= g
        return cls._raw(A, B, den, m)

    @classmethod
    def from_ints(cls, ints: Iterable[int]) -> "LatticeVector":
        """The integral vector with the given integer coordinates."""
        return cls._raw(list(ints), None, 1, 0)

    @classmethod
    def zero(cls, rank: int) -> "LatticeVector":
        return cls.from_ints([0] * rank)

    @classmethod
    def unit(cls, rank: int, i: int) -> "LatticeVector":
        return cls.from_ints([1 if j == i else 0 for j in range(rank)])

    @property
    def coords(self) -> tuple[QuadScalar, ...]:
        out = self._coords
        if out is None:
            den, m = self.den, self.m
            B = self.B or [0] * len(self.A)
            out = tuple(_ints(a, b, den, m) for a, b in zip(self.A, B))
            self._coords = out
        return out

    def __len__(self):
        return len(self.A)

    def _combine(self, other: "LatticeVector", sign: int) -> "LatticeVector":
        """self + sign * other over the common denominator."""
        if len(self.A) != len(other.A):
            raise DimensionMismatch("vector lengths differ")
        m = _join(self.m, other.m)
        if self.den == other.den:
            den, s, t = self.den, 1, sign
        else:
            den = lcm(self.den, other.den)
            s, t = den // self.den, sign * (den // other.den)
        return LatticeVector._reduced(
            _lin(self.A, s, other.A, t), _lin(self.B, s, other.B, t), den, m
        )

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "LatticeVector":
        B = None if self.B is None else [-b for b in self.B]
        return LatticeVector._raw([-a for a in self.A], B, self.den, self.m)

    def __mul__(self, s):
        if isinstance(s, QuadScalar):
            x, y, sd = s.p, s.q, s.d
            if not y:
                n, d = x, sd
            else:
                m = _join(self.m, s.m)
                A, B = self.A, self.B
                if B is None:
                    newA, newB = [x * a for a in A], [y * a for a in A]
                else:
                    my = m * y
                    newA = [x * a + my * b for a, b in zip(A, B)]
                    newB = [y * a + x * b for a, b in zip(A, B)]
                return LatticeVector._reduced(newA, newB, self.den * sd, m)
        elif isinstance(s, int):
            n, d = s, 1
        elif isinstance(s, Fraction):
            n, d = s.numerator, s.denominator
        else:
            return NotImplemented
        B = None if self.B is None else [n * b for b in self.B]
        return LatticeVector._reduced([n * a for a in self.A], B, self.den * d, self.m)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return (
            self.den == other.den
            and self.m == other.m
            and self.A == other.A
            and self.B == other.B
        )

    def __hash__(self):
        return hash((self.den, self.m, tuple(self.A), None if self.B is None else tuple(self.B)))

    def __bool__(self):
        return self.B is not None or any(self.A)

    @property
    def is_integral(self) -> bool:
        return self.den == 1 and self.B is None

    def int_coords(self) -> list[int]:
        if not self.is_integral:
            raise ValueError(f"{self} is not integral")
        return list(self.A)

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"LatticeVector({[str(c) for c in self.coords]})"


def _lin(x: Optional[list[int]], s: int, y: Optional[list[int]], t: int) -> Optional[list[int]]:
    """s x + t y for integer lists, with None standing for the zero list."""
    if x is None:
        return None if y is None else [t * b for b in y]
    if y is None:
        return [s * a for a in x]
    return [s * a + t * b for a, b in zip(x, y)]


class GramLattice:
    """A lattice presented by an integral symmetric Gram matrix."""

    def __init__(self, gram: Sequence[Sequence[int]]):
        self.rank = len(gram)
        self.gram = tuple(tuple(int(x) for x in row) for row in gram)
        for i in range(self.rank):
            if len(self.gram[i]) != self.rank:
                raise ValueError("gram matrix is not square")
            for j in range(self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix is not symmetric")
        # the nonzero entries of each row: at most 3 in the standard lattices
        self._rows = tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram)
        self._inverse: Optional[GramLattice] = None

    def image(self, x: Sequence[int]) -> list[int]:
        """G x for an integer vector x, summed over the nonzero coordinates of
        x and the nonzero Gram entries of their rows (G is symmetric)."""
        out = [0] * self.rank
        for i, xi in enumerate(x):
            if xi:
                for j, g in self._rows[i]:
                    out[j] += g * xi
        return out

    def inverse(self) -> "GramLattice":
        """The lattice of G^-1 for a unimodular G, so that G^-1 z is the
        sparse `image` of z; computed on first use, by Gauss-Jordan over Q on
        [G | I] that touches only the nonzero entries of each pivot row, and
        kept.  Raises ValueError when G is singular or G^-1 is not
        integral."""
        if self._inverse is None:
            n = self.rank
            m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
                 for i, row in enumerate(self.gram)]
            for col in range(n):
                piv = next((i for i in range(col, n) if m[i][col]), None)
                if piv is None:
                    raise ValueError("gram matrix is singular")
                m[col], m[piv] = m[piv], m[col]
                row, inv = m[col], m[col][col]
                entries = [(j, x / inv) for j, x in enumerate(row) if x]
                for j, x in entries:
                    row[j] = x
                for i, other in enumerate(m):
                    f = other[col]
                    if i != col and f:
                        for j, x in entries:
                            other[j] -= f * x
            if any(x.denominator != 1 for row in m for x in row[n:]):
                raise ValueError("gram matrix is not unimodular")
            self._inverse = GramLattice([[int(x) for x in row[n:]] for row in m])
        return self._inverse

    def basis(self, i: int) -> LatticeVector:
        return LatticeVector.unit(self.rank, i)

    def __repr__(self):
        return f"GramLattice(rank={self.rank})"


@dataclass(frozen=True)
class Sublattice:
    """A primitive sublattice of GAMMA given by an integral basis.

    ``dual``, when given (`orth_complement` gives it), returns integer
    coordinate rows d_j with d_j . b_k = delta_jk on the basis b_k.
    """

    basis: tuple[LatticeVector, ...]
    dual: Optional[Callable[[], list[list[int]]]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        for v in self.basis:
            if len(v) != GAMMA.rank:
                raise DimensionMismatch("basis vector has wrong length")
            if not v.is_integral:
                raise ValueError("sublattice basis must be integral")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> list[list[int]]:
        """The integer Gram matrix of the basis: one sparse image G y per basis
        vector y, then x . (G y) over the nonzero coordinates of x, i <= j."""
        images = [GAMMA.image(b.A) for b in self.basis]
        support = [[(i, a) for i, a in enumerate(b.A) if a] for b in self.basis]
        n = len(images)
        out = [[0] * n for _ in range(n)]
        for k in range(n):
            for j in range(k, n):
                gy = images[j]
                out[k][j] = out[j][k] = sum(a * gy[i] for i, a in support[k])
        return out


def _kept_image(x: LatticeVector) -> tuple[list[int], Optional[list[int]]]:
    """The GAMMA Gram image ``(G A, G B)`` of the numerators of x, computed on
    first use and kept on x (G B is None when x is rational)."""
    img = x._image
    if img is None:
        img = x._image = (GAMMA.image(x.A), None if x.B is None else GAMMA.image(x.B))
    return img


def _pair_real(x: LatticeVector, y: LatticeVector) -> QuadScalar:
    """x.y in GAMMA as integer dot products of the numerators of one operand
    with the Gram image of the other.

    The image is the one an operand already keeps, y's first; when neither
    keeps one, x is imaged and keeps it (`_kept_image`).  On the certificate
    path most pairings are against a vector paired many times (the B and
    omega of a stability point, the fibration classes, omega_J).  Vectors
    over different quadratic fields raise FieldMismatch.  The two sums over
    den are the integer parts of the result, wrapped by `QuadScalar._ints`
    with one gcd and no Fraction.
    """
    if len(x.A) != GAMMA.rank or len(y.A) != GAMMA.rank:
        raise DimensionMismatch("vector length does not match lattice rank")
    m = _join(x.m, y.m)
    if y._image is None:
        x, y = y, x
    ga, gb = _kept_image(y)
    rational = sum(map(mul, x.A, ga))
    radical = 0
    if x.B is not None:
        radical += sum(map(mul, x.B, ga))
        if gb is not None:
            rational += m * sum(map(mul, x.B, gb))
    if gb is not None:
        radical += sum(map(mul, x.A, gb))
    return _ints(rational, radical, x.den * y.den, m)


def pair_numerators(
    x: LatticeVector, ys: Sequence[LatticeVector]
) -> tuple[list[int], Optional[list[int]]]:
    """The integer numerators of x.y for every integral y of ys, in one pass
    over the Gram image that x keeps: x.y_k = (R_k + S_k sqrt(x.m)) / x.den
    for the returned lists (R, S), S None when x is rational.

    An integral y has no denominator and no radical part, so each pairing is
    one dot product of y's integers per numerator list of x, with no field
    join and no scalar built.  A y of another length raises
    DimensionMismatch, a non-integral one ValueError.
    """
    n = GAMMA.rank
    if len(x.A) != n:
        raise DimensionMismatch("vector length does not match lattice rank")
    for y in ys:
        if len(y.A) != n:
            raise DimensionMismatch("vector length does not match lattice rank")
        if y.den != 1 or y.B is not None:
            raise ValueError(f"{y} is not integral")
    ga, gb = _kept_image(x)
    rows = [y.A for y in ys]
    R = [sum(map(mul, a, ga)) for a in rows]
    return R, None if gb is None else [sum(map(mul, a, gb)) for a in rows]


def pair(x, y):
    """The exact pairing of GAMMA; extended complex-bilinearly to QuadComplex
    vectors.  For a list y of integral vectors it is the list of the
    pairings x.y_k, from one pass over x's kept Gram image
    (`pair_numerators`) and one scalar built per pairing."""
    cx = isinstance(x, QuadComplex)
    if type(y) is list:
        if cx:
            return list(map(QuadComplex, _pair_each(x.re, y), _pair_each(x.im, y)))
        return _pair_each(x, y)
    cy = isinstance(y, QuadComplex)
    if not cx and not cy:
        return _pair_real(x, y)
    if cx and cy:
        return QuadComplex(
            _pair_real(x.re, y.re) - _pair_real(x.im, y.im),
            _pair_real(x.re, y.im) + _pair_real(x.im, y.re),
        )
    if cx:
        return QuadComplex(_pair_real(x.re, y), _pair_real(x.im, y))
    return QuadComplex(_pair_real(x, y.re), _pair_real(x, y.im))


def _pair_each(x: LatticeVector, ys: list[LatticeVector]) -> list[QuadScalar]:
    """The scalars x.y of `pair_numerators`."""
    R, S = pair_numerators(x, ys)
    den = x.den
    if S is None:
        return [_ints(r, 0, den, 0) for r in R]
    m = x.m
    return [_ints(r, s, den, m) for r, s in zip(R, S)]


def orth_complement(gens: Sequence[LatticeVector]) -> Sublattice:
    """Integral basis of {x in GAMMA : x.g = 0 for all generators g};
    saturated, with the coordinate rows dual to it from the same column
    reduction (`intmat.kernel_basis`).

    A generator may have rational or Q(sqrt m) coordinates: an integral x is
    orthogonal to g = (A + B sqrt(m)) / den exactly when x.A = x.B = 0, so each
    generator adds the integer rows G A and, when irrational, G B.
    """
    rows = []
    for g in gens:
        rows.append(GAMMA.image(g.A))
        if g.B is not None:
            rows.append(GAMMA.image(g.B))
    kern, dual = kernel_basis(rows, GAMMA.rank)
    return Sublattice([LatticeVector.from_ints(v) for v in kern], dual)


@dataclass(frozen=True)
class MukaiVector:
    """An integral triple (r, D, s) with D in the K3 lattice."""

    r: int
    D: LatticeVector
    s: int

    def __post_init__(self):
        if not self.D.is_integral:
            raise ValueError("Mukai vector component must be integral")

    def __neg__(self):
        return MukaiVector(-self.r, -self.D, -self.s)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.D + other.D, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.D - other.D, self.s - other.s)

    def __str__(self):
        return f"({self.r}, {self.D}, {self.s})"


# ---------------------------------------------------------------------------
# Standard lattices.

U_GRAM = ((0, 1), (1, 0))

# Bourbaki node order: chain 1-3-4-5-6-7-8 with node 2 attached to node 4.
E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        offset += len(b)
    return out


def _e8_neg():
    return tuple(tuple(-x for x in row) for row in E8_CARTAN)


def standard_k3_lattice() -> GramLattice:
    """Gamma = 3U + 2(-E8) in the basis order documented at module top."""
    gram = _block_diag([U_GRAM, U_GRAM, U_GRAM, _e8_neg(), _e8_neg()])
    return GramLattice(gram)


GAMMA = standard_k3_lattice()
