"""The K3 lattice 2(-E8) + 3U, its Mukai extension, and exact lattice ops.

Basis order of the rank-24 Mukai lattice:

    index 0..1   U1  (e1, e2)          -- hosts the fibration classes
    index 2..3   U2  (e1, e2)
    index 4..5   U3  (e1, e2)
    index 6..13  E8(-1), negated Cartan matrix, Bourbaki node order
    index 14..21 E8(-1), second copy
    index 22..23 (r, s) block with Gram [[0,-1],[-1,0]]

The first 22 coordinates form the K3 lattice Gamma of signature (3,19).  The
final block carries the Mukai-pairing sign convention: a triple (r, D, s) has
pairing ((r1,D1,s1),(r2,D2,s2)) = D1.D2 - r1*s2 - r2*s1, so w = (0,0,-1) and
w* = (1,0,0) pair to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .exact import FieldMismatch, QuadComplex, QuadScalar
from .intmat import kernel_basis, mat_vec_int, signature_of

Scalar = Union[int, Fraction, QuadScalar]


class DimensionMismatch(ValueError):
    """Vector length does not match the ambient lattice rank."""


def _qs(x) -> QuadScalar:
    return x if isinstance(x, QuadScalar) else QuadScalar(x)


class LatticeVector:
    """A vector with exact (possibly irrational) coordinates in a fixed basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Scalar]):
        self.coords = tuple(_qs(c) for c in coords)

    @classmethod
    def zero(cls, rank: int) -> "LatticeVector":
        return cls([0] * rank)

    @classmethod
    def unit(cls, rank: int, i: int) -> "LatticeVector":
        return cls([1 if j == i else 0 for j in range(rank)])

    def __len__(self):
        return len(self.coords)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector([a + b for a, b in zip(self.coords, other.coords, strict=True)])

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector([a - b for a, b in zip(self.coords, other.coords, strict=True)])

    def __neg__(self) -> "LatticeVector":
        return LatticeVector([-a for a in self.coords])

    def __mul__(self, s):
        if isinstance(s, (int, Fraction, QuadScalar)):
            return LatticeVector([a * s if a else a for a in self.coords])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    @property
    def is_integral(self) -> bool:
        return all(c.is_integer for c in self.coords)

    def int_coords(self) -> list[int]:
        return [c.as_int() for c in self.coords]

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"LatticeVector({[str(c) for c in self.coords]})"


class ComplexVector:
    """A complexified lattice vector, kept as an exact (re, im) pair."""

    __slots__ = ("re", "im")

    def __init__(self, re: LatticeVector, im: Optional[LatticeVector] = None):
        self.re = re
        self.im = im if im is not None else LatticeVector.zero(len(re))
        if len(self.re) != len(self.im):
            raise DimensionMismatch("re/im length mismatch")

    def __add__(self, other: "ComplexVector") -> "ComplexVector":
        return ComplexVector(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexVector") -> "ComplexVector":
        return ComplexVector(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexVector":
        return ComplexVector(-self.re, -self.im)

    def scale(self, z) -> "ComplexVector":
        """Multiply by an exact scalar (real or complex)."""
        if isinstance(z, QuadComplex):
            return ComplexVector(
                self.re * z.re - self.im * z.im, self.re * z.im + self.im * z.re
            )
        return ComplexVector(self.re * z, self.im * z)

    def conj(self) -> "ComplexVector":
        return ComplexVector(self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, ComplexVector):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return f"{self.re} + i*{self.im}"


class GramLattice:
    """A lattice presented by an integral symmetric Gram matrix."""

    def __init__(self, gram: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None):
        self.rank = len(gram)
        self.gram = tuple(tuple(int(x) for x in row) for row in gram)
        for i in range(self.rank):
            if len(self.gram[i]) != self.rank:
                raise ValueError("gram matrix is not square")
            for j in range(self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix is not symmetric")
        self.labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(self.rank))
        self._nonzero = tuple(
            (i, j, self.gram[i][j])
            for i in range(self.rank)
            for j in range(self.rank)
            if self.gram[i][j]
        )

    def vector(self, coords: Iterable[Scalar]) -> LatticeVector:
        v = LatticeVector(coords)
        if len(v) != self.rank:
            raise DimensionMismatch(f"expected {self.rank} coordinates")
        return v

    def basis(self, i: int) -> LatticeVector:
        return LatticeVector.unit(self.rank, i)

    def __repr__(self):
        return f"GramLattice(rank={self.rank})"


@dataclass(frozen=True)
class Sublattice:
    """A primitive sublattice given by an integral basis of the ambient lattice."""

    ambient: GramLattice
    basis: tuple[LatticeVector, ...]

    def __init__(self, ambient: GramLattice, basis: Iterable[LatticeVector]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(basis))
        for v in self.basis:
            if len(v) != ambient.rank:
                raise DimensionMismatch("basis vector has wrong length")
            if not v.is_integral:
                raise ValueError("sublattice basis must be integral")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> list[list[int]]:
        return [[pair(self.ambient, x, y).as_int() for y in self.basis] for x in self.basis]

    def from_coefficients(self, coeffs: Sequence[int]) -> LatticeVector:
        out = [0] * self.ambient.rank  # integer sums: the basis is integral
        for c, b in zip(coeffs, self.basis, strict=True):
            if c:
                for i, x in enumerate(b.coords):
                    if x:
                        out[i] += c * x.a.numerator
        return LatticeVector(out)


def _numerators(v: LatticeVector) -> tuple[list[int], Optional[list[int]], int, int]:
    """Write v = (A + B sqrt(m)) / den with integer lists A, B (B is None when
    v is rational); raises FieldMismatch when v mixes two radicands."""
    m = 0
    den = 1
    for c in v.coords:
        if c.m and c.m != m:
            if m:
                raise FieldMismatch(f"sqrt({m}) vs sqrt({c.m})")
            m = c.m
        den = lcm(den, c.a.denominator, c.b.denominator)
    a = [c.a.numerator * (den // c.a.denominator) for c in v.coords]
    if not m:
        return a, None, den, 0
    return a, [c.b.numerator * (den // c.b.denominator) for c in v.coords], den, m


def _int_pair(nonzero, x: Sequence[int], y: Sequence[int]) -> int:
    return sum(g * x[i] * y[j] for i, j, g in nonzero)


def _pair_real(lat: GramLattice, x: LatticeVector, y: LatticeVector) -> QuadScalar:
    """x.y over integer numerators: one conversion per vector, then integer
    sums over the nonzero Gram entries.  Vectors over different quadratic
    fields raise FieldMismatch."""
    if len(x) != lat.rank or len(y) != lat.rank:
        raise DimensionMismatch("vector length does not match lattice rank")
    nz = lat._nonzero
    xa, xb, xd, xm = _numerators(x)
    ya, yb, yd, ym = _numerators(y)
    if xm and ym and xm != ym:
        raise FieldMismatch(f"sqrt({xm}) vs sqrt({ym})")
    rational = _int_pair(nz, xa, ya)
    radical = 0
    if xb is not None:
        radical += _int_pair(nz, xb, ya)
        if yb is not None:
            rational += xm * _int_pair(nz, xb, yb)
    if yb is not None:
        radical += _int_pair(nz, xa, yb)
    den = xd * yd
    return QuadScalar(Fraction(rational, den), Fraction(radical, den), xm or ym)


def pair(lat: GramLattice, x, y):
    """Exact Gram pairing; extended complex-bilinearly to ComplexVector inputs."""
    cx = isinstance(x, ComplexVector)
    cy = isinstance(y, ComplexVector)
    if not cx and not cy:
        return _pair_real(lat, x, y)
    if cx and cy:
        return QuadComplex(
            _pair_real(lat, x.re, y.re) - _pair_real(lat, x.im, y.im),
            _pair_real(lat, x.re, y.im) + _pair_real(lat, x.im, y.re),
        )
    if cx:
        return QuadComplex(_pair_real(lat, x.re, y), _pair_real(lat, x.im, y))
    return QuadComplex(_pair_real(lat, x, y.re), _pair_real(lat, x, y.im))


def gram_of(lat: GramLattice, vectors: Sequence[LatticeVector]) -> list[list[QuadScalar]]:
    return [[pair(lat, x, y) for y in vectors] for x in vectors]


def signature(obj) -> tuple[int, int, int]:
    """Inertia (n_plus, n_zero, n_minus) of a GramLattice or Sublattice."""
    if isinstance(obj, GramLattice):
        return signature_of(obj.gram)
    if isinstance(obj, Sublattice):
        return signature_of(obj.gram())
    return signature_of(obj)


def orth_complement(lat: GramLattice, gens: Sequence[LatticeVector]) -> Sublattice:
    """Integral basis of {x : x.g = 0 for all generators g}; saturated.

    A generator may have rational or Q(sqrt m) coordinates: an integral x is
    orthogonal to g = (A + B sqrt(m)) / den exactly when x.A = x.B = 0, so each
    generator adds the integer rows G A and, when irrational, G B.
    """
    rows = []
    for g in gens:
        a, b, _, _ = _numerators(g)
        rows.append(mat_vec_int(lat.gram, a))
        if b is not None:
            rows.append(mat_vec_int(lat.gram, b))
    kern = kernel_basis(rows, lat.rank)
    return Sublattice(lat, [lat.vector(v) for v in kern])


def project_off_hyperbolic(lat: GramLattice, v: LatticeVector, vstar: LatticeVector, x):
    """Projection killing the hyperbolic summand spanned by v, v* (v^2 = v*^2 = 0, v.v* = 1).

    pr(x) = x - (x.v*) v - (x.v) v*; the image pairs to zero with both v and v*.
    """
    if isinstance(x, ComplexVector):
        return ComplexVector(
            project_off_hyperbolic(lat, v, vstar, x.re),
            project_off_hyperbolic(lat, v, vstar, x.im),
        )
    return x - pair(lat, x, vstar) * v - pair(lat, x, v) * vstar


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

    def to_ambient(self) -> LatticeVector:
        """Coordinates in the rank-24 Mukai lattice (D followed by r, s)."""
        return LatticeVector(list(self.D.coords) + [self.r, self.s])

    def __str__(self):
        return f"({self.r}, {self.D}, {self.s})"


# ---------------------------------------------------------------------------
# Standard lattices.

U_GRAM = ((0, 1), (1, 0))
U_MUKAI_GRAM = ((0, -1), (-1, 0))

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
    labels = (
        ["u1.e1", "u1.e2", "u2.e1", "u2.e2", "u3.e1", "u3.e2"]
        + [f"e8a.{i}" for i in range(1, 9)]
        + [f"e8b.{i}" for i in range(1, 9)]
    )
    gram = _block_diag([U_GRAM, U_GRAM, U_GRAM, _e8_neg(), _e8_neg()])
    return GramLattice(gram, labels)


def standard_mukai_lattice() -> GramLattice:
    """Gamma extended by the (r, s) block carrying the Mukai pairing signs."""
    k3 = standard_k3_lattice()
    gram = _block_diag([k3.gram, U_MUKAI_GRAM])
    labels = list(k3.labels) + ["mukai.r", "mukai.s"]
    return GramLattice(gram, labels)


GAMMA = standard_k3_lattice()
MUKAI = standard_mukai_lattice()

MUKAI_W = MukaiVector(0, LatticeVector.zero(GAMMA.rank), -1)
MUKAI_WSTAR = MukaiVector(1, LatticeVector.zero(GAMMA.rank), 0)


def embed_gamma(x: LatticeVector) -> LatticeVector:
    """Extend a Gamma vector by zero Mukai coordinates."""
    if len(x) != GAMMA.rank:
        raise DimensionMismatch("expected a Gamma vector")
    return LatticeVector(list(x.coords) + [0, 0])
