"""Reference implementations that the tests compare the library against."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from k3stab.attractor import DegenerateCharge, NotAttractor
from k3stab.exact import FieldMismatch, QuadComplex, QuadScalar, squarefree_split
from k3stab.intmat import _gram_schmidt_row, enumerate_quadric, gram_schmidt, kernel_basis
from k3stab.forms import BinaryEvenForm
from k3stab.lattice import (
    GAMMA,
    DimensionMismatch,
    GramLattice,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
)
from k3stab.mirror import PreconditionViolation
from k3stab.scenario import ScenarioError
from k3stab.stability import RealityViolation, RootEnumeration, StabilityPoint


def is_reduced(form: BinaryEvenForm) -> bool:
    """The reduction convention of `forms`: -a < 2b <= a <= c, with b >= 0
    when a = c."""
    a, b, c = form.a, form.b, form.c
    return -a < 2 * b <= a <= c and not (a == c and b < 0)


def squarefree_split_brute(n: int) -> tuple[int, int]:
    """(s, m) with n = s^2 m and m square-free, by the largest square divisor
    s^2 of n; the reference for `exact.squarefree_split`."""
    if n == 0:
        return 0, 1
    s = max(d for d in range(1, isqrt(n) + 1) if n % (d * d) == 0)
    return s, n // (s * s)


def squarefree_split_trial(n: int) -> tuple[int, int]:
    """(s, m) with n = s^2 m and m square-free, by trial division up to the
    cube root of the cofactor, whose time grows tenfold every three digits
    of n; the routine that `exact.squarefree_split` replaced, kept as its
    reference."""
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


def complex_quotient(z, w):
    """z / w for QuadComplex values, by z * conj(w) / |w|^2; raises
    ZeroDivisionError when w is zero.  No code of the library divides
    complex numbers."""
    n = w.re * w.re + w.im * w.im
    if not n:
        raise ZeroDivisionError("inverse of zero")
    inv = n.inverse()
    return z * QuadComplex(w.re * inv, -w.im * inv)


def scalar_json(x: QuadScalar, with_float: bool = False):
    if with_float:
        try:
            approx = float(x)
        except OverflowError:
            raise ScenarioError("a report number is beyond the range of --float") from None
        return {"exact": str(x), "float": f"{approx:.15g}"}
    return str(x)


def complex_json(z: QuadComplex, with_float: bool = False):
    return {"re": scalar_json(z.re, with_float), "im": scalar_json(z.im, with_float)}


def vector_json(v: LatticeVector, with_float: bool = False):
    if v.is_integral:
        return v.int_coords()
    return [scalar_json(c, with_float) for c in v.coords]


def complex_vector_json(v: QuadComplex, with_float: bool = False):
    return {"re": vector_json(v.re, with_float), "im": vector_json(v.im, with_float)}


def mukai_json(m: MukaiVector):
    return {"r": m.r, "D": vector_json(m.D), "s": m.s}


def report_json(obj, with_float: bool = False):
    """A report with each exact value replaced by its JSON form, through the
    helpers above, which the report builders called before `cli._render`
    wrote exact values itself; the reference for that writer."""
    if isinstance(obj, dict):
        return {key: report_json(value, with_float) for key, value in obj.items()}
    if isinstance(obj, list):
        return [report_json(value, with_float) for value in obj]
    if isinstance(obj, QuadScalar):
        return scalar_json(obj, with_float)
    if isinstance(obj, QuadComplex):
        if isinstance(obj.re, LatticeVector):
            return complex_vector_json(obj, with_float)
        return complex_json(obj, with_float)
    if isinstance(obj, LatticeVector):
        return vector_json(obj, with_float)
    if isinstance(obj, MukaiVector):
        return mukai_json(obj)
    return obj


def decimal_float(p: int, q: int, d: int, m: int) -> float:
    """The float of (p + q sqrt(m)) / d, through a Decimal with at least 50
    correct digits.  For m square-free, |p^2 - m q^2| >= 1 when q != 0, so
    |p + q sqrt(m)| >= 1 / (|p| + |q| sqrt(m)): the sum loses at most twice
    the digits of |p| + |q| m, and the precision pays for them.  Decimal to
    float rounds correctly; a value beyond the float range gives inf."""
    digits = len(str(abs(p) + abs(q) * m))
    with localcontext() as ctx:
        ctx.prec = 2 * digits + 60
        return float((Decimal(p) + Decimal(q) * Decimal(m).sqrt()) / d)


class FractionQuadScalar:
    """``a + b*sqrt(m)`` with ``a`` and ``b`` held as Fractions; the
    reference for `exact.QuadScalar`, which holds integers over one
    denominator.  Canonical form: reduced Fractions, ``m`` square-free, and
    ``b == 0`` forces ``m == 0``."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a=0, b=0, m=0):
        a, b, m = Fraction(a), Fraction(b), int(m)
        if m < 0:
            raise ValueError("radicand must be nonnegative")
        if b:
            s, m = squarefree_split(m)
            b *= s
            if m == 1:
                a, b = a + b, Fraction(0)
        self.a, self.b, self.m = a, b, (m if b else 0)

    @staticmethod
    def _coerce(x):
        if isinstance(x, FractionQuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionQuadScalar(x)
        return None

    def _join(self, other):
        if self.m and other.m and self.m != other.m:
            raise FieldMismatch(f"sqrt({self.m}) vs sqrt({other.m})")
        return self.m or other.m

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionQuadScalar(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionQuadScalar(self.a - o.a, self.b - o.b, self._join(o))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join(o)
        return FractionQuadScalar(
            self.a * o.a + m * self.b * o.b, self.a * o.b + self.b * o.a, m
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self):
        return FractionQuadScalar(-self.a, -self.b, self.m)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return FractionQuadScalar(self.a / n, -self.b / n, self.m)

    def conj(self):
        return FractionQuadScalar(self.a, -self.b, self.m)

    def norm(self):
        return self.a * self.a - self.m * self.b * self.b

    def sign(self):
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        return sa if self.a * self.a > self.m * self.b * self.b else sb

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.m) == (o.a, o.b, o.m)

    def __hash__(self):
        return hash(self.a) if not self.b else hash((self.a, self.b, self.m))

    @property
    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_int(self):
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return f.numerator

    def __float__(self):
        a, b = self.a, self.b
        d = a.denominator * b.denominator
        return decimal_float(a.numerator * b.denominator, b.numerator * a.denominator, d, self.m)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b < 0:
            return f"{self.a} - {-self.b}*sqrt({self.m})"
        return f"{self.a} + {self.b}*sqrt({self.m})"


class QuadVector:
    """A lattice vector as a tuple of QuadScalar coordinates, one scalar
    operation per coordinate; the reference for `lattice.LatticeVector`.
    Unlike it, a vector may hold coordinates over two radicands, which only
    a later pairing rejects."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(c if isinstance(c, QuadScalar) else QuadScalar(c) for c in coords)

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        return QuadVector([a + b for a, b in zip(self.coords, other.coords, strict=True)])

    def __sub__(self, other):
        return QuadVector([a - b for a, b in zip(self.coords, other.coords, strict=True)])

    def __neg__(self):
        return QuadVector([-a for a in self.coords])

    def __mul__(self, s):
        if isinstance(s, (int, Fraction, QuadScalar)):
            return QuadVector([a * s if a else a for a in self.coords])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QuadVector):
            return NotImplemented
        return self.coords == other.coords

    def __bool__(self):
        return any(self.coords)

    @property
    def is_integral(self):
        return all(c.is_rational and c.a.denominator == 1 for c in self.coords)

    def int_coords(self):
        return [c.as_int() for c in self.coords]

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"


def _numerators(v):
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


def nonzero_entries(lat):
    """The nonzero Gram entries (i, j, g) of a lattice, row by row."""
    return [(i, j, g) for i, row in enumerate(lat.gram) for j, g in enumerate(row) if g]


def _int_pair(nonzero, x, y):
    return sum(g * x[i] * y[j] for i, j, g in nonzero)


def quad_pair(lat, x, y):
    """x.y of two QuadVectors: one conversion to integer numerators per
    vector, then integer sums over the nonzero Gram entries."""
    if len(x) != lat.rank or len(y) != lat.rank:
        raise DimensionMismatch("vector length does not match lattice rank")
    nz = nonzero_entries(lat)
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


def mat_vec_int(a, x):
    """The dense integer product a x."""
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def dense_gram(lat, basis):
    """The Gram matrix of integral vectors of a lattice by dense images G y
    over its full Gram matrix; the reference for `Sublattice.gram`."""
    coords = [b.A for b in basis]
    images = [mat_vec_int(lat.gram, x) for x in coords]
    return [[sum(a * b for a, b in zip(x, gy)) for gy in images] for x in coords]


def from_coefficients(sub, coeffs):
    """The integral vector sum_i c_i b_i of a sublattice basis b, summed over
    the nonzero coordinates of each b_i."""
    out = [0] * GAMMA.rank
    for c, b in zip(coeffs, sub.basis, strict=True):
        if c:
            for i, x in enumerate(b.A):
                if x:
                    out[i] += c * x
    return LatticeVector.from_ints(out)


def dense_column_reduce(a, ncols):
    """The unimodular column reduction A U = (echelon) of
    `intmat._column_reduce` on dense columns: every column of U is a full
    list of ncols integers, rewritten entry by entry on each move, and every
    column of A, all-zero or not, is scanned on every row.  Returns
    ``(ucols, kernel, moves)`` as the library does, with dense ``ucols``."""
    nrows = len(a)
    cols = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    ucols = [[int(i == c) for i in range(ncols)] for c in range(ncols)]
    moves = []
    active = list(range(ncols))
    for r in range(nrows):
        while True:
            live = [c for c in active if cols[c][r] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda c: (abs(cols[c][r]), c))
            c0 = live[0]
            e0 = cols[c0][r]
            for c in live[1:]:
                q = cols[c][r] // e0
                if q:
                    moves.append((c, c0, q))
                    for i in range(r, nrows):
                        cols[c][i] -= q * cols[c0][i]
                    for i in range(ncols):
                        ucols[c][i] -= q * ucols[c0][i]
        live = [c for c in active if cols[c][r] != 0]
        if live:
            active.remove(live[0])
    return ucols, sorted(active), moves


def densify(support, n):
    """The dense list of n integers with the nonzero entries {index: entry}."""
    return [support.get(i, 0) for i in range(n)]


def dense_orth_complement(lat, gens):
    """The basis of `orth_complement`, in any lattice, with the integer rows
    G A and G B formed densely and reduced by `dense_column_reduce`."""
    rows = []
    for g in gens:
        rows.append(mat_vec_int(lat.gram, g.A))
        if g.B is not None:
            rows.append(mat_vec_int(lat.gram, g.B))
    ucols, kernel, _ = dense_column_reduce(rows, lat.rank)
    return tuple(LatticeVector.from_ints(ucols[c]) for c in kernel)


def _sqrt_fraction(f):
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def fraction_enumerate_quadric(factors, w, r):
    """All integer y with (y - w)^T p (y - w) == r, in lexicographic order, by
    Fincke-Pohst with the budget and the centres kept as Fractions; the
    reference for the integer `intmat.enumerate_quadric`."""
    d, lam = factors
    n = len(lam)
    r = Fraction(r)
    if n == 0:
        return [()] if r == 0 else []
    if r < 0:
        return []
    w = [Fraction(x) for x in w]
    wd = lcm(*(x.denominator for x in w))  # w = wn / wd
    wn = [x.numerator * (wd // x.denominator) for x in w]
    pivot = [Fraction(d[i + 1], d[i]) for i in range(n)]
    out = []
    y = [0] * n

    def descend(i, budget):
        # z_i = y_i + gamma_i with gamma_i = sum_{j>i} mu_ji (y_j - w_j) - w_i = g / gd,
        # mu_ji = lam[j][i] / d[i + 1]
        g = sum(lam[j][i] * (wd * y[j] - wn[j]) for j in range(i + 1, n)) - d[i + 1] * wn[i]
        gd = d[i + 1] * wd
        c = budget / pivot[i]  # z_i^2 <= c
        if i == 0:
            root = _sqrt_fraction(c)
            if root is None:
                return
            gamma = Fraction(g, gd)
            for val in sorted({root - gamma, -root - gamma}):
                if val.denominator == 1:
                    y[0] = val.numerator
                    out.append(tuple(y))
            return
        if c < 0:
            return
        # |t gd + g| <= floor(sqrt(c) gd), an integer bound on an integer
        s = isqrt(c.numerator * gd * gd // c.denominator)
        gamma = Fraction(g, gd)
        for t in range(-((s + g) // gd), (s - g) // gd + 1):
            y[i] = t
            descend(i - 1, budget - pivot[i] * (t + gamma) ** 2)

    descend(n - 1, r)
    return sorted(out)


def full_sign_enumerate_quadric(factors, r):
    """All integer y with y^T p y == r, in lexicographic order, by the integer
    Fincke-Pohst walk over both signs of every coordinate; the reference for
    `intmat.enumerate_quadric`, which walks one vector of each pair +-y."""
    d, lam = factors
    n = len(lam)
    r = Fraction(r)
    if n == 0:
        return [()] if r == 0 else []
    if r < 0:
        return []
    steps = [d[i] * d[i + 1] for i in range(n)]
    common = lcm(*steps)
    cost = [r.denominator * common // s for s in steps]
    out = []
    y = [0] * n

    def descend(i, budget):
        g = sum(lam[j][i] * y[j] for j in range(i + 1, n))  # X = t d[i + 1] + g
        gd = d[i + 1]
        c = cost[i]
        if i == 0:
            q, rem = divmod(budget, c)
            s = isqrt(q)
            if rem or s * s != q:
                return
            for x in sorted({-s, s}):
                t, off = divmod(x - g, gd)
                if not off:
                    y[0] = t
                    out.append(tuple(y))
            return
        s = isqrt(budget // c)  # c X^2 <= budget  <=>  |X| <= s
        for t in range(-((s + g) // gd), (s - g) // gd + 1):
            y[i] = t
            x = t * gd + g
            descend(i - 1, budget - c * x * x)

    descend(n - 1, r.numerator * common)
    return sorted(out)


def full_lll_reduce(gram):
    """``(t, g, d, lam, swaps)``: the integral LLL of Cohen (Algorithm
    2.6.7), delta = 3/4, from the basis sorted by (gram[i][i], i), with full
    size reduction (|mu_kj| <= 1/2 for every j < k), keeping the whole
    reduced Gram matrix g = t gram t^T and the transform t up to date on
    every size reduction and swap, and counting the swaps; the reference for
    `intmat.lll_reduce`, which size reduces adjacent vectors only and keeps
    only what the enumeration reads."""
    n = len(gram)
    order = sorted(range(n), key=lambda i: (gram[i][i], i))
    g = [[int(gram[i][j]) for j in order] for i in order]
    t = [[int(i == j) for j in range(n)] for i in order]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    swaps = 0
    if n == 0:
        return t, g, d, lam, swaps
    _gram_schmidt_row(g, d, lam, 0)

    def reduce(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        t[k] = [a - q * b for a, b in zip(t[k], t[l])]
        g[k] = [a - q * b for a, b in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        nonlocal swaps
        swaps += 1
        t[k], t[k - 1] = t[k - 1], t[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            x = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * x) // d[k]
            lam[i][k - 1] = (b * x + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            _gram_schmidt_row(g, d, lam, k)
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return t, g, d, lam, swaps


# ---------------------------------------------------------------------------
# Second formulas for the central charge, the Mukai pairing, the attractor
# witness and the Kaehler search's cone test: the library keeps one formula
# for each, and the tests compare it against these.


# The rank-24 Mukai lattice Gamma + U, coordinates (D, r, s): GAMMA's
# basis order, then the (r, s) block with Gram [[0, -1], [-1, 0]], so
# ((r1,D1,s1),(r2,D2,s2)) = D1.D2 - r1 s2 - r2 s1.  The library enumerates
# the roots at a stability point in GAMMA (`stability.p0_violations`); this
# lattice is the reference it is compared against.
U_MUKAI_GRAM = ((0, -1), (-1, 0))
MUKAI = GramLattice(
    [list(row) + [0, 0] for row in GAMMA.gram]
    + [[0] * GAMMA.rank + list(row) for row in U_MUKAI_GRAM]
)


def embed_gamma(x):
    """Extend a Gamma vector by zero Mukai coordinates."""
    if len(x) != GAMMA.rank:
        raise DimensionMismatch("expected a Gamma vector")
    B = None if x.B is None else x.B + [0, 0]
    return LatticeVector._raw(x.A + [0, 0], B, x.den, x.m)


def mukai_p0_violations(psi, omega_check):
    """The complete root enumeration in the Mukai lattice, as the library
    ran it before it enumerated in GAMMA through the mirror isometry: the
    integral kernel of the Mukai pairings with Re and Im of the mirror
    period and of Psi, minus its Gram matrix reduced by the full LLL of
    `full_lll_reduce` (not by the library's reduction, which it checks),
    its vectors of norm 2 enumerated and mapped back by the reduced basis,
    in (r, D, s) order.  A kernel that is not negative definite raises
    RuntimeError."""
    s_part = psi.s_part
    n = GAMMA.rank  # Mukai coordinates are (D, r, s)
    r_unit, s_unit = LatticeVector.unit(MUKAI.rank, n), LatticeVector.unit(MUKAI.rank, n + 1)
    gens = [
        embed_gamma(omega_check.re),
        embed_gamma(omega_check.im),
        embed_gamma(psi.B) + r_unit + s_part.re * s_unit,
        embed_gamma(psi.omega) + s_part.im * s_unit,
    ]
    kern = dense_orth_complement(MUKAI, gens)
    try:
        t, _, d, lam, _ = full_lll_reduce([[-x for x in row] for row in dense_gram(MUKAI, kern)])
    except ValueError:
        raise RuntimeError(
            "the lattice orthogonal to Psi and the mirror period is not negative "
            "definite: they do not span a positive 4-plane"
        ) from None

    def combine(coeffs, vectors):
        out = [0] * MUKAI.rank
        for c, v in zip(coeffs, vectors):
            out = [o + c * x for o, x in zip(out, v)]
        return out

    basis = [combine(row, [v.A for v in kern]) for row in t]  # rows of t K
    ys = enumerate_quadric((d, lam), 2)
    hits = sorted((x[n], tuple(x[:n]), x[n + 1]) for x in (combine(y, basis) for y in ys))
    roots = []
    psi_triple = as_triple(psi)  # 1/2 (B + i omega)^2 once, not once per root
    for r, D, s in hits:
        delta = MukaiVector(r, LatticeVector.from_ints(D), s)
        assert not triple_pair(psi_triple, delta) and not pair(omega_check, delta.D)
        assert triple_pair(delta, delta) == -2
        roots.append(delta)
    return RootEnumeration(lattice_rank=len(kern), roots=roots)


# w = (0, 0, -1) and w* = (1, 0, 0) in Mukai coordinates (D, r, s): the
# hyperbolic pair of the (r, s) block, (w, w*) = 1
MUKAI_W = LatticeVector.from_ints([0] * 22 + [0, -1])
MUKAI_WSTAR = LatticeVector.from_ints([0] * 22 + [1, 0])


def mukai_ambient(v):
    """The rank-24 Mukai coordinates (D, r, s) of a Mukai vector."""
    return LatticeVector.from_ints(list(v.D.int_coords()) + [v.r, v.s])


def as_triple(x):
    """x as a complex Mukai triple (r, D, s): an integral vector with zero
    imaginary parts, a stability point as
    exp(B + i omega) = (1, B + i omega, 1/2 (B + i omega)^2) with its third
    entry computed here, not read from `s_part`, and a triple as itself."""
    if isinstance(x, MukaiVector):
        return QuadComplex(x.r), QuadComplex(x.D), QuadComplex(x.s)
    if isinstance(x, StabilityPoint):
        d = QuadComplex(x.B, x.omega)
        return QuadComplex(1), d, pair(d, d) * Fraction(1, 2)
    return x


def triple_pair(x, y):
    """The Mukai pairing D1.D2 - r1 s2 - r2 s1 extended bilinearly to complex
    triples (`as_triple`); the reference for `stability.mukai_pair` and,
    with a stability point, for `stability.central_charge`."""
    r1, d1, s1 = as_triple(x)
    r2, d2, s2 = as_triple(y)
    return pair(d1, d2) - r1 * s2 - r2 * s1


def expanded_charge(psi, v):
    """Z(v) from the expanded forms, with no s_Psi: Im Z = (D - r B).omega,
    Re Z = B.D - s for r = 0 and otherwise
    (D^2 - 2 r s + r^2 omega^2 - (D - r B)^2) / 2r."""
    B, omega = psi.B, psi.omega
    d_min_rb = v.D - v.r * B
    im = pair(d_min_rb, omega)
    if v.r == 0:
        re = pair(v.D, B) - QuadScalar(v.s)
    else:
        d2 = pair(v.D, v.D)
        w2 = pair(omega, omega)
        re = (
            d2
            - QuadScalar(2 * v.r * v.s)
            + QuadScalar(v.r * v.r) * w2
            - pair(d_min_rb, d_min_rb)
        ) * Fraction(1, 2 * v.r)
    return QuadComplex(re, im)


def triple_plane_gram(psi):
    """The Gram matrix of Re Psi and Im Psi by complex-triple Mukai pairings,
    which is omega^2 times the identity, so Re Psi and Im Psi span a positive
    plane exactly when omega^2 > 0."""
    s = psi.s_part
    re_t = (QuadComplex(1), QuadComplex(psi.B), QuadComplex(s.re))
    im_t = (QuadComplex(0), QuadComplex(psi.omega), QuadComplex(s.im))
    g11 = triple_pair(re_t, re_t).re
    g12 = triple_pair(re_t, im_t).re
    g22 = triple_pair(im_t, im_t).re
    return [[g11, g12], [g12, g22]]


def solve_lambda(charge, tau, omega):
    """lambda of p dx + q dy = lambda (dx + tau dy) ^ Omega + c.c., solved
    from the linear system of the dx and dy components rather than read off
    in closed form; the reference for `attractor.verify_attractor`.

    Raises NotAttractor when Omega is no period or the system is
    inconsistent."""
    disc = charge.disc
    if disc == 0:
        raise NotAttractor("p and q are not independent")
    if pair(omega, omega):
        raise NotAttractor("Omega^2 is nonzero: not a period vector")
    norm = pair(omega, omega.conj())
    if norm.im or norm.re.sign() <= 0:
        raise NotAttractor("Omega . conj(Omega) is not positive")
    # coefficients of Omega in the (p, q) plane
    op = pair(omega, QuadComplex(charge.p))
    oq = pair(omega, QuadComplex(charge.q))
    d = Fraction(1, disc)
    coeff_p = (op * charge.q2 - oq * charge.pq) * d
    coeff_q = (oq * charge.p2 - op * charge.pq) * d
    # dx components: lambda*A + mu*conj(A) = 1 (p part), lambda*B + mu*conj(B) = 0 (q part)
    det = coeff_p * coeff_q.conj() - coeff_p.conj() * coeff_q
    if not det:
        raise NotAttractor("decomposition system is singular")
    lam = complex_quotient(coeff_q.conj(), det)
    mu = complex_quotient(-coeff_q, det)
    if mu != lam.conj():
        raise NotAttractor("decomposition requires a non-conjugate pair")
    lam_bar = lam.conj()
    dx = omega * lam + omega.conj() * lam_bar
    if dx != QuadComplex(charge.p):
        raise NotAttractor("dx component mismatch")
    dy = omega * (lam * tau) + omega.conj() * (lam_bar * tau.conj())
    if dy != QuadComplex(charge.q):
        raise NotAttractor("dy component mismatch")
    return lam


def cone_violation(omega, f, what):
    """Which of omega^2 > 0, omega.f > 0 fails first for a built omega, or
    None, with the search's reason strings; the reference for the cone test
    of `stability.search_kahler_class`."""
    if pair(omega, omega).sign() <= 0:
        return f"{what} has nonpositive square"
    if pair(omega, f).sign() <= 0:
        return f"{what} does not pair positively with the fiber class"
    return None


def phase_key(z):
    """An exact key of the phase of z: None for zero, (0, sign re) for a real
    z, (sign im, re/im) otherwise.  The sign of im picks the half plane and
    re/im, the cotangent of the argument, is injective on each, so z1/z2 is a
    positive real exactly when the keys are equal and not None.  The
    reference for `stability.wall_member`, which decides by a product."""
    if not z.im:
        return (0, z.re.sign()) if z.re else None
    return (z.im.sign(), z.re / z.im)


def phase_aligned(z1, z2):
    """z1/z2 in R_{>0}, decided exactly by two products per pair; a zero
    charge has no phase.  The reference for `phase_key` and
    `stability.wall_count`."""
    if not (z1 and z2):
        return False
    if not (z1.im or z2.im):
        return z1.re.sign() == z2.re.sign()
    cross = z1.re * z2.im - z1.im * z2.re
    dot = z1.re * z2.re + z1.im * z2.im
    return not cross and dot.sign() > 0


def gram_of(lat, vectors):
    """Gram matrix of exact vectors, one `quad_pair` per entry."""
    return [[quad_pair(lat, x, y) for y in vectors] for x in vectors]


def form_of_charge(lat, p, q):
    """The even form (p.p, p.q, q.q) attached to a pair of lattice vectors."""
    return BinaryEvenForm(
        quad_pair(lat, p, p).as_int(),
        quad_pair(lat, p, q).as_int(),
        quad_pair(lat, q, q).as_int(),
    )


def canonicalize_period(split, period):
    """Rescale a period so its v*-coefficient (= period.v) equals 1."""
    coeff = pair(period, QuadComplex(split.v))
    if not coeff:
        raise PreconditionViolation("period has no v* component")
    return period * complex_quotient(QuadComplex(1), coeff)


def ldl_posdef(p):
    """LDL^T of a positive definite rational matrix, p = U^T diag(d) U, in
    Fraction arithmetic; the reference for `intmat.gram_schmidt`."""
    n = len(p)
    d = [Fraction(0)] * n
    u = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        v = Fraction(p[i][i]) - sum(d[k] * u[k][i] * u[k][i] for k in range(i))
        if v <= 0:
            raise ValueError("matrix is not positive definite")
        d[i] = v
        for j in range(i + 1, n):
            w = Fraction(p[i][j]) - sum(d[k] * u[k][i] * u[k][j] for k in range(i))
            u[i][j] = w / v
    return d, u


def signature_of(gram):
    """Inertia ``(n_plus, n_zero, n_minus)`` by exact symmetric congruence
    over ``Fraction``; the reference for `intmat.is_negative_definite`."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][i] != 0), None)
        if p is None:
            pair = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += n - k
                return pos, zero, neg
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            p = i
        if p != k:
            a[k], a[p] = a[p], a[k]
            for t in range(n):
                a[t][k], a[t][p] = a[t][p], a[t][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos, zero, neg


def signature(obj):
    """Inertia (n_plus, n_zero, n_minus) of a GramLattice, a Sublattice or
    a Gram matrix."""
    if isinstance(obj, GramLattice):
        return signature_of(obj.gram)
    if isinstance(obj, Sublattice):
        return signature_of(obj.gram())
    return signature_of(obj)


def solve_rational(a, b):
    """Gauss-Jordan solve of a x = b for a nonsingular rational matrix."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def dual_eta(lat, basis):
    """The integral class with eta . b_i = -d for every basis vector, d the
    least positive integer that makes it integral, by a Gauss-Jordan solve on
    the dense Gram matrix."""
    gram = [[Fraction(x) for x in row] for row in dense_gram(lat, basis)]
    coeffs = solve_rational(gram, [Fraction(-1)] * len(basis))
    denom = lcm(*(c.denominator for c in coeffs))
    eta = LatticeVector.zero(lat.rank)
    for c, b in zip(coeffs, basis):
        eta = eta + int(c * denom) * b
    return eta


def explicit_charge(rng):
    """A non-degenerate explicit charge (p, q) as coordinate lists: entries in
    [-2, 2] on U2 + U3, with probability 1/2 one +-1 E8 entry per vector,
    and a degenerate draw (p^2 <= 0 or D <= 0) discarded before assembly."""
    while True:
        vectors = []
        for _ in range(2):
            v = [0] * GAMMA.rank
            for i in range(2, 6):
                v[i] = rng.randint(-2, 2)
            if rng.random() < 0.5:
                v[rng.randrange(6, GAMMA.rank)] = rng.choice((-1, 1))
            vectors.append(v)
        p, q = vectors
        p2, q2, pq = (sum(map(mul, x, GAMMA.image(y))) for x, y in ((p, p), (q, q), (p, q)))
        if p2 > 0 and p2 * q2 - pq * pq > 0:
            return p, q


def solve_integer(a, b, ncols=None):
    """One integer solution of a x = b, or None, by unimodular column
    reduction of a (echelon columns, then back substitution)."""
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    cols = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    ucols = [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]
    active = list(range(ncols))
    pivots = []
    for r in range(nrows):
        while True:
            live = sorted((c for c in active if cols[c][r]), key=lambda c: (abs(cols[c][r]), c))
            if len(live) <= 1:
                break
            for c in live[1:]:
                q = cols[c][r] // cols[live[0]][r]
                cols[c] = [x - q * y for x, y in zip(cols[c], cols[live[0]])]
                ucols[c] = [x - q * y for x, y in zip(ucols[c], ucols[live[0]])]
        if live:
            pivots.append((r, live[0]))
            active.remove(live[0])
    residual = list(b)
    x = [0] * ncols
    for r, c in pivots:
        if residual[r] % cols[c][r]:
            return None
        t = residual[r] // cols[c][r]
        residual = [x - t * y for x, y in zip(residual, cols[c])]
        x = [xi + t * ui for xi, ui in zip(x, ucols[c])]
    return None if any(residual) else x


def minus_two_coefficients(gram, bound, target=-2):
    """All integer x with |x_i| <= bound and x^T gram x == target, in
    lexicographic order, by a depth-first scan pruned with interval bounds
    on the remaining linear and quadratic contributions."""
    k = len(gram)
    abs_suffix = [0] * (k + 1)
    for d in range(k - 1, -1, -1):
        abs_suffix[d] = abs_suffix[d + 1] + abs(gram[d][d]) + 2 * sum(
            abs(gram[d][j]) for j in range(d + 1, k)
        )
    neg_semidef = [
        signature_of([row[d:] for row in gram[d:]])[0] == 0 for d in range(k)
    ] + [True]
    out = []
    coeffs = [0] * k
    lin = [0] * k  # lin[j] = sum_{i<d} coeffs[i] * gram[i][j]

    def descend(d, value):
        if d == k:
            if value == target:
                out.append(tuple(coeffs))
            return
        lin_span = 2 * bound * sum(abs(lin[j]) for j in range(d, k))
        quad_mag = bound * bound * abs_suffix[d]
        hi = value + lin_span + (0 if neg_semidef[d] else quad_mag)
        if not (value - lin_span - quad_mag <= target <= hi):
            return
        for t in range(-bound, bound + 1):
            new_value = value + 2 * t * lin[d] + t * t * gram[d][d]
            coeffs[d] = t
            for j in range(k):
                lin[j] += t * gram[d][j]
            descend(d + 1, new_value)
            for j in range(k):
                lin[j] -= t * gram[d][j]
        coeffs[d] = 0

    descend(0, 0)
    return out


def bounded_p0_violations(psi, ns, bound):
    """The bounded (r, s) coset walk that decided suite 6.3 before the
    complete root enumeration: every delta = (r, D, s) with delta^2 = -2,
    |r|, |s| <= bound, D in the coefficient box of the ns basis and
    (Psi, delta) = 0, ordered by (r, s, coefficients).

    (Psi, delta) = 0 splits into integer linear rows on the coefficients
    (rational and radical parts of the pairings with omega and B) with
    targets that depend on (r, s).  Each coset x0 + K y of the row kernel K
    is enumerated by Fincke-Pohst when K is negative definite, with a
    Gauss-Jordan solve for its centre; otherwise the box scan is filtered.
    """
    lat = GAMMA
    gram = ns.gram()
    k = ns.rank
    functionals = [[quad_pair(lat, v, b) for b in ns.basis] for v in (psi.omega, psi.B)]
    b_dot_w = quad_pair(lat, psi.B, psi.omega)
    b_sq, w_sq = quad_pair(lat, psi.B, psi.B), quad_pair(lat, psi.omega, psi.omega)
    rows, parts = [], []
    for idx, coeffs in enumerate(functionals):
        for part in ("a", "b"):
            cs = [getattr(c, part) for c in coeffs]
            denom = lcm(*(x.denominator for x in cs))
            parts.append((idx, part, denom, any(cs)))
            if any(cs):
                rows.append([int(x * denom) for x in cs])
    kern = [densify(b, k) for b in kernel_basis(rows, k)[0]]
    p = [[-sum(u[i] * gram[i][j] * w[j] for i in range(k) for j in range(k))
          for w in kern] for u in kern]
    try:
        factors = gram_schmidt(p)
    except ValueError:
        factors = None
    out = []
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            targets = [r * b_dot_w, QuadScalar(Fraction(r, 2)) * (b_sq - w_sq) + s]
            scaled = [(getattr(targets[idx], part) * denom, active)
                      for idx, part, denom, active in parts]
            if any(v and not active for v, active in scaled):
                continue
            rhs = [v for v, active in scaled if active]
            if any(v.denominator != 1 for v in rhs):
                continue
            rhs = [int(v) for v in rhs]
            target = 2 * r * s - 2
            if factors is None:
                found = [x for x in minus_two_coefficients(gram, bound, target)
                         if mat_vec_int(rows, x) == rhs]
            else:
                x0 = solve_integer(rows, rhs, k)
                if x0 is None:
                    continue
                gx0 = mat_vec_int(gram, x0)
                lin = [Fraction(sum(v[i] * gx0[i] for i in range(k))) for v in kern]
                w = solve_rational([[Fraction(x) for x in row] for row in p], lin) if kern else []
                radius = sum(a * b for a, b in zip(w, lin)) + sum(a * b for a, b in zip(x0, gx0)) - target
                found = []
                for y in fraction_enumerate_quadric(factors, w, radius):
                    x = [x0[i] + sum(c * v[i] for c, v in zip(y, kern)) for i in range(k)]
                    if all(abs(c) <= bound for c in x):
                        found.append(tuple(x))
            for coeffs in sorted(found):
                delta = MukaiVector(r, from_coefficients(ns, coeffs), s)
                assert not triple_pair(psi, delta) and triple_pair(delta, delta) == -2
                out.append(delta)
    return out


# ---------------------------------------------------------------------------
# Period-domain helpers that no certificate calls, kept as references for
# the mirror map and the Picard lattice.


def tube_map(split, z):
    """Tube-domain coordinate to period: z - 1/2 z^2 v + v*."""
    if pair(z, QuadComplex(split.v)) or pair(z, QuadComplex(split.vstar)):
        raise PreconditionViolation("tube coordinate must be orthogonal to U'")
    z_sq = pair(z, z)
    return z - QuadComplex(split.v) * (z_sq * Fraction(1, 2)) + QuadComplex(split.vstar)


def stepwise_mirror_period(split, Omega, omega, B):
    """The mirror map of `mirror.mirror_period` step by step: the projection
    pr of each complex input (`stepwise_project` on each part), then the
    v-shift (and the v* of the tube map), then the scale 1 / (Re(Omega).v),
    with vector products and sums, and the two invariants as complex
    pairings.  The body that `mirror_period` replaced by one
    `SplitData.shift` per output vector, kept as its reference; the result
    is (Omega_check, omega_check, B_check)."""
    v, vstar = split.v, split.vstar

    def project(z):
        return QuadComplex(stepwise_project(split, z.re), stepwise_project(split, z.im))

    scale = pair(Omega.re, v).inverse()
    x = QuadComplex(B, omega)
    half_sq = pair(x, x) * Fraction(1, 2)
    omega_check_cplx = (
        project(x) - QuadComplex(v * half_sq.re - vstar, v * half_sq.im)
    ) * scale
    shift = pair(Omega, B)
    kahler_side = (project(Omega) - QuadComplex(v * shift.re, v * shift.im)) * scale
    assert not pair(omega_check_cplx, omega_check_cplx), "mirror period is not null"
    conj_norm = pair(omega_check_cplx, omega_check_cplx.conj())
    assert not conj_norm.im and conj_norm.re.sign() > 0, "mirror period plane is not positive"
    return omega_check_cplx, kahler_side.im, kahler_side.re


def stepwise_project(split, x):
    """pr(x) = x - (x.v*) v - (x.v) v* by two vector products and two
    differences; the reference for `SplitData.project`."""
    return x - pair(x, split.vstar) * split.v - pair(x, split.v) * split.vstar


def rank_generic(rows):
    """Rank by Gaussian elimination over any exact field (Fraction,
    QuadScalar); the reference plane test of `involution_reference`."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < cols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def component_along(v, delta):
    """(t, delta == t v) with t the ratio of delta to v at v's first nonzero
    coordinate, (0, True) for delta = 0, and (0, False) for v = 0; the
    reference v-shift of `involution_reference`."""
    if not delta:
        return QuadScalar(0), True
    idx = next((i for i, c in enumerate(v.coords) if c), None)
    if idx is None:
        return QuadScalar(0), False
    t = delta.coords[idx] / v.coords[idx]
    return t, delta == t * v


def involution_reference(split, Omega, omega, B):
    """(span_equal, omega_recovered, b_recovered, omega_v_shift) of
    `mirror.mirror_involution_check`, from the stepwise map applied twice, a
    rank elimination over the coordinate rows of the input and output
    planes, and a division of coordinates: the decisions that the check
    makes by pairings, kept as their reference."""
    Omega2, omega2, B2 = stepwise_mirror_period(
        split, *stepwise_mirror_period(split, Omega, omega, B)
    )
    plane_in = [list(Omega.re.coords), list(Omega.im.coords)]
    plane_out = [list(Omega2.re.coords), list(Omega2.im.coords)]
    span_equal = (
        rank_generic(plane_in) == 2
        and rank_generic(plane_out) == 2
        and rank_generic(plane_in + plane_out) == 2
    )
    shift, along_v = component_along(split.v, omega2 - omega)
    return span_equal, along_v, B2 == B, shift


def eichler(e, a, x):
    """The Eichler transvection x + (x.e) a - (x.a) e - 1/2 a^2 (x.e) e, an
    isometry of GAMMA for an isotropic e and an a orthogonal to e with a^2
    even; it fixes every x orthogonal to e and a."""
    xe = pair(x, e)
    return x + xe * a - pair(x, a) * e - (pair(a, a) * xe * Fraction(1, 2)) * e


def dense_fibration():
    """Fibration classes (f, sigma0) with f^2 = 0, f.sigma0 = 1 and
    sigma0^2 = -2 whose v = f and v* = f + sigma0 have every coordinate of
    U1 and of both E8 blocks nonzero: the standard classes moved by two
    Eichler transvections along v* and v, with dense vectors of the E8
    blocks.  The isometry fixes U2 + U3, so the classes stay orthogonal to
    every standard charge."""
    f, sigma0 = GAMMA.basis(0), GAMMA.basis(1) - GAMMA.basis(0)
    vstar = f + sigma0
    a = LatticeVector.from_ints([0] * 6 + [(-1) ** i * (1 + i % 3) for i in range(16)])
    b = LatticeVector.from_ints([0] * 6 + [1 + i % 2 for i in range(16)])

    def move(x):
        return eichler(f, b, eichler(vstar, a, x))

    return move(f), move(sigma0)


def unit_vector_charge(form):
    """The block charge of `scenario.standard_charge` from unit vectors,
    products and sums: p = e1 + (a/2) e2 in U2, q = b e2(U2) + e1 + (c/2) e2
    in U3; and the fibration classes f = e1, sigma0 = e2 - e1 in U1 of
    `scenario.standard_fibration`.  Returns (p, q, f, sigma0)."""
    p = GAMMA.basis(2) + (form.a // 2) * GAMMA.basis(3)
    q = form.b * GAMMA.basis(3) + GAMMA.basis(4) + (form.c // 2) * GAMMA.basis(5)
    return p, q, GAMMA.basis(0), GAMMA.basis(1) - GAMMA.basis(0)


def general_mirror_class(split, cls):
    """The Mukai vector (b, l - a v - b v*, -a) of the mirror of an integral
    class l, a = l.v*, b = l.v, by the general formula for every class; the
    reference for `mirror.mirror_class`, which skips the subtraction when
    a = b = 0."""
    a = pair(cls, split.vstar).as_int()
    b = pair(cls, split.v).as_int()
    return MukaiVector(b, cls - a * split.v - b * split.vstar, -a)


def per_class_charges(split, psi, classes):
    """(l, mu(l), Z(mu(l))) per class, one class at a time with one `pair`
    call per pairing: the loop that `verify_reality` and the `charge` report
    ran before their passes, with `general_mirror_class` for mu(l) and the
    two-pairing Z = (B.D - s - r Re s_Psi) + i (omega.D - r Im s_Psi)."""
    s_psi = psi.s_part
    out = []
    for cls in classes:
        mu = general_mirror_class(split, cls)
        re = pair(psi.B, mu.D) - mu.s
        im = pair(psi.omega, mu.D)
        if mu.r:
            re = re - s_psi.re * mu.r
            im = im - s_psi.im * mu.r
        out.append((cls, mu, QuadComplex(re, im)))
    return out


def per_class_reality(split, psi, classes):
    """`stability.verify_reality` one class at a time: (l, Z(mu(l)), mu(l))
    per class, or RealityViolation at the first non-real charge."""
    out = []
    for cls, mu, z in per_class_charges(split, psi, classes):
        if z.im:
            raise RealityViolation(cls, z)
        out.append((cls, z.re, mu))
    return out


def per_class_threefold_charges(Omega_I, classes):
    """Omega_I . l per class, one `pair` call each: the loop that `verify
    5.1` and the `charge` report ran before their pass."""
    return [pair(Omega_I, cls) for cls in classes]


def period_embed(split, p_basis, omega, B):
    """Embed ((P, omega), B) as an orthogonal pair of 2-planes in Gamma + U.

    H1 = {x - (x.B) w : x in P};  H2 is spanned by 1/2(omega^2 - B^2) w + w* + B
    and omega - (omega.B) w.  Returned in rank-24 Mukai coordinates.
    """
    if len(p_basis) != 2:
        raise PreconditionViolation("P needs exactly two spanning vectors")
    g00 = pair(p_basis[0], p_basis[0])
    g01 = pair(p_basis[0], p_basis[1])
    g11 = pair(p_basis[1], p_basis[1])
    if g00.sign() <= 0 or (g00 * g11 - g01 * g01).sign() <= 0:
        raise PreconditionViolation("P must span a positive definite 2-plane")
    if pair(omega, p_basis[0]) or pair(omega, p_basis[1]):
        raise PreconditionViolation("omega must be orthogonal to P")
    if pair(omega, omega).sign() <= 0:
        raise PreconditionViolation("omega^2 must be positive")
    h1 = [embed_gamma(x) - pair(x, B) * MUKAI_W for x in p_basis]
    half = QuadScalar(Fraction(1, 2))
    norm_coeff = half * (pair(omega, omega) - pair(B, B))
    h2 = [
        norm_coeff * MUKAI_W + MUKAI_WSTAR + embed_gamma(B),
        embed_gamma(omega) - pair(omega, B) * MUKAI_W,
    ]
    return h1, h2


def ns_lattice(charge):
    """Neron-Severi lattice of the background: the complement of <p, q>."""
    sub = orth_complement([charge.p, charge.q])
    if sub.rank != GAMMA.rank - 2:
        raise DegenerateCharge("charge pair does not span a rank-2 sublattice")
    return sub
