"""Reference implementations that the tests compare the library against."""

from fractions import Fraction
from math import isqrt, lcm

from k3stab.exact import FieldMismatch, QuadComplex, QuadScalar
from k3stab.intmat import enumerate_quadric, gram_schmidt, kernel_basis, signature_of
from k3stab.forms import BinaryEvenForm
from k3stab.lattice import (
    ComplexVector,
    DimensionMismatch,
    LatticeVector,
    MukaiVector,
    Sublattice,
    pair,
)
from k3stab.mirror import NormalizationFailure
from k3stab.stability import mukai_pair


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
        return all(c.is_integer for c in self.coords)

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


def _int_pair(nonzero, x, y):
    return sum(g * x[i] * y[j] for i, j, g in nonzero)


def quad_pair(lat, x, y):
    """x.y of two QuadVectors: one conversion to integer numerators per
    vector, then integer sums over the nonzero Gram entries."""
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


def mat_vec_int(a, x):
    """The dense integer product a x."""
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def dense_gram(sub):
    """The Gram matrix of a sublattice basis by dense images G y over the full
    ambient Gram matrix; the reference for `Sublattice.gram`."""
    coords = [b.A for b in sub.basis]
    images = [mat_vec_int(sub.ambient.gram, x) for x in coords]
    return [[sum(a * b for a, b in zip(x, gy)) for gy in images] for x in coords]


def dense_orth_complement(lat, gens):
    """`orth_complement` with the integer rows G A and G B formed densely."""
    rows = []
    for g in gens:
        rows.append(mat_vec_int(lat.gram, g.A))
        if g.B is not None:
            rows.append(mat_vec_int(lat.gram, g.B))
    return Sublattice(lat, [LatticeVector.from_ints(v) for v in kernel_basis(rows, lat.rank)])


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


def triple_charge(psi, v):
    """Z(v) = (Psi, v) with v wrapped as the complex triple (r, D + 0i, s):
    four real pairings and two QuadComplex products; the reference for
    `stability.central_charge`."""
    r1, d1, s1 = psi.triple()
    r2, d2, s2 = QuadComplex(v.r), ComplexVector(v.D), QuadComplex(v.s)
    return pair(psi.lat, d1, d2) - r1 * s2 - r2 * s1


def triple_plane_gram(psi):
    """The Gram matrix of Re Psi and Im Psi by complex-triple Mukai pairings;
    the reference for `stability.plane_gram`."""
    s = psi.s_part
    re_t = (QuadComplex(1), ComplexVector(psi.B), QuadComplex(s.re))
    im_t = (QuadComplex(0), ComplexVector(psi.omega), QuadComplex(s.im))
    g11 = mukai_pair(re_t, re_t, psi.lat).re
    g12 = mukai_pair(re_t, im_t, psi.lat).re
    g22 = mukai_pair(im_t, im_t, psi.lat).re
    return [[g11, g12], [g12, g22]]


def phase_aligned(z1, z2):
    """z1/z2 in R_{>0}, decided exactly by two products per pair; a zero
    charge has no phase.  The reference for `stability.wall_table`."""
    if not (z1 and z2):
        return False
    if not (z1.im or z2.im):
        return z1.re.sign() == z2.re.sign()
    cross = z1.re * z2.im - z1.im * z2.re
    dot = z1.re * z2.re + z1.im * z2.im
    return not cross and dot.sign() > 0


def gram_of(lat, vectors):
    """Gram matrix of exact vectors, one `pair` per entry."""
    return [[pair(lat, x, y) for y in vectors] for x in vectors]


def form_of_charge(lat, p, q):
    """The even form (p.p, p.q, q.q) attached to a pair of lattice vectors."""
    return BinaryEvenForm(
        pair(lat, p, p).as_int(), pair(lat, p, q).as_int(), pair(lat, q, q).as_int()
    )


def canonicalize_period(split, period):
    """Rescale a period so its v*-coefficient (= period.v) equals 1."""
    coeff = pair(split.lat, period, ComplexVector(split.v))
    if not coeff:
        raise NormalizationFailure("period has no v* component")
    return period.scale(coeff.inverse())


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
    least positive integer that makes it integral, by a Gauss-Jordan solve."""
    gram = [[Fraction(pair(lat, x, y).as_int()) for y in basis] for x in basis]
    coeffs = solve_rational(gram, [Fraction(-1)] * len(basis))
    denom = lcm(*(c.denominator for c in coeffs))
    eta = LatticeVector.zero(lat.rank)
    for c, b in zip(coeffs, basis):
        eta = eta + int(c * denom) * b
    return eta


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
    lat = ns.ambient
    gram = ns.gram()
    k = ns.rank
    functionals = [[pair(lat, v, b) for b in ns.basis] for v in (psi.omega, psi.B)]
    b_dot_w = pair(lat, psi.B, psi.omega)
    b_sq, w_sq = pair(lat, psi.B, psi.B), pair(lat, psi.omega, psi.omega)
    rows, parts = [], []
    for idx, coeffs in enumerate(functionals):
        for part in ("a", "b"):
            cs = [getattr(c, part) for c in coeffs]
            denom = lcm(*(x.denominator for x in cs))
            parts.append((idx, part, denom, any(cs)))
            if any(cs):
                rows.append([int(x * denom) for x in cs])
    kern = kernel_basis(rows, k)
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
                for y in enumerate_quadric(factors, w, radius):
                    x = [x0[i] + sum(c * v[i] for c, v in zip(y, kern)) for i in range(k)]
                    if all(abs(c) <= bound for c in x):
                        found.append(tuple(x))
            for coeffs in sorted(found):
                delta = MukaiVector(r, ns.from_coefficients(coeffs), s)
                assert not mukai_pair(psi, delta, lat) and mukai_pair(delta, delta, lat) == -2
                out.append(delta)
    return out
