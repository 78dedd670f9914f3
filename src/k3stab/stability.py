"""Central charges, the stability point exp(B + i omega), and wall certificates.

A Mukai vector is an integral triple (r, D, s) paired by
((r1,D1,s1),(r2,D2,s2)) = D1.D2 - r1 s2 - r2 s1.  For a B-field and a class
omega with omega^2 > 0 the stability point is the complex triple

    Psi = exp(B + i omega) = (1, B + i omega, 1/2 (B + i omega)^2)

and the central charge of v is Z(v) = (Psi, v).  For an integral v that is
one formula of two real pairings, (B.D - s - r Re s_Psi) +
i (omega.D - r Im s_Psi) with s_Psi = 1/2 (B + i omega)^2 kept on the point.
The charges of many vectors are taken together (`central_charges`): B and
omega are each paired with every D in one pass over their kept Gram images,
which is still that formula, two pairings per charge.  The pass only shares
the image and the per-call work; it does not expand D = l - a v - b v* of a
mirror class into B.l - a B.v - b B.v*, a second formula equal to the first
only by bilinearity.  `central_charge` is its one-element case.  Two
nonzero charges lie on a common generalized wall at Psi when Z(v1)/Z(v2) is
a positive real number; a zero charge has no phase and fails every wall
test.

The regular-point condition ("is Psi away from every delta-perp with
delta^2 = -2?") is decided by one complete enumeration.  Re and Im of Psi
span a positive plane: their Mukai Gram matrix is omega^2 times the identity
(B^2 - 2 Re s = omega^2 and B.omega - Im s = 0 for s = 1/2 (B + i omega)^2),
so omega^2 > 0 is that test.  It needs no check at the mirror of the period
data: the mirror omega has square D / (p^2 (omega.f)^2) > 0.  Re and Im of
the mirror period span another (asserted by `mirror_period`), and the two are
orthogonal, so together they span a positive 4-plane of the Mukai lattice
Gamma + U, of signature (4,20).  The integral classes orthogonal to that
4-plane, which are exactly the delta = (r, D, s) with D in NS(mirror) and
(Psi, delta) = 0, form a negative-definite lattice with finitely many roots,
and `p0_violations` lists all of them (Fincke-Pohst on an LLL-reduced basis).

That lattice is found in GAMMA, through the mirror isometry mu of Gamma + U:
mu is the identity on Gamma' and swaps v = f with w = (0,0,-1) and
v* = f + sigma0 with w* = (1,0,0), so it is an involution, and on GAMMA it
is `mirror_classes`.  Take the mirror of the period data at a Kaehler class
omega with B = 0, Omega_I = omega + i Re(Omega) and the Kaehler class
Im(Omega), as the search does.  Then:

* the mirror period is (i Im(Omega) + (D / 2 p^2) v + v*) / (omega.f), as
  Im(Omega) lies in Gamma' and Im(Omega)^2 = D / p^2, so (omega.f) times
  its pullback by mu is (1, i Im(Omega), -D / 2 p^2) = exp(i Im(Omega));
* B_check = pr(omega) / (omega.f) and omega_check = Re(Omega) / (omega.f),
  so Im s_Psi = B_check.omega_check = 0 (omega is orthogonal to p and q),
  (omega.f) mu(Im Psi) = Re(Omega), and (omega.f) mu(Re Psi) is
  omega + lam f for some lam; mu is an isometry, so its square is
  (omega.f)^2 omega_check^2 = D / p^2, which fixes
  lam = (D / p^2 - omega^2) / (2 omega.f).  Call it omega';
* Re(Omega) and Im(Omega) span (p, q), so x = (r, y, s) is orthogonal to
  the four pullbacks exactly when y is in K = {p, q, omega'}^perp of GAMMA
  and r D / 2 p^2 = s, that is (r, 0, s) in Z e for
  e = (2 p^2 / g, 0, D / g), g = gcd(D, 2 p^2): the conditions on y and on
  (r, s) separate.

So the lattice is mu(K + Z e), an orthogonal sum.  K is negative definite,
as (p, q, omega') span a positive 3-plane, and e^2 = -4 p^2 D / g^2.  Both
parts are even, so a root k + n e has n = 0 and k a root of K, or k = 0,
n = +-1 and e^2 = -2, which holds exactly when g = D = 2 p^2; then
e = w* - w and mu(e) = v* - v = sigma0.  That is the fibration obstruction
D = 2 p^2 (`fibration_obstruction`), the one family with a closed-form
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence

from .attractor import Charge, hyperkahler_rotate
from .exact import QuadComplex, QuadScalar
from .intmat import enumerate_quadric, lll_reduce
from .lattice import GAMMA, LatticeVector, MukaiVector, Sublattice, orth_complement, pair
from .mirror import MirrorTriple, PreconditionViolation, SplitData, mirror_classes, mirror_period

if TYPE_CHECKING:
    from .scenario import Scenario


class RealityViolation(ValueError):
    """A mirror central charge has a nonzero imaginary part."""

    def __init__(self, cls: LatticeVector, value: QuadComplex):
        self.cls = cls
        self.value = value
        super().__init__(f"Z({cls}) = {value} is not real")


class SearchObstructed(ValueError):
    """The fibration obstruction D = 2 p^2 holds: no Kaehler class can work."""

    def __init__(self, obstruction: "ObstructionCheck"):
        self.obstruction = obstruction
        super().__init__(f"obstructed by {obstruction.delta}")


class SearchExhausted(RuntimeError):
    """The constructed Kaehler candidate failed: the rejected halvings and the
    final reason, each with its step index k."""

    def __init__(self, rejections: list[tuple[int, str]]):
        self.rejections = rejections
        super().__init__(f"the constructed candidate failed: {rejections[-1][1]}")


# ---------------------------------------------------------------------------
# Mukai pairing and stability points.


@dataclass(frozen=True)
class StabilityPoint:
    """exp(B + i omega) as an exact complex Mukai triple over the K3 lattice
    GAMMA."""

    B: LatticeVector
    omega: LatticeVector

    @property
    def s_part(self) -> QuadComplex:
        """1/2 (B + i omega)^2, computed on first use and kept on the instance."""
        cached = self.__dict__.get("_s_part")
        if cached is None:
            x = QuadComplex(self.B, self.omega)
            cached = pair(x, x) * Fraction(1, 2)
            object.__setattr__(self, "_s_part", cached)
        return cached


def mukai_pair(x: MukaiVector, y: MukaiVector) -> QuadScalar:
    """The Mukai pairing of two integral vectors (module docstring)."""
    return pair(x.D, y.D) - QuadScalar(x.r * y.s + y.r * x.s)


def central_charges(psi: StabilityPoint, vs: Sequence[MukaiVector]) -> list[QuadComplex]:
    """Z(v) = (Psi, v) for integral v = (r, D, s): the Mukai pairing of
    Psi = (1, B + i omega, s_Psi) with v is (B + i omega).D - s - r s_Psi,
    two real pairings with s_Psi = psi.s_part kept on the point.  B and
    omega are each paired with every D in one pass over their kept Gram
    images (`lattice.pair` of a list)."""
    Ds = [v.D for v in vs]
    res, ims = pair(psi.B, Ds), pair(psi.omega, Ds)
    s_psi = psi.s_part
    out = []
    for v, re, im in zip(vs, res, ims):
        if v.s:
            re = re - v.s
        if v.r:
            re = re - s_psi.re * v.r
            im = im - s_psi.im * v.r
        out.append(QuadComplex(re, im))
    return out


def central_charge(psi: StabilityPoint, v: MukaiVector) -> QuadComplex:
    """Z(v) for one integral v: the one-element case of `central_charges`."""
    return central_charges(psi, [v])[0]


def ns_of_mirror(omega_check: QuadComplex) -> Sublattice:
    """Integral classes orthogonal to both Re and Im of the mirror period."""
    return orth_complement([omega_check.re, omega_check.im])


# ---------------------------------------------------------------------------
# Complete enumeration of the (-2)-classes annihilating Psi.


@dataclass(frozen=True)
class RootEnumeration:
    """The roots of the lattice orthogonal to Psi and the mirror period, all
    of them, in (r, D, s) order; `search_kahler_class`, which builds Psi and
    the period, re-verifies each against the exact Mukai pairing."""

    lattice_rank: int
    roots: list[MukaiVector]


def p0_violations(sc: Scenario, omega: LatticeVector) -> RootEnumeration:
    """Every delta = (r, D, s) with delta^2 = -2, D in NS(mirror) and
    (Psi, delta) = 0, found by one complete enumeration in GAMMA, where Psi
    and the mirror period are those of the data at the Kaehler class omega
    with B = 0, whatever the scenario's own B.  Lemma (proof in the module
    docstring): the Mukai classes orthogonal to both are mu(K + Z e), for
    the mirror isometry mu, K = {p, q, omega'}^perp in GAMMA with
    omega' = omega + lam f of square D / p^2, and e = (2 p^2 / g, 0, D / g),
    g = gcd(D, 2 p^2).  K is negative definite and e^2 = -4 p^2 D / g^2, so
    the roots are mu of those of K and, when D = 2 p^2, +-mu(e) = +-sigma0:
    the fibration obstruction.  So the roots depend on (sc, omega) alone.

    Minus the Gram matrix of K is LLL reduced and its vectors of norm 2 are
    enumerated with the Gram-Schmidt data that the reduction ends with;
    only hits (a certified point has none) build the transform t and the
    reduced basis t K, and `mirror_classes` maps them; `search_kahler_class`
    re-verifies each root at the Psi and mirror period it builds.
    """
    charge, split = sc.charge, sc.split
    f = split.f
    lam = (QuadScalar(Fraction(charge.disc, charge.p2)) - pair(omega, omega)) / (pair(omega, f) * 2)
    # in this order the kernel basis is short: 21 LLL swaps instead of 654
    # (p, q, omega') on the form [2 10^2200, 0, 2 10^2200]
    sub = orth_complement([charge.p, omega + lam * f, charge.q])
    transform, *factors = lll_reduce([[-x for x in row] for row in sub.gram()])

    def combine(coeffs, vectors):
        out = [0] * GAMMA.rank
        for c, v in zip(coeffs, vectors):
            if c:
                out = [o + c * x for o, x in zip(out, v)]
        return out

    roots = []
    ys = enumerate_quadric(factors, 2)
    if ys:  # a certified point has none, and needs neither t nor a basis
        kern = [v.A for v in sub.basis]
        basis = [combine(row, kern) for row in transform()]  # the reduced basis: rows of t K
        roots = mirror_classes(split, [LatticeVector.from_ints(combine(y, basis)) for y in ys])
    if charge.disc == 2 * charge.p2:  # e = (1, 0, 1), the mirror of sigma0
        roots += [MukaiVector(0, split.sigma0, 0), MukaiVector(0, -split.sigma0, 0)]
    roots.sort(key=lambda delta: (delta.r, delta.D.A, delta.s))
    return RootEnumeration(lattice_rank=sub.rank + 1, roots=roots)


# ---------------------------------------------------------------------------
# The finite certificate for classes supported on the fibration summand.


@dataclass(frozen=True)
class ObstructionCheck:
    """Exact case analysis of (-2)-classes D = m f + n sigma0 killing Psi.

    Annihilation forces n (m - n) = -1, so (m, n) is (0, 1) or (0, -1), and
    then m - n + (D_pq / 2 p^2) n = 0, which is exactly D_pq = 2 p^2.
    """

    obstructed: bool
    delta: Optional[MukaiVector]
    solutions: tuple[tuple[int, int], ...]
    residuals: tuple[Fraction, ...]
    disc: int
    p2: int


def fibration_obstruction(charge: Charge, split: SplitData) -> ObstructionCheck:
    """The case analysis for f and sigma0 orthogonal to the charge, which
    scenario assembly checks."""
    solutions = ((0, 1), (0, -1))
    ratio = Fraction(charge.disc, 2 * charge.p2)
    residuals = tuple(Fraction(m - n) + ratio * n for m, n in solutions)
    obstructed = any(r == 0 for r in residuals)
    delta = None
    if obstructed:
        m, n = next(mn for mn, r in zip(solutions, residuals) if r == 0)
        delta = MukaiVector(0, m * split.f + n * split.sigma0, 0)
    return ObstructionCheck(
        obstructed=obstructed,
        delta=delta,
        solutions=solutions,
        residuals=residuals,
        disc=charge.disc,
        p2=charge.p2,
    )


# ---------------------------------------------------------------------------
# Walls.


def wall_member(psi: StabilityPoint, v1: MukaiVector, v2: MukaiVector) -> bool:
    """Generalized wall membership, Z(v1)/Z(v2) in R_{>0}, decided exactly for
    any two charges by one product: Z(v1)/Z(v2) = w / |Z(v2)|^2 with
    w = Z(v1) conj(Z(v2)), so the pair is a member exactly when w is a
    positive real; a zero central charge makes w = 0 and fails it."""
    w = central_charge(psi, v1) * central_charge(psi, v2).conj()
    return not w.im and w.re.sign() > 0


def wall_count(charges: Sequence[QuadScalar]) -> int:
    """The number of pairs of real charges on a common generalized wall.  A
    ratio of two real charges is a positive real exactly when both are
    nonzero and of one sign, so that is C(n+, 2) + C(n-, 2) for the n+
    positive and n- negative charges."""
    signs = [z.sign() for z in charges]
    return sum(n * (n - 1) // 2 for n in (signs.count(1), signs.count(-1)))


# ---------------------------------------------------------------------------
# Theorem-level verifiers.


def verify_reality(
    split: SplitData, psi: StabilityPoint, classes: Sequence[LatticeVector]
) -> list[tuple[LatticeVector, QuadScalar, MukaiVector]]:
    """Check that every Z(mu(l)) is exactly real; return (l, Z(mu(l)), mu(l))
    per class, in the order of `classes`; the first non-real charge raises
    RealityViolation with its class and complex value.

    The twenty charges come from four passes over the classes, each one
    fixed vector paired with all of them: v* and v give the mirror classes
    mu(l) = (b, D, -a) (`mirror_classes`), then B and omega give B.D and
    omega.D (`central_charges`).  Each charge is still the two-pairing
    formula of the module docstring, Z = (B.D - s - r Re s_Psi) +
    i (omega.D - r Im s_Psi), with the pairings batched, not expanded.

    The check cannot fail at the point of an assembled scenario or of the
    search, for any B.  There Omega_I = omega_J + i Re(Omega), and Re(Omega)
    lies in span(p, q), orthogonal to l, f and sigma0, so the mirror map gives
    omega_check = (Re(Omega) - (Re(Omega).B) f) / (omega_J.f) and
    B_check = (pr(omega_J) - (omega_J.B) f) / (omega_J.f).  With
    mu(l) = (b, pr(l), -a), Im Z(mu(l)) = omega_check.pr(l) - b Im s_Psi, and
    omega_check.pr(l) = Re(Omega).l / (omega_J.f) = 0, as pr(l) is orthogonal
    to f.  Im s_Psi = B_check.omega_check = omega_J.Re(Omega) / (omega_J.f)^2
    = 0, as f pairs to zero with f, Re(Omega) and pr(omega_J), and assembly
    makes omega_J (and eta, so the search's candidate) orthogonal to p and q.
    """
    vs = mirror_classes(split, classes)
    out = []
    for cls, z, v in zip(classes, central_charges(psi, vs), vs):
        if z.im:
            raise RealityViolation(cls, z)
        out.append((cls, z.re, v))
    return out


@dataclass
class SearchResult:
    omega_J: LatticeVector
    candidate_index: int
    psi: StabilityPoint
    triple: MirrorTriple
    charges: list[tuple[LatticeVector, QuadScalar]]
    obstruction: ObstructionCheck
    enumeration: RootEnumeration

    @property
    def candidates_tried(self) -> int:
        return self.candidate_index + 1


def _dual_eta(sc: Scenario) -> LatticeVector:
    """The integral class eta with eta . b_i = -c for every vector b_i of the
    scenario's eta basis, c > 0 the least such integer.

    The eta basis spans W, the complement of the definite plane (p, q) and
    the hyperbolic plane (f, sigma0) in signature (3,19); W is negative
    definite, and primitive, so a vector of W_Q is integral exactly when its
    coefficients are.  Its column reduction (`orth_complement`) gives the
    rows d_j with d_j . b_k = delta_jk, so z = sum_j d_j has z . b_k = 1,
    and y0 = G^-1 z (GAMMA is unimodular) pairs to 1 with every b_k.  The
    two planes are orthogonal, assembly checks it, so subtracting the
    projection of y0 onto each, a 2x2 solve against g . y0 = g . z for g in
    the plane, leaves the one u in W_Q with u . b_k = 1.  Then eta = -c u:
    with eta = sum_i x_i b_i, minus the Gram matrix P of W has P x = c 1,
    and a common factor of the x_i would divide c, so eta is minus the
    primitive vector on the ray of u.  Neither the Gram matrix of W nor a
    second kernel is computed.

    Nothing more holds in general: eta is orthogonal to every difference
    b_i - b_j, so it does not avoid the hyperplane of a root of that form.
    On the form [2,1,2] the root e2(U3) - e1(U3), the difference of the
    first two vectors of the scenario's basis, annihilates every candidate
    (ROADMAP item 1).
    """
    z = [sum(col) for col in zip(*sc.eta_lattice.dual())]
    num, den = GAMMA.inverse().image(z), 1  # u = num / den
    for a, b in ((sc.charge.p.A, sc.charge.q.A), (sc.split.f.A, sc.split.sigma0.A)):
        ga, gb = GAMMA.image(a), GAMMA.image(b)
        aa, ab, bb = sum(map(mul, a, ga)), sum(map(mul, a, gb)), sum(map(mul, b, gb))
        ra, rb = sum(map(mul, a, z)), sum(map(mul, b, z))
        det = aa * bb - ab * ab
        ca, cb = bb * ra - ab * rb, aa * rb - ab * ra  # the projection is (ca a + cb b) / det
        num = [det * x - den * (ca * y + cb * w) for x, y, w in zip(num, a, b)]
        den *= det
    g = gcd(*num) if den > 0 else -gcd(*num)
    return LatticeVector.from_ints([-x // g for x in num])


def search_kahler_class(sc: Scenario) -> SearchResult:
    """Find omega_J making exp(mirror B + i mirror omega) a regular point.

    Requires B = 0, and fails fast with SearchObstructed when D = 2 p^2 (no
    candidate can work).  Otherwise builds the one candidate
    omega_k = omega0 + t step, t = 2^-k, step = c_eta eta, with omega0 the
    scenario's omega_J and eta, unless the scenario gives one, the integral
    class dual to its eta basis (`_dual_eta`); k is the least index where
    omega_k is inside the open cone omega^2 > 0, omega.f > 0 of omega0;
    with c_eta = 0 the candidate is omega0 itself.  Assembly puts omega0
    strictly inside that cone and eta orthogonal to the charge, so halving
    the step towards omega0 ends with no cap.  The candidate must give all
    twenty mirror charges real and nonzero and annihilate no (-2)-class (the
    complete `p0_violations`, each root re-verified); otherwise
    SearchExhausted carries the k halving rejections and the final reason.

    The cone test needs no omega.omega0 test: omega and omega0 lie in
    (p, q)^perp, of signature (1,19), both have positive square, and both
    pair positively with the nonzero isotropic f.  The vectors of positive
    square form two cones, told apart by the sign of their pairing with f
    (which is never 0, since the complement of a vector of positive square
    is negative definite and holds no nonzero isotropic vector).  So omega
    and omega0 lie in one cone, and by the light-cone lemma
    omega.omega0 >= sqrt(omega^2 omega0^2) > 0.  Both tests are polynomials
    in t, omega_t^2 = a + (2 b + c t) t and omega_t.f = e + g t, whose five
    coefficients are paired once and cleared of their denominators once; at
    t = 1/u the signs are those of a u^2 + 2 b u + c and e u + g, sums of
    integer numerators with no gcd to divide out.  omega is built only at the
    accepted k.
    """
    if sc.B:
        raise PreconditionViolation("the Kaehler search requires B = 0")
    obstruction = fibration_obstruction(sc.charge, sc.split)
    if obstruction.obstructed:
        raise SearchObstructed(obstruction)
    omega0, f = sc.omega_J, sc.split.f
    step = LatticeVector.zero(GAMMA.rank)
    if sc.c_eta:
        eta = sc.eta if sc.eta is not None else _dual_eta(sc)
        step = sc.c_eta * eta
    a, b, c = pair(omega0, omega0), pair(omega0, step), pair(step, step)
    e, g = pair(omega0, f), pair(step, f)
    n = lcm(a.d, b.d, c.d, e.d, g.d)  # > 0, so every sign is kept
    a, b, c, e, g = a * n, b * n, c * n, e * n, g * n
    rejections: list[tuple[int, str]] = []
    k = 0
    while True:
        u = 1 << k  # t = 1/u: the tests times u^2 and u, on integer numerators
        if (a * (u * u) + b * (2 * u) + c).sign() <= 0:
            rejections.append((k, "candidate has nonpositive square"))
        elif (e * u + g).sign() <= 0:
            rejections.append((k, "candidate does not pair positively with the fiber class"))
        else:
            break
        k += 1
    omega = omega0 + Fraction(1, 1 << k) * step

    def exhausted(reason: str) -> SearchExhausted:
        return SearchExhausted(rejections + [(k, reason)])

    # the rotation's and the mirror map's preconditions hold without a test:
    # omega_J and eta are orthogonal to p and q by assembly, the dual eta
    # lies in the span of the eta basis, the loop above has checked
    # omega^2 > 0 and omega.f > 0, and B = 0 (mirror module docstring); the
    # mirror omega has square D / (p^2 (omega.f)^2) > 0
    Omega_I = hyperkahler_rotate(sc.Omega, omega)
    triple = mirror_period(sc.split, Omega_I, sc.Omega.im, LatticeVector.zero(GAMMA.rank))
    psi = StabilityPoint(triple.B_check, triple.omega_check)
    charges = [(cls, z) for cls, z, _ in verify_reality(sc.split, psi, sc.pic_basis)]
    for cls, z in charges:
        if not z:
            raise exhausted(f"zero real charge for class {cls}")
    enumeration = p0_violations(sc, omega)
    for delta in enumeration.roots:
        assert not central_charge(psi, delta), f"false positive {delta}: pairs with Psi"
        assert not pair(triple.Omega_check, delta.D), f"{delta} is not in NS(mirror)"
        assert mukai_pair(delta, delta) == -2
    if enumeration.roots:
        raise exhausted(f"annihilating (-2)-class: {enumeration.roots[0]}")
    return SearchResult(
        omega_J=omega,
        candidate_index=k,
        psi=psi,
        triple=triple,
        charges=charges,
        obstruction=obstruction,
        enumeration=enumeration,
    )


def wall_intersection(
    charges: Sequence[tuple[LatticeVector, QuadScalar]],
) -> tuple[list[bool], list[QuadScalar]]:
    """The flips and the flipped charges of the exactly real (l, Z(mu(l))) of
    a search.  Flipping l -> -l wherever Z(mu(l)) < 0 negates the charge,
    since Z(mu(-l)) = -Z(mu(l)), so a flipped charge is a positive real or
    zero.  A ratio of positive reals is a positive real, so every pair of
    nonzero flipped charges lies on a common generalized wall; a zero charge
    (which the search refuses) has no phase and lies on none.
    """
    flips = [z.sign() < 0 for _, z in charges]
    return flips, [-z if flip else z for (_, z), flip in zip(charges, flips)]
