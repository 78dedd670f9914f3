"""Central charges, the stability point exp(B + i omega), and wall certificates.

A Mukai vector is an integral triple (r, D, s) paired by
((r1,D1,s1),(r2,D2,s2)) = D1.D2 - r1 s2 - r2 s1.  For a B-field and a class
omega with omega^2 > 0 the stability point is the complex triple

    Psi = exp(B + i omega) = (1, B + i omega, 1/2 (B + i omega)^2)

and the central charge of v is Z(v) = (Psi, v).  Two nonzero charges lie on a
common generalized wall at Psi when Z(v1)/Z(v2) is a positive real number; a
zero charge has no phase and fails every wall test.

The regular-point condition ("is Psi away from every delta-perp with
delta^2 = -2?") is decided by one complete enumeration.  Re and Im of Psi
span a positive plane (checked by `is_positive_plane`), Re and Im of the
mirror period span another (asserted by `mirror_period`), and the two are
orthogonal, so together they span a positive 4-plane of the Mukai lattice, of
signature (4,20).  The integral classes orthogonal to that 4-plane, which are
exactly the delta = (r, D, s) with D in NS(mirror) and (Psi, delta) = 0, form
a negative-definite lattice; it has finitely many roots, and
`p0_violations` lists all of them (Fincke-Pohst on an LLL-reduced basis).
Only the fibration-supported family D = m f + n sigma0 admits a closed-form
certificate, equivalent to D != 2 p^2 (`fibration_obstruction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .attractor import AttractorData, Charge, NotPositive, hyperkahler_rotate
from .exact import QuadComplex, QuadScalar
from .intmat import enumerate_quadric, gram_schmidt, kernel_basis, lll_reduce
from .lattice import (
    GAMMA,
    MUKAI,
    ComplexVector,
    GramLattice,
    LatticeVector,
    MukaiVector,
    Sublattice,
    embed_gamma,
    orth_complement,
    pair,
)
from .mirror import MirrorTriple, PreconditionViolation, SplitData, mirror_class, mirror_period


class ExpansionMismatch(RuntimeError):
    """The two central-charge formulas disagreed: an internal bug."""


class RealityViolation(ValueError):
    """A mirror central charge has a nonzero imaginary part."""

    def __init__(self, cls: LatticeVector, value: QuadComplex):
        self.cls = cls
        self.value = value
        super().__init__(f"Z({cls}) = {value} is not real")


class WallFailure(ValueError):
    """A pair of charges fails the generalized wall condition."""


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
    """exp(B + i omega) as an exact complex Mukai triple."""

    B: LatticeVector
    omega: LatticeVector
    lat: GramLattice = GAMMA

    @property
    def d_part(self) -> ComplexVector:
        return ComplexVector(self.B, self.omega)

    @property
    def s_part(self) -> QuadComplex:
        """1/2 (B + i omega)^2, computed on first use and kept on the instance."""
        cached = self.__dict__.get("_s_part")
        if cached is None:
            x_sq = pair(self.lat, self.d_part, self.d_part)
            cached = x_sq * Fraction(1, 2)
            object.__setattr__(self, "_s_part", cached)
        return cached

    def triple(self) -> tuple[QuadComplex, ComplexVector, QuadComplex]:
        return QuadComplex(1), self.d_part, self.s_part


def exp_point(B: LatticeVector, omega: LatticeVector, lat: GramLattice = GAMMA) -> StabilityPoint:
    if pair(lat, omega, omega).sign() <= 0:
        raise NotPositive("omega^2 must be positive")
    return StabilityPoint(B=B, omega=omega, lat=lat)


def _as_triple(x, lat):
    if isinstance(x, MukaiVector):
        return QuadComplex(x.r), ComplexVector(x.D), QuadComplex(x.s)
    if isinstance(x, StabilityPoint):
        return x.triple()
    if isinstance(x, tuple) and len(x) == 3:
        return x
    raise TypeError(f"not a Mukai triple: {x!r}")


def _charge(psi: StabilityPoint, v: MukaiVector) -> QuadComplex:
    """(Psi, v) for an integral v = (r, D, s) by two real pairings:
    (B.D - s - r Re s_Psi) + i (omega.D - r Im s_Psi), s_Psi = psi.s_part."""
    lat, s_psi = psi.lat, psi.s_part
    re = pair(lat, psi.B, v.D) - v.s
    im = pair(lat, psi.omega, v.D)
    if v.r:
        re = re - s_psi.re * v.r
        im = im - s_psi.im * v.r
    return QuadComplex(re, im)


def mukai_pair(x, y, lat: GramLattice = GAMMA):
    """The Mukai pairing, extended bilinearly to complex triples.

    Returns a QuadScalar for two integral vectors, a QuadComplex otherwise.
    """
    if isinstance(x, MukaiVector) and isinstance(y, MukaiVector):
        return pair(lat, x.D, y.D) - QuadScalar(x.r * y.s + y.r * x.s)
    r1, d1, s1 = _as_triple(x, lat)
    r2, d2, s2 = _as_triple(y, lat)
    return pair(lat, d1, d2) - r1 * s2 - r2 * s1


def central_charge(psi: StabilityPoint, v: MukaiVector) -> QuadComplex:
    """Z(v) = (exp(B + i omega), v) by two real pairings, cross-checked
    against the expanded forms."""
    value = _charge(psi, v)
    lat, B, omega = psi.lat, psi.B, psi.omega
    d_min_rb = v.D - v.r * B
    im = pair(lat, d_min_rb, omega)
    if v.r == 0:
        re = pair(lat, v.D, B) - QuadScalar(v.s)
    else:
        d2 = pair(lat, v.D, v.D)
        w2 = pair(lat, omega, omega)
        re = (
            d2
            - QuadScalar(2 * v.r * v.s)
            + QuadScalar(v.r * v.r) * w2
            - pair(lat, d_min_rb, d_min_rb)
        ) * Fraction(1, 2 * v.r)
    if value != QuadComplex(re, im):
        raise ExpansionMismatch(f"{value} vs {QuadComplex(re, im)} for v={v}")
    return value


def is_positive_plane(psi: StabilityPoint) -> bool:
    """Exact positive-definiteness of the (Re Psi, Im Psi) Gram matrix."""
    (g11, g12), (_, g22) = plane_gram(psi)
    return g11.sign() > 0 and (g11 * g22 - g12 * g12).sign() > 0


def plane_gram(psi: StabilityPoint) -> list[list[QuadScalar]]:
    """Mukai Gram matrix of Re Psi = (1, B, Re s) and Im Psi = (0, omega, Im s)."""
    lat, B, omega, s = psi.lat, psi.B, psi.omega, psi.s_part
    g11 = pair(lat, B, B) - s.re * 2
    g12 = pair(lat, B, omega) - s.im
    g22 = pair(lat, omega, omega)
    return [[g11, g12], [g12, g22]]


def ns_of_mirror(omega_check: ComplexVector, lat: GramLattice = GAMMA) -> Sublattice:
    """Integral classes orthogonal to both Re and Im of the mirror period."""
    return orth_complement(lat, [omega_check.re, omega_check.im])


# ---------------------------------------------------------------------------
# Complete enumeration of the (-2)-classes annihilating Psi.


@dataclass(frozen=True)
class RootEnumeration:
    """The roots of the lattice orthogonal to Psi and the mirror period.

    `count` is the number of roots; `roots` holds the first `limit` of them in
    (r, D, s) order, each re-verified against the exact Mukai pairing.
    """

    lattice_rank: int
    count: int
    roots: list[MukaiVector]


def p0_violations(
    psi: StabilityPoint, omega_check: ComplexVector, limit: Optional[int] = None
) -> RootEnumeration:
    """Every delta = (r, D, s) with delta^2 = -2, D in NS(mirror) and
    (Psi, delta) = 0, found by one complete enumeration (module docstring).

    The integral kernel of the Mukai pairings with Re and Im of the mirror
    period and of Psi is negative definite; minus its Gram matrix is LLL
    reduced, and its vectors of norm 2 are enumerated with the Gram-Schmidt
    data that the reduction ends with, so nothing is factored twice.
    """
    s_part = psi.s_part
    n = GAMMA.rank  # Mukai coordinates are (D, r, s)
    r_unit, s_unit = LatticeVector.unit(MUKAI.rank, n), LatticeVector.unit(MUKAI.rank, n + 1)
    gens = [
        embed_gamma(omega_check.re),
        embed_gamma(omega_check.im),
        embed_gamma(psi.B) + r_unit + s_part.re * s_unit,
        embed_gamma(psi.omega) + s_part.im * s_unit,
    ]
    sub = orth_complement(MUKAI, gens)
    kern = [v.int_coords() for v in sub.basis]
    try:
        t, _, d, lam = lll_reduce([[-x for x in row] for row in sub.gram()])
    except ValueError:
        raise RuntimeError(
            "the lattice orthogonal to Psi and the mirror period is not negative "
            "definite: they do not span a positive 4-plane"
        ) from None

    def combine(coeffs, vectors):
        out = [0] * MUKAI.rank
        for c, v in zip(coeffs, vectors):
            if c:
                out = [o + c * x for o, x in zip(out, v)]
        return out

    basis = [combine(row, kern) for row in t]  # the reduced basis: rows of t K
    hits = sorted(
        (x[n], tuple(x[:n]), x[n + 1])
        for x in (combine(y, basis) for y in enumerate_quadric((d, lam), [0] * len(basis), 2))
    )
    roots = []
    for r, d, s in hits[:limit]:
        delta = MukaiVector(r, LatticeVector.from_ints(d), s)
        assert not _charge(psi, delta), f"false positive {delta}: pairs with Psi"
        assert not pair(GAMMA, omega_check, delta.D), f"{delta} is not in NS(mirror)"
        assert mukai_pair(delta, delta) == -2
        roots.append(delta)
    return RootEnumeration(lattice_rank=len(kern), count=len(hits), roots=roots)


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
    lat = charge.lat
    for cls in (split.f, split.sigma0):
        if pair(lat, cls, charge.p) or pair(lat, cls, charge.q):
            raise PreconditionViolation("fibration classes must be orthogonal to the charge")
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


@dataclass(frozen=True)
class WallReport:
    i: int
    j: int
    member: bool
    z_i: QuadComplex
    z_j: QuadComplex


def _phase_key(z: QuadComplex) -> Optional[tuple]:
    """An exact key of the phase of z: None for zero, (0, sign re) for a real
    z, (sign im, re/im) otherwise.  The sign of im picks the half plane and
    re/im, the cotangent of the argument, is injective on each, so z1/z2 is a
    positive real exactly when the keys are equal and not None."""
    if not z.im:
        return (0, z.re.sign()) if z.re else None
    return (z.im.sign(), z.re / z.im)


def wall_member(psi: StabilityPoint, v1: MukaiVector, v2: MukaiVector) -> WallReport:
    """Generalized wall membership: Z(v1)/Z(v2) in R_{>0}, decided exactly.

    Zero central charges have no phase and fail membership.
    """
    (report,) = wall_table([central_charge(psi, v1), central_charge(psi, v2)])
    return report


def wall_table(zs: Sequence[QuadComplex]) -> list[WallReport]:
    """Wall membership of every pair i < j, in (i, j) order, from the central
    charges of the vectors (one per vector, computed by the caller) and one
    phase key per charge."""
    keys = [_phase_key(z) for z in zs]
    return [
        WallReport(
            i=i, j=j, member=keys[i] is not None and keys[i] == keys[j], z_i=zs[i], z_j=zs[j]
        )
        for i in range(len(zs))
        for j in range(i + 1, len(zs))
    ]


# ---------------------------------------------------------------------------
# Theorem-level verifiers.


def verify_reality(
    split: SplitData, psi: StabilityPoint, classes: Sequence[LatticeVector]
) -> list[tuple[LatticeVector, QuadScalar, MukaiVector]]:
    """Check that every Z(mu(l)) is exactly real; return (l, Z(mu(l)), mu(l))
    per class, from one mirror class and one central charge each."""
    out = []
    for cls in classes:
        v = mirror_class(split, cls)
        z = central_charge(psi, v)
        if z.im:
            raise RealityViolation(cls, z)
        out.append((cls, z.re, v))
    return out


@dataclass
class SearchParams:
    """The one constructed candidate of the Kaehler-class search.

    The candidate is omega_k = base + 2^-k (c_sigma * sigma0 + c_eta * eta),
    with base = beta * omega0 + sum(alpha_k n_k), at the least k >= 0 where
    omega_k is inside the open cone omega^2 > 0, omega.f > 0, omega.omega0 > 0.
    `eta` defaults to the integral class dual to a basis of the complement of
    (p, q, f, sigma0).
    """

    omega0: LatticeVector
    eta: Optional[LatticeVector] = None
    c_sigma: Union[Fraction, QuadScalar] = Fraction(0)
    c_eta: Union[Fraction, QuadScalar] = Fraction(1, 10)
    alphas: tuple = ()
    beta: Fraction = Fraction(1)


@dataclass
class SearchResult:
    omega_J: LatticeVector
    candidate_index: int
    candidates_tried: int
    eta: Optional[LatticeVector]
    psi: StabilityPoint
    triple: MirrorTriple
    data: AttractorData
    charges: list[tuple[LatticeVector, QuadScalar]]
    obstruction: ObstructionCheck
    enumeration: RootEnumeration
    rejections: list[tuple[int, str]] = field(default_factory=list)


def _dual_eta(lat: GramLattice, basis: Sequence[LatticeVector]) -> LatticeVector:
    """The integral class eta with eta . b_i = -c for every vector b_i of a
    basis of a negative definite lattice, c > 0 the least such integer.

    `gram_schmidt` of minus the Gram matrix P decides definiteness; then the
    kernel of [P | -1] is spanned by one primitive vector (x, c), and with
    c > 0, P x = c 1 makes x the coefficients of eta.  In root-lattice blocks
    eta pairs with each root by a multiple of its height, and so avoids every
    root hyperplane.
    """
    sub = Sublattice(lat, basis)
    neg_gram = [[-x for x in row] for row in sub.gram()]
    try:
        gram_schmidt(neg_gram)
    except ValueError:
        raise PreconditionViolation("the eta basis must span a negative definite lattice") from None
    (kernel,) = kernel_basis([row + [-1] for row in neg_gram])
    *x, _ = kernel if kernel[-1] > 0 else [-a for a in kernel]
    return sub.from_coefficients(x)


def _cone_violation(lat, omega, f, omega0, what):
    """Which of omega^2 > 0, omega.f > 0, omega.omega0 > 0 fails first, or None."""
    if pair(lat, omega, omega).sign() <= 0:
        return f"{what} has nonpositive square"
    if pair(lat, omega, f).sign() <= 0:
        return f"{what} does not pair positively with the fiber class"
    if pair(lat, omega, omega0).sign() <= 0:
        return f"{what} leaves the reference cone"
    return None


def search_kahler_class(
    charge: Charge,
    split: SplitData,
    tau: QuadComplex,
    pic_basis: Sequence[LatticeVector],
    params: SearchParams,
    eta_basis: Optional[Sequence[LatticeVector]] = None,
) -> SearchResult:
    """Find omega_J making exp(mirror B + i mirror omega) a regular point.

    Fails fast with SearchObstructed when D = 2 p^2 (no candidate can work).
    Otherwise builds the one candidate of `SearchParams`: halving the step
    moves omega_k towards the base, so a base strictly inside the cone gives a
    least k with no cap, and a base outside it, or a candidate line not
    orthogonal to the charge, ends the search at once.  The candidate must
    span a positive plane, give all twenty mirror charges real and nonzero,
    and annihilate no (-2)-class (the complete `p0_violations`); otherwise
    SearchExhausted carries the k halving rejections and the final reason.
    """
    lat = charge.lat
    obstruction = fibration_obstruction(charge, split)
    if obstruction.obstructed:
        raise SearchObstructed(obstruction)
    base = params.beta * params.omega0
    for alpha, cls in zip(params.alphas, pic_basis):
        if alpha:
            base = base + alpha * cls
    step = LatticeVector.zero(lat.rank)
    if params.c_sigma:
        step = step + params.c_sigma * split.sigma0
    eta = None
    if params.c_eta:
        eta = params.eta
        if eta is None:
            if eta_basis is None:
                eta_basis = orth_complement(
                    lat, [charge.p, charge.q, split.f, split.sigma0]
                ).basis
            eta = _dual_eta(lat, eta_basis)
        step = step + params.c_eta * eta
    if any(pair(lat, v, c) for v in (base, step) for c in (charge.p, charge.q)):
        raise SearchExhausted([(0, "candidate not orthogonal to the charge")])
    reason = _cone_violation(lat, base, split.f, params.omega0, "base")
    if reason is not None:
        raise SearchExhausted([(0, reason)])
    rejections: list[tuple[int, str]] = []
    k = 0
    omega = base + step
    while (reason := _cone_violation(lat, omega, split.f, params.omega0, "candidate")) is not None:
        rejections.append((k, reason))
        k += 1
        omega = base + Fraction(1, 2**k) * step

    def exhausted(reason: str) -> SearchExhausted:
        return SearchExhausted(rejections + [(k, reason)])

    data = hyperkahler_rotate(charge, tau, omega)
    triple = mirror_period(split, data.Omega_I, data.omega_I, LatticeVector.zero(lat.rank))
    psi = exp_point(triple.B_check, triple.omega_check, lat)
    if not is_positive_plane(psi):
        raise exhausted("stability point plane is not positive definite")
    charges = [(cls, z) for cls, z, _ in verify_reality(split, psi, pic_basis)]
    for cls, z in charges:
        if not z:
            raise exhausted(f"zero real charge for class {cls}")
    enumeration = p0_violations(psi, triple.Omega_check, limit=1)
    if enumeration.roots:
        raise exhausted(f"annihilating (-2)-class: {enumeration.roots[0]}")
    return SearchResult(
        omega_J=omega,
        candidate_index=k,
        candidates_tried=k + 1,
        eta=eta,
        psi=psi,
        triple=triple,
        data=data,
        charges=charges,
        obstruction=obstruction,
        enumeration=enumeration,
        rejections=rejections,
    )


@dataclass
class WallIntersectionResult:
    flips: list[bool]
    reports: list[WallReport]
    charges: list[QuadScalar]

    @property
    def all_member(self) -> bool:
        return all(r.member for r in self.reports)


def wall_intersection(
    charges: Sequence[tuple[LatticeVector, QuadScalar]],
) -> WallIntersectionResult:
    """Sign-normalize the classes and certify every pairwise generalized wall.

    `charges` are the exactly real (l, Z(mu(l))) of `verify_reality` or of a
    search.  Flipping l -> -l wherever Z(mu(l)) < 0 negates the charge, since
    Z(mu(-l)) = -Z(mu(l)) exactly, so the table is built from the flipped
    values without a second central charge; all of them are positive reals,
    so all pairs must be members, and a failure raises WallFailure.
    """
    flips = []
    positive = []
    for cls, z in charges:
        if not z:
            raise WallFailure(f"zero charge for {cls}: no phase to align")
        flip = z.sign() < 0
        flips.append(flip)
        positive.append(-z if flip else z)
    reports = wall_table([QuadComplex(z) for z in positive])
    for rep in reports:
        if not rep.member:
            raise WallFailure(f"pair ({rep.i},{rep.j}) is not on a common wall")
    return WallIntersectionResult(flips=flips, reports=reports, charges=positive)
