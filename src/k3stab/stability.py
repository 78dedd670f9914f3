"""Central charges, the stability point exp(B + i omega), and wall certificates.

A Mukai vector is an integral triple (r, D, s) paired by
((r1,D1,s1),(r2,D2,s2)) = D1.D2 - r1 s2 - r2 s1.  For a B-field and a class
omega with omega^2 > 0 the stability point is the complex triple

    Psi = exp(B + i omega) = (1, B + i omega, 1/2 (B + i omega)^2)

and the central charge of v is Z(v) = (Psi, v).  Two nonzero charges lie on a
common generalized wall at Psi when Z(v1)/Z(v2) is a positive real number; a
zero charge has no phase and fails every wall test.

The regular-point search ("is Psi away from every delta-perp with
delta^2 = -2?") is a falsifier, not a proof: it enumerates candidates delta =
(r, D, s) with |r|, |s| bounded and D confined to a coefficient box of the
mirror Neron-Severi basis, and reports the bound with every verdict.  For each
(r, s) the condition (Psi, delta) = 0 fixes a coset of the integral kernel of
the pairings with omega and B inside NS(mirror).  On mirror data that kernel
is negative definite: Re and Im of the mirror period and omega span a positive
3-plane in Gamma, of signature (3,19), and the kernel is orthogonal to all
three.  Each coset is then a finite Fincke-Pohst enumeration.  Only a
sublattice chosen by the caller can give a kernel that is not negative
definite; for it the bounded scan `lattice.minus_two_coefficients` is
filtered to the coset.  Only the fibration-supported family D = m f + n sigma0
admits a finite exact certificate, equivalent to D != 2 p^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .attractor import AttractorData, Charge, NotPositive, hyperkahler_rotate
from .exact import QuadComplex, QuadScalar
from .intmat import (
    enumerate_quadric,
    kernel_basis,
    ldl_posdef,
    ldl_solve,
    mat_vec_int,
    solve_integer,
)
from .lattice import (
    GAMMA,
    ComplexVector,
    GramLattice,
    LatticeVector,
    MukaiVector,
    Sublattice,
    minus_two_coefficients,
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
    """Z(v) = (exp(B + i omega), v), cross-checked against the expanded forms."""
    value = mukai_pair(psi, v, psi.lat)
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
    lat = psi.lat
    s = psi.s_part
    re_t = (QuadComplex(1), ComplexVector(psi.B), QuadComplex(s.re))
    im_t = (QuadComplex(0), ComplexVector(psi.omega), QuadComplex(s.im))
    g11 = mukai_pair(re_t, re_t, lat).re
    g12 = mukai_pair(re_t, im_t, lat).re
    g22 = mukai_pair(im_t, im_t, lat).re
    return [[g11, g12], [g12, g22]]


def ns_of_mirror(omega_check: ComplexVector, lat: GramLattice = GAMMA) -> Sublattice:
    """Integral classes orthogonal to both Re and Im of the mirror period."""
    return orth_complement(lat, [omega_check.re, omega_check.im])


# ---------------------------------------------------------------------------
# Bounded search for (-2)-classes annihilating Psi.


def p0_violations(
    psi: StabilityPoint, ns: Sublattice, bound: int, limit: Optional[int] = None
) -> list[MukaiVector]:
    """All delta = (r, D, s) with delta^2 = -2, |r|,|s| <= bound, D in the
    coefficient box of the ns basis, and (Psi, delta) = 0 exactly; only the
    first `limit` of them when a limit is given.

    Ordered by (r, s, coefficient tuple): the (r, s) cosets are walked in
    that order, each sorted, and the walk stops at the limit.  Exactness: the
    annihilation condition splits into rational linear constraints on the
    coefficients; the remaining quadratic equation is enumerated on the
    constraint kernel, and every reported hit is re-verified against the
    exact Mukai pairing.  When ns is NS(mirror) the kernel is orthogonal to a
    positive 3-plane of Gamma (module docstring), hence negative definite,
    and each coset is a Fincke-Pohst enumeration; the bounded scan for a
    kernel that is not negative definite serves only sublattices chosen by
    the caller.
    """
    lat = ns.ambient
    gram = ns.gram()
    cw = [pair(lat, psi.omega, b) for b in ns.basis]
    cb = [pair(lat, psi.B, b) for b in ns.basis]
    b_dot_w = pair(lat, psi.B, psi.omega)
    b_sq = pair(lat, psi.B, psi.B)
    w_sq = pair(lat, psi.omega, psi.omega)
    # The left-hand rows are independent of (r, s); only the targets move.
    functionals = _functional_rows([cw, cb])
    solver = _KernelQuadricSolver(gram, [row for row, _ in functionals if row is not None])
    out: list[MukaiVector] = []
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            rhs_values = _functional_rhs(
                functionals,
                [r * b_dot_w, QuadScalar(Fraction(r, 2)) * (b_sq - w_sq) + s],
            )
            if rhs_values is None:
                continue
            for coeffs in solver.solve(rhs_values, 2 * r * s - 2, bound):
                delta = MukaiVector(r, ns.from_coefficients(coeffs), s)
                value = mukai_pair(psi, delta, lat)
                assert not value, f"false positive {delta}: pairing {value}"
                assert mukai_pair(delta, delta, lat) == -2
                out.append(delta)
                if len(out) == limit:
                    return out
    return out


def _functional_rows(functionals: Sequence[Sequence[QuadScalar]]):
    """Clear denominators of the rational and radical parts of each functional.

    Returns a list of (row_or_None, (functional_index, part, denominator))
    with one entry per component; a None row marks an identically-zero
    functional component whose target must vanish.
    """
    out = []
    for idx, coeffs in enumerate(functionals):
        for part in ("a", "b"):
            cs = [getattr(c, part) for c in coeffs]
            if not any(cs):
                out.append((None, (idx, part, 1)))
                continue
            denom = lcm(*(x.denominator for x in cs))
            out.append((([int(x * denom) for x in cs]), (idx, part, denom)))
    return out


def _functional_rhs(functionals, targets: Sequence[QuadScalar]):
    """Scaled integer targets for the active rows; None when unsatisfiable."""
    rhs = []
    for row, (idx, part, denom) in functionals:
        value = getattr(targets[idx], part) * denom
        if row is None:
            if value:
                return None
            continue
        if value.denominator != 1:
            return None
        rhs.append(value.numerator)
    return rhs


class _KernelQuadricSolver:
    """Solve {A x = rhs, x^T G x = target, |x_i| <= bound} for varying rhs.

    The kernel K of A and its Gram matrix are fixed, so P = -K^T G K is
    factored once and the factors are reused on every coset x0 + K y.  A
    failed factorization means the kernel is not negative definite; its
    cosets are then read off the bounded scan of all x with x^T G x = target.
    """

    def __init__(self, gram, rows):
        self.gram = gram
        self.rows = rows
        self.kern = kernel_basis(rows, len(gram))
        g_kern = [mat_vec_int(gram, w) for w in self.kern]
        gk = [[sum(a * b for a, b in zip(u, gw)) for gw in g_kern] for u in self.kern]
        # P = -K^T G K is positive definite exactly when its LDL^T exists
        try:
            self.factors = ldl_posdef([[Fraction(-x) for x in row] for row in gk])
        except ValueError:
            self.factors = None

    def solve(self, rhs, target, bound):
        if self.factors is None:
            return [
                x
                for x in minus_two_coefficients(self.gram, bound, target)
                if mat_vec_int(self.rows, x) == rhs
            ]
        x0 = solve_integer(self.rows, rhs, len(self.gram))
        if x0 is None:
            return []
        return _enumerate_coset(self.gram, self.factors, self.kern, x0, target, bound)


def p0_falsifier(psi: StabilityPoint, ns: Sublattice, bound: int) -> Optional[MukaiVector]:
    """First annihilating (-2)-class within the bound, or None; the coset
    walk stops at the first hit.

    Absence is evidence up to the stated bound, never a proof.
    """
    hits = p0_violations(psi, ns, bound, limit=1)
    return hits[0] if hits else None


def _enumerate_coset(gram, factors, kern, x0, target, bound):
    """Points x = x0 + K y of the coset with x^T G x = target inside the box.

    With P = -K^T G K (given by its LDL factors) and lin = K^T G x0:
    Q(y) = -y P y + 2 lin.y + c0 = target
      <=> (y - w)^T P (y - w) = w.P.w + c0 - target with P w = lin.
    """
    k = len(x0)
    gx0 = mat_vec_int(gram, x0)
    lin = [sum(v[i] * gx0[i] for i in range(k)) for v in kern]  # K^T G x0
    c0 = sum(x0[i] * gx0[i] for i in range(k))
    w = ldl_solve(factors, lin)
    radius = sum(wi * li for wi, li in zip(w, lin)) + c0 - target
    out = []
    for y in enumerate_quadric(factors, w, radius):
        x = list(x0)
        for coeff, v in zip(y, kern):
            if coeff:
                for i in range(k):
                    x[i] += coeff * v[i]
        if all(abs(c) <= bound for c in x):
            out.append(tuple(x))
    return sorted(out)


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


def _phase_aligned(z1: QuadComplex, z2: QuadComplex) -> bool:
    """z1/z2 in R_{>0}, decided exactly; a zero charge has no phase."""
    if not (z1 and z2):
        return False
    cross = z1.re * z2.im - z1.im * z2.re
    dot = z1.re * z2.re + z1.im * z2.im
    return not cross and dot.sign() > 0


def wall_member(psi: StabilityPoint, v1: MukaiVector, v2: MukaiVector) -> WallReport:
    """Generalized wall membership: Z(v1)/Z(v2) in R_{>0}, decided exactly.

    Zero central charges have no phase and fail membership.
    """
    z1 = central_charge(psi, v1)
    z2 = central_charge(psi, v2)
    return WallReport(i=0, j=1, member=_phase_aligned(z1, z2), z_i=z1, z_j=z2)


def wall_table(psi: StabilityPoint, vectors: Sequence[MukaiVector]) -> list[WallReport]:
    """Wall membership of every pair i < j, in (i, j) order, from one central
    charge per vector."""
    zs = [central_charge(psi, v) for v in vectors]
    return [
        WallReport(i=i, j=j, member=_phase_aligned(zs[i], zs[j]), z_i=zs[i], z_j=zs[j])
        for i in range(len(zs))
        for j in range(i + 1, len(zs))
    ]


# ---------------------------------------------------------------------------
# Theorem-level verifiers.


def verify_reality(
    split: SplitData, psi: StabilityPoint, classes: Sequence[LatticeVector]
) -> list[tuple[LatticeVector, QuadScalar]]:
    """Check that every Z(mu(l)) is exactly real; return the real values."""
    out = []
    for cls in classes:
        z = central_charge(psi, mirror_class(split, cls))
        if z.im:
            raise RealityViolation(cls, z)
        out.append((cls, z.re))
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
    bound: int = 3


@dataclass
class SearchResult:
    omega_J: LatticeVector
    candidate_index: int
    candidates_tried: int
    bound: int
    eta: Optional[LatticeVector]
    psi: StabilityPoint
    triple: MirrorTriple
    data: AttractorData
    charges: list[tuple[LatticeVector, QuadScalar]]
    rejections: list[tuple[int, str]] = field(default_factory=list)


def _dual_eta(lat: GramLattice, basis: Sequence[LatticeVector]) -> LatticeVector:
    """The integral class eta with eta . b_i the same negative integer for
    every vector b_i of a basis of a negative definite lattice.

    In root-lattice blocks eta pairs with each root by a multiple of its
    height, and so avoids every root hyperplane.
    """
    neg_gram = [[-pair(lat, x, y).as_int() for y in basis] for x in basis]
    try:
        factors = ldl_posdef(neg_gram)
    except ValueError:
        raise PreconditionViolation("the eta basis must span a negative definite lattice") from None
    coeffs = ldl_solve(factors, [Fraction(1)] * len(basis))
    denom = lcm(*(c.denominator for c in coeffs))
    eta = LatticeVector.zero(lat.rank)
    for c, b in zip(coeffs, basis):
        eta = eta + int(c * denom) * b
    return eta


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
    and survive the bounded (-2)-class falsifier; otherwise SearchExhausted
    carries the k halving rejections and the final reason.
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
    charges = []
    for cls in pic_basis:
        z = central_charge(psi, mirror_class(split, cls))
        if z.im:
            raise RealityViolation(cls, z)
        if not z.re:
            raise exhausted(f"zero real charge for class {cls}")
        charges.append((cls, z.re))
    hit = p0_falsifier(psi, ns_of_mirror(triple.Omega_check, lat), params.bound)
    if hit is not None:
        raise exhausted(f"annihilating class within bound: {hit}")
    return SearchResult(
        omega_J=omega,
        candidate_index=k,
        candidates_tried=k + 1,
        bound=params.bound,
        eta=eta,
        psi=psi,
        triple=triple,
        data=data,
        charges=charges,
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
    split: SplitData, psi: StabilityPoint, classes: Sequence[LatticeVector]
) -> WallIntersectionResult:
    """Sign-normalize the classes and certify every pairwise generalized wall.

    After flipping l -> -l wherever Z(mu(l)) < 0, all charges are positive
    reals, so all pairs must be members; a failure raises WallFailure.
    """
    values = verify_reality(split, psi, classes)
    flips = []
    vectors = []
    charges = []
    for cls, z in values:
        if not z:
            raise WallFailure(f"zero charge for {cls}: no phase to align")
        flip = z.sign() < 0
        flips.append(flip)
        vectors.append(mirror_class(split, -cls if flip else cls))
        charges.append(-z if flip else z)
    reports = wall_table(psi, vectors)
    for rep in reports:
        if not rep.member:
            raise WallFailure(f"pair ({rep.i},{rep.j}) is not on a common wall")
    return WallIntersectionResult(flips=flips, reports=reports, charges=charges)
