"""Scenario assembly: from a form or explicit charge to the full exact pipeline.

A scenario fixes the standard block realization

    f      = e1(U1),  sigma0 = e2(U1) - e1(U1)
    p      = e1(U2) + (a/2) e2(U2)
    q      = b e2(U2) + e1(U3) + (c/2) e2(U3)

for an even form [a, b, c] (so p^2 = a, p.q = b, q^2 = c and the fibration
classes are automatically orthogonal to the charge), or accepts explicit
coordinates for any of p, q, f, sigma0, omega_J, B.  Defaults: omega_J is the
suspension class 2f + sigma0, B = 0.  One quadratic field Q(sqrt m) holds
every scalar of a scenario; it is fixed at assembly (m = 0 when rational).

A `Scenario` is one pipeline.  Constructing it runs the eager stages, all
exact: the attractor solution (tau, Omega), the field, and the hyperkaehler
rotation at omega_J.  It also runs every input check once, and nothing
downstream repeats one: f and sigma0 orthogonal to p and q (they lie in the
Picard lattice), those of the rotation (omega_J orthogonal to p and q, with
positive square), B.f = 0, the one precondition of the mirror map at omega_J
that the others leave open (mirror module docstring), omega_J.f > 0, since f
is nef, and an explicit search eta orthogonal to p and q.  The lazy stages
are computed on first read and kept: the rank-18 complement of (p, q, f,
sigma0) (`eta_lattice`, with the coordinate rows dual to its basis, and
`eta_basis`) and the Picard basis of f, sigma0 and that complement
(`pic_basis`), the mirror triple at omega_J (`triple`), its stability point
(`psi`), and the Kaehler search (`result`), which reads the scenario itself.
A command pays only for the stages it reads, and rejects the same scenarios
as any other command.

Each report builder below takes a `Scenario` alone and returns a dict of
exact values (QuadScalar, QuadComplex, LatticeVector, MukaiVector), which
`cli._render` writes; the builders know nothing of JSON forms or --float.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Optional

from .attractor import (
    Charge,
    hyperkahler_rotate,
    solve_attractor,
    threefold_central_charges,
    verify_attractor,
)
from .exact import FieldMismatch, QuadComplex, QuadScalar, parse_quad, quoted
from .forms import BinaryEvenForm
from .lattice import GAMMA, LatticeVector, Sublattice, orth_complement, pair
from .mirror import (
    MirrorTriple,
    PreconditionViolation,
    SplitData,
    make_split,
    mirror_classes,
    mirror_involution_check,
    mirror_period,
)
from .stability import (
    ObstructionCheck,
    RealityViolation,
    SearchResult,
    StabilityPoint,
    central_charges,
    ns_of_mirror,
    search_kahler_class,
    verify_reality,
    wall_count,
    wall_intersection,
)


class ScenarioError(ValueError):
    """A scenario file or its fields cannot be interpreted."""


def _scalar(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    if isinstance(value, bool):
        raise ScenarioError(f"not a scalar: {quoted(value)}")
    if isinstance(value, int):
        return QuadScalar(value)
    if isinstance(value, str):
        try:
            return parse_quad(value)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        except ZeroDivisionError:
            raise ScenarioError(f"zero denominator in scalar {quoted(value)}") from None
    raise ScenarioError(f"not a scalar: {quoted(value)}")


def _vector(value) -> LatticeVector:
    if isinstance(value, LatticeVector):
        return value
    if not isinstance(value, (list, tuple)) or len(value) != GAMMA.rank:
        raise ScenarioError(f"expected a length-{GAMMA.rank} coordinate array, got {quoted(value)}")
    scalars = [_scalar(x) for x in value]
    try:
        return LatticeVector(scalars)
    except FieldMismatch:
        raise _mixed_fields({x.m for x in scalars}) from None


def _mixed_fields(radicands) -> ScenarioError:
    fields = " and ".join(f"Q(sqrt {m})" for m in sorted(set(radicands) - {0}))
    return ScenarioError(f"scenario mixes the fields {fields}")


def form_from_json(value) -> BinaryEvenForm:
    """An even form from a triple [a, b, c] of JSON integers; a bool, float or
    string entry is an error, never coerced."""
    if isinstance(value, BinaryEvenForm):
        return value
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"form must be a triple [a, b, c], got {quoted(value)}")
    for x in value:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ScenarioError(
                f"form entries must be integers, got {quoted(x)} in {quoted(value)}"
            )
    try:
        return BinaryEvenForm(*value)
    except ValueError as exc:
        raise ScenarioError(f"bad form {quoted(value)}: {exc}") from None


def standard_charge(form: BinaryEvenForm) -> tuple[LatticeVector, LatticeVector]:
    """Block realization of a charge with Gram matrix equal to the form:
    p = e1 + (a/2) e2 in U2 and q = b e2(U2) + e1 + (c/2) e2 in U3."""
    zeros = [0] * 16
    p = LatticeVector.from_ints([0, 0, 1, form.a // 2, 0, 0, *zeros])
    q = LatticeVector.from_ints([0, 0, 0, form.b, 1, form.c // 2, *zeros])
    return p, q


def standard_fibration() -> tuple[LatticeVector, LatticeVector]:
    """f = e1 and sigma0 = e2 - e1 in U1."""
    zeros = [0] * 20
    return LatticeVector.from_ints([1, 0, *zeros]), LatticeVector.from_ints([-1, 1, *zeros])


@dataclass
class Scenario:
    """One pipeline: the eager stages and every input check run here, the
    lazy stages on first read (module docstring)."""

    charge: Charge
    split: SplitData
    omega_J: LatticeVector
    B: LatticeVector
    # the search step c_eta eta; eta None is the dual eta of the search
    c_eta: QuadScalar
    eta: Optional[LatticeVector]
    form: Optional[BinaryEvenForm] = None
    search_given: bool = False  # the file gave a search object: echo c_eta and eta
    # eager stages, filled at construction
    m: int = field(init=False)
    tau: QuadComplex = field(init=False)
    Omega: QuadComplex = field(init=False)
    Omega_I: QuadComplex = field(init=False)

    def __post_init__(self):
        self.tau, self.Omega = solve_attractor(self.charge)
        self.m = self._field()
        if not self._orthogonal_to_charge(self.split.f, self.split.sigma0):
            raise PreconditionViolation("fibration classes must be orthogonal to the charge")
        if not self._orthogonal_to_charge(self.omega_J):
            raise PreconditionViolation("omega_J must pair to zero with p and q")
        if pair(self.omega_J, self.omega_J).sign() <= 0:
            raise PreconditionViolation("omega_J^2 must be positive")
        self.Omega_I = hyperkahler_rotate(self.Omega, self.omega_J)
        # the mirror map's other preconditions hold for (Omega_I, Im(Omega))
        # by construction (mirror module docstring)
        if pair(self.B, self.split.v):
            raise PreconditionViolation("omega and B must lie in Gamma'_R + R*v")
        # omega_J^2 > 0 is checked above, so of the search's cone test at
        # omega0 = omega_J only omega_J.f > 0 is left: f is nef, so a Kaehler
        # class pairs positively with it
        if pair(self.omega_J, self.split.f).sign() <= 0:
            raise PreconditionViolation("omega_J does not pair positively with the fiber class")
        if self.eta is not None and not self._orthogonal_to_charge(self.eta):
            raise PreconditionViolation("search.eta must pair to zero with p and q")

    def _orthogonal_to_charge(self, *classes: LatticeVector) -> bool:
        p, q = self.charge.p, self.charge.q
        return not any(pair(x, c) for x in classes for c in (p, q))

    @cached_property
    def eta_lattice(self) -> Sublattice:
        """The complement of (p, q, f, sigma0), with the coordinate rows dual
        to its basis: the definite plane (p, q) and the hyperbolic plane
        (f, sigma0) are orthogonal, so it has rank 18."""
        gens = [self.charge.p, self.charge.q, self.split.f, self.split.sigma0]
        return orth_complement(gens)

    @cached_property
    def eta_basis(self) -> list[LatticeVector]:
        """The basis of `eta_lattice`."""
        return list(self.eta_lattice.basis)

    @cached_property
    def pic_basis(self) -> list[LatticeVector]:
        """The Picard basis: f, sigma0 and the eta basis."""
        return [self.split.f, self.split.sigma0] + self.eta_basis

    @cached_property
    def triple(self) -> MirrorTriple:
        """The mirror of the period data at omega_J."""
        return mirror_period(self.split, self.Omega_I, self.Omega.im, self.B)

    @cached_property
    def psi(self) -> StabilityPoint:
        """exp(mirror B + i mirror omega) at omega_J.  The mirror omega has
        square D / (p^2 (omega_J.f)^2) > 0, so the point needs no check."""
        return StabilityPoint(self.triple.B_check, self.triple.omega_check)

    @cached_property
    def result(self) -> SearchResult:
        """The Kaehler search from omega_J, read by `verify 6.3` and `6.4`."""
        return search_kahler_class(self)

    def _field(self) -> int:
        """The radicand m of the one field Q(sqrt m) that holds sqrt(D) and
        every given scalar; two different radicands are a scenario error."""
        scalars = (self.tau.im, self.c_eta)
        vectors = (self.omega_J, self.B, self.eta)
        radicands = {x.m for x in scalars}
        radicands |= {v.m for v in vectors if v is not None}
        radicands.discard(0)
        if len(radicands) > 1:
            raise _mixed_fields(radicands)
        return radicands.pop() if radicands else 0

    def echo(self) -> dict:
        """The inputs and invariants; omega_J and B, which may be
        non-integral, and the c_eta and eta of a given search object stay
        exact strings under --float."""
        out = {
            "p": self.charge.p,
            "q": self.charge.q,
            "f": self.split.f,
            "sigma0": self.split.sigma0,
            "omega_J": _exact_coords(self.omega_J),
            "B": _exact_coords(self.B),
            "disc": self.charge.disc,
            "gram": [[self.charge.p2, self.charge.pq], [self.charge.pq, self.charge.q2]],
            "m": self.m,
            "sqrt_disc_integral": self.tau.im.is_rational,
        }
        if self.form is not None:
            out["form"] = self.form.as_list()
        if self.search_given:
            out["search"] = {"c_eta": str(self.c_eta)}
            if self.eta is not None:
                out["search"]["eta"] = _exact_coords(self.eta)
        return out


def _exact_coords(v: LatticeVector) -> list:
    """The integers of v, or its exact strings if v is not integral."""
    return v.int_coords() if v.is_integral else [str(c) for c in v.coords]


def build_scenario(
    form=None,
    p=None,
    q=None,
    f=None,
    sigma0=None,
    omega_J="2f+sigma0",
    B=None,
    search: Optional[dict] = None,
) -> Scenario:
    if form is not None:
        if p is not None or q is not None:
            raise ScenarioError("scenario takes either a form or explicit p and q, not both")
        form = form_from_json(form)
        p_vec, q_vec = standard_charge(form)
    elif p is not None and q is not None:
        p_vec, q_vec = _vector(p), _vector(q)
    else:
        raise ScenarioError("scenario needs either a form [a, b, c] or explicit p and q")
    f_vec, s_vec = standard_fibration()
    if f is not None:
        f_vec = _vector(f)
    if sigma0 is not None:
        s_vec = _vector(sigma0)
    split = make_split(f_vec, s_vec)
    try:
        charge = Charge(p_vec, q_vec)
    except ValueError as exc:  # non-integral charge vectors
        raise ScenarioError(str(exc)) from None
    if isinstance(omega_J, str):
        if omega_J.replace(" ", "") != "2f+sigma0":
            raise ScenarioError(f"unknown omega_J family {quoted(omega_J)}")
        omega_vec = 2 * f_vec + s_vec
    else:
        omega_vec = _vector(omega_J)
    b_vec = LatticeVector.zero(GAMMA.rank) if B is None else _vector(B)
    if search is not None and not isinstance(search, dict):
        raise ScenarioError(f"search must be a JSON object, got {quoted(search)}")
    search_given = search is not None
    search = search or {}
    unknown = set(search) - {"c_eta", "eta"}
    if unknown:
        raise ScenarioError(f"unknown search parameters: {quoted(sorted(unknown))}")
    c_eta = _scalar(search["c_eta"]) if "c_eta" in search else QuadScalar(Fraction(1, 10))
    eta = None
    if search.get("eta") is not None:
        if not c_eta:
            raise ScenarioError("search.eta has no effect when search.c_eta is 0")
        eta = _vector(search["eta"])
        if not eta:
            raise ScenarioError("search.c_eta has no effect when search.eta is 0")
    return Scenario(
        charge=charge,
        split=split,
        omega_J=omega_vec,
        B=b_vec,
        c_eta=c_eta,
        eta=eta,
        form=form,
        search_given=search_given,
    )


def scenario_from_file(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed scenario file {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # the int digit limit: json.load raises no other plain ValueError
        raise ScenarioError(
            f"scenario file {path} holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ScenarioError(f"scenario file {path} is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    known = {"form", "p", "q", "f", "sigma0", "omega_J", "B", "search"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {quoted(sorted(unknown))}")
    return build_scenario(**raw)


# ---------------------------------------------------------------------------
# Certificate pipelines (shared by the CLI and the acceptance suite).


def attractor_report(sc: Scenario) -> dict:
    lam = verify_attractor(sc.charge, sc.tau, sc.Omega)
    conj_norm = pair(sc.Omega, sc.Omega.conj())
    return {
        "scenario": sc.echo(),
        "tau": sc.tau,
        "Omega": sc.Omega,
        "lambda": lam,
        "checks": {"omega_sq_zero": True, "omega_dot_conj": conj_norm.re},
    }


def slag_reality_report(sc: Scenario) -> dict:
    """Threefold central charges of the Picard basis: exactly real.  Their
    real part is the K3 charge omega_J . l by the rotation's definition
    (Re(Omega_I) = omega_J), so only reality is checked.  Those charges do
    not depend on B, so a scenario with B != 0 is refused rather than
    certified with its B unread."""
    if sc.B:
        raise PreconditionViolation(
            "verify 5.1 requires B = 0: the threefold charges it certifies do not depend on B"
        )
    rows = []
    for cls, z3 in zip(sc.pic_basis, threefold_central_charges(sc.Omega_I, sc.pic_basis)):
        if z3.im:
            raise RealityViolation(cls, z3)
        rows.append({"class": cls, "Z": z3.re})
    return {
        "scenario": sc.echo(),
        "certificate": "slag-reality",
        "classes": len(rows),
        "all_real": True,
        "charges": rows,
        "pass": True,
    }


def mirror_reality_report(sc: Scenario) -> dict:
    values = verify_reality(sc.split, sc.psi, sc.pic_basis)
    rows = [{"class": cls, "mukai": v, "Z": z} for cls, z, v in values]
    return {
        "scenario": sc.echo(),
        "certificate": "mirror-reality",
        "stability_point": {"B": sc.psi.B, "omega": sc.psi.omega},
        "classes": len(rows),
        "all_real": True,
        "charges": rows,
        "pass": True,
    }


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    """The rational square root of f, or None when f has none."""
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def mirror_report(sc: Scenario) -> dict:
    involution = None
    # the involution contract needs a null period: rescale Im(Omega_I) =
    # Re(Omega) when the norm ratio is a perfect rational square
    ratio = pair(sc.omega_J, sc.omega_J) / pair(sc.Omega.re, sc.Omega.re)
    if ratio.is_rational:
        root = _rational_sqrt(ratio.as_fraction())
        if root is not None:
            null_period = QuadComplex(sc.omega_J, root * sc.Omega.re)
            rep = mirror_involution_check(sc.split, null_period, sc.Omega.im, sc.B)
            involution = {
                "holds": rep.holds,
                "span_equal": rep.span_equal,
                "b_recovered": rep.b_recovered,
                "omega_v_shift": rep.omega_v_shift,
            }
    return {
        "scenario": sc.echo(),
        "mirror": {
            "Omega": sc.triple.Omega_check,
            "omega": sc.triple.omega_check,
            "B": sc.triple.B_check,
        },
        "ns_of_mirror_rank": ns_of_mirror(sc.triple.Omega_check).rank,
        "involution": involution,
    }


def regular_point_report(sc: Scenario) -> dict:
    """Obstruction certificate plus the Kaehler-class search (exit data only;
    raising variants live in the stability module)."""
    result = sc.result
    enumeration = result.enumeration
    return {
        "scenario": sc.echo(),
        "certificate": "regular-point",
        "obstruction": obstruction_json(result.obstruction),
        "omega_J": result.omega_J,
        "candidate_index": result.candidate_index,
        "candidates_tried": result.candidates_tried,
        "root_enumeration": {
            "complete": True,
            "lattice_rank": enumeration.lattice_rank,
            "roots": len(enumeration.roots),
        },
        "charges": [{"class": c, "Z": z} for c, z in result.charges],
        "pass": True,
    }


def obstruction_json(ob: ObstructionCheck) -> dict:
    return {
        "obstructed": ob.obstructed,
        "disc": ob.disc,
        "two_p_sq": 2 * ob.p2,
        "solutions": [list(mn) for mn in ob.solutions],
        "residuals": [str(r) for r in ob.residuals],
        "delta": ob.delta,
    }


def wall_system_report(sc: Scenario) -> dict:
    """The flipped charges at the searched point.  Every pair of nonzero ones
    is a member by `argument`, so the report holds no wall table."""
    result = sc.result
    flips, charges = wall_intersection(result.charges)
    return {
        "scenario": sc.echo(),
        "certificate": "wall-intersection",
        "omega_J": result.omega_J,
        "flips": flips,
        "charges": charges,
        "argument": "each class is flipped to make its real charge positive, and a "
        "ratio of positive reals is a positive real",
        "member_count": wall_count(charges),
        "pairs": len(charges) * (len(charges) - 1) // 2,
        "kind": "generalized",
        "pass": all(charges),
    }


def wall_table_report(sc: Scenario) -> dict:
    """The charges at the scenario's own omega_J (no search), not flipped,
    real by `verify_reality` as in 6.2; the pairs on a wall follow from their
    signs by `argument`, so the report holds no wall table."""
    zs = [z for _, z, _ in verify_reality(sc.split, sc.psi, sc.pic_basis)]
    return {
        "scenario": sc.echo(),
        "charges": zs,
        "argument": "every charge is real, and two real charges lie on a common wall "
        "exactly when both are nonzero and of one sign",
        "member_count": wall_count(zs),
        "pairs": len(zs) * (len(zs) - 1) // 2,
        "kind": "generalized",
    }


def charge_table_report(sc: Scenario) -> dict:
    classes = sc.pic_basis
    threefold = threefold_central_charges(sc.Omega_I, classes)
    mirror = central_charges(sc.psi, mirror_classes(sc.split, classes))
    rows = [
        {"class": cls, "Z_threefold": z3, "Z_mirror": zm}
        for cls, z3, zm in zip(classes, threefold, mirror)
    ]
    return {"scenario": sc.echo(), "charges": rows}
