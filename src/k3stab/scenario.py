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

Everything derived (tau, rotation data, mirror triple, stability point, a
Picard basis containing f and sigma0) is computed eagerly and exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional

from .attractor import (
    AttractorData,
    Charge,
    hyperkahler_rotate,
    solve_attractor,
    threefold_central_charge,
    verify_attractor,
    z_k3,
)
from .exact import FieldMismatch, QuadComplex, QuadScalar, parse_quad
from .forms import BinaryEvenForm
from .lattice import (
    GAMMA,
    ComplexVector,
    LatticeVector,
    orth_complement,
    pair,
)
from .mirror import (
    MirrorTriple,
    SplitData,
    make_split,
    mirror_class,
    mirror_involution_check,
    mirror_period,
)
from .stability import (
    ObstructionCheck,
    SearchParams,
    StabilityPoint,
    WallReport,
    central_charge,
    exp_point,
    ns_of_mirror,
    search_kahler_class,
    verify_reality,
    wall_intersection,
    wall_table,
)


class ScenarioError(ValueError):
    """A scenario file or its fields cannot be interpreted."""


def _scalar(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    if isinstance(value, bool):
        raise ScenarioError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return QuadScalar(value)
    if isinstance(value, str):
        try:
            return parse_quad(value)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        except ZeroDivisionError:
            raise ScenarioError(f"zero denominator in scalar {value!r}") from None
    raise ScenarioError(f"not a scalar: {value!r}")


def _vector(value, rank: int = 22) -> LatticeVector:
    if isinstance(value, LatticeVector):
        return value
    if not isinstance(value, (list, tuple)) or len(value) != rank:
        raise ScenarioError(f"expected a length-{rank} coordinate array, got {value!r}")
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
        raise ScenarioError(f"form must be a triple [a, b, c], got {value!r}")
    for x in value:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ScenarioError(f"form entries must be integers, got {x!r} in {value!r}")
    try:
        return BinaryEvenForm(*value)
    except ValueError as exc:
        raise ScenarioError(f"bad form {value!r}: {exc}") from None


def standard_charge(form: BinaryEvenForm) -> tuple[LatticeVector, LatticeVector]:
    """Block realization of a charge with Gram matrix equal to the form."""
    p = GAMMA.basis(2) + (form.a // 2) * GAMMA.basis(3)
    q = form.b * GAMMA.basis(3) + GAMMA.basis(4) + (form.c // 2) * GAMMA.basis(5)
    return p, q


def standard_fibration() -> tuple[LatticeVector, LatticeVector]:
    f = GAMMA.basis(0)
    sigma0 = GAMMA.basis(1) - GAMMA.basis(0)
    return f, sigma0


@dataclass
class Scenario:
    charge: Charge
    split: SplitData
    omega_J: LatticeVector
    B: LatticeVector
    form: Optional[BinaryEvenForm] = None
    search: Optional[SearchParams] = None
    # derived, filled by assemble()
    m: int = 0
    tau: QuadComplex = None
    Omega: ComplexVector = None
    data: AttractorData = None
    triple: MirrorTriple = None
    psi: StabilityPoint = None
    pic_basis: list[LatticeVector] = field(default_factory=list)
    eta_basis: list[LatticeVector] = field(default_factory=list)
    sqrt_disc_integral: bool = False

    def assemble(self) -> "Scenario":
        lat = self.charge.lat
        self.tau, self.Omega = solve_attractor(self.charge)
        self.sqrt_disc_integral = self.tau.im.is_rational
        if self.search is None:
            self.search = SearchParams(omega0=self.omega_J)
        self.m = self._field()
        self.data = hyperkahler_rotate(self.charge, self.tau, self.omega_J)
        self.triple = mirror_period(self.split, self.data.Omega_I, self.data.omega_I, self.B)
        self.psi = exp_point(self.triple.B_check, self.triple.omega_check, lat)
        complement = orth_complement(
            lat, [self.charge.p, self.charge.q, self.split.f, self.split.sigma0]
        )
        self.eta_basis = list(complement.basis)
        self.pic_basis = [self.split.f, self.split.sigma0] + self.eta_basis
        if len(self.pic_basis) != lat.rank - 2:
            raise ScenarioError("Picard basis does not have the expected rank")
        if len(self.search.alphas) > len(self.pic_basis):
            raise ScenarioError(
                f"search.alphas has {len(self.search.alphas)} entries, but the Picard "
                f"rank is {len(self.pic_basis)}"
            )
        return self

    def _field(self) -> int:
        """The radicand m of the one field Q(sqrt m) that holds sqrt(D) and
        every given scalar; two different radicands are a scenario error."""
        sp = self.search
        scalars = (self.tau.im, sp.c_sigma, sp.c_eta)
        vectors = (self.omega_J, self.B, sp.eta)
        radicands = {x.m for x in scalars if isinstance(x, QuadScalar)}
        radicands |= {v.m for v in vectors if v is not None}
        radicands.discard(0)
        if len(radicands) > 1:
            raise _mixed_fields(radicands)
        return radicands.pop() if radicands else 0

    @property
    def fibration_orthogonal(self) -> bool:
        lat = self.charge.lat
        return not (
            pair(lat, self.split.f, self.charge.p)
            or pair(lat, self.split.f, self.charge.q)
            or pair(lat, self.split.sigma0, self.charge.p)
            or pair(lat, self.split.sigma0, self.charge.q)
        )

    def echo(self) -> dict:
        out = {
            "p": vector_json(self.charge.p),
            "q": vector_json(self.charge.q),
            "f": vector_json(self.split.f),
            "sigma0": vector_json(self.split.sigma0),
            "omega_J": vector_json(self.omega_J),
            "B": vector_json(self.B),
            "disc": self.charge.disc,
            "gram": [[self.charge.p2, self.charge.pq], [self.charge.pq, self.charge.q2]],
            "m": self.m,
            "sqrt_disc_integral": self.sqrt_disc_integral,
        }
        if self.form is not None:
            out["form"] = self.form.as_list()
        return out


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
            raise ScenarioError(f"unknown omega_J family {omega_J!r}")
        omega_vec = 2 * f_vec + s_vec
    else:
        omega_vec = _vector(omega_J)
    b_vec = LatticeVector.zero(GAMMA.rank) if B is None else _vector(B)
    if search is not None and not isinstance(search, dict):
        raise ScenarioError(f"search must be a JSON object, got {search!r}")
    sc = Scenario(
        charge=charge,
        split=split,
        omega_J=omega_vec,
        B=b_vec,
        form=form,
        search=_search_params(search, omega_vec) if search else None,
    )
    return sc.assemble()


def _rational(value, name: str) -> Fraction:
    x = _scalar(value)
    if not x.is_rational:
        raise ScenarioError(f"{name} must be rational, got {value!r}")
    return x.as_fraction()


def _search_params(raw: dict, omega0: LatticeVector) -> SearchParams:
    known = {"c_eta", "c_sigma", "beta", "eta", "alphas"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown search parameters: {sorted(unknown)}")
    kwargs = {"omega0": omega0}
    if "c_eta" in raw:
        kwargs["c_eta"] = _scalar(raw["c_eta"])
    if "c_sigma" in raw:
        kwargs["c_sigma"] = _scalar(raw["c_sigma"])
    if "beta" in raw:
        kwargs["beta"] = _rational(raw["beta"], "search.beta")
    if "eta" in raw and raw["eta"] is not None:
        kwargs["eta"] = _vector(raw["eta"])
    if "alphas" in raw:
        alphas = raw["alphas"]
        if not isinstance(alphas, list):
            raise ScenarioError(f"search.alphas must be a list, got {alphas!r}")
        kwargs["alphas"] = tuple(_rational(a, "search.alphas") for a in alphas)
    return SearchParams(**kwargs)


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
    except RecursionError:
        raise ScenarioError(f"scenario file {path} is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    known = {"form", "p", "q", "f", "sigma0", "omega_J", "B", "search"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    return build_scenario(
        form=raw.get("form"),
        p=raw.get("p"),
        q=raw.get("q"),
        f=raw.get("f"),
        sigma0=raw.get("sigma0"),
        omega_J=raw.get("omega_J", "2f+sigma0"),
        B=raw.get("B"),
        search=raw.get("search"),
    )


# ---------------------------------------------------------------------------
# JSON rendering helpers (deterministic; floats only when asked, never compared).


def scalar_json(x: QuadScalar, with_float: bool = False):
    if with_float:
        return {"exact": str(x), "float": f"{float(x):.15g}"}
    return str(x)


def complex_json(z: QuadComplex, with_float: bool = False):
    return {"re": scalar_json(z.re, with_float), "im": scalar_json(z.im, with_float)}


def vector_json(v: LatticeVector, with_float: bool = False):
    if v.is_integral:
        return v.int_coords()
    return [scalar_json(c, with_float) for c in v.coords]


def complex_vector_json(v: ComplexVector, with_float: bool = False):
    return {"re": vector_json(v.re, with_float), "im": vector_json(v.im, with_float)}


def mukai_json(m, with_float: bool = False):
    return {"r": m.r, "D": vector_json(m.D, with_float), "s": m.s}


# ---------------------------------------------------------------------------
# Certificate pipelines (shared by the CLI and the acceptance suite).


def attractor_report(sc: Scenario, with_float: bool = False) -> dict:
    lam = verify_attractor(sc.charge, sc.tau, sc.Omega)
    conj_norm = pair(sc.charge.lat, sc.Omega, sc.Omega.conj())
    return {
        "scenario": sc.echo(),
        "tau": complex_json(sc.tau, with_float),
        "Omega": complex_vector_json(sc.Omega, with_float),
        "lambda": complex_json(lam, with_float),
        "checks": {
            "omega_sq_zero": True,
            "omega_dot_conj": scalar_json(conj_norm.re, with_float),
        },
    }


def slag_reality_report(sc: Scenario, with_float: bool = False) -> dict:
    """Threefold central charges of the Picard basis: exactly real, equal to
    the K3 charges omega_J . l."""
    lat = sc.charge.lat
    zero = LatticeVector.zero(lat.rank)
    rows = []
    for cls in sc.pic_basis:
        z3 = threefold_central_charge(sc.data, zero, cls)
        zk = z_k3(lat, sc.data.omega_J, cls)
        if z3.im or z3.re != zk:
            raise ScenarioError(f"threefold charge mismatch for {cls}: {z3} vs {zk}")
        rows.append(
            {
                "class": vector_json(cls, with_float),
                "Z": scalar_json(z3.re, with_float),
                "Z_K3": scalar_json(zk, with_float),
            }
        )
    return {
        "scenario": sc.echo(),
        "certificate": "slag-reality",
        "classes": len(rows),
        "all_real": True,
        "charges": rows,
        "pass": True,
    }


def mirror_reality_report(sc: Scenario, with_float: bool = False) -> dict:
    values = verify_reality(sc.split, sc.psi, sc.pic_basis)
    rows = [
        {
            "class": vector_json(cls, with_float),
            "mukai": mukai_json(v),
            "Z": scalar_json(z, with_float),
        }
        for cls, z, v in values
    ]
    return {
        "scenario": sc.echo(),
        "certificate": "mirror-reality",
        "stability_point": {
            "B": vector_json(sc.psi.B, with_float),
            "omega": vector_json(sc.psi.omega, with_float),
        },
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


def mirror_report(sc: Scenario, with_float: bool = False) -> dict:
    involution = None
    # the involution contract needs a null period: rescale Im(Omega_I) when
    # the norm ratio is a perfect rational square
    ratio = pair(sc.charge.lat, sc.omega_J, sc.omega_J) / pair(
        sc.charge.lat, sc.data.im_omega_I, sc.data.im_omega_I
    )
    if ratio.is_rational:
        root = _rational_sqrt(ratio.as_fraction())
        if root is not None:
            null_period = ComplexVector(sc.omega_J, root * sc.data.im_omega_I)
            rep = mirror_involution_check(sc.split, null_period, sc.data.omega_I, sc.B)
            involution = {
                "holds": rep.holds,
                "span_equal": rep.span_equal,
                "b_recovered": rep.b_recovered,
                "omega_v_shift": scalar_json(rep.omega_v_shift, with_float),
            }
    return {
        "scenario": sc.echo(),
        "mirror": {
            "Omega": complex_vector_json(sc.triple.Omega_check, with_float),
            "omega": vector_json(sc.triple.omega_check, with_float),
            "B": vector_json(sc.triple.B_check, with_float),
        },
        "ns_of_mirror_rank": ns_of_mirror(sc.triple.Omega_check, sc.charge.lat).rank,
        "involution": involution,
    }


def regular_point_report(sc: Scenario, with_float: bool = False) -> dict:
    """Obstruction certificate plus the Kaehler-class search (exit data only;
    raising variants live in the stability module)."""
    result = search_kahler_class(
        sc.charge, sc.split, sc.tau, sc.pic_basis, sc.search, sc.eta_basis
    )
    enumeration = result.enumeration
    return {
        "scenario": sc.echo(),
        "certificate": "regular-point",
        "obstruction": obstruction_json(result.obstruction),
        "omega_J": vector_json(result.omega_J, with_float),
        "candidate_index": result.candidate_index,
        "candidates_tried": result.candidates_tried,
        "root_enumeration": {
            "complete": True,
            "lattice_rank": enumeration.lattice_rank,
            "roots": enumeration.count,
        },
        "charges": [
            {"class": vector_json(c, with_float), "Z": scalar_json(z, with_float)}
            for c, z in result.charges
        ],
        "pass": True,
    }


def obstruction_json(ob: ObstructionCheck) -> dict:
    return {
        "obstructed": ob.obstructed,
        "disc": ob.disc,
        "two_p_sq": 2 * ob.p2,
        "solutions": [list(mn) for mn in ob.solutions],
        "residuals": [str(r) for r in ob.residuals],
        "delta": mukai_json(ob.delta) if ob.delta is not None else None,
    }


def _wall_rows(reports: list[WallReport], rendered: list) -> list[dict]:
    """The wall table's rows; `rendered[i]` is charge i, rendered once and
    shared by every row that names it."""
    return [
        {"i": r.i, "j": r.j, "member": r.member, "Z_i": rendered[r.i], "Z_j": rendered[r.j]}
        for r in reports
    ]


def wall_system_report(sc: Scenario, with_float: bool = False) -> dict:
    result = search_kahler_class(
        sc.charge, sc.split, sc.tau, sc.pic_basis, sc.search, sc.eta_basis
    )
    walls = wall_intersection(result.charges)
    charges = [scalar_json(z, with_float) for z in walls.charges]
    # every charge of the table is the real positive QuadComplex(z)
    zero = scalar_json(QuadScalar(0), with_float)
    rendered = [{"re": z, "im": zero} for z in charges]
    return {
        "scenario": sc.echo(),
        "certificate": "wall-intersection",
        "omega_J": vector_json(result.omega_J, with_float),
        "flips": walls.flips,
        "charges": charges,
        "walls": _wall_rows(walls.reports, rendered),
        "member_count": sum(1 for r in walls.reports if r.member),
        "pairs": len(walls.reports),
        "kind": "generalized",
        "pass": walls.all_member,
    }


def wall_table_report(sc: Scenario, with_float: bool = False) -> dict:
    """Pairwise wall membership at the scenario's own omega_J (no search)."""
    zs = [central_charge(sc.psi, mirror_class(sc.split, cls)) for cls in sc.pic_basis]
    reports = wall_table(zs)
    return {
        "scenario": sc.echo(),
        "walls": _wall_rows(reports, [complex_json(z, with_float) for z in zs]),
        "member_count": sum(1 for r in reports if r.member),
        "pairs": len(reports),
        "kind": "generalized",
    }


def charge_table_report(sc: Scenario, with_float: bool = False) -> dict:
    lat = sc.charge.lat
    zero = LatticeVector.zero(lat.rank)
    mirror_side = sc.fibration_orthogonal
    rows = []
    for cls in sc.pic_basis:
        z3 = threefold_central_charge(sc.data, zero, cls)
        zm = central_charge(sc.psi, mirror_class(sc.split, cls)) if mirror_side else None
        rows.append(
            {
                "class": vector_json(cls, with_float),
                "Z_threefold": complex_json(z3, with_float),
                "Z_mirror": complex_json(zm, with_float) if zm is not None else None,
            }
        )
    return {"scenario": sc.echo(), "charges": rows}
