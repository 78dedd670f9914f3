"""Command-line front end: scenario ingestion, dispatch, deterministic reports.

Commands
    attractor            solve and re-verify the attractor background
    forms reduce|equiv|enumerate
    mirror               mirror period triple and involution data
    charge               central-charge table (threefold and mirror sides)
    walls                pairwise wall table at the scenario's omega_J
    verify 5.1|6.2|6.3|6.4   certificate suites (aliases: slag-reality,
                         mirror-reality, regular-point, wall-intersection)

Reports are JSON on stdout, byte for byte `json.dumps(report, indent=2,
sort_keys=True)` and one newline, with exact scalar strings; the --float flag
adds 15-digit decimal renderings (strings) for reading, never used in any
comparison.  Exit codes:

    0  certificate verified / command succeeded
    1  usage, scenario-file, or precondition error
    2  degenerate charge or failed attractor decomposition
    3  verification failed, counterexample attached
    4  the one constructed Kaehler candidate failed its check
  141  stdout closed before the report was written (e.g. piped into `head`);
       the shell's status for a SIGPIPE death, 128 + 13
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .attractor import DegenerateCharge, NotAttractor, NotOrthogonal, NotPositive
from .forms import BinaryEvenForm, enumerate_reduced, gauss_reduce, sl2_equivalent
from .mirror import BadFibrationClasses, NormalizationFailure, PreconditionViolation
from .scenario import (
    ScenarioError,
    attractor_report,
    charge_table_report,
    form_from_json,
    mirror_reality_report,
    mirror_report,
    obstruction_json,
    regular_point_report,
    scenario_from_file,
    slag_reality_report,
    wall_system_report,
    wall_table_report,
)
from .stability import RealityViolation, SearchExhausted, SearchObstructed, WallFailure

_VERIFY_ALIASES = {
    "5.1": "5.1",
    "slag-reality": "5.1",
    "6.2": "6.2",
    "mirror-reality": "6.2",
    "6.3": "6.3",
    "regular-point": "6.3",
    "6.4": "6.4",
    "wall-intersection": "6.4",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    # flush here, so a closed stdout raises inside main() and not at exit
    print(_render(payload), flush=True)


def _render(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for the
    types a report holds: dicts with str keys, lists, str, int, bool and None.
    Any other type, a float or a tuple included, raises TypeError.

    With an indent, json.dumps runs CPython's pure-Python encoder, a chain of
    generators; this writer appends to one list and joins it once.
    """
    parts: list[str] = []
    _write(obj, parts, "\n")
    return "".join(parts)


def _write(obj, parts: list, newline: str) -> None:
    if isinstance(obj, str):
        parts.append(_quote(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, list):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        opener = "["
        for value in obj:
            parts.append(opener)
            parts.append(inner)
            _write(value, parts, inner)
            opener = ","
        parts.append(newline)
        parts.append("]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        opener = "{"
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            parts.append(opener)
            parts.append(inner)
            parts.append(_quote(key))
            parts.append(": ")
            _write(value, parts, inner)
            opener = ","
        parts.append(newline)
        parts.append("}")
    else:
        raise TypeError(f"not a report value: {type(obj).__name__}")


def _parse_form(text: str) -> BinaryEvenForm:
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ScenarioError(f"bad form {text!r}: {exc}") from None
    return form_from_json(value)


def cmd_attractor(args) -> int:
    _emit(attractor_report(scenario_from_file(args.scenario), args.float))
    return 0


_FORMS_ARITY = {
    "reduce": (1, "one form"),
    "equiv": (2, "two forms"),
    "enumerate": (1, "one discriminant"),
}


def cmd_forms(args) -> int:
    count, what = _FORMS_ARITY[args.action]
    if len(args.forms) != count:
        raise ScenarioError(f"{args.action} needs {what}, got {len(args.forms)} arguments")
    if args.action == "reduce":
        form = _parse_form(args.forms[0])
        reduced, witness = gauss_reduce(form)
        _emit(
            {
                "action": "reduce",
                "input": form.as_list(),
                "reduced": reduced.as_list(),
                "witness": witness.as_rows(),
                "discriminant": form.discriminant(),
            }
        )
    elif args.action == "equiv":
        q1, q2 = (_parse_form(t) for t in args.forms)
        witness = sl2_equivalent(q1, q2)
        _emit(
            {
                "action": "equiv",
                "q1": q1.as_list(),
                "q2": q2.as_list(),
                "equivalent": witness is not None,
                "witness": witness.as_rows() if witness else None,
            }
        )
    else:  # enumerate
        try:
            disc = int(args.forms[0])
            forms = enumerate_reduced(disc)
        except ValueError as exc:
            raise ScenarioError(f"bad discriminant {args.forms[0]!r}: {exc}") from None
        _emit(
            {
                "action": "enumerate",
                "discriminant": disc,
                "forms": [f.as_list() for f in forms],
            }
        )
    return 0


def cmd_mirror(args) -> int:
    _emit(mirror_report(scenario_from_file(args.scenario), args.float))
    return 0


def cmd_charge(args) -> int:
    _emit(charge_table_report(scenario_from_file(args.scenario), args.float))
    return 0


def cmd_walls(args) -> int:
    _emit(wall_table_report(scenario_from_file(args.scenario), args.float))
    return 0


def cmd_verify(args) -> int:
    sc = scenario_from_file(args.scenario)
    which = _VERIFY_ALIASES[args.certificate]
    if which in ("6.3", "6.4") and sc.B:
        raise PreconditionViolation(f"verify {which} requires B = 0")
    if which == "5.1":
        _emit(slag_reality_report(sc, args.float))
    elif which == "6.2":
        if not sc.fibration_orthogonal:
            raise PreconditionViolation("fibration classes must be orthogonal to the charge")
        _emit(mirror_reality_report(sc, args.float))
    elif which == "6.3":
        _emit(regular_point_report(sc, args.float))
    else:
        _emit(wall_system_report(sc, args.float))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing leaves no state in it."""
    parser = _Parser(prog="k3stab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_scenario(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--float", action="store_true", help="add decimal renderings")

    p = sub.add_parser("attractor", help="solve and verify the attractor background")
    with_scenario(p)
    p.set_defaults(func=cmd_attractor)

    p = sub.add_parser("forms", help="binary even form utilities")
    p.add_argument("action", choices=["reduce", "equiv", "enumerate"])
    p.add_argument("forms", nargs="+", help="form triples as JSON, or a discriminant")
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("mirror", help="mirror period triple")
    with_scenario(p)
    p.set_defaults(func=cmd_mirror)

    p = sub.add_parser("charge", help="central-charge table")
    with_scenario(p)
    p.set_defaults(func=cmd_charge)

    p = sub.add_parser("walls", help="pairwise wall table at the scenario omega_J")
    with_scenario(p)
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("verify", help="run a certificate suite")
    p.add_argument("certificate", choices=sorted(_VERIFY_ALIASES))
    with_scenario(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to /dev/null so the
        # interpreter's final flush of stdout cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(args) -> int:
    """Run one command; map every documented failure to its JSON error."""
    try:
        return args.func(args)
    except ScenarioError as exc:
        _emit({"error": str(exc), "kind": "scenario"})
        return 1
    except (
        BadFibrationClasses,
        NormalizationFailure,
        PreconditionViolation,
        NotOrthogonal,
        NotPositive,
    ) as exc:
        _emit({"error": str(exc), "kind": "precondition"})
        return 1
    except (DegenerateCharge, NotAttractor) as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 2
    except SearchObstructed as exc:
        _emit(
            {
                "error": str(exc),
                "kind": "obstructed",
                "obstruction": obstruction_json(exc.obstruction),
                "pass": False,
            }
        )
        return 3
    except RealityViolation as exc:
        _emit({"error": str(exc), "kind": "reality-violation", "pass": False})
        return 3
    except WallFailure as exc:
        _emit({"error": str(exc), "kind": "wall-failure", "pass": False})
        return 3
    except SearchExhausted as exc:
        _emit(
            {
                "error": str(exc),
                "kind": "search-exhausted",
                "rejections": [[i, reason] for i, reason in exc.rejections],
                "pass": False,
            }
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
