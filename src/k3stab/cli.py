"""Command-line front end: scenario ingestion, dispatch, deterministic reports.

Commands
    attractor            solve and re-verify the attractor background
    forms reduce|equiv|enumerate
    mirror               mirror period triple and involution data
    charge               central-charge table (threefold and mirror sides)
    walls                real mirror charges and wall count at the omega_J
    verify 5.1|6.2|6.3|6.4   certificate suites (aliases: slag-reality,
                         mirror-reality, regular-point, wall-intersection)

Every command takes one path: `main` parses the arguments, `_run` returns the
exit code and the report text (the command's report, or the JSON error of a
documented failure), and `main` prints that text once.

Reports are JSON on stdout, byte for byte `json.dumps(report, indent=2,
sort_keys=True)` and one newline.  The builders of `scenario` return exact
values; `_render`, the one writer, gives each its JSON form, and only it reads
--float, which pairs each scalar outside the scenario echo with a 15-digit
decimal string for reading, never used in any comparison.  Exit codes:

    0  certificate verified / command succeeded
    1  usage, scenario-file, or precondition error, or a report number too
       large to write (over the int digit limit, or the float range of --float)
    2  degenerate charge (p^2 <= 0 or D <= 0) or failed attractor decomposition
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

from .attractor import DegenerateCharge, NotAttractor
from .exact import QuadComplex, QuadScalar, UnsplitRadicand, quoted
from .forms import BinaryEvenForm, enumerate_reduced, gauss_reduce, sl2_equivalent
from .lattice import LatticeVector, MukaiVector
from .mirror import PreconditionViolation
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
from .stability import RealityViolation, SearchExhausted, SearchObstructed

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


def _render(obj, with_float: bool = False) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, with each
    exact value replaced by its `_exact_json` form.  A report holds dicts
    with str keys, lists, str, int, bool, None, QuadScalar, QuadComplex,
    LatticeVector and MukaiVector; any other type, a float, a Fraction or a
    tuple included, raises TypeError.

    With an indent, json.dumps runs CPython's pure-Python encoder, a chain of
    generators; this writer appends to one list and joins it once.  Dicts
    and lists share one loop over their items: a dict checks its keys, sorts
    them and adds each quoted key to the head of its value (the opener or
    comma and the indentation); a list takes its values as they are.  In
    that loop an integral vector is appended right after its head as one
    join of its integers (`_int_array`); any other exact value is replaced
    by its form.  Then a str, int or bool value, told apart by exact type so
    that a bool is never written as an int, is appended right after its
    head; any other value is written by the recursion.  Of two numbers that
    cannot be written, the first in the text is the one reported.
    """
    parts: list[str] = []
    _write(obj, parts, "\n", with_float)
    return "".join(parts)


def _exact_json(obj, with_float: bool):
    """The JSON form of one exact value: a scalar as its exact string, or
    under --float as {"exact", "float"} with the `.15g` float; a complex
    value as {"re", "im"}; an integral vector as its integers, any other
    vector as its scalars; a Mukai vector as {"r", "D", "s"}."""
    kind = type(obj)
    if kind is QuadScalar:
        if not with_float:
            return str(obj)
        try:
            approx = float(obj)
        except OverflowError:
            raise ScenarioError("a report number is beyond the range of --float") from None
        return {"exact": str(obj), "float": f"{approx:.15g}"}
    if kind is QuadComplex:
        return {"re": obj.re, "im": obj.im}
    if kind is LatticeVector:
        return obj.int_coords() if obj.is_integral else list(obj.coords)
    if kind is MukaiVector:
        return {"r": obj.r, "D": obj.D, "s": obj.s}
    raise TypeError(f"not a report value: {kind.__name__}")


_EXACT = frozenset((QuadScalar, QuadComplex, LatticeVector, MukaiVector))


def _write(obj, parts: list, newline: str, with_float: bool) -> None:
    # containers first: the scalars of a container are mostly written inline
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        keys, opener, closer = sorted(obj), "{", "}"
    elif isinstance(obj, list):
        keys, opener, closer = (), "[", "]"
    else:
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
        else:
            _write(_exact_json(obj, with_float), parts, newline, with_float)
        return
    if not obj:
        parts.append(opener + closer)
        return
    inner = newline + "  "
    head = opener + inner
    for value in keys or obj:  # a dict's sorted keys (not empty here), or a list's values
        if keys:
            head += _quote(value) + ": "
            value = obj[value]
        kind = type(value)
        if kind in _EXACT:
            if kind is LatticeVector and value.is_integral:
                parts.append(head + _int_array(value.A, inner))
                head = "," + inner
                continue
            value = _exact_json(value, with_float)
            kind = type(value)
        if kind is str:
            parts.append(head + _quote(value))
        elif kind is int:
            parts.append(head + int.__repr__(value))
        elif kind is bool:
            parts.append(head + ("true" if value else "false"))
        else:
            parts.append(head)
            _write(value, parts, inner, with_float)
        head = "," + inner
    parts.append(newline)
    parts.append(closer)


def _int_array(ints: list, newline: str) -> str:
    """The JSON text of a list of ints at the indentation of `newline`: one
    join of their `int.__repr__`, which raises the digit-limit ValueError at
    the first integer over the limit, as the writer's own loop would."""
    if not ints:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, ints)) + newline + "]"


def _parse_form(text: str) -> BinaryEvenForm:
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"bad form {quoted(text)}: {exc}") from None
    return form_from_json(value)


_MAX_DISC = 10**7  # about 0.3 s of enumeration

_FORMS_ARITY = {
    "reduce": (1, "one form"),
    "equiv": (2, "two forms"),
    "enumerate": (1, "one discriminant"),
}


def cmd_forms(args) -> dict:
    count, what = _FORMS_ARITY[args.action]
    if len(args.forms) != count:
        raise ScenarioError(f"{args.action} needs {what}, got {len(args.forms)} arguments")
    if args.action == "reduce":
        form = _parse_form(args.forms[0])
        reduced, witness = gauss_reduce(form)
        return {
            "action": "reduce",
            "input": form.as_list(),
            "reduced": reduced.as_list(),
            "witness": witness.as_rows(),
            "discriminant": form.discriminant(),
        }
    if args.action == "equiv":
        q1, q2 = (_parse_form(t) for t in args.forms)
        witness = sl2_equivalent(q1, q2)
        return {
            "action": "equiv",
            "q1": q1.as_list(),
            "q2": q2.as_list(),
            "equivalent": witness is not None,
            "witness": witness.as_rows() if witness else None,
        }
    try:  # enumerate: a JSON integer, as the forms are, bounded here: the scan is O(D)
        disc = json.loads(args.forms[0])
        if type(disc) is not int:
            raise ValueError("not a JSON integer")
        if disc > _MAX_DISC:
            raise ValueError(f"forms enumerate takes D <= {_MAX_DISC}")
        forms = enumerate_reduced(disc)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"bad discriminant {quoted(args.forms[0])}: {exc}") from None
    return {
        "action": "enumerate",
        "discriminant": disc,
        "forms": [f.as_list() for f in forms],
    }


def _report(args) -> dict:
    """The report of one parsed command.  A scenario command, or a `verify`
    suite by its canonical name, picks its builder from a table built here,
    on each call, from this module's names, so that a builder rebound on the
    module (a tracer's wrapper, a test's stub) is the one that runs."""
    if args.command == "forms":
        return cmd_forms(args)
    builders = {
        "attractor": attractor_report,
        "mirror": mirror_report,
        "charge": charge_table_report,
        "walls": wall_table_report,
        "5.1": slag_reality_report,
        "6.2": mirror_reality_report,
        "6.3": regular_point_report,
        "6.4": wall_system_report,
    }
    name = _VERIFY_ALIASES[args.certificate] if args.command == "verify" else args.command
    return builders[name](scenario_from_file(args.scenario))


# (command, help), in the order of `k3stab --help`
_COMMANDS = (
    ("attractor", "solve and verify the attractor background"),
    ("forms", "binary even form utilities"),
    ("mirror", "mirror period triple"),
    ("charge", "central-charge table"),
    ("walls", "real mirror charges and wall count at the scenario omega_J"),
    ("verify", "run a certificate suite"),
)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing leaves no state in it."""
    parser = _Parser(prog="k3stab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS:
        p = sub.add_parser(command, help=text)
        if command == "forms":
            p.add_argument("action", choices=["reduce", "equiv", "enumerate"])
            p.add_argument("forms", nargs="+", help="form triples as JSON, or a discriminant")
            p.set_defaults(float=False)
            continue
        if command == "verify":
            p.add_argument("certificate", choices=sorted(_VERIFY_ALIASES))
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--float", action="store_true", help="add decimal renderings")
    return parser


def main(argv=None) -> int:
    code, text = _run(build_parser().parse_args(argv))
    try:
        # flush here, so a closed stdout raises inside main() and not at exit
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to /dev/null so the
        # interpreter's final flush of stdout cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(args) -> tuple[int, str]:
    """The exit code and the report text of one parsed command, each
    documented failure mapped to its JSON error.  A report number over the
    int digit limit (`sys.get_int_max_str_digits()`) cannot be written: the
    plain ValueError that str() or the writer raises, also while an error is
    written, becomes a `scenario` error.  Every other plain ValueError
    propagates."""
    try:
        try:
            return 0, _render(_report(args), args.float)
        except (ScenarioError, UnsplitRadicand) as exc:
            code, error = 1, {"error": str(exc), "kind": "scenario"}
        except PreconditionViolation as exc:
            code, error = 1, {"error": str(exc), "kind": "precondition"}
        except (DegenerateCharge, NotAttractor) as exc:
            code, error = 2, {"error": str(exc), "kind": type(exc).__name__}
        except SearchObstructed as exc:
            code, error = 3, {
                "error": str(exc),
                "kind": "obstructed",
                "obstruction": obstruction_json(exc.obstruction),
                "pass": False,
            }
        except RealityViolation as exc:
            code, error = 3, {"error": str(exc), "kind": "reality-violation", "pass": False}
        except SearchExhausted as exc:
            code, error = 4, {
                "error": str(exc),
                "kind": "search-exhausted",
                "rejections": [[i, reason] for i, reason in exc.rejections],
                "pass": False,
            }
        return code, _render(error)
    except ValueError as exc:
        if type(exc) is not ValueError or "integer string conversion" not in str(exc):
            raise
        error = f"a report number has more than {sys.get_int_max_str_digits()} digits"
        return 1, _render({"error": error, "kind": "scenario"})


if __name__ == "__main__":
    sys.exit(main())
