"""The CLI's report writer, its shared argument parser, and the package root."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3stab.cli import _render, build_parser, main
from k3stab.exact import QuadComplex, QuadScalar
from k3stab.lattice import LatticeVector, MukaiVector
from k3stab.scenario import ScenarioError
from oracles import report_json

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = str(ROOT / "scenarios" / "diag_2_8.json")

_texts = st.text(
    st.one_of(
        st.characters(),  # any code point, non-ASCII included
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀"]),
    ),
    max_size=12,
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _texts,
)
_report_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(_texts, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_report_values)
def test_render_equals_json_dumps(value):
    assert _render(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], {"a": {}}, [{}, [], [[], {}]], {"b": [1, {"c": None}], "a": True}, -(10**40)],
)
def test_render_examples(value):
    assert _render(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), Fraction(1, 2), {"a": [0.0]}, {1: "x"}, [1j]],
)
def test_render_rejects_other_types(value):
    with pytest.raises(TypeError):
        _render(value)


# numerators past the float range (about 1.8e308) once in a while
_integers = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**400), 10**400))
_rationals = st.builds(Fraction, _integers, st.integers(1, 10**6))
_fields = st.sampled_from([0, 2, 3, 5, 23])


@st.composite
def _scalars(draw, m=None):
    m = draw(_fields) if m is None else m
    return QuadScalar(draw(_rationals), draw(_rationals) if m else 0, m)


@st.composite
def _vectors(draw, size=None):
    size = draw(st.integers(0, 4)) if size is None else size
    if draw(st.booleans()):
        return LatticeVector.from_ints(draw(st.lists(_integers, min_size=size, max_size=size)))
    m = draw(_fields)
    return LatticeVector([draw(_scalars(m)) for _ in range(size)])


@st.composite
def _complex_vectors(draw):
    size = draw(st.integers(0, 4))
    return QuadComplex(draw(_vectors(size)), draw(_vectors(size)))


_exact_values = st.one_of(
    _scalars(),
    st.builds(QuadComplex, _scalars(), _scalars()),
    _vectors(),
    _complex_vectors(),
    st.builds(
        MukaiVector,
        _integers,
        st.lists(_integers, max_size=4).map(LatticeVector.from_ints),
        _integers,
    ),
)
_payloads = st.recursive(
    st.one_of(_leaves, _exact_values),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(_texts, inner, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_payloads, st.booleans())
@example(QuadScalar(1), False)
@example([QuadScalar(0, 1, 2)], True)
def test_render_writes_exact_values_as_the_json_helpers_did(payload, with_float):
    """The writer renders each exact value as the builders' JSON helpers
    (the oracle `report_json`) did, with and without --float, and a number
    past the float range is the same `scenario` error."""
    try:
        expected = json.dumps(report_json(payload, with_float), indent=2, sort_keys=True)
    except ScenarioError as exc:
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(exc))}$"):
            _render(payload, with_float)
        return
    assert _render(payload, with_float) == expected


_CHARGE = {"re": "1/2", "im": {"exact": "0", "float": "0"}}
_PAIR = {"Z_i": _CHARGE, "Z_j": _CHARGE}


@pytest.mark.parametrize(
    "value",
    [
        [_CHARGE, _CHARGE, _CHARGE],
        [_CHARGE, [_CHARGE], {"k": [_CHARGE]}, _CHARGE],
        {"a": _CHARGE, "b": _CHARGE, "c": [1, _CHARGE]},
        [_PAIR, _CHARGE, {"p": _PAIR}, _PAIR],
    ],
    ids=["one-depth", "two-depths", "two-keys", "nested"],
)
def test_render_shared_dicts(value):
    """A dict referenced more than once renders as json.dumps renders it at
    every place, at the same indentation and at another."""
    assert _render(value) == json.dumps(value, indent=2, sort_keys=True)


_ROW = {"i": 0, "j": 1, "member": True, "Z": _CHARGE}


@pytest.mark.parametrize(
    "value",
    [
        [{"b": 1, "a": "x", "c": False}, {"a": "y", "c": True, "b": 2}],
        [_ROW, {"rows": [_ROW, dict(_ROW, i=2)]}, [[dict(_ROW, member=False)]]],
        [{"a": 1}, {"a": True}, {"a": None}, {"a": "1"}, {"a": False}, {"a": 0}],
        [[1, True, None, "1", False, 0, -(10**30)], {"a": [True, 1, "x"]}],
    ],
    ids=["two-insertion-orders", "two-depths", "value-types", "list-values"],
)
def test_render_planned_shapes(value):
    """Dicts of one key tuple, with the same keys in another insertion
    order, the same shape at another depth, and bool, None and str values
    where another dict of the shape holds an int, all render as json.dumps
    renders them."""
    assert _render(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [[{"a": 1}, {"a": 2}, {1: 2}], [{"a": 1}, {"a": 2, 3: 4}], {"a": {"b": 1}, "c": [{"b": 1.5}]}],
)
def test_render_rejects_a_bad_key_or_value_after_a_planned_shape(value):
    with pytest.raises(TypeError):
        _render(value)


@pytest.fixture
def digit_limit_640():
    """The int digit limit at its least value, 640, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def test_integral_vectors_meet_the_digit_limit_in_text_order(digit_limit_640, monkeypatch):
    """An integral vector is written as one join of its integers.  An integer
    over the digit limit in it raises the ValueError that json.dumps raises
    on its integers; of two numbers that cannot be written, the first in the
    text is the one reported, also against a scalar past the float range of
    --float; and `main` turns it into the same `scenario` error."""
    vector = LatticeVector.from_ints([1, -(10**digit_limit_640), 2])
    for payload in ({"v": vector}, [0, {"a": [vector]}], {"b": [vector, 7], "a": "x"}):
        with pytest.raises(ValueError) as expected:
            json.dumps(report_json(payload), indent=2, sort_keys=True)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            _render(payload)
    beyond = QuadScalar(10**400)  # 401 digits, past the float range
    for first, second in (("a", "b"), ("b", "a")):
        payload = {first: vector, second: beyond}
        raised = ValueError if first == "a" else ScenarioError  # a ValueError too
        for value in (payload, [payload[key] for key in sorted(payload)]):
            with pytest.raises(ValueError) as info:
                _render(value, True)
            assert type(info.value) is raised
    import k3stab.cli

    monkeypatch.setattr(k3stab.cli, "_report", lambda args: {"v": vector})
    code, out, _ = _in_process(["walls", "--scenario", SCENARIO])
    assert code == 1
    assert json.loads(out) == {
        "error": "a report number has more than 640 digits",
        "kind": "scenario",
    }


def _in_process(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _alone(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "k3stab", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_keeps_no_state_between_calls(monkeypatch):
    """A usage error, a good `verify 6.4` and a second usage error in one
    process each give what they give in a fresh process."""
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    calls = [
        ["verify", "6.4"],
        ["verify", "6.4", "--scenario", SCENARIO],
        ["walls", "--scenario", SCENARIO, "--bogus"],
    ]
    together = [_in_process(argv) for argv in calls]
    assert [code for code, _, _ in together] == [1, 0, 1]
    assert together == [_alone(argv, env) for argv in calls]


_TOP_USAGE = "usage: k3stab [-h] {attractor,forms,mirror,charge,walls,verify} ...\n"
_VERIFY_USAGE = (
    "usage: k3stab verify [-h] --scenario SCENARIO [--float]\n"
    "                     {5.1,6.2,6.3,6.4,mirror-reality,regular-point,slag-reality,wall-intersection}\n"
)
_HELP_AND_USAGE = {
    "help": (
        ["--help"],
        0,
        _TOP_USAGE
        + "\n"
        "Command-line front end: scenario ingestion, dispatch, deterministic reports.\n"
        "\n"
        "positional arguments:\n"
        "  {attractor,forms,mirror,charge,walls,verify}\n"
        "    attractor           solve and verify the attractor background\n"
        "    forms               binary even form utilities\n"
        "    mirror              mirror period triple\n"
        "    charge              central-charge table\n"
        "    walls               real mirror charges and wall count at the scenario\n"
        "                        omega_J\n"
        "    verify              run a certificate suite\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    "verify-help": (
        ["verify", "--help"],
        0,
        _VERIFY_USAGE
        + "\n"
        "positional arguments:\n"
        "  {5.1,6.2,6.3,6.4,mirror-reality,regular-point,slag-reality,wall-intersection}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --scenario SCENARIO   scenario JSON file\n"
        "  --float               add decimal renderings\n",
        "",
    ),
    "forms-help": (
        ["forms", "--help"],
        0,
        "usage: k3stab forms [-h] {reduce,equiv,enumerate} forms [forms ...]\n"
        "\n"
        "positional arguments:\n"
        "  {reduce,equiv,enumerate}\n"
        "  forms                 form triples as JSON, or a discriminant\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    "unknown-command": (
        ["bogus"],
        1,
        "",
        _TOP_USAGE + "k3stab: error: argument command: invalid choice: 'bogus' (choose from "
        "'attractor', 'forms', 'mirror', 'charge', 'walls', 'verify')\n",
    ),
    "verify-without-scenario": (
        ["verify", "6.4"],
        1,
        "",
        _VERIFY_USAGE + "k3stab verify: error: the following arguments are required: --scenario\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_HELP_AND_USAGE))
def test_help_and_usage_text(case):
    """Exit code, stdout and stderr of the help and usage texts, byte for
    byte, at an 80-column terminal."""
    argv, code, out, err = _HELP_AND_USAGE[case]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    assert _alone(argv, env) == (code, out, err)


def test_importing_the_package_loads_no_submodule():
    """The package root exports nothing: `import k3stab` in a fresh
    interpreter loads no `k3stab.*` module, so every caller names the
    submodule it uses."""
    code = "import sys, k3stab; print(sorted(n for n in sys.modules if n.startswith('k3stab.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
