"""The CLI's report writer and its shared argument parser."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.cli import _render, build_parser, main
from k3stab.exact import QuadScalar

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
    [1.5, (1, 2), QuadScalar(1), {"a": [0.0]}, {1: "x"}, [QuadScalar(0, 1, 2)]],
)
def test_render_rejects_other_types(value):
    with pytest.raises(TypeError):
        _render(value)


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
