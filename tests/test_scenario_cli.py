import json
import os
import subprocess
import sys

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.cli import main
from k3stab.exact import QuadScalar
from k3stab.forms import BinaryEvenForm, enumerate_reduced
from k3stab.intmat import enumerate_quadric, lll_reduce
from k3stab.lattice import GAMMA, MukaiVector, pair
from k3stab.mirror import PreconditionViolation, make_split
from k3stab.scenario import (
    ScenarioError,
    attractor_report,
    build_scenario,
    mirror_report,
    scenario_from_file,
    standard_charge,
    standard_fibration,
)
from k3stab.stability import verify_reality
from oracles import dual_eta, unit_vector_charge


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def diag28(tmp_path):
    return write_scenario(tmp_path, {"form": [2, 0, 8]})


@pytest.fixture
def diag22(tmp_path):
    return write_scenario(tmp_path, {"form": [2, 0, 2]}, "d22.json")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_scenario_defaults():
    sc = build_scenario(form=[2, 0, 8])
    assert sc.charge.p2 == 2 and sc.charge.q2 == 8 and sc.charge.pq == 0
    assert sc.m == 0
    assert not sc.B
    assert sc.omega_J == 2 * sc.split.f + sc.split.sigma0
    assert sc.tau.im.is_rational
    assert len(sc.pic_basis) == 20
    assert sc.c_eta == Fraction(1, 10) and sc.eta is None
    # the default and a parsed c_eta have one type
    assert type(sc.c_eta) is QuadScalar
    assert type(build_scenario(form=[2, 0, 8], search={"c_eta": "1/10"}).c_eta) is QuadScalar


def test_scenario_nondiagonal_form():
    sc = build_scenario(form=[4, 1, 6])
    assert sc.charge.p2 == 4 and sc.charge.pq == 1 and sc.charge.q2 == 6
    assert sc.charge.disc == 23
    assert not sc.tau.im.is_rational
    assert sc.m == 23


def test_scenario_explicit_charge():
    p = [0, 0, 1, 1, 0, 0] + [0] * 16
    q = [0, 0, 0, 0, 1, 4] + [0] * 16
    sc = build_scenario(p=p, q=q)
    assert sc.charge.disc == 16


def test_scenario_rejects_garbage():
    with pytest.raises(ScenarioError):
        build_scenario(form=[2, 0])
    with pytest.raises(ScenarioError):
        build_scenario(form=[3, 0, 2])  # odd diagonal
    with pytest.raises(ScenarioError):
        build_scenario()
    with pytest.raises(ScenarioError):
        build_scenario(form=[2, 0, 8], omega_J="nonsense")


def test_scenario_file_unknown_field(tmp_path):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "bogus": 1})
    with pytest.raises(ScenarioError):
        scenario_from_file(path)


def test_scenario_search_overrides(tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "form": [2, 0, 8],
            "search": {"c_eta": "1/20", "eta": [0] * 6 + [1] + [0] * 15},
        },
    )
    sc = scenario_from_file(path)
    assert str(sc.c_eta) == "1/20"
    assert sc.eta == GAMMA.basis(6)


def test_echo_records_a_given_search_object(tmp_path, capsys):
    """The search inputs decide the candidate, so the echo carries the c_eta
    and eta of a given search object, as exact strings under --float; a
    scenario without one echoes none.  diag(2,8) with c_eta = 1/20 and with
    the default 1/10 differ only there and in their candidate_index."""
    eta = [0] * 6 + ["1/2"] + [0] * 15
    runs = {
        "default": ({"form": [2, 0, 8]}, "verify 6.3"),
        "tuned": ({"form": [2, 0, 8], "search": {"c_eta": "1/20"}}, "verify 6.3"),
        "eta": ({"form": [2, 0, 8], "search": {"c_eta": "1/20", "eta": eta}}, "attractor"),
    }
    reports = {}
    for name, (fields, command) in runs.items():
        path = write_scenario(tmp_path, fields, f"{name}.json")
        code, out = run_cli(capsys, [*command.split(), "--scenario", path, "--float"])
        assert code == 0, name
        reports[name] = json.loads(out)
    default, tuned = reports["default"], reports["tuned"]
    assert "search" not in default["scenario"]
    assert tuned["scenario"].pop("search") == {"c_eta": "1/20"}
    assert tuned["scenario"] == default["scenario"]
    assert (default["candidate_index"], tuned["candidate_index"]) == (5, 4)
    echoed = {"c_eta": "1/20", "eta": ["0"] * 6 + ["1/2"] + ["0"] * 15}
    assert reports["eta"]["scenario"]["search"] == echoed


def test_cli_attractor(capsys, diag28):
    code, out = run_cli(capsys, ["attractor", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["tau"] == {"re": "0", "im": "2"}
    assert report["lambda"] == {"re": "0", "im": "-1/4"}
    assert report["checks"]["omega_dot_conj"] == "16"


def test_cli_attractor_float_rendering(capsys, diag28):
    code, out = run_cli(capsys, ["attractor", "--scenario", diag28, "--float"])
    assert code == 0
    report = json.loads(out)
    assert report["tau"]["im"] == {"exact": "2", "float": "2"}


def _float_leaves(value, text_keys=("argument", "certificate", "kind")):
    """Every str leaf of a report outside its `scenario` echo and its text
    keys, and every {"exact", "float"} pair, as (kind, leaf)."""
    if isinstance(value, dict):
        if set(value) == {"exact", "float"}:
            yield "pair", value
            return
        for key, item in value.items():
            if key != "scenario" and key not in text_keys:
                yield from _float_leaves(item, text_keys)
    elif isinstance(value, list):
        for item in value:
            yield from _float_leaves(item, text_keys)
    elif isinstance(value, str):
        yield "str", value


@pytest.mark.parametrize(
    "command", [["charge"], ["mirror"], ["walls"], ["verify", "6.2"]], ids=" ".join
)
def test_float_reports_keep_a_rational_echo_exact(tmp_path, capsys, command):
    """Under --float the echo writes omega_J and B as exact strings, and
    every other non-integral scalar as its {"exact", "float"} pair."""
    omega_J = ["1/2", "1/2"] + [0] * 20
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": omega_J, "B": _vec(i6="1/2")})
    code, out = run_cli(capsys, [*command, "--scenario", path, "--float"])
    assert code == 0
    report = json.loads(out)
    assert report["scenario"]["omega_J"] == ["1/2", "1/2"] + ["0"] * 20
    assert report["scenario"]["B"] == ["0"] * 6 + ["1/2"] + ["0"] * 15
    leaves = list(_float_leaves(report))
    assert [leaf for kind, leaf in leaves if kind == "str"] == []
    pairs = [leaf for kind, leaf in leaves if kind == "pair"]
    assert pairs
    for number in pairs:  # D = 16: every scalar is rational
        assert number["float"] == f"{float(Fraction(number['exact'])):.15g}"


def test_cli_reports_are_byte_deterministic(capsys, diag28):
    _, first = run_cli(capsys, ["charge", "--scenario", diag28])
    _, second = run_cli(capsys, ["charge", "--scenario", diag28])
    assert first == second


def test_cli_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"form": [2,0,8], ')
    code, out = run_cli(capsys, ["attractor", "--scenario", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["kind"] == "scenario"
    assert "line 1" in report["error"]


def test_cli_degenerate_charge(tmp_path, capsys):
    p = [0, 0, 1, 0, 0, 0] + [0] * 16
    q = [0, 0, 0, 0, 1, 2] + [0] * 16
    path = write_scenario(tmp_path, {"p": p, "q": q})
    code, out = run_cli(capsys, ["attractor", "--scenario", str(path)])
    assert code == 2
    assert json.loads(out)["kind"] == "DegenerateCharge"


def test_cli_forms_reduce(capsys):
    code, out = run_cli(capsys, ["forms", "reduce", "[2,0,8]"])
    assert code == 0
    report = json.loads(out)
    assert report["reduced"] == [2, 0, 8]
    assert report["witness"] == [[1, 0], [0, 1]]


def test_cli_forms_equiv(capsys):
    code, out = run_cli(capsys, ["forms", "equiv", "[2,1,2]", "[2,-1,2]"])
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["witness"] is not None
    code, out = run_cli(capsys, ["forms", "equiv", "[2,0,8]", "[4,0,4]"])
    assert json.loads(out)["equivalent"] is False


def test_cli_forms_enumerate(capsys):
    code, out = run_cli(capsys, ["forms", "enumerate", "16"])
    assert code == 0
    assert json.loads(out)["forms"] == [[2, 0, 8], [4, 0, 4]]


def test_cli_forms_bad_input(capsys):
    code, out = run_cli(capsys, ["forms", "reduce", "[2,0]"])
    assert code == 1


@pytest.mark.parametrize(
    "form, says",
    [
        ([2.5, 0, 8], "got 2.5"),
        (["2", "0", "8"], "got '2'"),
        ([2, False, 8], "got False"),
    ],
    ids=["float", "strings", "bool"],
)
def test_scenario_form_entries_must_be_integers(tmp_path, capsys, form, says):
    # each once ran silently as [2, 0, 8]
    path = write_scenario(tmp_path, {"form": form})
    assert_json_error(*run_cli(capsys, ["attractor", "--scenario", path]), "scenario", says)
    with pytest.raises(ScenarioError, match="form entries must be integers"):
        build_scenario(form=form)


@pytest.mark.parametrize(
    "text, says",
    [("[2.5, 0, 8]", "got 2.5"), ('["2", true, 8]', "got '2'")],
    ids=["float", "string-and-bool"],
)
def test_cli_forms_reduce_rejects_non_integer_entries(capsys, text, says):
    # each once reduced a coerced form: [2, 0, 8] and [2, 1, 8]
    assert_json_error(*run_cli(capsys, ["forms", "reduce", text]), "scenario", says)


def test_cli_mirror(capsys, diag28):
    code, out = run_cli(capsys, ["mirror", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["mirror"]["omega"] == [0, 0, 0, 0, 1, 4] + [0] * 16
    assert report["mirror"]["B"] == [0] * 22
    assert report["mirror"]["Omega"]["re"] == [4, 1] + [0] * 20
    assert report["mirror"]["Omega"]["im"] == [0, 0, 2, 2] + [0] * 18
    assert report["involution"]["holds"] is True
    assert report["ns_of_mirror_rank"] == 20


def test_cli_charge_table(capsys, diag28):
    code, out = run_cli(capsys, ["charge", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert len(report["charges"]) == 20
    assert report["charges"][0]["Z_threefold"] == {"re": "1", "im": "0"}
    assert report["charges"][0]["Z_mirror"] == {"re": "1", "im": "0"}


def test_cli_walls_table(capsys, diag28):
    code, out = run_cli(capsys, ["walls", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["pairs"] == 190
    assert report["kind"] == "generalized"
    # each real charge once, and no table: at the unsearched base point the
    # charges are 1, 3 and eighteen zeros, so only the pair (0, 1) aligns
    assert report["charges"] == ["1", "3"] + ["0"] * 18
    assert "walls" not in report and "pass" not in report
    assert "of one sign" in report["argument"]
    assert report["member_count"] == 1


def test_cli_verify_51(capsys, diag28):
    code, out = run_cli(capsys, ["verify", "5.1", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["classes"] == 20
    assert report["charges"][0] == {"class": [1] + [0] * 21, "Z": "1"}


def test_cli_verify_62(capsys, diag28):
    code, out = run_cli(capsys, ["verify", "6.2", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["charges"][0]["Z"] == "1"
    assert report["charges"][0]["mukai"] == {"r": 0, "D": [0] * 22, "s": -1}


def test_cli_verify_63_pass(capsys, diag28):
    code, out = run_cli(capsys, ["verify", "6.3", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["obstruction"]["obstructed"] is False
    assert report["root_enumeration"] == {"complete": True, "lattice_rank": 20, "roots": 0}
    assert "bound" not in report and "bound" not in report["scenario"]


def test_cli_verify_63_obstructed(capsys, diag22):
    code, out = run_cli(capsys, ["verify", "6.3", "--scenario", diag22])
    assert code == 3
    report = json.loads(out)
    assert report["kind"] == "obstructed"
    delta = report["obstruction"]["delta"]
    assert delta["r"] == 0 and delta["s"] == 0
    assert sorted(delta["D"][:2]) == [-1, 1]  # +-sigma0 in U1 coordinates


def test_cli_verify_64(capsys, diag28):
    code, out = run_cli(capsys, ["verify", "6.4", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["pairs"] == 190 and report["member_count"] == 190


def test_cli_verify_64_alias(capsys, diag28):
    code, out = run_cli(capsys, ["verify", "wall-intersection", "--scenario", diag28])
    assert code == 0


def test_cli_verify_64_obstructed_exit(capsys, diag22):
    code, _ = run_cli(capsys, ["verify", "6.4", "--scenario", diag22])
    assert code == 3


def test_cli_search_exhausted_exit(tmp_path, capsys):
    path = write_scenario(
        tmp_path, {"form": [2, 0, 8], "search": {"c_eta": "0"}}
    )
    code, out = run_cli(capsys, ["verify", "6.3", "--scenario", str(path)])
    assert code == 4
    assert json.loads(out)["kind"] == "search-exhausted"


@pytest.mark.parametrize(
    "search, reason",
    [({}, "base does not pair positively with the fiber class")],
)
def test_cli_hopeless_candidate_exits_at_once(tmp_path, capsys, search, reason):
    # omega_J = -(2f + sigma0): positive square, but omega_J.f = -1.  The
    # search's base is omega_J, and assembly rejects it under that name
    fields = {"form": [2, 0, 8], "search": search, "omega_J": [-1, -1] + [0] * 20}
    path = write_scenario(tmp_path, fields)
    argv = ["verify", "6.4", "--scenario", path]
    says = reason.replace("base", "omega_J")
    assert_json_error(*run_cli(capsys, argv), "precondition", says)


def test_verify_63_on_reduced_forms(tmp_path, capsys):
    """Every reduced form with D <= 40: [2,0,2] is obstructed, [2,1,2] fails
    on its root (0, e2(U3) - e1(U3), 0), which is orthogonal to p, q, omega0
    and the dual eta, and every other form certifies at the least halving
    with positive square."""
    root = MukaiVector(0, GAMMA.basis(5) - GAMMA.basis(4), 0)
    outcomes = {}
    for disc in range(1, 41):
        for form in enumerate_reduced(disc):
            name = tuple(form.as_list())
            path = write_scenario(tmp_path, {"form": list(name)})
            code, out = run_cli(capsys, ["verify", "6.3", "--scenario", path])
            report = json.loads(out)
            outcomes[name] = code
            if name == (2, 0, 2):
                assert code == 3 and report["kind"] == "obstructed"
            elif name == (2, 1, 2):
                assert code == 4 and report["kind"] == "search-exhausted"
                assert report["rejections"][-1][1] == f"annihilating (-2)-class: {root}"
            else:
                assert code == 0, name
                sc = build_scenario(form=list(name))
                eta = dual_eta(GAMMA, sc.eta_basis)
                k = 0
                while True:
                    omega = sc.omega_J + Fraction(1, 10 * 2**k) * eta
                    if pair(omega, omega).sign() > 0:
                        break
                    k += 1
                assert report["candidate_index"] == k, name
    assert len(outcomes) == 40


def test_cli_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "k3stab", "bogus-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_module_entry_point(diag28):
    proc = subprocess.run(
        [sys.executable, "-m", "k3stab", "attractor", "--scenario", diag28],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"]["im"] == "2"


def assert_json_error(code, out, kind, says=""):
    assert code == 1
    report = json.loads(out)
    assert report["kind"] == kind
    assert says in report["error"]
    assert "pass" not in report


@pytest.mark.parametrize(
    "command, fields",
    [
        (["verify", "6.3"], {"search": {"c_eta": "1 10"}}),
        (["charge"], {"omega_J": ["2 1", 1] + [0] * 20}),
    ],
    ids=["c_eta", "omega_J"],
)
def test_cli_rejects_a_scalar_term_without_its_sign(tmp_path, capsys, command, fields):
    # each once read the terms as a sum: c_eta = 11 certified as "11" does,
    # and omega_J was echoed with the entry 3
    path = write_scenario(tmp_path, {"form": [2, 0, 8], **fields})
    assert_json_error(*run_cli(capsys, [*command, "--scenario", path]), "scenario", "cannot parse scalar")


# `bound` is no longer a scenario field: any value is an unknown field
def test_cli_rejects_negative_bound(tmp_path, capsys):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "bound": -1})
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "unknown scenario fields: ['bound']")


def test_cli_rejects_non_integer_bound(tmp_path, capsys):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "bound": "x"})
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "unknown scenario fields: ['bound']")


def test_cli_rejects_zero_shrinks(tmp_path, capsys):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "search": {"shrinks": 0}})
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "unknown search parameters")


def test_cli_rejects_zero_max_iter(tmp_path, capsys):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "search": {"max_iter": 0}})
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "unknown search parameters")


def test_cli_rejects_negative_bound_flag(capsys, diag28):
    # --bound is no longer an option: an argparse usage error, exit 1
    with pytest.raises(SystemExit) as err:
        main(["verify", "6.3", "--scenario", diag28, "--bound", "-1"])
    assert err.value.code == 1
    assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_cli_rejects_zero_max_iter_flag(capsys, diag28):
    # --max-iter is no longer an option: an argparse usage error, exit 1
    with pytest.raises(SystemExit) as err:
        main(["verify", "6.3", "--scenario", diag28, "--max-iter", "0"])
    assert err.value.code == 1
    assert "unrecognized arguments: --max-iter" in capsys.readouterr().err


def test_cli_forms_enumerate_not_a_number(capsys):
    assert_json_error(*run_cli(capsys, ["forms", "enumerate", "abc"]), "scenario")


def test_cli_forms_enumerate_nonpositive(capsys):
    assert_json_error(*run_cli(capsys, ["forms", "enumerate", "0"]), "scenario")


@pytest.mark.parametrize(
    "text, says",
    [
        ("1_2", ""),
        ("+12", ""),
        ("\u0661\u0662", ""),  # Arabic-Indic digits, which int() reads as 12
        ("12.0", "not a JSON integer"),
        ("true", "not a JSON integer"),
        ("10000001", "D <= 10000000"),
        ("[" * 100000, "recursion"),
    ],
    ids=["underscore", "plus-sign", "arabic-indic", "float", "bool", "over-the-bound", "deep"],
)
def test_cli_forms_enumerate_reads_a_bounded_json_integer(capsys, text, says):
    """The discriminant is read as the forms are, by json.loads, and the O(D)
    scan is bounded at 10^7; the library's `enumerate_reduced` is not."""
    assert_json_error(*run_cli(capsys, ["forms", "enumerate", text]), "scenario", says)
    code, out = run_cli(capsys, ["forms", "enumerate", "12"])
    assert code == 0 and json.loads(out)["forms"] == [[2, 0, 6], [4, 2, 4]]


def test_cli_forms_reduce_of_a_deeply_nested_argument(capsys):
    deep = "[" * 100000
    assert_json_error(*run_cli(capsys, ["forms", "reduce", deep]), "scenario", "recursion")


def test_errors_quote_a_bounded_prefix_of_a_long_input(tmp_path, capsys):
    """An error quotes the first 200 characters of an over-long input and
    its length, not the whole input: these two once printed reports of
    100,135 and 300,083 bytes."""
    code, out = run_cli(capsys, ["forms", "reduce", "[" * 100000])
    assert_json_error(code, out, "scenario", "bad form '" + "[" * 199 + "... (100002 characters)")
    assert len(out) < 500
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": [0] * 100000})
    code, out = run_cli(capsys, ["attractor", "--scenario", path])
    says = "expected a length-22 coordinate array, got [0, 0, "
    assert_json_error(code, out, "scenario", says)
    assert json.loads(out)["error"].endswith("... (300000 characters)")
    assert len(out) < 500


def test_cli_walls_nonpositive_omega(tmp_path, capsys):
    f = [1] + [0] * 21  # the fiber class, f^2 = 0
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": f})
    assert_json_error(*run_cli(capsys, ["walls", "--scenario", path]), "precondition", "positive")


def test_cli_walls_omega_not_orthogonal(tmp_path, capsys):
    omega = [0, 0, 1] + [0] * 19  # pairs to 4 with p
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": omega})
    assert_json_error(*run_cli(capsys, ["walls", "--scenario", path]), "precondition", "zero")


@pytest.mark.parametrize("suite", ["6.3", "6.4"])
def test_cli_theorem_suites_reject_nonzero_b(tmp_path, capsys, suite):
    b_field = [0] * 6 + [1] + [0] * 15
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "B": b_field})
    argv = ["verify", suite, "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "precondition", "B = 0")


def test_cli_rejects_non_integer_radicand(tmp_path, capsys):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "m": "x"})
    argv = ["attractor", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "unknown scenario fields: ['m']")


def test_cli_rejects_radicand_key(tmp_path, capsys):
    # `m` was echoed and never checked; the field now comes from the data
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "m": 4})
    argv = ["attractor", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "unknown scenario fields: ['m']")


@pytest.mark.parametrize(
    "fields, says",
    [
        ({"form": "abc"}, "form must be a triple"),
        ({"form": [2, 0, 8], "search": 5}, "search must be a JSON object"),
        # the search takes omega_J and eta only: a base built from alphas and
        # beta is an explicit omega_J, and c_sigma sigma0 folds into eta
        *(
            ({"form": [2, 0, 8], "search": {key: value}}, f"unknown search parameters: ['{key}']")
            for key, value in (
                ("alphas", 5),
                ("beta", "sqrt(2)"),
                ("alphas", ["sqrt(3)"]),
                ("c_sigma", "1/10"),
            )
        ),
    ],
    ids=["form-string", "search-number", "alphas-number", "beta-irrational", "alphas-irrational", "c_sigma"],
)
def test_cli_rejects_malformed_scenario_values(tmp_path, capsys, fields, says):
    path = write_scenario(tmp_path, fields)
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", says)


SCENARIO_COMMANDS = [
    ["attractor"],
    ["mirror"],
    ["charge"],
    ["walls"],
    *(["verify", suite] for suite in ("5.1", "6.2", "6.3", "6.4")),
]


def _zero_denominator(path):
    path.write_text(json.dumps({"form": [2, 0, 8], "B": ["1/0"] + [0] * 21}))
    return "zero denominator in scalar '1/0'"


def _not_utf8(path):
    path.write_bytes(b'{"form": [2, 0, 8], "B": "\xff"}')
    return "is not UTF-8 text"


def _nested_too_deeply(path):
    path.write_text('{"form": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return "nested too deeply"


def _oversized_integer(path):
    # raw text: json.dump cannot write an integer over the digit limit
    path.write_text('{"form": [2, 0, ' + "8" * 5000 + "]}")
    return f"holds an integer of more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "make",
    [_zero_denominator, _not_utf8, _nested_too_deeply, _oversized_integer],
    ids=["1/0", "not-utf8", "deep", "5000-digits"],
)
def test_cli_scenario_file_failures_are_json_errors(tmp_path, capsys, make):
    # each once ended in a traceback (ZeroDivisionError, UnicodeDecodeError,
    # RecursionError, the ValueError of the int digit limit) on every command
    path = tmp_path / "bad.json"
    says = make(path)
    for command in SCENARIO_COMMANDS:
        assert_json_error(*run_cli(capsys, [*command, "--scenario", str(path)]), "scenario", says)


HUGE = 2 * 10**2200  # 2201 digits: every input integer is under the digit limit


def _huge_form(tmp_path):
    # D = HUGE^2 has 4401 digits
    return write_scenario(tmp_path, {"form": [HUGE, 0, HUGE]}, "huge_form.json")


def _huge_omega(tmp_path):
    omega_J = [HUGE, HUGE // 2] + [0] * 20
    return write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": omega_J}, "huge_omega.json")


def _huge_obstructed(tmp_path):
    # D = 2 p^2 = 18 * 10^4299 has 4301 digits: the number over the limit is
    # met while the obstruction error is written
    return write_scenario(tmp_path, {"form": [9 * 10**4299, 0, 2]}, "huge_obstructed.json")


def assert_number_over_the_limit(code, out, says):
    assert_json_error(code, out, "scenario", says)
    assert len(out) < 200  # the error text holds no report number


@pytest.mark.parametrize(
    "make, command",
    [
        *((_huge_form, command) for command in SCENARIO_COMMANDS[:6]),
        *((_huge_omega, command) for command in (["charge"], ["walls"], ["verify", "6.2"])),
        (_huge_obstructed, ["verify", "6.3"]),
    ],
    ids=[
        *(f"form-{'-'.join(c)}" for c in SCENARIO_COMMANDS[:6]),
        "omega-charge",
        "omega-walls",
        "omega-verify-6.2",
        "obstructed-verify-6.3",
    ],
)
def test_cli_report_numbers_over_the_digit_limit_are_json_errors(tmp_path, capsys, make, command):
    # each once ended in the ValueError traceback of the int digit limit,
    # raised by str() of a report number or by the writer
    path = make(tmp_path)
    says = f"a report number has more than {sys.get_int_max_str_digits()} digits"
    assert_number_over_the_limit(*run_cli(capsys, [*command, "--scenario", path]), says)


@pytest.mark.parametrize("command", [["attractor"], ["mirror"], ["verify", "5.1"]])
def test_cli_reports_without_a_number_over_the_limit_still_pass(tmp_path, capsys, command):
    # the huge omega_J meets no report number over the limit on these
    code, out = run_cli(capsys, [*command, "--scenario", _huge_omega(tmp_path)])
    assert code == 0
    assert "error" not in json.loads(out)


@pytest.mark.parametrize("command", [["attractor"], ["walls"], ["verify", "6.2"]])
def test_cli_float_rendering_beyond_the_float_range_is_a_json_error(tmp_path, capsys, command):
    # float() of a report number over about 1.8e308 once ended in an
    # OverflowError traceback
    argv = [*command, "--scenario", _huge_form(tmp_path), "--float"]
    assert_number_over_the_limit(*run_cli(capsys, argv), "beyond the range of --float")


def test_cli_other_value_errors_propagate(monkeypatch, diag28):
    import k3stab.cli

    def broken(*args):
        raise ValueError("not the digit limit")

    monkeypatch.setattr(k3stab.cli, "attractor_report", broken)
    with pytest.raises(ValueError, match="not the digit limit"):
        main(["attractor", "--scenario", diag28])


@pytest.mark.parametrize(
    "argv, says",
    [
        (["forms", "reduce", "[2,0,8]", "[4,0,4]"], "reduce needs one form, got 2"),
        (["forms", "enumerate", "8", "20"], "enumerate needs one discriminant, got 2"),
        (["forms", "equiv", "[2,0,8]"], "equiv needs two forms, got 1"),
    ],
    ids=["reduce", "enumerate", "equiv"],
)
def test_cli_forms_rejects_extra_or_missing_arguments(capsys, argv, says):
    # reduce and enumerate once ignored every argument after the first
    assert_json_error(*run_cli(capsys, argv), "scenario", says)


@pytest.mark.parametrize("charge", ["p and q", "p only"])
def test_cli_rejects_form_with_explicit_charge(tmp_path, capsys, charge):
    p = [0, 0, 1, 0, 0, 0] + [0] * 16
    q = [0, 0, 0, 0, 1, 4] + [0] * 16
    fields = {"form": [2, 0, 8], "p": p}
    if charge == "p and q":
        fields["q"] = q
    path = write_scenario(tmp_path, fields)
    argv = ["attractor", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "either a form or explicit p and q")


def test_cli_rejects_mixed_fields(tmp_path, capsys):
    # sqrt(D) = sqrt(23) on [4,1,6]; omega_J over Q(sqrt 2) cannot join it,
    # whether or not a later pairing would meet both radicals
    for omega in (
        ["2*sqrt(2)", "sqrt(2)"] + [0] * 20,
        [2, 1] + [0] * 4 + ["1/10*sqrt(2)"] + [0] * 15,
    ):
        path = write_scenario(tmp_path, {"form": [4, 1, 6], "omega_J": omega})
        argv = ["walls", "--scenario", path]
        assert_json_error(*run_cli(capsys, argv), "scenario", "Q(sqrt 2) and Q(sqrt 23)")
    eta = [0] * 6 + ["sqrt(3)"] + [0] * 15
    path = write_scenario(tmp_path, {"form": [4, 1, 6], "search": {"eta": eta}})
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "Q(sqrt 3) and Q(sqrt 23)")
    # one vector over two radicands, on a form with rational sqrt(D) = 4
    says = "scenario mixes the fields Q(sqrt 2) and Q(sqrt 3)"
    omega = [2, 1] + [0] * 4 + ["1/10*sqrt(2)", "1/10*sqrt(3)"] + [0] * 14
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": omega})
    assert_json_error(*run_cli(capsys, ["walls", "--scenario", path]), "scenario", says)
    eta = [0] * 6 + ["sqrt(2)", "sqrt(3)"] + [0] * 14
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "search": {"eta": eta}})
    argv = ["verify", "6.3", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", says)


def test_cli_rejects_more_alphas_than_the_picard_rank(tmp_path, capsys):
    # alphas is no search parameter, so no length of the list is read as a
    # base: a list longer than the Picard rank and a short one fail alike
    for alphas in (["0"] * 20 + ["7"], ["0"] * 3):
        path = write_scenario(tmp_path, {"form": [2, 0, 8], "search": {"alphas": alphas}})
        argv = ["verify", "6.4", "--scenario", path]
        assert_json_error(*run_cli(capsys, argv), "scenario", "unknown search parameters: ['alphas']")


def test_cli_rejects_eta_without_a_step(tmp_path, capsys):
    # with c_eta = 0 the candidate is omega_J itself and eta would be ignored,
    # even one that is not orthogonal to the charge
    path = write_scenario(tmp_path, {"form": [2, 0, 8]})
    omega_J = json.loads(run_cli(capsys, ["verify", "6.3", "--scenario", path])[1])["omega_J"]
    fields = {"form": [2, 0, 8], "omega_J": omega_J, "search": {"c_eta": "0"}}
    path = write_scenario(tmp_path, fields, name="no_step.json")
    code, out = run_cli(capsys, ["verify", "6.3", "--scenario", path])
    assert code == 0 and json.loads(out)["pass"] is True
    fields["search"]["eta"] = [0, 0, 1] + [0] * 19
    path = write_scenario(tmp_path, fields, name="ignored_eta.json")
    argv = ["verify", "6.3", "--scenario", path]
    says = "search.eta has no effect when search.c_eta is 0"
    assert_json_error(*run_cli(capsys, argv), "scenario", says)


def test_cli_rejects_a_zero_eta_with_a_step(tmp_path, capsys):
    # with eta = 0 the step c_eta eta is 0 and the candidate is omega_J
    # itself, so a nonzero c_eta (given or the default) would be ignored
    path = write_scenario(tmp_path, {"form": [2, 0, 8]})
    omega_J = json.loads(run_cli(capsys, ["verify", "6.4", "--scenario", path])[1])["omega_J"]
    says = "search.c_eta has no effect when search.eta is 0"
    for search in ({"c_eta": "1/10", "eta": [0] * 22}, {"eta": [0] * 22}):
        fields = {"form": [2, 0, 8], "omega_J": omega_J, "search": search}
        path = write_scenario(tmp_path, fields, name="zero_eta.json")
        for command in (["verify", "6.4"], ["verify", "6.3"]):
            argv = [*command, "--scenario", path]
            assert_json_error(*run_cli(capsys, argv), "scenario", says)


def test_echo_m_is_the_scenario_field(tmp_path, capsys):
    code, out = run_cli(capsys, ["attractor", "--scenario", write_scenario(tmp_path, {"form": [4, 1, 6]})])
    assert code == 0 and json.loads(out)["scenario"]["m"] == 23
    # sqrt(D) = 4 is rational here, so the field is the one of omega_J
    omega = [2, 1] + [0] * 4 + ["1/10*sqrt(2)"] + [0] * 15
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "omega_J": omega})
    code, out = run_cli(capsys, ["walls", "--scenario", path])
    assert code == 0 and json.loads(out)["scenario"]["m"] == 2


def test_regular_point_report_decides_the_obstruction_once(monkeypatch):
    import k3stab.scenario as scenario
    import k3stab.stability as stability

    calls = []
    real = stability.fibration_obstruction

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (stability, scenario):  # every module that could bind the name
        monkeypatch.setattr(module, "fibration_obstruction", counted, raising=False)
    report = scenario.regular_point_report(build_scenario(form=[2, 0, 8]))
    assert len(calls) == 1
    assert report["obstruction"]["obstructed"] is False


@pytest.mark.parametrize("builder", ["regular_point_report", "wall_system_report"])
def test_searching_reports_require_b_zero(builder):
    # the B-field e8a.1 passes assembly, but the Kaehler search works at
    # B = 0 only, so a report built on it must not echo a B it never used
    import k3stab.scenario as scenario

    sc = build_scenario(form=[2, 0, 8], B=_vec(i6=1))
    with pytest.raises(PreconditionViolation, match=r"^the Kaehler search requires B = 0$"):
        getattr(scenario, builder)(sc)


def test_cli_rejects_non_integral_charge(tmp_path, capsys):
    p = [0, 0, 1, "1/2"] + [0] * 18
    q = [0, 0, 0, 0, 1, 4] + [0] * 16
    path = write_scenario(tmp_path, {"p": p, "q": q})
    argv = ["attractor", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "integral")


def test_cli_rejects_non_integral_fibration_classes(tmp_path, capsys):
    # f = e1/2 and sigma0 = -e1/2 + 2 e2 satisfy every pairing relation
    f = ["1/2"] + [0] * 21
    sigma0 = ["-1/2", 2] + [0] * 20
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "f": f, "sigma0": sigma0})
    argv = ["walls", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "precondition", "integral")


def test_cli_closed_stdout_exits_quietly(diag28):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3stab", "mirror", "--scenario", diag28],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def _count_calls(monkeypatch, fns) -> dict:
    """Count the calls of each function in `fns`, in every k3stab module that
    imported it by name."""
    calls = {}
    for fn in fns:
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("k3stab") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_verify_64_computes_each_charge_once(monkeypatch, capsys, diag28):
    """verify 6.4 on diag(2,8) takes the mirror classes and the central
    charges of the twenty Picard classes in one pass each, and no charge of
    one class on its own (the search re-verifies the enumeration's hits only,
    and a certified point has none); one complete root enumeration, and one
    pass through the pipeline: the search's mirror period, none at the
    scenario's own omega_J.  The hyperkaehler rotation runs twice: at
    omega_J on assembly, and at the search's candidate.  Two integer kernels
    (the eta lattice, whose column reduction also gives the dual eta, and
    the root lattice) and one Gram matrix (the root lattice's)."""
    import k3stab.attractor
    import k3stab.intmat
    import k3stab.mirror
    import k3stab.stability
    from k3stab.lattice import Sublattice

    calls = _count_calls(
        monkeypatch,
        (
            k3stab.stability.central_charges,
            k3stab.mirror.mirror_classes,
            k3stab.stability.central_charge,
            k3stab.mirror.mirror_class,
            k3stab.stability.p0_violations,
            k3stab.mirror.mirror_period,
            k3stab.stability.search_kahler_class,
            k3stab.attractor.hyperkahler_rotate,
            k3stab.intmat.kernel_basis,
        ),
    )
    gram = Sublattice.gram
    calls["Sublattice.gram"] = 0

    def counted_gram(self):
        calls["Sublattice.gram"] += 1
        return gram(self)

    monkeypatch.setattr(Sublattice, "gram", counted_gram)
    code, _ = run_cli(capsys, ["verify", "6.4", "--scenario", diag28])
    assert code == 0
    assert calls == {
        "central_charges": 1,
        "mirror_classes": 1,
        "central_charge": 0,
        "mirror_class": 0,
        "p0_violations": 1,
        "mirror_period": 1,
        "search_kahler_class": 1,
        "hyperkahler_rotate": 2,
        "kernel_basis": 2,
        "Sublattice.gram": 1,
    }


def test_picard_classes_cost_no_pairing_call_of_their_own(monkeypatch, capsys, diag28):
    """The charge layer pairs each fixed vector (v and v*, B and omega, Re
    and Im of Omega_I) with all twenty Picard classes in one pass, outside
    `lattice._pair_real`, and the mirror map pairs each input vector with v
    and v* in one pass too.  On diag(2,8) the reports make 27 calls
    (`walls`, `verify 6.2`, `charge`), 15 (`verify 5.1`), 34 (`verify 6.4`,
    two of them omega^2 and omega.f, which give the root enumeration its
    omega') and 48 (`mirror`, which maps twice), where one call per class and
    pairing made 122, 122, 162, 55 and 127, and the stepwise mirror map
    made 42, 42, 42, 15, 47 and 86.  Seven of `mirror`'s calls decide the
    involution: the square of the first image's omega, the second map's
    precondition, n = c.c and the four coefficients of the plane test, and
    the v-shift delta.v*, which replaced a coordinate elimination that made
    none.  `verify_reality` makes as many calls on one class as on
    twenty."""
    import k3stab.lattice

    real = k3stab.lattice._pair_real
    count = [0]

    def counted(x, y):
        count[0] += 1
        return real(x, y)

    monkeypatch.setattr(k3stab.lattice, "_pair_real", counted)
    expected = {
        "walls": 27,
        "verify 6.2": 27,
        "charge": 27,
        "verify 5.1": 15,
        "verify 6.4": 34,
        "mirror": 48,
    }
    got = {}
    for command in expected:
        count[0] = 0
        code, _ = run_cli(capsys, [*command.split(), "--scenario", diag28])
        assert code == 0, command
        got[command] = count[0]
    assert got == expected
    spent = []
    for classes in (slice(0, 1), slice(0, 20)):
        sc = build_scenario(form=[2, 0, 8])
        psi = sc.psi  # the mirror period's pairings are not the classes'
        count[0] = 0
        assert len(verify_reality(sc.split, psi, sc.pic_basis[classes])) == classes.stop
        spent.append(count[0])
    assert spent[0] == spent[1]


def _wall_table_runs(capsys):
    """Run each of the six commands of the wall-table workload, which make
    no search, on each shipped scenario, and yield (name, command) after
    each run."""
    scenarios = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    names = ("diag_2_2", "diag_2_4", "diag_2_8", "diag_2_8_tuned", "form_4_1_6")
    commands = (["walls"], ["charge"], ["verify", "6.2"], ["verify", "5.1"], ["mirror"], ["attractor"])
    for name in names:
        for command in commands:
            run_cli(capsys, [*command, "--scenario", os.path.join(scenarios, f"{name}.json")])
            yield name, command


def test_no_wall_table_command_computes_the_inverse_of_gamma(monkeypatch, capsys):
    """GAMMA^-1 serves the dual eta of the search only: it is not built at
    import, nor by any of the six commands without a search, on any shipped
    scenario."""
    probe = "import k3stab.cli; from k3stab.lattice import GAMMA; print(GAMMA._inverse is None)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout == "True\n", proc.stderr
    monkeypatch.setattr(GAMMA, "_inverse", None)
    for name, command in _wall_table_runs(capsys):
        assert GAMMA._inverse is None, (name, command)


def test_no_wall_table_command_reduces_or_enumerates_a_root_lattice(monkeypatch, capsys, diag28):
    """The Lovasz reduction and the Fincke-Pohst walk serve the root
    certificate only: none of the six commands without a search calls
    `lll_reduce` or `enumerate_quadric`, on any shipped scenario, so a change
    to either cannot move the wall-table workload.  verify 6.4 calls each
    once, which shows that the counters see the calls."""
    calls = _count_calls(monkeypatch, (lll_reduce, enumerate_quadric))
    for name, command in _wall_table_runs(capsys):
        assert calls == {"lll_reduce": 0, "enumerate_quadric": 0}, (name, command)
    assert run_cli(capsys, ["verify", "6.4", "--scenario", diag28])[0] == 0
    assert calls == {"lll_reduce": 1, "enumerate_quadric": 1}


def test_root_transform_is_built_only_for_hits(monkeypatch, capsys, diag28, sc28):
    """p0_violations replays the Lovasz moves into a transform only when the
    enumeration has hits: none on a certified verify 6.4 of diag(2,8), one
    at diag(2,8)'s base omega_J, whose 482 roots still come in (r, D, s)
    order."""
    import k3stab.stability

    replays = []

    def counted_lll(gram):
        transform, d, lam = lll_reduce(gram)

        def counted_transform():
            replays.append(len(gram))
            return transform()

        return counted_transform, d, lam

    monkeypatch.setattr(k3stab.stability, "lll_reduce", counted_lll)
    code, _ = run_cli(capsys, ["verify", "6.4", "--scenario", diag28])
    assert code == 0 and replays == []
    roots = k3stab.stability.p0_violations(sc28, sc28.omega_J).roots
    assert replays == [19]
    keys = [(r.r, tuple(r.D.int_coords()), r.s) for r in roots]
    assert len(keys) == 482 and keys == sorted(set(keys))


@pytest.mark.parametrize("command", [["attractor"], ["verify", "5.1"]])
def test_commands_without_mirror_data_skip_the_mirror_map(monkeypatch, capsys, diag28, command):
    # the mirror map's one input check, B.f = 0, still runs at assembly
    # (ERROR_TABLE)
    import k3stab.mirror

    calls = _count_calls(monkeypatch, (k3stab.mirror.mirror_period,))
    code, _ = run_cli(capsys, [*command, "--scenario", diag28])
    assert code == 0
    assert calls == {"mirror_period": 0}


@pytest.mark.parametrize("builder", [attractor_report, mirror_report])
def test_reports_without_the_picard_basis_skip_the_complement(builder):
    # eta_basis and pic_basis are cached on the scenario when first read
    sc = build_scenario(form=[2, 0, 8])
    builder(sc)
    assert "eta_basis" not in vars(sc) and "pic_basis" not in vars(sc)
    assert len(sc.pic_basis) == 20 and vars(sc)["eta_basis"] == sc.pic_basis[2:]


def _vec(**coords):
    """A length-22 coordinate array, zero except at the given indices
    (`i6=1` sets coordinate 6, the first vector of the first E8(-1))."""
    out = [0] * 22
    for key, value in coords.items():
        out[int(key[1:])] = value
    return out


_NON_INTEGRAL = "f and sigma0 must be integral classes; got %s, %s" % (
    "[1/2" + ", 0" * 21 + "]",
    "[-1/2, 2" + ", 0" * 20 + "]",
)
_SLAG_B = "verify 5.1 requires B = 0: the threefold charges it certifies do not depend on B"
# name: (scenario fields, {command: (exit, kind, error)}, default for the
# other commands).  Assembly checks every input once, so each malformed
# scenario fails alike on every command; only the E8 B-field passes
# assembly, and the searching suites and 5.1, whose charges do not depend
# on B, reject it.
ERROR_TABLE = {
    # sigma0 + e1(U2): still f.sigma0 = 1 and sigma0^2 = -2, but it pairs to
    # 1 with p, so it is not a Picard class; omega_J = 2f + (standard sigma0)
    # passes every other check
    "sigma0-not-orthogonal": (
        {"form": [2, 0, 8], "sigma0": _vec(i0=-1, i1=1, i2=1), "omega_J": _vec(i0=1, i1=1)},
        {},
        (1, "precondition", "fibration classes must be orthogonal to the charge"),
    ),
    # eta = e1(U2) pairs to 1 with p, so no candidate on its line is
    # orthogonal to the charge
    "eta-not-orthogonal": (
        {"form": [2, 0, 8], "search": {"eta": _vec(i2=1)}},
        {},
        (1, "precondition", "search.eta must pair to zero with p and q"),
    ),
    "nonpositive-omega_J": (
        {"form": [2, 0, 8], "omega_J": _vec(i0=1)},
        {},
        (1, "precondition", "omega_J^2 must be positive"),
    ),
    "omega_J-not-orthogonal": (
        {"form": [2, 0, 8], "omega_J": _vec(i2=1)},
        {},
        (1, "precondition", "omega_J must pair to zero with p and q"),
    ),
    "negative-cone-omega_J": (
        {"form": [2, 0, 8], "omega_J": _vec(i0=-1, i1=-1)},
        {},
        (1, "precondition", "omega_J does not pair positively with the fiber class"),
    ),
    "B-dot-f": (
        {"form": [2, 0, 8], "B": _vec(i1=1)},
        {},
        (1, "precondition", "omega and B must lie in Gamma'_R + R*v"),
    ),
    "E8-B": (
        {"form": [2, 0, 8], "B": _vec(i6=1)},
        {
            "verify 5.1": (1, "precondition", _SLAG_B),
            "verify 6.3": (1, "precondition", "the Kaehler search requires B = 0"),
            "verify 6.4": (1, "precondition", "the Kaehler search requires B = 0"),
        },
        (0, None, None),
    ),
    "negative-definite-charge": (
        {"p": _vec(i6=1), "q": _vec(i7=1)},
        {},
        (2, "DegenerateCharge", "p^2=-2, D=4"),
    ),
    "bad-f-sigma0-relations": (
        {"form": [2, 0, 8], "f": _vec(i0=1), "sigma0": _vec(i1=1)},
        {},
        (1, "precondition", "need f^2 = 0, f.sigma0 = 1, sigma0^2 = -2; got 0, 1, 0"),
    ),
    "non-integral-f-sigma0": (
        {"form": [2, 0, 8], "f": _vec(i0="1/2"), "sigma0": _vec(i0="-1/2", i1=2)},
        {},
        (1, "precondition", _NON_INTEGRAL),
    ),
    "form-and-p": (
        {"form": [2, 0, 8], "p": _vec(i2=1)},
        {},
        (1, "scenario", "scenario takes either a form or explicit p and q, not both"),
    ),
}


@pytest.mark.parametrize("command", SCENARIO_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("row", sorted(ERROR_TABLE))
def test_error_table(tmp_path, capsys, row, command):
    fields, overrides, default = ERROR_TABLE[row]
    exit_code, kind, error = overrides.get(" ".join(command), default)
    path = write_scenario(tmp_path, fields)
    code, out = run_cli(capsys, [*command, "--scenario", path])
    assert code == exit_code
    if error is None:
        assert "error" not in json.loads(out)
    else:
        assert out == json.dumps({"error": error, "kind": kind}, indent=2, sort_keys=True) + "\n"


def test_verify_64_wall_table_and_rendering_cost(monkeypatch, capsys, diag28):
    """verify 6.4 holds no wall table: every pair of its flipped charges is
    a member by the report's `argument`.  The report renders each exact
    string once: one str() per charge and per exact coordinate of omega_J."""
    strings = []
    to_str = QuadScalar.__str__
    monkeypatch.setattr(QuadScalar, "__str__", lambda x: strings.append(x) or to_str(x))
    code, out = run_cli(capsys, ["verify", "6.4", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert len(report["charges"]) == 20 and "walls" not in report
    assert "positive real" in report["argument"]
    assert (report["member_count"], report["pairs"]) == (190, 190)
    omega = [x for x in report["omega_J"] if isinstance(x, str)]
    assert sorted(map(to_str, strings)) == sorted(report["charges"] + omega)


@pytest.mark.parametrize(
    "command, fields",
    [
        # D = 2 * 10^29 + 7 = 9 * 22222222222222222222222222223, a composite
        # that 2^17 steps of rho leave unsplit
        (["attractor"], {"form": [2, 1, 10**29 + 4]}),
        (["verify", "6.4"], {"form": [2, 1, 10**29 + 4]}),
        # 10^47 - 1 = 9 * 35121409 * 316362908763458525001406154038726382279
        (["attractor"], {"form": [2, 0, 8], "search": {"c_eta": "sqrt(" + "9" * 47 + ")"}}),
    ],
)
def test_radicand_out_of_reach_is_a_scenario_error(tmp_path, capsys, command, fields):
    """A radicand with a cofactor over the proven Miller-Rabin bound that is
    neither a square nor split by rho ends in a `scenario` error, in bounded
    time, from assembly and from the scalar parser alike."""
    code, out = run_cli(capsys, [*command, "--scenario", write_scenario(tmp_path, fields)])
    assert_json_error(code, out, "scenario", "3317044064679887385961981")


def test_radicand_split_by_rho_assembles(tmp_path, capsys):
    """A 31-digit D = 4 d whose cofactor after trial division, the product
    of two 12-digit primes, lies below the proven bound: rho splits it."""
    d = 1000003 * 999999999989 * 999999999959
    path = write_scenario(tmp_path, {"form": [2, 0, 2 * d]})  # D = 4 d
    code, out = run_cli(capsys, ["attractor", "--scenario", path])
    report = json.loads(out)
    assert code == 0 and report["scenario"]["m"] == d


@st.composite
def even_forms(draw):
    """A positive definite even form [a, b, c], its diagonal halves drawn
    from small integers or from integers of 1001 digits."""
    half = draw(st.sampled_from([st.integers(1, 50), st.integers(10**1000, 10**1001 - 1)]))
    a, c = 2 * draw(half), 2 * draw(half)
    bound = isqrt(a * c - 1)
    return BinaryEvenForm(a, draw(st.integers(-bound, bound)), c)


@settings(max_examples=60, deadline=None)
@given(even_forms())
def test_standard_charge_and_fibration_are_the_unit_vector_construction(form):
    """The integer lists of `standard_charge` and `standard_fibration` are
    the unit-vector sums of `oracles.unit_vector_charge`, and realize the
    form: p^2 = a, p.q = b, q^2 = c; the fibration classes make a split."""
    p, q = standard_charge(form)
    f, sigma0 = standard_fibration()
    assert (p, q, f, sigma0) == unit_vector_charge(form)
    assert all(x.is_integral for x in (p, q, f, sigma0))
    assert (pair(p, p), pair(p, q), pair(q, q)) == (form.a, form.b, form.c)
    make_split(f, sigma0)
    assert not any(pair(x, y) for x in (f, sigma0) for y in (p, q))
