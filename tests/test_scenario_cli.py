import json
import os
import subprocess
import sys

from fractions import Fraction

import pytest

from k3stab.cli import main
from k3stab.forms import enumerate_reduced
from k3stab.lattice import GAMMA, MukaiVector, pair
from k3stab.scenario import ScenarioError, build_scenario, scenario_from_file
from oracles import dual_eta


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
    assert sc.sqrt_disc_integral
    assert len(sc.pic_basis) == 20
    assert sc.fibration_orthogonal


def test_scenario_nondiagonal_form():
    sc = build_scenario(form=[4, 1, 6])
    assert sc.charge.p2 == 4 and sc.charge.pq == 1 and sc.charge.q2 == 6
    assert sc.charge.disc == 23
    assert not sc.sqrt_disc_integral
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
            "search": {"c_eta": "1/20", "beta": "2"},
        },
    )
    sc = scenario_from_file(path)
    assert str(sc.search.c_eta) == "1/20"
    assert sc.search.beta == 2


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
    # the unsearched base point has zero charges, so not all pairs align
    assert report["member_count"] < 190


def test_cli_verify_51(capsys, diag28):
    code, out = run_cli(capsys, ["verify", "5.1", "--scenario", diag28])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["classes"] == 20


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
    [
        ({"beta": "-1"}, "base does not pair positively with the fiber class"),
        ({"eta": [0, 0, 1] + [0] * 19}, "candidate not orthogonal to the charge"),
    ],
)
def test_cli_hopeless_candidate_exits_at_once(tmp_path, capsys, search, reason):
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "search": search})
    code, out = run_cli(capsys, ["verify", "6.4", "--scenario", path])
    assert code == 4
    report = json.loads(out)
    assert report["kind"] == "search-exhausted"
    assert report["rejections"] == [[0, reason]]


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
                    if pair(GAMMA, omega, omega).sign() > 0:
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
        ({"form": [2, 0, 8], "search": {"alphas": 5}}, "search.alphas must be a list"),
        ({"form": [2, 0, 8], "search": {"beta": "sqrt(2)"}}, "search.beta must be rational"),
        ({"form": [2, 0, 8], "search": {"alphas": ["sqrt(3)"]}}, "search.alphas must be rational"),
    ],
    ids=["form-string", "search-number", "alphas-number", "beta-irrational", "alphas-irrational"],
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


@pytest.mark.parametrize(
    "make", [_zero_denominator, _not_utf8, _nested_too_deeply], ids=["1/0", "not-utf8", "deep"]
)
def test_cli_scenario_file_failures_are_json_errors(tmp_path, capsys, make):
    # each once ended in a traceback (ZeroDivisionError, UnicodeDecodeError,
    # RecursionError) on every command
    path = tmp_path / "bad.json"
    says = make(path)
    for command in SCENARIO_COMMANDS:
        assert_json_error(*run_cli(capsys, [*command, "--scenario", str(path)]), "scenario", says)


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
    path = write_scenario(tmp_path, {"form": [2, 0, 8], "search": {"alphas": ["0"] * 20 + ["7"]}})
    argv = ["verify", "6.4", "--scenario", path]
    assert_json_error(*run_cli(capsys, argv), "scenario", "search.alphas has 21 entries")
    # a shorter list means zeros for the rest
    short = {"form": [2, 0, 8], "search": {"alphas": ["0"] * 3}}
    short = write_scenario(tmp_path, short, name="short.json")
    default = write_scenario(tmp_path, {"form": [2, 0, 8]}, name="default.json")
    assert run_cli(capsys, ["verify", "6.4", "--scenario", short]) == run_cli(
        capsys, ["verify", "6.4", "--scenario", default]
    )


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


def test_verify_64_computes_each_charge_once(monkeypatch, capsys, diag28):
    """verify 6.4 on diag(2,8) takes one mirror class and one central charge
    per Picard class (20 of each) and one complete root enumeration."""
    import k3stab.mirror
    import k3stab.stability

    calls = {}
    for fn in (
        k3stab.stability.central_charge,
        k3stab.mirror.mirror_class,
        k3stab.stability.p0_violations,
    ):
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        # every module that imported the function by name
        for name, module in list(sys.modules.items()):
            if name.startswith("k3stab") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    code, _ = run_cli(capsys, ["verify", "6.4", "--scenario", diag28])
    assert code == 0
    assert calls == {"central_charge": 20, "mirror_class": 20, "p0_violations": 1}


def test_verify_64_wall_table_and_rendering_cost(monkeypatch, capsys, diag28):
    """The wall table of verify 6.4 takes one exact sign per charge (20, not
    two per pair), and the report renders each exact string once; the 190
    wall rows share the rendered charges."""
    import k3stab.scenario
    import k3stab.stability
    from k3stab.exact import QuadScalar

    signs, strings = [], []
    sign, to_str = QuadScalar.sign, QuadScalar.__str__
    monkeypatch.setattr(QuadScalar, "sign", lambda x: signs.append(x) or sign(x))
    monkeypatch.setattr(QuadScalar, "__str__", lambda x: strings.append(x) or to_str(x))
    table = k3stab.stability.wall_table
    in_table = []

    def counted_table(zs):
        before = len(signs)
        reports = table(zs)
        in_table.append(len(signs) - before)
        return reports

    for module in (k3stab.stability, k3stab.scenario):
        monkeypatch.setattr(module, "wall_table", counted_table)
    code, out = run_cli(capsys, ["verify", "6.4", "--scenario", diag28])
    assert code == 0
    assert in_table == [20]
    report = json.loads(out)
    assert len(report["charges"]) == 20 and len(report["walls"]) == 190
    # one str() per charge, one for the shared imaginary part "0", and one per
    # exact coordinate of omega_J: nothing is rendered twice
    omega = [x for x in report["omega_J"] if isinstance(x, str)]
    assert sorted(map(to_str, strings)) == sorted(report["charges"] + ["0"] + omega)
