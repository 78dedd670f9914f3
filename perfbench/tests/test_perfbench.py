"""Tests of the benchmark's tracer, pacing, outcome checks and input generation.

    python3 -m pytest perfbench/tests -q
"""

import statistics
from pathlib import Path

import pytest

import pace
import run
import workloads
from tracing import Tracer

DIAG_2_8 = str(workloads.SCENARIOS / "diag_2_8.json")
COUNTS = ("calls", "hits", "candidates", "distinct_ratio", "accept_ratio")


def traced(argv):
    cli = run.import_k3stab()
    with Tracer() as tracer:
        code, text, seconds, trace = run.run_op(cli, argv)
        tracer.end_op()
    assert code == 0 and not trace
    return tracer, seconds


@pytest.fixture(scope="module")
def verify_64():
    return [traced(["verify", "6.4", "--scenario", DIAG_2_8]) for _ in range(2)]


def test_verify_64_counts(verify_64):
    spans = verify_64[0][0].spans
    assert spans["stability.central_charge"].calls == 420
    assert spans["stability.s_part"].calls == 421
    assert spans["stability.wall_member"].calls == 190
    assert spans["stability.p0_violations"].calls == 1


def test_walls_counts():
    tracer, _ = traced(["walls", "--scenario", DIAG_2_8])
    assert tracer.spans["stability.central_charge"].calls == 380
    assert tracer.spans["stability.p0_violations"].calls == 0


def test_counts_repeat_exactly(verify_64):
    first, second = (
        {k: v for k, v in tracer.metrics(1).items() if k.rsplit(".", 1)[-1] in COUNTS}
        for tracer, _ in verify_64
    )
    assert len(first) == 17
    assert first == second


def test_self_time_within_wall_time(verify_64):
    for tracer, seconds in verify_64:
        assert 0 < sum(span.self for span in tracer.spans.values()) <= seconds


def test_uninstall_restores_every_binding():
    import k3stab.cli
    import k3stab.exact
    import k3stab.stability

    before = (
        k3stab.stability.pair,
        k3stab.cli.json,
        k3stab.exact.QuadScalar.__radd__,
        k3stab.stability.StabilityPoint.s_part,
    )
    with Tracer():
        assert k3stab.stability.pair is not before[0]
        assert k3stab.stability.pair is k3stab.scenario.pair
    after = (
        k3stab.stability.pair,
        k3stab.cli.json,
        k3stab.exact.QuadScalar.__radd__,
        k3stab.stability.StabilityPoint.s_part,
    )
    assert after == before


@pytest.mark.parametrize(
    "form, code, report, correct, certified",
    [
        ([2, 0, 8], 0, {"pass": True, "member_count": 190, "pairs": 190}, True, True),
        ([2, 0, 8], 0, {"pass": True, "member_count": 189, "pairs": 190}, False, False),
        ([2, 1, 2], 4, {"kind": "search-exhausted", "pass": False}, True, False),
        ([2, 0, 8], 3, {"kind": "obstructed", "obstruction": {"delta": None}}, False, False),
        ([2, 0, 8], 1, {"error": "x", "kind": "scenario"}, False, False),
        ([2, 0, 8], None, None, False, False),
    ],
)
def test_certificate_outcomes(form, code, report, correct, certified):
    outcome = workloads.check_certificate(form)(code, report)
    assert (outcome.correct, outcome.certified) == (correct, certified)


def test_obstruction_must_be_sigma0():
    check = workloads.check_certificate([2, 0, 2])
    delta = {"r": 0, "s": 0, "D": [1, -1] + [0] * 20}
    assert check(3, {"kind": "obstructed", "obstruction": {"delta": delta}}).correct
    delta["D"] = [1, 0] + [0] * 20
    assert not check(3, {"kind": "obstructed", "obstruction": {"delta": delta}}).correct


def test_sweep_rounds_follow_the_seed(tmp_path):
    def argvs(seed, sub):
        (tmp_path / sub).mkdir()
        rounds = workloads.prepare("sweep-6.4", seed, tmp_path / sub)
        return [[Path(op.argv[-1]).name for op in next(rounds)] for _ in range(3)]

    first, again, other = argvs(5, "a"), argvs(5, "b"), argvs(6, "c")
    assert first == again != other
    blocks = workloads.load_strata()["blocks"]
    for round_ in first:
        assert len(round_) == len(blocks)
    seen = [name for round_ in first for name in round_ if name != "form_2_0_2.json"]
    assert len(seen) == len(set(seen))


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    for n in (3, 20):
        latencies = [float(i) for i in range(n)]
        value, percentile, _ = run.tail(latencies)
        assert (value, percentile) == (statistics.median(latencies), 50.0)


def test_pace_scales_by_the_median_try():
    assert pace.scale(2.0, [pace.TRY_SECONDS] * 3) == 2.0
    assert pace.scale(2.0, [pace.TRY_SECONDS, 2 * pace.TRY_SECONDS, 9.0]) == 1.0


def test_pacer_samples_inside_and_leaves_them_out():
    import signal
    import time

    pacer = pace.Pacer()
    handler = signal.getsignal(signal.SIGALRM)
    with pacer.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.inside) >= 2
    assert 0 < pacer.spent(start, end) < end - start
    assert pacer.finish(end - start) > 0
