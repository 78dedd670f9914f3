"""End-to-end and per-module benchmark of the k3stab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; k3stab is imported from its `src`.
One client in a closed loop: each operation is one in-process call to
`k3stab.cli.main(argv)` with stdout captured, and the next starts only when
the last has finished.  No thread or subprocess runs while operations are
timed.  Whole rounds of the workload (see workloads.py) run until the
operations have taken S seconds at the reference pace (below), so every run
sees the same mix of operations.

Set-up (import, parser, inputs) is timed in SETUP_PROBES fresh interpreters
before the loop and reported as the median.

Every time is reported at a reference pace of the machine (pace.py says
how and why); the unscaled figures are printed on comment lines.  With
--trace 1 each round runs untraced and then traced, and the per-module
figures of the traced rounds replace the end-to-end ones.

Every report is checked (workloads.py says what counts as right), hashed
with sha256 under its command and input, and must hash the same each time
its operation repeats.  The digests and a digest of the workload are printed
before the result, which is the last line: one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 15
TAIL_BEYOND = 10
RAW_CAP = 1.5

sys.path.insert(0, str(SRC))

import pace  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_k3stab():
    """k3stab from this checkout's src, or exit without a result."""
    missing = [p for p in (SRC / "k3stab" / "cli.py", workloads.SCENARIOS) if not p.exists()]
    if missing:
        sys.exit(f"not a k3stab checkout: missing {', '.join(map(str, missing))}")
    import k3stab.cli

    if Path(k3stab.cli.__file__).resolve().parent != (SRC / "k3stab").resolve():
        sys.exit(f"k3stab was imported from {k3stab.cli.__file__}, not from {SRC}")
    return k3stab.cli


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(scaled, unscaled) seconds of SETUP_PROBES fresh-interpreter set-ups."""
    out = []
    for _ in range(SETUP_PROBES):
        before = pace.edge()
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            probe = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), workdir],
                capture_output=True,
                text=True,
                timeout=120,
            )
        if probe.returncode:
            sys.exit(f"set-up probe failed:\n{probe.stderr}")
        seconds = float(probe.stdout.split()[-1])
        out.append((pace.scale(seconds, before + pace.edge()), seconds))
    return out


def run_op(cli, argv, pacer=None) -> tuple[int | None, str, float, str]:
    """One operation: (exit code or None, stdout, seconds, traceback).  With
    a pacer, the seconds leave out the pacer's tries inside the operation."""
    buf = io.StringIO()
    trace = ""
    with redirect_stdout(buf), (pacer.sampling() if pacer else nullcontext()):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an exception escaping main is a failed operation
            code = None
            trace = traceback.format_exc()
        end = perf_counter()
    seconds = end - start - (pacer.spent(start, end) if pacer else 0.0)
    return code, buf.getvalue(), seconds, trace


class Tally:
    """Outcomes, latencies and report digests of every operation in a run."""

    def __init__(self):
        self.latencies: list[float] = []  # at reference pace
        self.raw: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        self.digests: dict[str, str] = {}
        self.seconds: dict[str, list[float]] = {}
        self.failures: list[str] = []

    def record(self, op, code, text, seconds, raw, trace) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.raw.append(raw)
        self.seconds.setdefault(op.key, []).append(seconds)
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        outcome = op.check(code, report)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if trace:
            failure = trace.strip().splitlines()[-1]
        elif not outcome.correct:
            failure = outcome.why
        elif self.digests.setdefault(op.key, digest) != digest:
            failure = "report differs from an earlier run of the same operation"
        else:
            failure = None
        if failure:
            self.failed += 1
            self.failures.append(f"{op.key}: {failure}")
        elif outcome.certified:
            self.certified += 1

    def workload_digest(self) -> str:
        lines = "".join(f"{key}\t{self.digests[key]}\n" for key in sorted(self.digests))
        return hashlib.sha256(lines.encode()).hexdigest()


def run_round(cli, ops, pacer, tally, tracer=None) -> list[float]:
    """Run one round; its latencies at the reference pace."""
    first = len(tally.latencies)
    for op in ops:
        gc.collect()  # garbage of the previous operation is not charged to this one
        code, text, raw, trace = run_op(cli, op.argv, pacer)
        if tracer is not None:
            tracer.end_op()
        tally.record(op, code, text, pacer.finish(raw), raw, trace)
    return tally.latencies[first:]


def run_rounds(cli, rounds, seconds, tally, tracer=None) -> tuple[list[float], list[float]]:
    """Whole rounds until their operations have taken `seconds` at the
    reference pace, so that how many rounds run does not hang on the
    machine's pace (or until RAW_CAP times `seconds` have passed on the
    clock).  With a tracer each round runs twice, untraced and then traced;
    returns the (untraced, traced) latencies."""
    pacer = pace.Pacer()
    plain: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    while sum(plain) + sum(traced) < seconds and perf_counter() - start < RAW_CAP * seconds:
        ops = next(rounds)
        plain += run_round(cli, ops, pacer, tally)
        if tracer is not None:
            with tracer:
                traced += run_round(cli, ops, pacer, tally, tracer)
    return plain, traced


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it, by nearest rank; the median when
    there are at most 2 * TAIL_BEYOND samples, so the tail is never below it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "system_wide_tracing": False,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_k3stab()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        tally = Tally()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer:
                rounds = workloads.prepare(args.workload, args.seed, workdir)
            plain, traced = run_rounds(cli, rounds, args.seconds, tally, tracer)
            metrics = tracer.metrics(len(traced))
            metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "frac")
        else:
            setup = setup_seconds(args.workload, args.seed)
            rounds = workloads.prepare(args.workload, args.seed, workdir)
            run_rounds(cli, rounds, args.seconds, tally)
            lat = tally.latencies
            tail_value, tail_pct, beyond = tail(lat)
            metrics = {
                "setup_s": (statistics.median(s for s, _ in setup), "s"),
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_s": (statistics.median(lat), "s"),
                "op_tail_s": (tail_value, "s"),
                "certified_frac": (tally.certified / tally.attempted, "frac"),
                "correct_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            raw = tally.raw
            print(
                f"# op_tail_s is p{tail_pct:.1f} of {len(lat)} operations, "
                f"{beyond} beyond it; setup_s is the median of {[round(s, 4) for s, _ in setup]}"
            )
            print(
                f"# unscaled: ops_per_s {len(raw) / sum(raw):.4f}, op_p50_s "
                f"{statistics.median(raw):.4f}, op_tail_s {tail(raw)[0]:.4f}, setup_s "
                f"{statistics.median(u for _, u in setup):.4f}; machine pace "
                f"{statistics.median(r / s for s, r in zip(lat, raw)):.3f} x reference"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# loop: closed, 1 client; workload {args.workload}, seed {args.seed}")
    print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
    for key in sorted(tally.seconds):
        times = tally.seconds[key]
        print(f"# {statistics.median(times):.4f} s median of {len(times)}: {key}")
    for key in sorted(tally.digests):
        print(f"digest {tally.digests[key]} {key}")
    print(f"workload-digest {tally.workload_digest()} {args.workload} seed {args.seed}")
    for line in tally.failures:
        print(f"# FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
