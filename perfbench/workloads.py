"""Workload inputs and outcome checks for the k3stab benchmark.

A workload is a seeded, endless sequence of rounds; a round is a list of
operations, and an operation is one `k3stab` argv plus the rule that decides
whether its exit code and report are a right answer.  The benchmark runs whole
rounds, so every run of a workload sees the same mix of operations whatever
its length.

    wall-table     walls, charge, verify 6.2, verify 5.1, mirror and attractor
                   on each shipped scenario: 30 operations per round.
    sweep-6.4      verify 6.4 on reduced forms [a, b, c] with a*c - b^2 <= 40,
                   one form drawn from each block of sweep_strata.json per
                   round (9 operations), without repeating a charge until the
                   blocks run out.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"
SHIPPED = ("diag_2_2", "diag_2_4", "diag_2_8", "diag_2_8_tuned", "form_4_1_6")
WALL_TABLE_COMMANDS = (
    ("walls",),
    ("charge",),
    ("verify", "6.2"),
    ("verify", "5.1"),
    ("mirror",),
    ("attractor",),
)
PICARD_CLASSES = 20
WALL_PAIRS = PICARD_CLASSES * (PICARD_CLASSES - 1) // 2
# sigma0 = e2 - e1 of the first hyperbolic block, in the README's basis order.
SIGMA0 = [-1, 1] + [0] * 20


@dataclass(frozen=True)
class Outcome:
    correct: bool
    certified: bool
    why: str = ""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    key: str  # command plus input identity, names the report digest
    check: Callable[[Optional[int], Optional[dict]], Outcome]


def _input_id(label: str, text: str) -> str:
    return f"{label}@{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def check_wall_table(command: tuple[str, ...]):
    def check(code, report) -> Outcome:
        if code != 0 or not isinstance(report, dict) or "error" in report:
            return Outcome(False, False, f"exit {code}")
        if command == ("walls",) and report.get("pairs") != WALL_PAIRS:
            return Outcome(False, False, f"pairs {report.get('pairs')}")
        if command[0] == "verify" and not (
            report.get("pass") is True and report.get("classes") == PICARD_CLASSES
        ):
            return Outcome(False, False, "certificate did not pass on all classes")
        return Outcome(True, report.get("pass") is True)

    return check


def _is_sigma0_delta(delta) -> bool:
    if not isinstance(delta, dict) or delta.get("r") != 0 or delta.get("s") != 0:
        return False
    try:
        coords = [Fraction(str(x)) for x in delta.get("D", ())]
    except (ValueError, ZeroDivisionError):
        return False
    return coords in (SIGMA0, [-x for x in SIGMA0])


def check_certificate(form: list[int]):
    """Allowed outcomes of `verify 6.4` on the standard charge of `form`.

    p^2 = a for the standard charge, so the fibration obstruction D = 2 p^2
    reads a*c - b^2 == 2*a.
    """
    a, b, c = form
    obstructed = a * c - b * b == 2 * a

    def check(code, report) -> Outcome:
        if not isinstance(report, dict):
            return Outcome(False, False, f"exit {code}, no JSON report")
        if code == 0:
            if report.get("pass") is not True:
                return Outcome(False, False, "exit 0 without pass")
            if not report.get("member_count") == report.get("pairs") == WALL_PAIRS:
                return Outcome(False, False, "not every wall pair is a member")
            return Outcome(True, True)
        if code == 3:
            if not obstructed:
                return Outcome(False, False, "obstruction reported where D != 2 p^2")
            delta = (report.get("obstruction") or {}).get("delta")
            if report.get("kind") != "obstructed" or not _is_sigma0_delta(delta):
                return Outcome(False, False, "obstruction is not (0, +-sigma0, 0)")
            return Outcome(True, False)
        if code == 4:
            if report.get("kind") != "search-exhausted" or report.get("pass") is not False:
                return Outcome(False, False, "exit 4 without a search-exhausted report")
            return Outcome(True, False)
        return Outcome(False, False, f"exit {code}")

    return check


def _shipped() -> list[tuple[str, Path, str]]:
    out = []
    for name in SHIPPED:
        path = SCENARIOS / f"{name}.json"
        out.append((name, path, path.read_text()))
    return out


def _cycle(rng: random.Random, ops: list[Op]) -> Iterator[list[Op]]:
    while True:
        round_ = list(ops)
        rng.shuffle(round_)
        yield round_


def wall_table(rng: random.Random, workdir: Path) -> Iterator[list[Op]]:
    ops = [
        Op(
            argv=(*command, "--scenario", str(path)),
            key=f"{' '.join(command)} {_input_id(name, text)}",
            check=check_wall_table(command),
        )
        for name, path, text in _shipped()
        for command in WALL_TABLE_COMMANDS
    ]
    return _cycle(rng, ops)


def load_strata() -> dict:
    return json.loads((HERE / "sweep_strata.json").read_text())


def check_frame(strata: dict) -> None:
    """The frame must list exactly the reduced forms up to its discriminant,
    as the program enumerates them; otherwise it must be made again."""
    from k3stab.forms import enumerate_reduced

    forms = [
        f.as_list() for d in range(1, strata["discriminant_max"] + 1) for f in enumerate_reduced(d)
    ]
    framed = [f for block in strata["blocks"] for f in block["forms"]]
    if sorted(forms) != sorted(framed):
        raise RuntimeError("reduced-form enumeration does not match sweep_strata.json")


def sweep(rng: random.Random, workdir: Path) -> Iterator[list[Op]]:
    strata = load_strata()
    check_frame(strata)
    ops = {}
    for block in strata["blocks"]:
        for form in block["forms"]:
            text = json.dumps({"form": form}) + "\n"
            path = workdir / ("form_%d_%d_%d.json" % tuple(form))
            path.write_text(text)
            ops[tuple(form)] = Op(
                argv=("verify", "6.4", "--scenario", str(path)),
                key=f"verify 6.4 {_input_id('form' + json.dumps(form), text)}",
                check=check_certificate(form),
            )
    blocks = [[ops[tuple(f)] for f in block["forms"]] for block in strata["blocks"]]
    return _draw(rng, blocks)


def _draw(rng: random.Random, blocks: list[list[Op]]) -> Iterator[list[Op]]:
    """One op per block per round, each block drawn without replacement."""
    queues: list[list[Op]] = [[] for _ in blocks]
    while True:
        round_ = []
        for block, queue in zip(blocks, queues):
            if not queue:
                queue.extend(block)
                rng.shuffle(queue)
            round_.append(queue.pop())
        rng.shuffle(round_)
        yield round_


WORKLOADS = {
    "wall-table": wall_table,
    "sweep-6.4": sweep,
}


def prepare(name: str, seed: int, workdir: Path) -> Iterator[list[Op]]:
    """Generate a workload's inputs (files under `workdir`) and its rounds."""
    return WORKLOADS[name](random.Random(seed), workdir)
