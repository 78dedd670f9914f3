"""Regenerate sweep_strata.json, the sampling frame of the sweep-6.4 workload.

Runs `k3stab verify 6.4` once on every reduced form with discriminant up to
DISC_MAX, records each exit code and wall time, and cuts the population into
blocks: the obstructed forms, then the certified and the exhausted forms,
each sorted by time and split into BLOCKS_PER_OUTCOME blocks of near-equal
size.  The sweep draws one form per block, so every sample has the same mix
of outcomes and of slow and fast charges, and its figures vary little between
seeds.  The labels describe the program at the time the file was written;
they steer sampling only and are never used to judge an outcome.

    python3 perfbench/make_strata.py      # takes about three minutes
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from k3stab import cli  # noqa: E402
from k3stab.forms import enumerate_reduced  # noqa: E402

DISC_MAX = 40
BLOCKS_PER_OUTCOME = 3
OUTCOMES = {0: "certified", 3: "obstructed", 4: "exhausted"}


def survey(workdir: str) -> list[dict]:
    rows = []
    for disc in range(1, DISC_MAX + 1):
        for form in enumerate_reduced(disc):
            path = os.path.join(workdir, "form.json")
            with open(path, "w") as handle:
                json.dump({"form": form.as_list()}, handle)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "6.4", "--scenario", path])
            seconds = time.perf_counter() - start
            rows.append({"form": form.as_list(), "exit": code, "seconds": round(seconds, 3)})
            print(rows[-1], file=sys.stderr)
    return rows


def blocks_of(rows: list[dict]) -> list[dict]:
    unknown = {r["exit"] for r in rows} - set(OUTCOMES)
    if unknown:
        raise SystemExit(f"unexpected exit codes {sorted(unknown)}: fix the program first")
    blocks = []
    for code, outcome in sorted(OUTCOMES.items(), key=lambda kv: kv[1] != "obstructed"):
        members = sorted((r for r in rows if r["exit"] == code), key=lambda r: r["seconds"])
        count = 1 if outcome == "obstructed" else BLOCKS_PER_OUTCOME
        for i in range(count):
            part = members[i * len(members) // count : (i + 1) * len(members) // count]
            if part:
                blocks.append({"outcome": outcome, "forms": [r["form"] for r in part]})
    return blocks


def main() -> None:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as workdir:
        rows = survey(workdir)
    table = {
        "discriminant_max": DISC_MAX,
        "made_with": f"verify 6.4, one process, Python {platform.python_version()}, nproc {os.cpu_count()}",
        "blocks": blocks_of(rows),
        "survey": rows,
    }
    (HERE / "sweep_strata.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
