"""Byte-identity gate over the 220 reference reports.

`report_manifest.json` pins the exit code and the sha256 of the exact stdout
of each reference run:

* the 12 commands of `COMMANDS` on each of the 5 files in `scenarios/`;
* `verify 6.2`, `6.3`, `6.4` and `6.4 --float` on the scenario
  `{"form": [a, b, c]}` of each of the 40 reduced forms with D <= 40.

A change that alters one of these reports on purpose re-pins the manifest
and says why, as for `test_golden_reports.py`.  To re-pin, run from the root
of the repository:

    PYTHONPATH=src python tests/test_report_manifest.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from k3stab.cli import main
from k3stab.forms import enumerate_reduced

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
MANIFEST = HERE / "report_manifest.json"

COMMANDS = (
    ("attractor",),
    ("attractor", "--float"),
    ("mirror",),
    ("mirror", "--float"),
    ("charge",),
    ("charge", "--float"),
    ("walls",),
    ("walls", "--float"),
    ("verify", "5.1"),
    ("verify", "6.2"),
    ("verify", "6.3"),
    ("verify", "6.4"),
)
FORM_COMMANDS = (
    ("verify", "6.2"),
    ("verify", "6.3"),
    ("verify", "6.4"),
    ("verify", "6.4", "--float"),
)
MAX_DISC = 40


def reference_runs(workdir: Path):
    """Yield (key, argv) for every reference run; form scenarios are written
    into `workdir`."""
    for path in sorted(SCENARIOS.glob("*.json")):
        for command in COMMANDS:
            yield f"{' '.join(command)} @ {path.stem}", [*command, "--scenario", str(path)]
    for disc in range(1, MAX_DISC + 1):
        for form in enumerate_reduced(disc):
            path = workdir / ("form_%d_%d_%d.json" % tuple(form.as_list()))
            path.write_text(json.dumps({"form": form.as_list()}))
            for command in FORM_COMMANDS:
                yield f"{' '.join(command)} @ form {form.as_list()}", [
                    *command,
                    "--scenario",
                    str(path),
                ]


def run_all(workdir: Path) -> dict[str, list]:
    """Exit code and stdout sha256 of every reference run, by key."""
    out = {}
    for key, argv in reference_runs(workdir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[key] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    return out


def test_reference_reports_are_byte_identical(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    seen = run_all(tmp_path)
    assert len(pinned) == 220
    assert sorted(seen) == sorted(pinned)
    changed = {key: (pinned[key], got) for key, got in seen.items() if got != pinned[key]}
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    lines = (f"  {json.dumps(key)}: {json.dumps(digests[key])}" for key in sorted(digests))
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(digests)} reports pinned in {MANIFEST}")
