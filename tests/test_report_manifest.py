"""Byte-identity gate over the 560 reference reports.

`report_manifest.json` pins the exit code and the sha256 of the exact stdout
of each reference run:

* the 16 commands of `COMMANDS` on each of the 5 files in `scenarios/`;
* the 12 commands of `FORM_COMMANDS` on the scenario `{"form": [a, b, c]}`
  of each of the 40 reduced forms with D <= 40: `attractor`, `mirror`,
  `charge` and `walls`, each with and without `--float`, and `verify 6.2`,
  `6.3`, `6.4` and `6.4 --float`.  34 of these forms lie over Q(sqrt m),
  so their reports print scalars whose two parts have different
  denominators.

A change that alters one of these reports on purpose re-pins the manifest
and says why.  To re-pin, run from the root of the repository:

    PYTHONPATH=src python tests/test_report_manifest.py --write

and to check the pins without pytest (exit 1 on any differing report):

    PYTHONPATH=src python tests/test_report_manifest.py --check
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
    ("verify", "5.1", "--float"),
    ("verify", "6.2", "--float"),
    ("verify", "6.3", "--float"),
    ("verify", "6.4", "--float"),
)
FORM_COMMANDS = (
    ("attractor",),
    ("attractor", "--float"),
    ("mirror",),
    ("mirror", "--float"),
    ("charge",),
    ("charge", "--float"),
    ("walls",),
    ("walls", "--float"),
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


def changed_reports(seen: dict[str, list]) -> dict[str, tuple]:
    """(pinned, seen) of every key whose run differs from its pin, with None
    for a key on one side only."""
    pinned = json.loads(MANIFEST.read_text())
    return {
        key: (pinned.get(key), seen.get(key))
        for key in sorted(set(pinned) | set(seen))
        if pinned.get(key) != seen.get(key)
    }


def test_reference_reports_are_byte_identical(tmp_path):
    seen = run_all(tmp_path)
    assert len(json.loads(MANIFEST.read_text())) == 560
    changed = changed_reports(seen)
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} --write | --check")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    if sys.argv[1] == "--check":
        changed = changed_reports(digests)
        for key, (pinned, got) in changed.items():
            print(f"{key}: pinned {pinned}, got {got}")
        print(f"{len(digests) - len(changed)} of {len(digests)} reports match {MANIFEST}")
        sys.exit(1 if changed else 0)
    lines = (f"  {json.dumps(key)}: {json.dumps(digests[key])}" for key in sorted(digests))
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(digests)} reports pinned in {MANIFEST}")
