"""Byte-identity gate: pinned sha256 digests of reference reports.

Each digest is the sha256 of the exact stdout of `k3stab <argv>`.  A change
that alters one of these reports on purpose re-pins the digest and says why.
"""

import hashlib
from pathlib import Path

import pytest

from k3stab.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = [
    (
        ("walls",),
        "diag_2_8",
        0,
        "3d8c6136c05818657e8d74d2122e3fe7eb6d1e0a58ef1862b209f72fcf650221",
    ),
    (
        ("verify", "6.3"),
        "diag_2_8",
        0,
        "4192f5e712fd4f7f1f0692d3743c974b478d8541244a892367c2342e49f7131c",
    ),
    (
        ("verify", "6.4"),
        "diag_2_8",
        0,
        "f851c55d7638ba5e113e63c03b1484b16a0f12ac6ce5991a2adba28e014f92d7",
    ),
    (
        ("verify", "6.3"),
        "form_4_1_6",
        0,
        "b78d4a45e163dae4125112a832610ee366b7eb5a2eacae91c5940b6a7b8a967b",
    ),
    (
        ("verify", "6.4"),
        "form_4_1_6",
        0,
        "4b78f07b179393eb03bb694fe182c6f9752d126a4556bed618f66b2f2c6d941c",
    ),
    (
        ("verify", "6.4"),
        "diag_2_2",
        3,
        "c94079b62f1e439843a98b606aeecad0e2a1b983a4b2bb721b5c7acbdbbed72d",
    ),
    (
        ("charge",),
        "diag_2_8_tuned",
        0,
        "91fd51c80a57476ce164fc63b640ce5d7947c2e900bd6362da66fdbf812a8d01",
    ),
]


@pytest.mark.parametrize(
    "command, scenario, code, digest",
    GOLDEN,
    ids=[f"{' '.join(c)}-{s}" for c, s, _, _ in GOLDEN],
)
def test_report_digest(capsys, command, scenario, code, digest):
    assert main([*command, "--scenario", str(SCENARIOS / f"{scenario}.json")]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
