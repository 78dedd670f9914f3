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
        "c6b79581a379c6464a28ded447d071d3a221e683ebd80df84c29587fb849ceec",
    ),
    (
        ("verify", "6.3"),
        "diag_2_8",
        0,
        "b114c459ad696f72e5fe90399472ff23b4ed0b9cf760ddda50e892237160523c",
    ),
    (
        ("verify", "6.4"),
        "diag_2_8",
        0,
        "172b5bdd96f104301d427dfc7c96d6323d88b42398341935c6e107137a7f5d49",
    ),
    (
        ("verify", "6.3"),
        "form_4_1_6",
        0,
        "1920ab0a00c01234e6ed9dc0807344141101d205e5447243f434db14244c845b",
    ),
    (
        ("verify", "6.4"),
        "form_4_1_6",
        0,
        "81f18291c8a888e2a185cdf5d870a6b4e374f588a7facd1ca4af18d798b984f9",
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
        "b1f7b44a8b215d1924cf6917e6d4e23ef89d48b9daaf64cb032a594a3f4a350b",
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
