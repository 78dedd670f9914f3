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
        "0af0bb7e8feec90b1657649e2410efa9a568ec9c6d7d3fb6e57a4d0673127a90",
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
        "66a33c925dbc19e3a0a91dbdee3bd2878cd406c2035ce726a1e76d280909a91f",
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
        "7132924a3320520b30b02889a33652049a88ddee470c9c3dc5f74b896f02e7df",
    ),
    (
        ("verify", "6.4"),
        "diag_2_2",
        3,
        "c94079b62f1e439843a98b606aeecad0e2a1b983a4b2bb721b5c7acbdbbed72d",
    ),
    (
        ("verify", "6.2"),
        "diag_2_8",
        0,
        "e2c321fad4537073174bc524a342ffadc5d003ce580bb94aa764a39e1e196e77",
    ),
    (
        ("verify", "6.4", "--float"),
        "form_4_1_6",
        0,
        "0d6b8d63e576cc826b05afbf33a0afaaa9aee8b30052645b2edd2be60e709373",
    ),
    (
        ("walls", "--float"),
        "diag_2_8",
        0,
        "bda19aa537b9205fa13c84fdc5400809839ec31557471dee86d4731d19a620e2",
    ),
    # diag_2_8 with its search object: the echo carries c_eta
    (
        ("charge",),
        "diag_2_8_tuned",
        0,
        "6134a4ac94287c1457be458ca2ee1f67e1754cc68b26afcfd6d8416b70819811",
    ),
    # a scenario over Q(sqrt 23) whose twenty mirror charges are real (and
    # rational: 1, 15/8 and eighteen zeros), as at every scenario's omega_J
    (
        ("walls",),
        "form_4_1_6",
        0,
        "fa15834e5e0bc8cc9c9c4d265f5390ffd9aa7bda3bd013b59d04fe00f94ab82a",
    ),
    (
        ("mirror",),
        "form_4_1_6",
        0,
        "362ca21ef3fe379567789ec730812c7113ec567b49f19317123b7d9cd045b8c8",
    ),
    (
        ("attractor",),
        "form_4_1_6",
        0,
        "0e8a9d1faf4d88020607d34ac0afcf799c0fdb4505eee669af99fda723569704",
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
