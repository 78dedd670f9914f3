import itertools
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.forms import (
    BinaryEvenForm,
    SL2Witness,
    enumerate_reduced,
    gauss_reduce,
    sl2_equivalent,
)
from k3stab.lattice import GAMMA
from oracles import form_of_charge, is_reduced


def test_discriminants():
    assert BinaryEvenForm(2, 0, 8).discriminant() == 16
    assert BinaryEvenForm(2, 0, 2).discriminant() == 4
    assert BinaryEvenForm(2, 1, 2).discriminant() == 3


def test_validation():
    with pytest.raises(ValueError):
        BinaryEvenForm(1, 0, 2)  # odd diagonal
    with pytest.raises(ValueError):
        BinaryEvenForm(2, 3, 2)  # indefinite
    with pytest.raises(ValueError):
        BinaryEvenForm(-2, 0, 2)


def test_witness_determinant_checked():
    with pytest.raises(ValueError):
        SL2Witness(((1, 0), (0, -1)))


def test_reduce_already_reduced():
    reduced, witness = gauss_reduce(BinaryEvenForm(2, 0, 8))
    assert reduced == BinaryEvenForm(2, 0, 8)
    assert witness == SL2Witness.identity()


def test_reduce_sign_flip():
    reduced, witness = gauss_reduce(BinaryEvenForm(2, -1, 2))
    assert reduced == BinaryEvenForm(2, 1, 2)
    assert witness.conjugate(reduced) == BinaryEvenForm(2, -1, 2)


def test_reduce_swap_and_shear():
    start = BinaryEvenForm(8, 4, 4)
    reduced, witness = gauss_reduce(start)
    assert is_reduced(reduced)
    assert reduced.discriminant() == start.discriminant() == 16
    assert reduced == BinaryEvenForm(4, 0, 4)
    assert witness.conjugate(reduced) == start


def _brute_force_witness(q1, q2, span):
    rng = range(-span, span + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if a * d - b * c != 1:
            continue
        w = SL2Witness(((a, b), (c, d)))
        if w.conjugate(q2) == q1:
            return w
    return None


def test_equiv_identity():
    q = BinaryEvenForm(2, 1, 2)
    w = sl2_equivalent(q, q)
    assert w is not None
    assert w.conjugate(q) == q


def test_equiv_pair_confirmed_by_brute_force():
    q1, q2 = BinaryEvenForm(2, 1, 2), BinaryEvenForm(2, -1, 2)
    w = sl2_equivalent(q1, q2)
    assert w is not None
    assert w.conjugate(q2) == q1
    assert _brute_force_witness(q1, q2, 3) is not None


def test_inequivalent_same_discriminant():
    q1, q2 = BinaryEvenForm(2, 0, 8), BinaryEvenForm(4, 0, 4)
    assert q1.discriminant() == q2.discriminant() == 16
    assert sl2_equivalent(q1, q2) is None
    assert _brute_force_witness(q1, q2, 5) is None


even_forms = st.builds(
    lambda a, b, c_extra: (2 * a, b, c_extra),
    st.integers(1, 6),
    st.integers(-6, 6),
    st.integers(1, 8),
).map(lambda t: _make_posdef(*t)).filter(lambda f: f is not None)


def _make_posdef(a, b, c_half):
    c = 2 * c_half
    while a * c - b * b <= 0:
        c += 2
        if c > 60:
            return None
    return BinaryEvenForm(a, b, c)


@given(even_forms, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80)
def test_reduce_of_scrambled_form(form, x, y):
    # conjugate by an arbitrary shear/swap word, then reduce back
    w = SL2Witness(((1, x), (0, 1))) @ SL2Witness(((0, -1), (1, 0))) @ SL2Witness(((1, 0), (y, 1)))
    scrambled = w.conjugate(form)
    reduced, witness = gauss_reduce(scrambled)
    assert is_reduced(reduced)
    assert witness.conjugate(reduced) == scrambled
    assert reduced.discriminant() == form.discriminant()


@given(even_forms)
@settings(max_examples=60)
def test_reduce_idempotent(form):
    r1, _ = gauss_reduce(form)
    r2, w2 = gauss_reduce(r1)
    assert r1 == r2
    assert w2 == SL2Witness.identity()


@given(even_forms, even_forms)
@settings(max_examples=40)
def test_equivalence_preserves_discriminant(q1, q2):
    w = sl2_equivalent(q1, q2)
    if w is not None:
        assert q1.discriminant() == q2.discriminant()


def test_enumerate_examples():
    assert [f.as_list() for f in enumerate_reduced(3)] == [[2, 1, 2]]
    sixteens = [f.as_list() for f in enumerate_reduced(16)]
    assert [2, 0, 8] in sixteens and [4, 0, 4] in sixteens
    assert enumerate_reduced(1) == []
    with pytest.raises(ValueError):
        enumerate_reduced(0)


def _naive_reduced_forms(disc):
    out = []
    for a in range(2, 2 * disc + 1, 2):
        for c in range(a, 2 * disc + 1, 2):
            b_sq = a * c - disc
            if b_sq < 0:
                continue
            b = isqrt(b_sq)
            if b * b != b_sq:
                continue
            for bb in {b, -b}:
                if -a < 2 * bb <= a and not (a == c and bb < 0):
                    out.append((a, bb, c))
    return sorted(out)


def test_enumerate_matches_naive_scan_up_to_100():
    for disc in range(1, 101):
        fast = sorted((f.a, f.b, f.c) for f in enumerate_reduced(disc))
        assert fast == _naive_reduced_forms(disc), f"disagreement at D={disc}"


def test_form_of_charge():
    p = GAMMA.basis(2) + GAMMA.basis(3)
    q = GAMMA.basis(4) + 4 * GAMMA.basis(5)
    assert form_of_charge(GAMMA, p, q) == BinaryEvenForm(2, 0, 8)
