import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3stab.exact import (
    FieldMismatch,
    QuadComplex,
    QuadScalar,
    parse_quad,
    qs_sign,
    squarefree_split,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
radicands = st.sampled_from([0, 2, 3, 5, 7])


def scalars(m=None):
    ms = st.just(m) if m is not None else radicands
    return st.builds(QuadScalar, rationals, rationals, ms)


def test_norm_identity():
    x = QuadScalar(1, 1, 2)
    assert x * x.conj() == QuadScalar(-1)


def test_componentwise_add():
    assert QuadScalar(Fraction(3, 2)) + QuadScalar(0, 1, 2) == QuadScalar(Fraction(3, 2), 1, 2)


def test_inverse_of_one_plus_sqrt2():
    x = QuadScalar(1, 1, 2)
    inv = 1 / x
    assert inv == QuadScalar(-1, 1, 2)
    assert x * inv == QuadScalar(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadScalar(1) / QuadScalar(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QuadScalar(0, 1, 2) + QuadScalar(0, 1, 3)
    with pytest.raises(FieldMismatch):
        QuadScalar(0, 1, 2) * QuadScalar(0, 1, 5)


def test_sign_examples():
    assert qs_sign(QuadScalar(0)) == 0
    assert qs_sign(QuadScalar(1, -1, 2)) == -1
    assert qs_sign(QuadScalar(3, -1, 2)) == 1
    assert qs_sign(QuadScalar(-1, 1, 2)) == 1
    assert qs_sign(QuadScalar(-3, 1, 2)) == -1


def test_canonicalization():
    assert QuadScalar(0, 1, 8) == QuadScalar(0, 2, 2)
    assert QuadScalar(2, 3, 1) == QuadScalar(5)
    assert QuadScalar(1, 0, 7).m == 0
    assert QuadScalar.sqrt(Fraction(9, 4)) == QuadScalar(Fraction(3, 2))
    assert QuadScalar.sqrt(8) == QuadScalar(0, 2, 2)
    assert QuadScalar.sqrt(Fraction(1, 2)) == QuadScalar(0, Fraction(1, 2), 2)


def test_squarefree_split():
    assert squarefree_split(0) == (0, 1)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(16) == (4, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(7) == (1, 7)


@given(scalars(2), scalars(2), scalars(2))
@settings(max_examples=100)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * (1 / x) == QuadScalar(1)


@given(scalars(), st.one_of(st.integers(-20, 20), rationals))
@settings(max_examples=100)
def test_rational_factor_matches_field_product(x, r):
    product = x * QuadScalar(r)
    for value in (x * r, r * x):
        assert (value.a, value.b, value.m) == (product.a, product.b, product.m)


@given(scalars())
@settings(max_examples=100)
def test_conjugation_norm_sign(x):
    norm_sign = qs_sign(QuadScalar(x.norm()))
    assert norm_sign == x.sign() * x.conj().sign()


def test_sign_matches_float_on_random_samples():
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        a = Fraction(rng.randint(-200, 200), rng.randint(1, 40))
        b = Fraction(rng.randint(-200, 200), rng.randint(1, 40))
        m = rng.choice([0, 2, 3, 5, 7, 11])
        x = QuadScalar(a, b, m)
        fx = float(x)
        if abs(fx) <= 1e-9:
            continue
        assert x.sign() == (1 if fx > 0 else -1)
        checked += 1


@given(scalars())
@settings(max_examples=100)
def test_serialization_round_trip(x):
    assert parse_quad(str(x)) == x


def test_parse_examples():
    assert parse_quad("3/2 + 1*sqrt(2)") == QuadScalar(Fraction(3, 2), 1, 2)
    assert parse_quad("-1/2 - 3/4*sqrt(2)") == QuadScalar(Fraction(-1, 2), Fraction(-3, 4), 2)
    assert parse_quad("5") == QuadScalar(5)
    assert parse_quad("sqrt(3)") == QuadScalar(0, 1, 3)
    with pytest.raises(ValueError):
        parse_quad("")
    with pytest.raises(ValueError):
        parse_quad("1 + bogus")


def test_comparisons():
    assert QuadScalar(0, 1, 2) > QuadScalar(1)
    assert QuadScalar(0, 1, 2) < QuadScalar(Fraction(3, 2))
    assert QuadScalar(1, 1, 2) >= QuadScalar(1, 1, 2)


def test_complex_arithmetic():
    z = QuadComplex(QuadScalar(1), QuadScalar(0, 1, 2))
    w = QuadComplex(QuadScalar(0, 1, 2), QuadScalar(-1))
    prod = z * w
    assert prod == QuadComplex(QuadScalar(0, 2, 2), QuadScalar(1))
    assert (prod / w) == z
    assert z * z.conj() == QuadComplex(QuadScalar(3))
    with pytest.raises(ZeroDivisionError):
        z / QuadComplex(0, 0)


def test_complex_i_times():
    i = QuadComplex(0, 1)
    assert i * i == QuadComplex(-1, 0)


_SMALL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)])
# (a, b, m, im): the value a + b sqrt(m) + i im
_VALUES = st.tuples(_SMALL, _SMALL, st.sampled_from([0, 2, 3]), _SMALL).map(
    lambda v: (v[0], v[1] if v[2] else Fraction(0), v[2], v[3])
)


def _typed(value):
    """The value as an int, a Fraction, a QuadScalar or a QuadComplex,
    whichever of these can hold it."""
    a, b, m, im = value
    kinds = [QuadComplex(QuadScalar(a, b, m), QuadScalar(im))]
    if not im:
        kinds.append(QuadScalar(a, b, m))
        if not b:
            kinds.append(a)
            if a.denominator == 1:
                kinds.append(int(a))
    return st.sampled_from(kinds)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equal_values_hash_alike(data):
    """a == b implies hash(a) == hash(b), across the four types; the second
    value is often the first in another type."""
    first = data.draw(_VALUES)
    second = data.draw(st.one_of(st.just(first), _VALUES))
    a, b = data.draw(_typed(first)), data.draw(_typed(second))
    if a == b:
        assert hash(a) == hash(b), (a, b)
    assert len({a, b}) == (1 if a == b else 2)


def test_mixed_hash_examples():
    assert hash(QuadScalar(3)) == hash(3)
    assert hash(QuadComplex(2)) == hash(2)
    assert hash(QuadComplex(QuadScalar(0, 1, 2))) == hash(QuadScalar(0, 1, 2))
    assert {QuadScalar(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"
    assert 2 in {QuadComplex(2)}
