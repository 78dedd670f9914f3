import random
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import gcd, isqrt

from k3stab.exact import (
    FieldMismatch,
    QuadComplex,
    QuadScalar,
    UnsplitRadicand,
    _is_prime,
    parse_quad,
    squarefree_split,
)
from k3stab.lattice import LatticeVector, pair
from oracles import (
    FractionQuadScalar,
    complex_quotient,
    decimal_float,
    squarefree_split_brute,
    squarefree_split_trial,
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
    inv = x.inverse()
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
    assert QuadScalar(0).sign() == 0
    assert QuadScalar(1, -1, 2).sign() == -1
    assert QuadScalar(3, -1, 2).sign() == 1
    assert QuadScalar(-1, 1, 2).sign() == 1
    assert QuadScalar(-3, 1, 2).sign() == -1


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
    # the prime D of the form [2, 1, 1000000000000072]
    assert squarefree_split(2000000000000143) == (1, 2000000000000143)


def test_squarefree_split_matches_brute_force():
    for n in range(3000):
        assert squarefree_split(n) == squarefree_split_brute(n), n
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(10**7)
        assert squarefree_split(n) == squarefree_split_brute(n), n


@pytest.mark.parametrize("p", [1000003, 999999937, 2147483647])
def test_squarefree_split_of_large_prime_squares(p):
    # p^2 q with a prime p past the cube root of the cofactor; trial
    # division up to sqrt(p^2) would stall here
    for q in (1, 2, 12, 30, 1000033):
        s, m = squarefree_split_brute(q)
        assert squarefree_split(p * p * q) == (p * s, m), (p, q)


def test_squarefree_split_matches_trial_division():
    """The bounded split agrees with the cube-root trial division it replaced
    on every n < 10^5 and on random n < 10^15."""
    for n in range(10**5):
        assert squarefree_split(n) == squarefree_split_trial(n), n
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randrange(10**15)
        assert squarefree_split(n) == squarefree_split_trial(n), n


# primes past the trial division bound 10^6
_P, _Q, _R = 1000003, 1000033, 1000037
_MERSENNE_89 = 2**89 - 1  # a prime over the proven Miller-Rabin bound 3.3e24


@pytest.mark.parametrize(
    "n, split",
    [
        (_P * _Q * _R, (1, _P * _Q * _R)),
        (12 * _P**3, (2 * _P, 3 * _P)),
        (_P**2 * _Q * _R, (_P, _Q * _R)),
        (_P**2 * _Q**2 * 5, (_P * _Q, 5)),
        (999999999989 * 999999999959 * 7, (1, 999999999989 * 999999999959 * 7)),
        (_MERSENNE_89**2 * 18, (3 * _MERSENNE_89, 2)),
    ],
)
def test_squarefree_split_past_the_trial_bound(n, split):
    """Cofactors over 10^18 split by Pollard rho and proven prime by
    Miller-Rabin, and a perfect square over the proven bound."""
    assert squarefree_split(n) == split


@pytest.mark.parametrize(
    "n", [_MERSENNE_89, 4 * _MERSENNE_89 * 1000003, 2 * 10**29 + 7, 10**47 - 1]
)
def test_squarefree_split_refuses_a_cofactor_over_the_proven_bound(n):
    with pytest.raises(UnsplitRadicand, match="3317044064679887385961981"):
        squarefree_split(n)


def test_miller_rabin_on_the_first_13_prime_bases():
    """Prime exactly when trial division says so, on odd n from 43 to 3*10^4,
    and composite on strong pseudoprimes to the first 4, 9 and 12 of the
    bases.  The least strong pseudoprime to all 13 passes: below it the
    test is a proof, and `squarefree_split` runs it only there."""
    for n in range(43, 30000, 2):
        assert _is_prime(n) == all(n % d for d in range(3, isqrt(n) + 1, 2)), n
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(3317044064679887385961981)


@given(scalars(2), scalars(2), scalars(2))
@settings(max_examples=100)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * x.inverse() == QuadScalar(1)


@given(scalars(), st.one_of(st.integers(-20, 20), rationals))
@settings(max_examples=100)
def test_rational_factor_matches_field_product(x, r):
    product = x * QuadScalar(r)
    for value in (x * r, r * x):
        assert (value.a, value.b, value.m) == (product.a, product.b, product.m)


@given(scalars())
@settings(max_examples=100)
def test_conjugation_norm_sign(x):
    norm_sign = (x * x.conj()).sign()
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


def _pell_unit(k: int) -> QuadScalar:
    """(1 + sqrt(2))^-k = (sqrt(2) - 1)^k: parts of about 0.38 k digits that
    cancel to about 10^(-0.38 k)."""
    x, unit = QuadScalar(1), QuadScalar(-1, 1, 2)
    for _ in range(k):
        x = x * unit
    return x


def _near_cancelling(q: int, m: int, offset: int, d: int) -> QuadScalar:
    """(p + q sqrt(m)) / d with p the integer next to -q sqrt(m)."""
    root = isqrt(m * q * q)
    return QuadScalar(Fraction(offset - root if q > 0 else root + offset, d), Fraction(q, d), m)


_SQUAREFREE = st.sampled_from([2, 3, 5, 6, 7, 10, 23, 1009, 10**9 + 7])
_BIG = st.integers(-(10**40), 10**40)
_FLOAT_CASES = st.one_of(
    st.integers(0, 900).map(_pell_unit),
    st.builds(_near_cancelling, _BIG.filter(bool), _SQUAREFREE, st.integers(-3, 3), st.integers(1, 10**6)),
    st.builds(
        lambda a, b, d, m: QuadScalar(Fraction(a, d), Fraction(b, d), m),
        _BIG,
        _BIG,
        st.integers(1, 10**30),
        _SQUAREFREE,
    ),
)


@given(_FLOAT_CASES)
@settings(max_examples=300, deadline=None)
def test_float_is_the_nearest_double(x):
    """float() rounds the exact value once, to the nearest double: checked
    against a Decimal of at least 50 correct digits, on Pell units (1 +
    sqrt(2))^-k down past the subnormal range, and on parts that cancel."""
    assert float(x) == decimal_float(x.p, x.q, x.d, x.m)
    assert float(-x) == -float(x)


def test_float_renderings_that_once_rounded_twice():
    # float(a) + float(b) * m ** 0.5 rounded three times, and lost digits
    # when a and b sqrt(m) cancel
    assert f"{float(QuadScalar(0, Fraction(-2, 23), 23)):.15g}" == "-0.41702882811415"
    assert f"{float(QuadScalar(665857, -470832, 2)):.15g}" == "7.50911982603295e-07"
    assert float(_pell_unit(900)) == 0.0
    with pytest.raises(OverflowError):
        float(QuadScalar(10**400, 1, 2))
    with pytest.raises(OverflowError):
        float(QuadScalar(-(10**400), 10**399, 2))


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


@pytest.mark.parametrize("text", ["1 2", "1/2 1/2", "sqrt(2) sqrt(2)", "sqrt(2) 3", "1 + 2 3"])
def test_parse_rejects_a_term_without_its_sign(text):
    # each once parsed as the sum of its terms: 3, 1, 2*sqrt(2), ...
    with pytest.raises(ValueError, match="cannot parse scalar"):
        parse_quad(text)


def test_parse_keeps_a_coefficient_with_its_root():
    assert parse_quad("3 sqrt(5)") == parse_quad("3*sqrt(5)") == QuadScalar(0, 3, 5)
    assert parse_quad("1 - 3 sqrt(5)") == QuadScalar(1, -3, 5)
    assert parse_quad(" 7 ") == QuadScalar(7)


def test_complex_arithmetic():
    z = QuadComplex(QuadScalar(1), QuadScalar(0, 1, 2))
    w = QuadComplex(QuadScalar(0, 1, 2), QuadScalar(-1))
    prod = z * w
    assert prod == QuadComplex(QuadScalar(0, 2, 2), QuadScalar(1))
    assert complex_quotient(prod, w) == z
    assert z * z.conj() == QuadComplex(QuadScalar(3))
    with pytest.raises(ZeroDivisionError):
        complex_quotient(z, QuadComplex(0, 0))
    with pytest.raises(TypeError):
        z / w  # no code of the library divides complex numbers


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


# ---------------------------------------------------------------------------
# Arithmetic builds its results with `QuadScalar._ints`, which trusts its
# radicand: they must be what the public constructor makes of the same parts.


def _assert_invariant(x):
    """The canonical form (p + q sqrt(m)) / d: integers, d > 0,
    gcd(p, q, d) = 1, m square-free, and m = 0 exactly when q = 0."""
    assert {type(x.p), type(x.q), type(x.d), type(x.m)} == {int}, x
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1, x
    if x.q:
        assert x.m > 1 and squarefree_split(x.m) == (1, x.m), x
    else:
        assert x.m == 0, x


def _assert_canonical(value, reference):
    _assert_invariant(value)
    assert (type(value.a), type(value.b)) == (Fraction, Fraction)
    assert (value.a, value.b, value.m) == (reference.a, reference.b, reference.m)
    assert value == reference and hash(value) == hash(reference)
    assert str(value) == str(reference)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arithmetic_results_match_the_public_constructor(data):
    m = data.draw(st.sampled_from([0, 2, 3, 5, 23]))
    # each operand over Q or over Q(sqrt m); a small pool makes equal parts,
    # hence cancelling radicals, frequent
    parts = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]), rationals)
    x = QuadScalar(data.draw(parts), data.draw(parts), data.draw(st.sampled_from([0, m])))
    y = QuadScalar(data.draw(parts), data.draw(parts), data.draw(st.sampled_from([0, m])))
    r = data.draw(st.one_of(st.integers(-5, 5), rationals))
    k = x.m or y.m  # the joined field
    cases = [
        (x + y, QuadScalar(x.a + y.a, x.b + y.b, k)),
        (x - y, QuadScalar(x.a - y.a, x.b - y.b, k)),
        (x * y, QuadScalar(x.a * y.a + k * x.b * y.b, x.a * y.b + x.b * y.a, k)),
        (x * r, QuadScalar(x.a * r, x.b * r, x.m)),
        (r * x, QuadScalar(x.a * r, x.b * r, x.m)),
        (x + r, QuadScalar(x.a + r, x.b, x.m)),
        (-x, QuadScalar(-x.a, -x.b, x.m)),
        (x.conj(), QuadScalar(x.a, -x.b, x.m)),
    ]
    if y:
        n = (y * y.conj()).as_fraction()
        inv = QuadScalar(y.a / n, -y.b / n, y.m)
        cases.append((y.inverse(), inv))
        cases.append((x / y, QuadScalar(x.a * inv.a + k * x.b * inv.b, x.a * inv.b + x.b * inv.a, k)))
    for value, reference in cases:
        _assert_canonical(value, reference)
    # the radical cancels: the result is rational, with m == 0
    for value in (x - x, x + (-x), x * x.conj(), x.conj() * x):
        _assert_canonical(value, QuadScalar(value.a, value.b, 0))
        assert value.m == 0 and value.is_rational



# ---------------------------------------------------------------------------
# `QuadScalar` against the Fraction-pair oracle `FractionQuadScalar`.

# (name, operation on (x, y, r)): x and y are scalars of one implementation,
# r is an int or a Fraction
_OPERATIONS = [
    ("add", lambda x, y, r: x + y),
    ("sub", lambda x, y, r: x - y),
    ("mul", lambda x, y, r: x * y),
    ("div", lambda x, y, r: x / y),
    ("add-rational", lambda x, y, r: x + r),
    ("sub-rational", lambda x, y, r: x - r),
    ("mul-rational", lambda x, y, r: x * r),
    ("div-rational", lambda x, y, r: x / r),
    ("radd", lambda x, y, r: r + x),
    ("rmul", lambda x, y, r: r * x),
    ("inverse", lambda x, y, r: x.inverse()),
    ("neg", lambda x, y, r: -x),
    ("conj", lambda x, y, r: x.conj()),
    ("norm", lambda x, y, r: x * x.conj()),
    ("sign", lambda x, y, r: x.sign()),
    ("eq", lambda x, y, r: x == y),
    ("eq-rational", lambda x, y, r: x == r),
    ("req-rational", lambda x, y, r: r == x),
    ("hash-if-rational", lambda x, y, r: hash(x) if x.is_rational else None),
    ("bool", lambda x, y, r: bool(x)),
    ("str", lambda x, y, r: str(x)),
    ("float", lambda x, y, r: float(x)),
    ("is_rational", lambda x, y, r: x.is_rational),
    ("as_fraction", lambda x, y, r: x.as_fraction()),
    ("as_int", lambda x, y, r: x.as_int()),
]


def _outcome(operation, x, y, r):
    """What an operation gives, comparable across the two implementations:
    a scalar as (a, b, m, str), any other value with its type, and an error
    as its type and message."""
    try:
        value = operation(x, y, r)
    except (ValueError, ZeroDivisionError) as exc:  # FieldMismatch included
        return type(exc), str(exc)
    if isinstance(value, QuadScalar):
        _assert_invariant(value)
    if isinstance(value, (QuadScalar, FractionQuadScalar)):
        return "scalar", value.a, value.b, value.m, str(value)
    return type(value), value


_PARTS = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]), rationals)
# non-square-free radicands exercise the constructor's split: 8 and 18 are
# Q(sqrt 2), 12 is Q(sqrt 3)
_RADICANDS = st.sampled_from([0, 2, 3, 5, 8, 12, 18])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_quad_scalar_agrees_with_the_fraction_oracle(data):
    (ax, bx, ay, by) = (data.draw(_PARTS) for _ in range(4))
    mx = data.draw(_RADICANDS)
    my = data.draw(st.one_of(st.just(mx), _RADICANDS))
    r = data.draw(st.one_of(st.integers(-5, 5), rationals))
    x, y = QuadScalar(ax, bx, mx), QuadScalar(ay, by, my)
    ox, oy = FractionQuadScalar(ax, bx, mx), FractionQuadScalar(ay, by, my)
    _assert_invariant(x)
    _assert_invariant(y)
    for name, operation in _OPERATIONS:
        got, expected = _outcome(operation, x, y, r), _outcome(operation, ox, oy, r)
        assert got == expected, (name, x, y, r)


@pytest.mark.parametrize("kind", [QuadScalar, FractionQuadScalar])
@pytest.mark.parametrize("operation", [add, sub, mul, truediv])
def test_mixed_radicands_raise_in_both_implementations(kind, operation):
    x, y = kind(1, 1, 12), kind(0, 1, 8)  # 1 + 2 sqrt(3) and 2 sqrt(2)
    with pytest.raises(FieldMismatch, match=r"sqrt\(3\) vs sqrt\(2\)"):
        operation(x, y)


def test_numerators_of_4000_digits_render_as_the_oracle_renders():
    a = Fraction(7**4700 + 1, 11**3800)
    b = Fraction(-(3**8300), 13**3500)
    x, ox = QuadScalar(a, b, 20), FractionQuadScalar(a, b, 20)
    # a and b have numerators of about 4000 digits; p, over the common
    # denominator, has about 7900, past the int-to-str limit that rendering
    # through the reduced parts never meets
    assert 3900 < len(str(a.numerator)) < 4300 and x.p.bit_length() > 25000
    results = (
        (x, ox),
        (-x, -ox),
        (x + 3, ox + 3),
        (x - x.conj(), ox - ox.conj()),
        (x * Fraction(2, 11), ox * Fraction(2, 11)),
    )
    for value, expected in results:
        _assert_invariant(value)
        assert str(value) == str(expected)


def test_pairing_and_scalar_arithmetic_build_no_fraction(monkeypatch):
    """Pairing two irrational vectors, rendering their coordinates, and the
    arithmetic of two irrational scalars construct no Fraction."""
    x = LatticeVector([QuadScalar(Fraction(1, 3), Fraction(2, 5), 7)] * 3 + [Fraction(3, 4)] + [0] * 18)
    y = LatticeVector([QuadScalar(Fraction(-5, 6), Fraction(1, 9), 7)] * 2 + [0] * 20)
    s, t = QuadScalar(Fraction(3, 7), Fraction(-2, 9), 7), QuadScalar(Fraction(5, 4), Fraction(1, 6), 7)
    half = Fraction(1, 2)
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    values = [pair(x, y), pair(y, x), s * t, s + t, s - t, s * 3, s * half, s + half]
    values += [s.inverse(), -s, s.conj(), s / t]
    values += list((x * s).coords) + list((y * half).coords)
    signs = [v.sign() for v in values]
    monkeypatch.undo()
    assert made == []
    assert any(not v.is_rational for v in values) and signs
