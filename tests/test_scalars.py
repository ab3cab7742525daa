import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinbits.scalars import (
    Angle,
    HALF,
    I,
    INV_SQRT2,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    Scalar,
    draw_ints,
)

from scalar_oracle import DictScalar, scalar_of


def rand_components(rng):
    comps = {}
    for rad in (1, 2, 3, 6):
        if rng.random() < 0.6:
            comps[rad] = (
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            )
    return comps


def rand_scalar(rng):
    return scalar_of(rand_components(rng))


def test_radical_multiplication_table():
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == 2 * SQRT3
    assert SQRT3 * SQRT6 == 3 * SQRT2
    assert SQRT6 * SQRT6 == Scalar.rational(6)
    assert I * I == -ONE


def test_primitive_sixth_root_squares_to_cube_root():
    a = (ONE + I * SQRT3) * HALF
    assert a * a == (I * SQRT3 - ONE) * HALF


def test_inverse_examples():
    assert Scalar.rational(2).inverse() == HALF
    w = (I * SQRT3 - ONE) * HALF
    assert w.inverse() == w.conjugate()
    assert (ONE + SQRT2).inverse() == SQRT2 - ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugate_examples():
    assert (I * SQRT2).conjugate() == -I * SQRT2
    assert Scalar.rational(3, 4).conjugate() == Scalar.rational(3, 4)
    w = (I * SQRT3 - ONE) * HALF
    assert w.conjugate() == (-I * SQRT3 - ONE) * HALF


def test_cos_sin_special_values():
    assert (Angle(0).cos(), Angle(0).sin()) == (ONE, ZERO)
    assert (Angle(3).cos(), Angle(3).sin()) == (INV_SQRT2, INV_SQRT2)
    c, s = Angle(1).cos(), Angle(1).sin()
    assert c == (SQRT6 + SQRT2) * Scalar.rational(1, 4)
    assert s == (SQRT6 - SQRT2) * Scalar.rational(1, 4)


def test_pythagorean_identity_all_24_classes():
    for k in range(24):
        c, s = Angle(k).cos(), Angle(k).sin()
        assert c * c + s * s == ONE


def test_angle_arithmetic_consistency():
    for a in range(24):
        for b in range(0, 24, 5):
            lhs = Angle(a + b).cos()
            rhs = Angle(a).cos() * Angle(b).cos() - Angle(a).sin() * Angle(b).sin()
            assert lhs == rhs


def test_field_axioms_on_random_samples():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE


def test_conjugation_is_a_ring_involution():
    rng = random.Random(5)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def scalars(draw):
    comps = {}
    for rad in (1, 2, 3, 6):
        if draw(st.booleans()):
            comps[rad] = (draw(small_fracs), draw(small_fracs))
    return scalar_of(comps)


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_nonzero_scalars_invert(a):
    if a:
        assert a * a.inverse() == ONE


def test_json_payload():
    # one entry per nonzero radical part, each as re and im "p/q" strings
    x = Scalar.rational(3, 4) + I * SQRT2 * Scalar.rational(-1, 2)
    assert x.to_json() == {"1": {"re": "3/4", "im": "0/1"}, "sqrt2": {"re": "0/1", "im": "-1/2"}}
    assert ZERO.to_json() == {}
    keys = {"1": 1, "sqrt2": 2, "sqrt3": 3, "sqrt6": 6}
    rng = random.Random(3)
    for _ in range(50):
        parts = rand_components(rng)
        assert {keys[key]: (Fraction(pair["re"]), Fraction(pair["im"]))
                for key, pair in scalar_of(parts).to_json().items()} == {
                    rad: p for rad, p in parts.items() if any(p)}


def test_real_part():
    x = Scalar.rational(3, 4) + I * SQRT2 + SQRT3
    assert x.real_part() == Scalar.rational(3, 4) + SQRT3


def test_rational_takes_ints_and_fractions_and_rejects_floats():
    assert Scalar.rational(Fraction(-4, 6)) == Scalar.rational(-2, 3) == Scalar.rational(Fraction(2), -3)
    assert Scalar.rational(Fraction(0)) is ZERO
    for bad in ((0.5,), (1, 2.0)):
        with pytest.raises(TypeError):
            Scalar.rational(*bad)


def test_rationality_queries():
    assert Scalar.rational(7, 3).is_rational()
    assert Scalar.rational(7, 3).as_fraction() == Fraction(7, 3)
    assert not (SQRT2).is_rational()
    with pytest.raises(ValueError):
        SQRT2.as_fraction()


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=100, deadline=None)
def test_rational_hash_agrees_with_fraction(p, q):
    assert hash(Scalar.rational(p, q)) == hash(Fraction(p, q))


def test_rational_scalars_find_int_and_fraction_keys():
    assert hash(ZERO) == hash(0)
    assert {1: "x"}.get(Scalar.rational(1)) == "x"
    assert {Fraction(1, 2): "h"}.get(HALF) == "h"
    assert {ONE: "s"}.get(1) == "s"


# -- the integer-numerator core against the dict-of-Fraction oracle ---------

from math import gcd  # noqa: E402

from spinbits.scalars import _MUL, _make  # noqa: E402

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def dense_components(draw):
    """All 8 slots populated; the denominators are pairwise coprime non-units."""
    dens = draw(st.permutations(_PRIMES))[:8]
    nums = draw(st.lists(st.integers(-60, 60).filter(bool), min_size=8, max_size=8))
    fracs = [Fraction(p, q) for p, q in zip(nums, dens)]
    return {rad: (fracs[2 * k], fracs[2 * k + 1]) for k, rad in enumerate((1, 2, 3, 6))}


@st.composite
def sparse_components(draw):
    """Some slots zero, so rational values and trailing zero slots show up."""
    return {rad: (draw(small_fracs), draw(small_fracs) if draw(st.booleans()) else 0)
            for rad in (1, 2, 3, 6) if draw(st.booleans())}


def pair_of(comps):
    return scalar_of(comps), DictScalar(comps)


rational_components = st.fractions().map(lambda f: {1: (f, 0)})
pairs = st.one_of(dense_components(), sparse_components(), rational_components).map(pair_of)


def assert_canonical(x):
    n, d = x._n, x._d
    assert type(d) is int and d > 0
    assert all(type(v) is int for v in n) and len(n) <= 8
    assert gcd(d, *n) == 1
    assert not n or n[-1] != 0


def assert_same(x, y):
    """x (Scalar) and y (DictScalar) are the same value, printed the same way."""
    assert_canonical(x)
    assert x.to_json() == y.to_json()
    assert repr(x) == repr(y)
    assert x.latex() == y.latex()
    assert x.is_rational() == y.is_rational()
    assert bool(x) == bool(y)
    if y.is_rational():
        assert x.as_fraction() == y.as_fraction()
        assert hash(x) == hash(y) == hash(y.as_fraction())


@given(pairs, pairs)
@settings(max_examples=150, deadline=None)
def test_int_core_agrees_with_dict_oracle(pa, pb):
    (a, A), (b, B) = pa, pb
    assert_same(a, A)
    assert_same(a + b, A + B)
    assert_same(a - b, A - B)
    assert_same(a * b, A * B)
    assert_same(-a, -A)
    assert_same(a.conjugate(), A.conjugate())
    assert_same(a.real_part(), A.real_part())
    if B:
        assert_same(a * b.inverse(), A / B)
        assert_same(b.inverse(), B.inverse())
    assert (a == b) == (A == B)
    assert (a == a + ZERO) and hash(a) == hash(a + ZERO)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_rational_fast_path_agrees_with_oracle(p, q, k):
    a, A = pair_of({1: (Fraction(p, q), 0)})
    b, B = pair_of({1: (Fraction(k, 6), 0)})
    assert_same(a * b, A * B)
    assert_same(a + b, A + B)
    assert_same(a - b, A - B)
    if p:
        assert_same(a.inverse(), A.inverse())
    assert a * b == Fraction(p, q) * Fraction(k, 6)


def table_product(x, y):
    """Oracle for products with a unit: the 8 x 8 table product, written out on its own."""
    n = [0] * 8
    for a, v in enumerate(x._n):
        for b, w in enumerate(y._n):
            k, f = _MUL[a][b]
            n[k] += f * v * w
    return _make(n, x._d * y._d)


@given(pairs, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_unit_products_turn_the_numerators(pa, e):
    a, A = pa
    unit = {1: ((1, 0, -1, 0)[e], (0, 1, 0, -1)[e])}
    # the shared constant i^e and a unit built afresh
    for u in (Scalar.i_power(e), scalar_of(unit)):
        want = table_product(a, u)
        for got in (a * u, u * a):
            assert_canonical(got)
            assert (got._n, got._d) == (want._n, want._d)
            assert_same(got, A * DictScalar(unit))


def test_canonical_form_of_constants():
    for x in (ZERO, ONE, I, -I, SQRT2, SQRT3, SQRT6, HALF, INV_SQRT2):
        assert_canonical(x)
    assert ZERO._n == () and ONE._n == (1,) and I._n == (0, 1)
    assert INV_SQRT2._n == (0, 0, 1) and INV_SQRT2._d == 2
    assert [Scalar.i_power(e) for e in range(-4, 4)] == [ONE, I, -ONE, -I] * 2
    assert Scalar.i_power(7) is Scalar.i_power(-1)


def test_products_and_inverses_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    basis = [sympy.Integer(1), sympy.I]
    basis += [r * u for r in (sympy.sqrt(2), sympy.sqrt(3), sympy.sqrt(6)) for u in basis[:2]]

    def to_sympy(x):
        return sum((sympy.Rational(v, x._d) * u for v, u in zip(x._n, basis)), sympy.Integer(0))

    rng = random.Random(17)
    for _ in range(20):
        dens = rng.sample(_PRIMES, 8)
        fracs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), q) for q in dens]
        a = scalar_of({rad: (fracs[2 * k], fracs[2 * k + 1]) for k, rad in enumerate((1, 2, 3, 6))})
        b = rand_scalar(rng)
        assert sympy.expand(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0
        assert sympy.expand(to_sympy(a.inverse()) * to_sympy(a)) == 1


def randint_route(rng, ranges, count):
    """Oracle for draw_ints: one randint call per draw."""
    return [rng.randint(lo, hi) for _ in range(count) for lo, hi in ranges]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 300)), min_size=1, max_size=4),
       st.integers(0, 20))
def test_draw_ints_is_randint_in_values_and_state(seed, spans, count):
    ranges = [(lo, lo + width) for lo, width in spans]  # width 0 is a one-value range
    mine, theirs = random.Random(seed), random.Random(seed)
    assert draw_ints(mine, ranges, count) == randint_route(theirs, ranges, count)
    assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("ranges", [
    ((0, 0),), ((7, 7),), ((-5, 5), (1, 4)), ((-9, 9), (1, 9)), ((1, 12),),
    ((-2**70, 2**70),), ((0, 2**64 - 1), (3, 3)),
])
def test_draw_ints_fixed_ranges(ranges):
    for seed in range(20):
        mine, theirs = random.Random(seed), random.Random(seed)
        assert draw_ints(mine, ranges, 5) == randint_route(theirs, ranges, 5)
        assert draw_ints(mine, ranges) == randint_route(theirs, ranges, 1)
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("k", range(0, 9))
def test_draw_ints_is_randrange_below_a_power_of_two(k):
    mine, theirs = random.Random(k), random.Random(k)
    assert draw_ints(mine, ((0, (1 << k) - 1),), 30) == [theirs.randrange(1 << k) for _ in range(30)]
    assert mine.getstate() == theirs.getstate()


def test_draw_ints_rejects_an_empty_range_before_drawing():
    rng = random.Random(4)
    for ranges in (((1, 0),), ((0, 3), (2, -2))):
        with pytest.raises(ValueError):
            draw_ints(rng, ranges, 3)
        with pytest.raises(ValueError):
            random.Random(4).randint(*ranges[-1])
    assert rng.getstate() == random.Random(4).getstate()
    assert draw_ints(rng, ((0, 3),), 0) == [] and rng.getstate() == random.Random(4).getstate()
