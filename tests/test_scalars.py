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
    cos_sin,
)


def rand_scalar(rng):
    comps = {}
    for rad in (1, 2, 3, 6):
        if rng.random() < 0.6:
            comps[rad] = (
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            )
    return Scalar(comps)


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
    assert cos_sin(Angle(0)) == (ONE, ZERO)
    assert cos_sin(Angle(3)) == (INV_SQRT2, INV_SQRT2)
    c, s = cos_sin(Angle(1))
    assert c == (SQRT6 + SQRT2) * Scalar.rational(1, 4)
    assert s == (SQRT6 - SQRT2) * Scalar.rational(1, 4)


def test_pythagorean_identity_all_24_classes():
    for k in range(24):
        c, s = cos_sin(Angle(k))
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
    return Scalar(comps)


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_nonzero_scalars_invert(a):
    if a:
        assert a * a.inverse() == ONE


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_scalar(rng)
        assert Scalar.from_json(a.to_json()) == a
    assert ZERO.to_json() == {}
    assert Scalar.from_json({}) == ZERO


def test_real_and_imag_parts():
    x = Scalar.rational(3, 4) + I * SQRT2 + SQRT3
    assert x.real_part() == Scalar.rational(3, 4) + SQRT3
    assert x.imag_part() == SQRT2


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
