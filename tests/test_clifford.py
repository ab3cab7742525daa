import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import verify

from spinbits.clifford import (
    CliffordElem,
    blade_product,
    chirality_involution,
    clifford_apply,
    delta_iso,
    exp_bivector,
    generator_action,
    generator_phase,
    lambda_vector,
    volume_element,
    word_apply,
    word_phase,
)
from spinbits.matrices import tensor_oracle
from spinbits.scalars import Angle, HALF, I, ONE, SQRT2, Scalar, accumulate
from spinbits.spinors import Spinor, chirality, hermitian, parity, real_structure, real_structure_phase

from dense_oracle import spinor_to_column


def test_generator_action_examples():
    # the universal bit rule: e_5 flips bit 2 and reads bits 0..1
    assert clifford_apply(8, 5, Spinor.basis(4, 11)) == Spinor.basis(4, 15, I)
    # the tabulated e_5 u_10 illustration misprints the index; the rule
    # (and the tensor oracle) force the bit-2 flip to 14 with sign -i
    assert clifford_apply(8, 5, Spinor.basis(4, 10)) == Spinor.basis(4, 14, -I)

    assert clifford_apply(6, 1, Spinor.basis(3, 0)) == Spinor.basis(3, 1, I)
    assert clifford_apply(6, 2, Spinor.basis(3, 3)) == Spinor.basis(3, 2, -ONE)
    assert clifford_apply(3, 3, Spinor.basis(1, 0)) == Spinor.basis(1, 0, -I)


def test_generator_action_out_of_range():
    with pytest.raises(ValueError):
        clifford_apply(6, 7, Spinor.basis(3, 0))
    with pytest.raises(ValueError):
        clifford_apply(8, 1, Spinor.basis(3, 0))


def test_universality_for_low_generators():
    # for p < n the action is literally independent of the dimension
    for p in range(1, 6):
        for a in range(8):
            images = set()
            for n in (6, 8, 10, 12):
                c, b = generator_action(n, p, a)
                images.add((hash(c), b))
            assert len(images) == 1


def test_word_apply_examples():
    assert word_apply(6, [1, 2], Spinor.basis(3, 0)) == Spinor.basis(3, 0, I)
    rng = random.Random(4)
    for _ in range(20):
        psi = Spinor.basis(4, rng.randrange(16), Scalar.rational(rng.randint(1, 5)))
        assert word_apply(8, [1, 1], psi) == psi.scale(-ONE)


def test_algebra_product_examples():
    e1 = CliffordElem.generator(8, 1)
    e2 = CliffordElem.generator(8, 2)
    minus_one = -CliffordElem.one(8)
    assert e1 * e1 == minus_one
    assert e2 * e1 == -(e1 * e2)
    b = e1 * e2
    assert b * b == minus_one


def test_blade_product_signs():
    # e13 * e2: moving e2 past e3 costs one transposition
    sgn, mask = blade_product(0b101, 0b010)
    assert (sgn, mask) == (-1, 0b111)
    sgn, mask = blade_product(0b1, 0b1)
    assert (sgn, mask) == (-1, 0)


def test_operator_anticommutation():
    for n in (4, 6, 8):
        k = n // 2
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for a in range(1 << k):
                    u = Spinor.basis(k, a)
                    anti = clifford_apply(n, p, clifford_apply(n, q, u)) + clifford_apply(
                        n, q, clifford_apply(n, p, u)
                    )
                    want = u.scale(Scalar.rational(-2)) if p == q else Spinor.zero(k)
                    assert anti == want


def test_skew_symmetry_of_clifford_multiplication():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.choice([2, 4, 6, 8])
        k = n // 2
        p = rng.randint(1, n)
        v = Spinor.basis(k, rng.randrange(1 << k), I + Scalar.rational(rng.randint(-2, 2)))
        w = Spinor.basis(k, rng.randrange(1 << k), Scalar.rational(rng.randint(-3, 3), 2))
        assert hermitian(clifford_apply(n, p, v), w) == -hermitian(v, clifford_apply(n, p, w))


def test_volume_element_and_chirality():
    vol = volume_element(8)
    assert vol.apply(Spinor.basis(4, 0)) == Spinor.basis(4, 0)


def test_volume_involution_at_stage_2():
    for a in (0, 1):
        u = Spinor.basis(1, a)
        assert chirality_involution(2, u) == u.scale(Scalar.rational(chirality(a)))


def test_chirality_involution_matches_parity():
    for n in (2, 4, 6, 8, 10):
        k = n // 2
        for a in range(1 << k):
            u = Spinor.basis(k, a)
            assert chirality_involution(n, u) == u.scale(Scalar.rational(chirality(a)))


def test_exp_bivector_identity_and_rejection():
    assert exp_bivector(8, [(Angle(0), (2, 3)), (Angle(0), (6, 7))]) == CliffordElem.one(8)
    with pytest.raises(ValueError):
        exp_bivector(8, [(Angle(3), (1, 2)), (Angle(3), (2, 3))])


def test_exp_bivector_four_term_expansion():
    # exp(t(e2e3 + e6e7)) = (1 + cos2t + (e2e3 + e6e7) sin2t + e2e3e6e7 (1 - cos2t)) / 2
    for kk in (1, 2, 3, 4, 6):
        t = Angle(kk)
        dbl = Angle(2 * kk)
        got = exp_bivector(8, [(t, (2, 3)), (t, (6, 7))])
        half = Scalar.rational(1, 2)
        e23 = CliffordElem.from_word(8, [2, 3])
        e67 = CliffordElem.from_word(8, [6, 7])
        e2367 = CliffordElem.from_word(8, [2, 3, 6, 7])
        want = (
            CliffordElem.one(8).scale(ONE + dbl.cos())
            + (e23 + e67).scale(dbl.sin())
            + e2367.scale(ONE - dbl.cos())
        ).scale(half)
        assert got == want


def test_quarter_turn_product_matches_tabulated_expansion():
    # at t = pi/4 the product is (1 + e2e3 + e6e7 + e2e3e6e7)/2
    got = exp_bivector(8, [(Angle(3), (2, 3)), (Angle(3), (6, 7))])
    half = Scalar.rational(1, 2)
    want = (
        CliffordElem.one(8)
        + CliffordElem.from_word(8, [2, 3])
        + CliffordElem.from_word(8, [6, 7])
        + CliffordElem.from_word(8, [2, 3, 6, 7])
    ).scale(half)
    assert got == want


def test_lambda_vector_examples():
    e = lambda i: CliffordElem.generator(6, i)
    assert lambda_vector(6, [1, 2], e(1)) == -e(1)
    assert lambda_vector(6, [1, 2], e(3)) == e(3)
    # rotation doubling at exact angles: g = cos t + sin t e1e2
    for kk in range(24):
        t = Angle(kk)
        g = exp_bivector(6, [(t, (1, 2))])
        img = lambda_vector(6, g, e(1))
        dbl = Angle(2 * kk)
        assert img == e(1).scale(dbl.cos()) + e(2).scale(dbl.sin())


def test_lambda_vector_rejects_higher_grade():
    y = CliffordElem.from_word(6, [1, 2])
    with pytest.raises(ValueError):
        lambda_vector(6, [1, 2], y)


def test_reversion():
    x = CliffordElem.from_word(8, [1, 2, 3])
    assert x.reverse() == CliffordElem.from_word(8, [3, 2, 1])
    y = CliffordElem.from_word(8, [1, 2]) + CliffordElem.one(8)
    assert y.reverse() == CliffordElem.from_word(8, [2, 1]) + CliffordElem.one(8)


def test_clifford_repr_of_a_sum():
    x = CliffordElem(3, {
        0b101: -ONE, 0: ONE + I, 0b011: ONE, 0b100: -I, 0b111: -HALF, 0b010: SQRT2 - ONE,
    })
    assert repr(x) == (
        "(1 + 1i)1 + (-1 + 1*sqrt2)e2 + (1)e1e2 + (-1i)e3 + (-1)e1e3 + (-1/2)e1e2e3"
    )
    # a scalar-only term keeps its coefficient, even when that is +-1
    for c, text in ((ONE, "(1)1"), (-ONE, "(-1)1"), (I, "(1i)1")):
        assert repr(CliffordElem(2, {0: c})) == text
    assert repr(CliffordElem(2)) == "0"


def test_only_spinors_and_forms_print_as_latex():
    """CliffordElem names no key in LaTeX, so it has no latex() to raise AttributeError."""
    from spinbits.forms import ExtForm

    assert not hasattr(CliffordElem(2, {0: 1}), "latex")
    assert not hasattr(CliffordElem, "_latex_term")
    assert Spinor(2, {1: 1}).latex() == "u_{1}" and ExtForm.dx(1, 2).latex() == "dx_{1}\\wedge dx_{2}"


def test_int_and_fraction_coefficients_become_scalars():
    x = CliffordElem(2, {0: Fraction(1, 2), 3: -1, 1: 0})
    assert repr(x) == "(1/2)1 + (-1)e1e2"
    assert x == CliffordElem(2, {0: Scalar.rational(1, 2), 3: -ONE})


def test_one_constructor_checks_keys_coerces_and_drops_zeros():
    from spinbits.forms import ExtForm

    cases = [
        (lambda: Spinor(2, {4: ONE}), "index 4 out of range for k=2"),
        (lambda: Spinor(2, {-1: ONE}), "index -1 out of range for k=2"),
        (lambda: CliffordElem(3, {8: ONE}), "monomial mask 8 out of range for n=3"),
        (lambda: ExtForm(2, {(2, 1): 1}), "bad index subset (2, 1) for degree 2"),
        (lambda: ExtForm(2, {(1,): 1}), "bad index subset (1,) for degree 2"),
        (lambda: ExtForm(2, {(0, 3): 1}), "index out of range in (0, 3)"),
        (lambda: ExtForm(9), "degree out of range"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    with pytest.raises(TypeError):  # a coefficient outside the field
        Spinor(2, {1: 0.5})
    # keys kept (a form's as a tuple), coefficients coerced, zeros dropped, order kept
    u = Spinor(3, {5: 2, 1: Fraction(1, 2), 2: 0})
    assert list(u.terms.items()) == [(5, Scalar.rational(2)), (1, HALF)] and u.k == 3
    w = ExtForm(2, {range(1, 3): 2, (2, 4): Fraction(0)})
    assert list(w.terms.items()) == [((1, 2), Fraction(2))] and w.degree == 2
    assert CliffordElem(2).terms == {} and CliffordElem(2).n == 2


@st.composite
def combination_terms(draw):
    k = draw(st.integers(1, 5))
    terms = draw(st.dictionaries(
        st.integers(0, (1 << k) - 1),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
        max_size=5,
    ))
    return k, {a: Scalar.rational(re) + I * Scalar.rational(im) for a, (re, im) in terms.items()}


@settings(max_examples=100, deadline=None)
@given(combination_terms(), combination_terms())
def test_equal_combinations_hash_equal(kt, other):
    k, terms = kt
    backwards = dict(reversed(list(terms.items())))
    for cls in (Spinor, CliffordElem):
        x, y = cls(k, terms), cls(k, backwards)
        assert x == y and hash(x) == hash(y)
        # the same value reached through a sum and a difference
        z = cls(*other) if other[0] == k else cls(k)
        assert (x + z) - z == x and hash((x + z) - z) == hash(x)
    # a spinor and an algebra element are never equal, whatever their terms
    assert Spinor(k, terms) != CliffordElem(k, terms)


def test_delta_iso_examples():
    assert delta_iso(2, Spinor.basis(1, 0)) == Spinor.basis(2, 0)
    assert delta_iso(2, Spinor.basis(1, 1)) == Spinor.basis(2, 3)
    assert delta_iso(3, Spinor.basis(2, 1)) == Spinor.basis(3, 5)
    # a = 5 already has even parity at width 3
    assert delta_iso(4, Spinor.basis(3, 5)) == Spinor.basis(4, 5)


def test_delta_iso_equivariance():
    for k in range(2, 6):
        n = 2 * k
        for a in range(1 << (k - 1)):
            u = Spinor.basis(k - 1, a)
            fu = delta_iso(k, u)
            assert parity(next(iter(fu.terms))) == 0
            for p in range(1, 2 * k - 1):
                for q in range(p + 1, 2 * k):
                    lhs = delta_iso(k, word_apply(2 * k - 1, [p, q], u))
                    rhs = word_apply(n, [p, q], fu)
                    assert lhs == rhs


def test_algebra_product_compatible_with_spinor_action():
    rng = random.Random(55)

    def rand_scalar():
        return Scalar.rational(rng.randint(-4, 4)) + I * Scalar.rational(rng.randint(-4, 4))

    def rand_elem(n, terms):
        out = CliffordElem(n)
        for _ in range(terms):
            out = out + CliffordElem(n, {rng.randrange(1 << n): rand_scalar()})
        return out

    for _ in range(40):
        n, k = 6, 3
        x, y = rand_elem(n, 2), rand_elem(n, 2)
        psi = Spinor.basis(k, rng.randrange(1 << k), rand_scalar())
        assert (x * y).apply(psi) == x.apply(y.apply(psi))


def test_kernel_matches_oracle_spot():
    for n in (5, 9):
        k = n // 2
        oracle = tensor_oracle(n)
        for p in range(1, n + 1):
            for a in range(1 << k):
                col = spinor_to_column(clifford_apply(n, p, Spinor.basis(k, a)))
                assert [row[a] for row in oracle[p - 1].to_matrix().data] == col


def test_generator_action_wraps_the_int_phase_rule():
    for n in range(1, 11):
        for p in range(1, n + 1):
            for a in range(1 << (n // 2)):
                e, b = generator_phase(n, p, a)
                assert 0 <= e < 4 and generator_action(n, p, a) == (Scalar.i_power(e), b)


def test_word_phase_equals_word_apply():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 14)
        k = n // 2
        word = [rng.randint(1, n) for _ in range(rng.randint(0, 5))]
        a = rng.randrange(1 << k)
        e, b = word_phase(n, word, a)
        assert word_apply(n, word, Spinor.basis(k, a)) == Spinor.basis(k, b, Scalar.i_power(e))


@st.composite
def sparse_spinors(draw):
    n = draw(st.integers(1, 40))
    k = n // 2
    terms = draw(st.dictionaries(
        st.integers(0, (1 << k) - 1),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any),
        min_size=1, max_size=4,
    ))
    coeffs = {a: Scalar.rational(re) + I * Scalar.rational(im) for a, (re, im) in terms.items()}
    return n, Spinor(k, coeffs)


@settings(max_examples=150, deadline=None)
@given(sparse_spinors(), st.data())
def test_generators_anticommute_on_sparse_spinors(n_psi, data):
    # e_p e_q + e_q e_p = -2 delta_pq, on spinors far beyond any dense matrix
    n, psi = n_psi
    p = data.draw(st.integers(1, n))
    q = data.draw(st.integers(1, n))
    lhs = word_apply(n, [p, q], psi) + word_apply(n, [q, p], psi)
    assert lhs == psi.scale(-2 if p == q else 0)


def test_c1_names_a_flipped_phase(monkeypatch):
    def flipped(n, p, a):
        e, b = generator_phase(n, p, a)
        return ((e + 2) % 4 if (n, p, a) == (7, 5, 3) else e), b

    monkeypatch.setattr(verify, "generator_phase", flipped)
    report = verify.Report()
    verify.check_kernel_oracle(report, max_n=8)
    [check] = report.checks
    assert check.status == "fail" and check.witness == {"n": 7, "p": 5, "a": 3}


# -- the one-pass bit-flip maps against the routes they replaced -----------


def letter_route(n, word, psi):
    """The word applied one generator at a time, right to left."""
    for p in reversed(word):
        psi = clifford_apply(n, p, psi)
    return psi


def accumulate_route(x, image):
    """x with each term (key, c) replaced by image(key, c), summed into a new dict."""
    return x._like(accumulate({}, (image(key, c) for key, c in x.terms.items())))


COEFFS = (ONE, I, -HALF, SQRT2, Scalar.rational(3) - 2 * I, SQRT2 * I + HALF)


def mixed_terms(count, rng):
    """Every key below count, in a shuffled order, with rational and irrational coefficients."""
    keys = list(range(count))
    rng.shuffle(keys)
    return {key: COEFFS[t % len(COEFFS)] for t, key in enumerate(keys)}


def outcome(f, *args):
    """(type, space, terms in dict order) of f's result, or (type, message) of its error."""
    try:
        out = f(*args)
    except Exception as e:
        return type(e), str(e)
    return type(out), getattr(out, out._space), list(out.terms.items())


def test_word_apply_is_the_letter_route_on_every_short_word():
    rng = random.Random(16)
    for n in range(1, 9):
        psi = Spinor(n // 2, mixed_terms(1 << (n // 2), rng))
        for length in range(4):
            for word in itertools.product(range(1, n + 1), repeat=length):
                assert outcome(word_apply, n, word, psi) == outcome(letter_route, n, word, psi)


def test_word_apply_is_the_letter_route_on_long_words():
    rng = random.Random(61)
    for n in range(1, 13):
        psi = Spinor(n // 2, mixed_terms(1 << (n // 2), rng))
        words = [[], [n] * 5, [1, n, 1, n, 1]]  # the odd top generator at odd n, repeated letters
        words += [[rng.randint(1, n) for _ in range(rng.randint(4, 12))] for _ in range(40)]
        for word in words:
            assert outcome(word_apply, n, word, psi) == outcome(letter_route, n, word, psi)


def test_word_apply_raises_as_the_letter_route():
    psi, zero = Spinor(3, {5: I, 2: -HALF}), Spinor.zero(3)
    cases = {
        (6, (1, 7, 2), psi): (ValueError, "generator index 7 out of range for n=6"),
        (6, (7, 3, 0), psi): (ValueError, "generator index 0 out of range for n=6"),
        (8, (1, 2), psi): (ValueError, "spinor width 3 does not match n=8"),
        (8, (1, 9), psi): (ValueError, "spinor width 3 does not match n=8"),
        (8, (1,), zero): (ValueError, "spinor width 3 does not match n=8"),
        (8, (), psi): (Spinor, 3, list(psi.terms.items())),  # the empty word checks nothing
        (6, (7,), zero): (Spinor, 3, []),  # nor is a zero spinor checked against the word
    }
    for (n, word, v), expected in cases.items():
        assert outcome(word_apply, n, word, v) == outcome(letter_route, n, word, v) == expected


def test_real_structure_is_the_accumulate_route():
    rng = random.Random(9)
    for n in range(1, 13):
        def image(a, c):
            e, b = real_structure_phase(n, a)
            return b, c.conjugate() * Scalar.i_power(e)

        full = mixed_terms(1 << (n // 2), rng)
        for psi in (Spinor(n // 2, full), Spinor(n // 2, dict(list(full.items())[::3])), Spinor.zero(n // 2)):
            old = outcome(accumulate_route, psi, image)
            assert outcome(real_structure, n, psi) == old
            assert (old[0] is ValueError) == (n < 2 and bool(psi.terms))
    assert outcome(real_structure, 8, Spinor.zero(3)) == (ValueError, "spinor width 3 does not match n=8")


def test_reverse_is_the_accumulate_route():
    rng = random.Random(12)
    for n in range(0, 7):
        x = CliffordElem(n, mixed_terms(1 << n, rng))
        old = outcome(accumulate_route, x, lambda m, c: (m, -c if m.bit_count() & 2 else c))
        assert outcome(x.reverse) == old
