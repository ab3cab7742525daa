import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import reference as ref
from spinbits.forms import (
    ExtForm,
    canonical_term,
    contract_first,
    derivation_action,
    dualize_endomorphism,
    g2_three_form,
    omega_square,
    spin7_four_form,
    wedge,
)
from spinbits.matrices import Matrix
from spinbits.scalars import SQRT3
from spinbits.triality import g2_action_matrix_on, kappa_real_matrix


def f_form(i, j):
    return ExtForm(2, ref.line_table(ref.F_FORMS)[(i, j)])


def test_wedge_basics():
    dx1, dx2 = ExtForm.dx(1), ExtForm.dx(2)
    assert wedge(dx1, dx2) == ExtForm.dx(1, 2)
    assert wedge(dx1, dx1).is_zero()
    assert wedge(dx2, dx1) == ExtForm.dx(1, 2).scale(-1)


def test_wedge_degree_overflow():
    top = ExtForm.dx(1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(ValueError):
        wedge(top, ExtForm.dx(1))


def test_f23_squared_has_six_terms():
    f = f_form(2, 3)
    sq = wedge(f, f)
    assert len(sq.terms) == 6
    assert sq.coefficient((1, 4, 2, 3)) == 2
    assert sq.coefficient((1, 4, 5, 8)) == 2


def test_dualize_examples():
    assert dualize_endomorphism(kappa_real_matrix((2, 3), "plus")) == f_form(2, 3)
    assert dualize_endomorphism(kappa_real_matrix((7, 8), "plus")) == f_form(7, 8)
    assert dualize_endomorphism(Matrix.from_int_rows([[0] * 8] * 8)).is_zero()
    # a matrix over a denominator gives Fraction coefficients
    half = kappa_real_matrix((2, 3), "plus").scale(Fraction(3, 2))
    assert dualize_endomorphism(half) == f_form(2, 3).scale(Fraction(3, 2))
    assert f_form(2, 3) == ExtForm(2, {(1, 4): 1, (2, 3): 1, (5, 8): 1, (6, 7): 1})


def test_all_tabulated_two_forms():
    for p, terms in ref.line_table(ref.F_FORMS).items():
        got = dualize_endomorphism(kappa_real_matrix(p, "plus"))
        assert got == ExtForm(2, terms)


def test_four_form_display():
    om = spin7_four_form()
    gold = ExtForm.zero(4)
    for s, quad in ref.OMEGA_TERMS:
        gold = gold + ExtForm.dx(*quad).scale(6 * s)
    assert om == gold
    assert om.coefficient((1, 2, 3, 4)) == -6


def test_four_form_square_is_504_vol():
    assert omega_square() == ExtForm.dx(1, 2, 3, 4, 5, 6, 7, 8).scale(504)


def test_three_form_display():
    phi = g2_three_form()
    gold = ExtForm.zero(3)
    for s, tri in ref.PHI_FORM_TERMS:
        gold = gold + ExtForm.dx(*tri).scale(6 * s)
    assert phi == gold
    assert all(1 not in key for key in phi.terms)


def test_contraction_and_canonicalization():
    sign, key = canonical_term((1, 7, 2, 8))
    assert (sign, key) == (-1, (1, 2, 7, 8))
    form = ExtForm.dx(1, 3, 4) + ExtForm.dx(2, 3, 4)
    assert contract_first(form) == ExtForm.dx(3, 4)


def test_derivation_invariance():
    om = spin7_four_form()
    phi = g2_three_form()
    for m in range(14):
        alphas = [1 if t == m else 0 for t in range(14)]
        G = g2_action_matrix_on("plus", alphas)
        assert derivation_action(G, om).is_zero()
        assert derivation_action(G, phi).is_zero()


def test_derivation_nonzero_outside_stabilizer():
    # a generic rotation does not preserve the 4-form
    G = Matrix.from_int_rows(
        [[0, -1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]] + [[0] * 8] * 6
    )
    assert not derivation_action(G, spin7_four_form()).is_zero()


def fraction_derivation_action(G, form):
    """Oracle for derivation_action: each dx_m -> -sum_c G[m][c] dx_c, on the
    Fraction entries of G, as a sum of wedge products."""
    out = ExtForm.zero(form.degree)
    for key, c in form.terms.items():
        for slot, m in enumerate(key):
            image = ExtForm.zero(1)
            for col in range(8):
                image = image + ExtForm.dx(col + 1).scale(-G.data[m - 1][col].as_fraction())
            term = ExtForm(0, {(): c})
            for t, i in enumerate(key):
                term = wedge(term, image if t == slot else ExtForm.dx(i))
            out = out + term
    return out


def test_derivation_action_reads_int_rows_over_the_denominator():
    rng = random.Random(8)
    forms = [spin7_four_form(), g2_three_form(), ExtForm.dx(1, 5) + ExtForm.dx(2, 3).scale(Fraction(1, 3))]
    for den in (1, 2, 6):
        G = Matrix.from_int_rows([[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)], den)
        for form in forms:
            assert derivation_action(G, form) == fraction_derivation_action(G, form)
    for bad in (Matrix.identity(7), Matrix([[SQRT3] * 8] * 8)):
        with pytest.raises(ValueError):
            derivation_action(bad, forms[0])


subsets = st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=3)


@st.composite
def small_forms(draw):
    degree = draw(st.integers(min_value=0, max_value=3))
    form = ExtForm.zero(degree)
    for _ in range(draw(st.integers(0, 3))):
        idx = draw(st.lists(st.integers(1, 8), min_size=degree, max_size=degree, unique=True))
        c = draw(st.integers(-3, 3))
        form = form + ExtForm.dx(*idx).scale(c)
    return form


@given(small_forms(), small_forms())
@settings(max_examples=60, deadline=None)
def test_graded_anticommutativity(a, b):
    if a.degree + b.degree <= 8:
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


@given(small_forms(), small_forms(), small_forms())
@settings(max_examples=40, deadline=None)
def test_wedge_associativity(a, b, c):
    if a.degree + b.degree + c.degree <= 8:
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_latex_output():
    assert ExtForm.dx(1, 2).latex() == "dx_{1}\\wedge dx_{2}"


def test_the_four_form_is_built_once(monkeypatch):
    from spinbits import forms, verify

    wedges = []
    real_wedge = forms.wedge
    monkeypatch.setattr(forms, "wedge", lambda a, b: wedges.append(a.degree) or real_wedge(a, b))
    spin7_four_form.cache_clear()
    report = verify.Report()
    verify.check_forms(report)
    assert report.fail_count == 0
    # 21 squares of 2-forms, then one square of the 4-form for the top-form check
    assert wedges == [2] * 21 + [4]
    assert spin7_four_form() is spin7_four_form()
