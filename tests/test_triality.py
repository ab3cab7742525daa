import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import reference as ref
from spinbits import triality, verify
from spinbits.clifford import CliffordElem, volume_element
from spinbits.matrices import Matrix, Subspace
from spinbits.scalars import Angle, I, ONE, SQRT3, Scalar, INV_SQRT2, ZERO
from spinbits.spinors import Spinor

from dense_oracle import frame_kappa_real_matrix
from spinbits.triality import (
    PAIR_ORDER,
    apply_bivector_to_spinor,
    bivector_bracket,
    bivector_span,
    build_outer,
    center_images,
    eigenspace,
    g2_action_matrix,
    g2_action_matrix_on,
    g2_generators,
    g2_structure,
    _g2_generators,
    group_automorphism,
    image_coeffs,
    kappa_real_matrix,
    omega_eigenvalue,
    s3_relations,
    span_contains,
    to_coeffs,
    to_vector,
)


def halves(terms):
    """A tabulated image line, whose int entries are twice the image's."""
    return {q: Fraction(c, 2) for q, c in terms.items()}


def test_sigma_star_matches_all_tabulated_lines():
    sig = build_outer("sigma")
    expected = ref.line_table(ref.SIGMA_LINES)
    for p in PAIR_ORDER:
        assert image_coeffs(sig, p) == halves(expected[p])


def test_tau_star_matches_all_tabulated_lines():
    tau = build_outer("tau")
    expected = ref.line_table(ref.TAU_LINES)
    for p in PAIR_ORDER:
        assert image_coeffs(tau, p) == halves(expected[p])


def test_outer_maps_match_printed_arrays():
    for which in ("sigma", "tau"):
        want = Matrix(
            [[Scalar.rational(x, 2) for x in row] for row in ref.outer_matrix_expected(which)]
        )
        assert build_outer(which) == want


def test_sigma_star_iterates_example():
    sig = build_outer("sigma")
    first = image_coeffs(sig, (1, 2))
    assert first == halves({(1, 2): -1, (3, 4): -1, (5, 6): -1, (7, 8): -1})
    second = to_coeffs(sig.apply(to_vector(first)))
    assert second == halves({(1, 2): -1, (3, 4): 1, (5, 6): 1, (7, 8): 1})
    third = to_coeffs(sig.apply(to_vector(second)))
    assert third == {(1, 2): ONE}


def test_orders():
    sig = build_outer("sigma")
    assert sig * sig * sig == Matrix.identity(28)
    tau = build_outer("tau")
    assert tau * tau == Matrix.identity(28)


def test_tau_star_line_example():
    tau = build_outer("tau")
    assert image_coeffs(tau, (2, 3)) == halves({(1, 4): 1, (2, 3): 1, (5, 8): 1, (6, 7): 1})


def test_s3_relations_all_pass():
    for name, ok in s3_relations():
        assert ok, name


def test_eigenspace_dimensions_and_members():
    sig, tau = build_outer("sigma"), build_outer("tau")
    dim, basis = eigenspace(sig, ONE)
    assert dim == 14
    g1 = {(2, 3): ONE, (6, 7): ONE}
    assert span_contains(Subspace(basis), g1)

    dim, basis = eigenspace(sig, omega_eigenvalue())
    assert dim == 7
    member = {
        (6, 8): ONE, (5, 7): -ONE, (2, 4): ONE, (1, 3): I * SQRT3,
    }
    assert span_contains(Subspace(basis), member)

    dim, _ = eigenspace(tau, ONE)
    assert dim == 21
    dim, _ = eigenspace(tau, -ONE)
    assert dim == 7


def test_eigenspace_rejects_unsupported_values():
    with pytest.raises(ValueError):
        eigenspace(build_outer("sigma"), I)


def test_tabulated_eigenvectors_satisfy_equations():
    sig = build_outer("sigma")
    for line, conj in ((ref.SIGMA_OMEGA_EIGENVECTORS, False), (ref.SIGMA_OMEGABAR_EIGENVECTORS, True)):
        lam = omega_eigenvalue(conj)
        for text in line:
            coeffs = ref.bivector_terms(text)
            assert to_coeffs(sig.apply(to_vector(coeffs))) == {p: lam * c for p, c in coeffs.items()}


def test_g2_structure_checks():
    res = g2_structure()
    assert len(res["generators"]) == 14
    for name, ok in res["checks"]:
        assert ok, name


def test_g2_annihilation_directly():
    gens = g2_generators()
    psi = (Spinor.basis(4, 0) - Spinor.basis(4, 15)).scale(INV_SQRT2)
    for g in gens:
        assert apply_bivector_to_spinor(g, psi).is_zero()


def test_g2_bracket_example():
    gens = g2_generators()
    a = {(2, 3): ONE, (6, 7): ONE}
    b = {(2, 4): ONE, (6, 8): -ONE}
    assert span_contains(bivector_span(gens), bivector_bracket(a, b))


def test_g2_action_matrix_display():
    zero = g2_action_matrix([0] * 14)
    assert zero == Matrix.zero(8, 8)

    # alpha_1 alone: entries follow the display with overall factor 2
    alphas = [1] + [0] * 13
    M = g2_action_matrix(alphas)
    two = Scalar.rational(2)
    assert M.data[1][2] == two and M.data[2][1] == -two
    assert M.data[5][6] == two and M.data[6][5] == -two
    assert all(M.data[0][c] == ZERO for c in range(8))

    # display equals the tabulated alpha-combination table entrywise
    rng = random.Random(12)
    for _ in range(5):
        alphas = [Fraction(rng.randint(-3, 3)) for _ in range(14)]
        M = g2_action_matrix(alphas)
        for r in range(1, 9):
            for c in range(1, 9):
                combo = ref.signed_ints(ref.G2_ACTION_DISPLAY.get((r, c), ""))
                want = sum(s * alphas[m - 1] for s, m in combo)
                assert M.data[r - 1][c - 1] == Scalar.from_fraction(2 * want)


def test_g2_action_same_on_both_frames():
    rng = random.Random(3)
    for _ in range(5):
        alphas = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(14)]
        plus = g2_action_matrix_on("plus", alphas)
        minus = g2_action_matrix_on("minus", alphas)
        assert plus == minus
        assert plus.is_antisymmetric()


def test_group_automorphism_sign_patterns():
    c, s = Angle(3).cos(), Angle(3).sin()

    def factor(pair, sgn):
        mask = (1 << (pair[0] - 1)) | (1 << (pair[1] - 1))
        return CliffordElem(8, {0: c, mask: s if sgn > 0 else -s})

    def product(signs):
        out = CliffordElem.one(8)
        for pair, sgn in zip(((1, 2), (3, 4), (5, 6), (7, 8)), signs):
            out = out * factor(pair, sgn)
        return out

    assert group_automorphism("sigma", (1, 2)) == product((-1, -1, -1, -1))
    assert group_automorphism("tau", (1, 2)) == product((1, 1, 1, 1))
    assert group_automorphism("sigma", (3, 4)) == product((1, 1, -1, -1))


def test_group_automorphism_unit_norm():
    g = group_automorphism("sigma", (2, 5))
    assert g * g.reverse() == CliffordElem.one(8)


def test_center_images():
    vol = volume_element(8)
    one = CliffordElem.one(8)
    sig = center_images("sigma")
    assert sig["-1"] == vol
    assert sig["vol"] == -vol
    assert sig["-vol"] == -one
    tau = center_images("tau")
    assert tau["-1"] == vol
    assert tau["vol"] == -one


def test_kappa_real_matrix_cache_matches_a_fresh_build():
    # the 56 inputs verify-all uses: every generator pair on both half-spinors
    for p in PAIR_ORDER:
        for sign in ("plus", "minus"):
            cached = kappa_real_matrix(list(p), sign)
            assert kappa_real_matrix(p, sign) is cached
            assert cached == frame_kappa_real_matrix(p, sign)


def test_kappa_real_matrix_rejects_odd_words():
    with pytest.raises(ValueError):
        kappa_real_matrix([1, 2, 3], "plus")


def test_g2_generators_are_parsed_once():
    fresh = [ref.bivector_terms(line) for line in ref.G2_GENERATORS]
    assert g2_generators() == fresh
    assert _g2_generators() is _g2_generators()
    assert all(a is b for a, b in zip(g2_generators(), g2_generators()))


def clifford_bracket(a, b):
    """Oracle for bivector_bracket: the commutator of the two combinations in Cl_8."""
    ea, eb = (sum((CliffordElem.blade(8, p, c) for p, c in x.items()), CliffordElem(8)) for x in (a, b))
    out = {}
    for mask, c in (ea * eb - eb * ea).terms.items():
        i, j = [t + 1 for t in range(8) if (mask >> t) & 1]
        out[(i, j)] = c
    return out


bivectors = st.dictionaries(
    st.sampled_from(PAIR_ORDER),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(Scalar.from_fraction),
    max_size=6,
)


@given(bivectors, bivectors)
@settings(max_examples=80, deadline=None)
def test_bracket_equals_the_clifford_commutator(a, b):
    assert bivector_bracket(a, b) == clifford_bracket(a, b)


def test_int_membership_agrees_with_the_scalar_route():
    """Oracle for span_contains on int combinations: the same combination as
    Scalars, through Subspace.__contains__; every nonzero multiple agrees."""
    rng = random.Random(4)
    sig, tau = build_outer("sigma"), build_outer("tau")
    spans = [bivector_span(g2_generators()), Subspace(eigenspace(tau, ONE)[1]),
             Subspace(eigenspace(sig, omega_eigenvalue())[1])]
    for span in spans:
        for t in range(30):
            # members: int combinations of the basis rows; odd t adds e_p, mostly a non-member
            vec = [sum((Scalar.rational(rng.randint(-3, 3)) * row[c] for row in span.rows), ZERO)
                   for c in range(28)]
            if t % 2:
                vec[rng.randrange(28)] += ONE
            coeffs = triality.to_coeffs(vec)
            want = span_contains(span, coeffs)
            assert want is (vec in span)
            if all(c.is_rational() for c in vec):
                [nums], _ = triality._int_coeffs([vec])
                for k in (1, -7):
                    ints = {p: k * x for p, x in zip(PAIR_ORDER, nums) if x}
                    assert span_contains(span, ints) is want
                    assert span.contains_ints([k * x for x in nums]) is want
            else:  # an int vector against a span with irrational rows
                e12 = [1] + [0] * 27
                assert span.contains_ints(e12) is ([ONE] + [ZERO] * 27 in span)


@given(bivectors, bivectors, st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_int_bracket_is_the_rational_bracket_scaled(a, b, k):
    """Int coefficients give the int bracket: that of the Scalar combinations
    times d^2, for their int numerators over the common denominator d."""
    [na, nb], d = triality._int_coeffs([list(a.values()), list(b.values())])
    ints = bivector_bracket(dict(zip(a, na)), dict(zip(b, nb)))
    assert all(type(c) is int for c in ints.values())
    assert {p: Scalar.rational(c) for p, c in ints.items() if c} == {
        p: c * d * d for p, c in bivector_bracket(a, b).items()}
    assert bivector_bracket({p: k * x for p, x in zip(a, na)}, dict(zip(b, nb))) == {
        p: k * c for p, c in ints.items()}


def test_corrupt_sigma_fails_c3_on_the_int_route(monkeypatch, flipped_sigma_table):
    compared = []
    real_eq = Matrix.__eq__

    def eq(self, other):
        compared.append((self._int_form() is not False, other._int_form() is not False))
        return real_eq(self, other)

    monkeypatch.setattr(Matrix, "__eq__", eq)
    report = verify.Report()
    verify.check_triality(report)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["C3 sigma* equals the tabulated 28x28 array"]
    assert compared[0] == (True, True)  # that first comparison ran on ints


def test_corrupt_g2_generator_fails_c4_span_checks(monkeypatch):
    bad = g2_generators()
    bad[3] = {p: -c if p == (2, 6) else c for p, c in bad[3].items()}  # "-126 +137" -> "+126 +137"
    monkeypatch.setattr(triality, "g2_generators", lambda: bad)
    report = verify.Report()
    verify.check_g2(report, 0, random.Random(1))
    failed = {c.name for c in report.checks if not c.passed}
    assert "C4 generators span the fixed space of sigma*" in failed
    assert "C4 g2 = spin7(e2..e8) intersect Fix(tau*)" in failed
    assert "C4 bracket closure of g2" in failed


@pytest.fixture
def fresh_triality_caches():
    """Clears the caches built from the kappa blocks before and after a test."""
    def clear():
        triality._kappa_real_matrix.cache_clear()
        build_outer.cache_clear()

    clear()
    yield
    clear()


def test_a_flipped_kappa_block_sign_fails_c3(monkeypatch, fresh_triality_caches):
    real_block = triality.real_block

    def flipped(r, word, which):
        block = real_block(r, word, which)
        return -block if (word, which) == ((2, 3), "plus") else block

    monkeypatch.setattr(triality, "real_block", flipped)
    report = verify.Report()
    verify.check_triality(report)
    failed = [c.name for c in report.checks if not c.passed]
    assert "C3 tau* equals the tabulated 28x28 array" in failed
    assert "C3 sigma* equals the tabulated 28x28 array" not in failed


def test_bracket_table_equals_the_clifford_commutator_on_every_basis_pair():
    table = triality._bracket_table()
    for p in PAIR_ORDER:
        for q in PAIR_ORDER:
            entry = table[p][q]
            got = {} if entry is None else {entry[0]: Scalar.rational(entry[1])}
            assert got == clifford_bracket({p: ONE}, {q: ONE}), (p, q)
    assert triality._bracket_table() is table


def add(*combos):
    out = {}
    for combo in combos:
        for p, c in combo.items():
            out[p] = out.get(p, ZERO) + c
    return {p: c for p, c in out.items() if c}


@given(bivectors, bivectors, bivectors)
@settings(max_examples=60, deadline=None)
def test_bracket_is_antisymmetric_and_satisfies_jacobi(a, b, c):
    br = bivector_bracket
    assert add(br(a, b), br(b, a)) == {}
    assert add(br(a, br(b, c)), br(b, br(c, a)), br(c, br(a, b))) == {}


def test_bracket_and_kappa_star_reject_bad_coefficients():
    with pytest.raises(ValueError):
        bivector_bracket({(1, 2): SQRT3}, {(2, 3): ONE})
    with pytest.raises(ValueError):
        triality.kappa_star_matrix({(1, 2): I}, "plus")
    with pytest.raises(KeyError):  # a pair outside PAIR_ORDER is no basis bivector
        bivector_bracket({(1, 2): ONE}, {(2, 1): ONE})


def scaled_sum_kappa_star(coeffs, sign):
    """Oracle for kappa_star_matrix: the sum of the scaled generator matrices."""
    out = Matrix.zero(8, 8)
    for (i, j), c in coeffs.items():
        out = out + kappa_real_matrix([i, j], sign).scale(c)
    return out


@given(bivectors)
@settings(max_examples=60, deadline=None)
def test_kappa_star_matrix_equals_the_scaled_sum(coeffs):
    for sign in ("plus", "minus"):
        assert triality.kappa_star_matrix(coeffs, sign) == scaled_sum_kappa_star(coeffs, sign)


def test_g2_action_equals_the_scaled_sum_of_its_generators():
    alphas = [Fraction(m - 6, m % 4 + 1) for m in range(14)]
    for sign in ("plus", "minus"):
        combo = add(*({p: Scalar.from_fraction(a) * c for p, c in g.items()}
                      for a, g in zip(alphas, g2_generators())))
        assert g2_action_matrix_on(sign, alphas) == scaled_sum_kappa_star(combo, sign)


def test_warm_g2_structure_reads_no_rational_matrix_as_scalars(monkeypatch):
    """C4's spans, kernels and bracket bases stay on int rows: once the outer
    maps are built, no rational Matrix has its Scalar entries read."""
    g2_structure()
    reads = []
    data = Matrix.data

    def read(self):
        if self._int_form():
            reads.append((self.rows, self.cols))
        return data.fget(self)

    monkeypatch.setattr(Matrix, "data", property(read))
    assert all(ok for _, ok in g2_structure()["checks"])
    assert reads == []


def test_g2_brackets_and_actions_make_no_scalar_product(monkeypatch):
    inside, entered, products = [0], {}, []
    real_mul = Scalar.__mul__

    def mul(x, y):
        if inside[0]:
            products.append((x, y))
        return real_mul(x, y)

    def counted(name, fn):
        def run(*args):
            entered[name] = entered.get(name, 0) + 1
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1
        return run

    monkeypatch.setattr(Scalar, "__mul__", mul)
    monkeypatch.setattr(Scalar, "__rmul__", mul)
    for name in ("bivector_bracket", "kappa_star_matrix"):
        monkeypatch.setattr(triality, name, counted(name, getattr(triality, name)))
    assert all(ok for _, ok in g2_structure()["checks"])
    assert all(ok for _, ok in s3_relations())
    report = verify.Report()
    verify.check_g2(report, 5, random.Random(1))
    assert report.fail_count == 0
    # g2_structure runs twice (once in check_g2): 686 brackets each; s3_relations
    # takes 56 actions and the 19 display trials 3 each
    assert entered == {"bivector_bracket": 2 * 686, "kappa_star_matrix": 56 + 3 * 19}
    assert products == []
