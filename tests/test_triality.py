import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import reference as ref
from spinbits import scalars, triality, verify
from spinbits.clifford import CliffordElem, volume_element
from spinbits.matrices import Matrix, Subspace, e_basis_decompose, ints_over_lcm
from spinbits.scalars import Angle, I, ONE, SQRT2, SQRT3, Scalar, INV_SQRT2, ZERO
from spinbits.spinors import Spinor

from dense_oracle import complement_in, frame_kappa_real_matrix, from_columns, intersect, scalar_product
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
    group_automorphism,
    image_coeffs,
    kappa_real_matrix,
    omega_eigenvalue,
    s3_relations,
    span_contains,
    to_coeffs,
    to_vector,
)


def test_sigma_star_matches_all_tabulated_lines():
    # a tabulated line's int entries are the image's numerators over 2
    sig = build_outer("sigma")
    expected = ref.line_table(ref.SIGMA_LINES)
    for p in PAIR_ORDER:
        assert image_coeffs(sig, p) == (expected[p], 2)


def test_tau_star_matches_all_tabulated_lines():
    tau = build_outer("tau")
    expected = ref.line_table(ref.TAU_LINES)
    for p in PAIR_ORDER:
        assert image_coeffs(tau, p) == (expected[p], 2)


def test_outer_maps_match_printed_arrays():
    for which in ("sigma", "tau"):
        want = Matrix(
            [[Scalar.rational(x, 2) for x in row] for row in ref.outer_matrix_expected(which)]
        )
        assert build_outer(which) == want


def scalar_column_outer(name):
    """Oracle for build_outer: column p holds Scalar halves of the E_kl
    coefficients of e_p's half-spinor action."""
    source = "minus" if name == "sigma" else "plus"
    cols = []
    for p in PAIR_ORDER:
        deco, den = e_basis_decompose(kappa_real_matrix(p, source))
        cols.append([Scalar.rational(deco.get(q, 0), 2 * den) for q in PAIR_ORDER])
    return from_columns(cols)


@pytest.mark.parametrize("name", ["sigma", "tau"])
def test_outer_int_rows_equal_the_scalar_column_route(name):
    got, want = build_outer(name), scalar_column_outer(name)
    assert got == want and got.data == want.data
    assert got.ints[1] == 2 and want.ints is False


def test_sigma_star_iterates_example():
    sig = build_outer("sigma")
    first = image_coeffs(sig, (1, 2))
    assert first == ({(1, 2): -1, (3, 4): -1, (5, 6): -1, (7, 8): -1}, 2)
    # the next iterates, sigma* times the image column, and as columns of the powers
    column = Matrix.from_int_rows([[c] for c in to_vector(first[0])], first[1])
    second = to_coeffs([x for [x] in (sig * column).data])
    assert second == {p: Scalar.rational(c, 2) for p, c in {(1, 2): -1, (3, 4): 1, (5, 6): 1, (7, 8): 1}.items()}
    assert image_coeffs(sig * sig, (1, 2)) == ({(1, 2): -1, (3, 4): 1, (5, 6): 1, (7, 8): 1}, 2)
    third = to_coeffs([x for [x] in (sig * sig * column).data])
    assert third == {(1, 2): ONE}
    assert image_coeffs(sig * sig * sig, (1, 2)) == ({(1, 2): 1}, 1)


def test_orders():
    sig = build_outer("sigma")
    assert sig * sig * sig == Matrix.identity(28)
    tau = build_outer("tau")
    assert tau * tau == Matrix.identity(28)


def test_tau_star_line_example():
    tau = build_outer("tau")
    assert image_coeffs(tau, (2, 3)) == ({(1, 4): 1, (2, 3): 1, (5, 8): 1, (6, 7): 1}, 2)


def test_s3_relations_all_pass():
    for name, ok in s3_relations():
        assert ok, name


def test_eigenspace_dimensions_and_members():
    sig, tau = build_outer("sigma"), build_outer("tau")
    basis = eigenspace(sig, ONE)
    assert isinstance(basis, Matrix) and basis.rows == 14 and basis.cols == 28
    g1 = {(2, 3): 1, (6, 7): 1}
    assert span_contains(Subspace(basis), g1)
    assert (sig - Matrix.identity(28)) * basis.transpose() == Matrix.from_int_rows([[0] * 14] * 28)

    basis = eigenspace(sig, omega_eigenvalue())
    assert basis.rows == 7
    member = {
        (6, 8): ONE, (5, 7): -ONE, (2, 4): ONE, (1, 3): I * SQRT3,
    }
    assert Matrix(basis.data + [[member.get(p, ZERO) for p in PAIR_ORDER]]).rank() == 7

    assert eigenspace(tau, ONE).rows == 21
    assert eigenspace(tau, -ONE).rows == 7


def test_eigenspace_rejects_unsupported_values():
    with pytest.raises(ValueError):
        eigenspace(build_outer("sigma"), I)


EIGENVECTOR_TABLES = [
    ("sigma", "SIGMA_OMEGA_EIGENVECTORS", omega_eigenvalue()),
    ("sigma", "SIGMA_OMEGABAR_EIGENVECTORS", omega_eigenvalue(True)),
    ("tau", "SPIN7_GENERATORS", ONE),
    ("tau", "TAU_MINUS_EIGENVECTORS", -ONE),
]


def test_tabulated_eigenvectors_satisfy_equations():
    """Oracle for C3's int-row eigenvector checks: each line rebuilt as the
    Scalar column a + i sqrt3 b and multiplied through the Scalar product."""
    outers = {name: build_outer(name) for name in ("sigma", "tau")}
    for name, table, lam in EIGENVECTOR_TABLES:
        for text in getattr(ref, table):
            a, b = ref.bivector_parts(text)
            column = Matrix([[a.get(p, 0) + I * SQRT3 * b.get(p, 0)] for p in PAIR_ORDER])
            assert scalar_product(outers[name], column) == column.scale(lam), text


def test_g2_structure_checks():
    assert len(g2_generators()) == 14
    for name, ok in g2_structure():
        assert ok, name


def test_g2_annihilation_directly():
    gens = g2_generators()
    psi = (Spinor.basis(4, 0) - Spinor.basis(4, 15)).scale(INV_SQRT2)
    for g in gens:
        assert apply_bivector_to_spinor(g, psi).is_zero()


def test_g2_bracket_example():
    gens = g2_generators()
    a = {(2, 3): 1, (6, 7): 1}
    b = {(2, 4): 1, (6, 8): -1}
    assert span_contains(bivector_span(gens), bivector_bracket(a, b))


def test_g2_action_matrix_display():
    zero = g2_action_matrix([0] * 14)
    assert zero == Matrix.from_int_rows([[0] * 8] * 8)

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
                assert M.data[r - 1][c - 1] == Scalar.rational(2 * want)


def test_g2_action_same_on_both_frames():
    rng = random.Random(3)
    for _ in range(5):
        alphas = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(14)]
        plus = g2_action_matrix_on("plus", alphas)
        minus = g2_action_matrix_on("minus", alphas)
        assert plus == minus
        assert plus.transpose() == plus.scale(-1)


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


def quarter_turn_lift(which, pair):
    """Oracle for group_automorphism: one rotation exp(+-pi/4 e_i e_j) per
    entry of the bivector image, multiplied out factor by factor."""
    coeffs, den = triality.image_coeffs(build_outer(which), pair)
    quarter = Angle(3)
    out = CliffordElem.one(8)
    for (i, j), c in sorted(coeffs.items()):
        if 2 * abs(c) != den:
            raise ValueError("generator image is not a quarter-turn product")
        sin = quarter.sin() if c > 0 else -quarter.sin()
        out = out * CliffordElem(8, {0: quarter.cos(), (1 << (i - 1)) | (1 << (j - 1)): sin})
    return out


@pytest.mark.parametrize("which", ["sigma", "tau"])
def test_group_automorphism_equals_the_quarter_turn_product(which):
    for pair in PAIR_ORDER:
        assert group_automorphism(which, pair) == quarter_turn_lift(which, pair), pair


def test_group_automorphism_rejects_an_image_off_the_quarter_turns(monkeypatch):
    image = triality.image_coeffs

    def doubled(outer, pair):
        coeffs, den = image(outer, pair)
        return {p: 2 * c for p, c in coeffs.items()}, den

    monkeypatch.setattr(triality, "image_coeffs", doubled)
    for lift in (group_automorphism, quarter_turn_lift):
        with pytest.raises(ValueError, match="generator image is not a quarter-turn product"):
            lift("sigma", (1, 2))


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
            cached = kappa_real_matrix(p, sign)
            assert kappa_real_matrix(p, sign) is cached
            assert cached == frame_kappa_real_matrix(p, sign)


def test_kappa_real_matrix_rejects_odd_words():
    with pytest.raises(ValueError):
        kappa_real_matrix((1, 2, 3), "plus")


def test_g2_generators_are_parsed_once():
    fresh = [ref.bivector_terms(line) for line in ref.G2_GENERATORS]
    assert list(g2_generators()) == fresh
    assert g2_generators() is g2_generators()


def clifford_bracket(a, b):
    """Oracle for bivector_bracket: the commutator of the two combinations in Cl_8."""
    ea, eb = (sum((CliffordElem.from_word(8, p).scale(c) for p, c in x.items()), CliffordElem(8)) for x in (a, b))
    out = {}
    for mask, c in (ea * eb - eb * ea).terms.items():
        i, j = [t + 1 for t in range(8) if (mask >> t) & 1]
        out[(i, j)] = c
    return out


bivectors = st.dictionaries(
    st.sampled_from(PAIR_ORDER),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(Scalar.rational),
    max_size=6,
)
# rational coefficients times a unit of the field, some of them irrational
field_bivectors = st.dictionaries(
    st.sampled_from(PAIR_ORDER),
    st.builds(lambda f, u: Scalar.rational(f) * u,
              st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
              st.sampled_from([ONE, I, SQRT2, SQRT3, SQRT3 * I - ONE])),
    max_size=6,
)


def nonzero(combo):
    return {p: c for p, c in combo.items() if c}


@given(field_bivectors, field_bivectors)
@settings(max_examples=80, deadline=None)
def test_bracket_equals_the_clifford_commutator(a, b):
    """On coefficients of the whole field, irrational ones included; the
    bracket keeps a coefficient that sums to zero, the oracle drops it."""
    assert nonzero(bivector_bracket(a, b)) == clifford_bracket(a, b)


def test_span_contains_agrees_with_the_rank_oracle():
    """Oracle for span_contains: a member adds nothing to the rank of the
    span's Scalar basis rows; every nonzero multiple of an int combination
    agrees.  A span with irrational rows has no int membership."""
    rng = random.Random(4)
    sig, tau = build_outer("sigma"), build_outer("tau")
    for span in (bivector_span(g2_generators()), Subspace(eigenspace(tau, ONE))):
        rows = span.basis.data
        for t in range(30):
            # members: int combinations of the basis rows; odd t adds e_p, mostly a non-member
            vec = [sum((Scalar.rational(rng.randint(-3, 3)) * row[c] for row in rows), ZERO)
                   for c in range(28)]
            if t % 2:
                vec[rng.randrange(28)] += ONE
            want = Matrix(rows + [vec]).rank() == span.dim
            nums, _ = ints_over_lcm([x.as_fraction() for x in vec])
            for k in (1, -7):
                assert span_contains(span, {p: k * x for p, x in zip(PAIR_ORDER, nums) if x}) is want
    with pytest.raises(ValueError, match="int-form span"):
        span_contains(Subspace(eigenspace(sig, omega_eigenvalue())), {(1, 2): 1})


@given(bivectors, bivectors, st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_int_bracket_is_the_rational_bracket_scaled(a, b, k):
    """Int coefficients give the int bracket: that of the Scalar combinations
    times d^2, for their int numerators over the common denominator d."""
    nums, d = ints_over_lcm([c.as_fraction() for c in (*a.values(), *b.values())])
    na, nb = nums[:len(a)], nums[len(a):]
    ints = bivector_bracket(dict(zip(a, na)), dict(zip(b, nb)))
    assert all(type(c) is int for c in ints.values())
    assert {p: Scalar.rational(c) for p, c in ints.items() if c} == {
        p: c * d * d for p, c in bivector_bracket(a, b).items() if c}
    assert bivector_bracket({p: k * x for p, x in zip(a, na)}, dict(zip(b, nb))) == {
        p: k * c for p, c in ints.items()}


def test_corrupt_sigma_fails_c3_on_the_int_route(monkeypatch, flipped_sigma_table):
    compared = []
    real_eq = Matrix.__eq__

    def eq(self, other):
        compared.append((bool(self.ints), bool(other.ints)))
        return real_eq(self, other)

    monkeypatch.setattr(Matrix, "__eq__", eq)
    report = verify.Report()
    verify.check_triality(report)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["C3 sigma* equals the tabulated 28x28 array"]
    assert compared[0] == (True, True)  # that first comparison ran on ints


def test_g2_kernels_equal_the_residue_route(monkeypatch):
    """g2_structure builds spin7(e2..e8), its three intersections with Fix(tau*)
    and both complements of g2 as kernels of stacked equations; the residue
    route reduces one span against another and gives the same pivots and basis."""
    made, kernel = [], triality.kernel
    monkeypatch.setattr(triality, "kernel", lambda *maps: made.append(kernel(*maps)) or made[-1])
    assert all(ok for _, ok in g2_structure())
    spin7_low, *spans = made
    sig, tau = build_outer("sigma"), build_outer("tau")
    fix_tau, g2 = Subspace(eigenspace(tau, ONE)), bivector_span(g2_generators())
    assert spin7_low == bivector_span({(i, j): 1} for (i, j) in PAIR_ORDER if i >= 2)
    want = [
        intersect(fix_tau, spin7_low),
        intersect(fix_tau, Subspace(eigenspace(tau * sig * sig, ONE))),
        intersect(fix_tau, Subspace(eigenspace(tau * sig, ONE))),
        complement_in(g2, spin7_low),
        complement_in(g2, fix_tau),
    ]
    assert [s.dim for s in spans] == [14, 14, 14, 7, 7]
    assert [(s.pivots, s.basis.ints) for s in spans] == [(w.pivots, w.basis.ints) for w in want]


def test_spans_of_no_rows_keep_their_28_columns():
    """The span of no bivector is the zero space of bivector coordinates, and
    the kernel of maps with no rows is all of them: both answer a
    28-coordinate member query."""
    e12 = to_vector({(1, 2): 1})
    zero = bivector_span([])
    assert (zero.dim, zero.basis.rows, zero.basis.cols) == (0, 0, 28)
    assert [0] * 28 in zero and e12 not in zero
    assert not span_contains(zero, {(3, 4): -2})
    for everything in (triality.kernel(zero.basis), triality.kernel(zero.basis, zero.basis)):
        assert (everything.dim, everything.basis.cols) == (28, 28)
        assert e12 in everything and span_contains(everything, {(3, 4): -2, (7, 8): 5})
    with pytest.raises(ValueError, match="length mismatch"):
        [0] * 27 in zero


def test_a_map_that_is_no_quarter_turn_has_no_group_lift(monkeypatch):
    # the identity sends e_12 to e_12 itself, a coefficient 1 where a lift needs +-1/2
    monkeypatch.setattr(triality, "build_outer", lambda which: Matrix.identity(28))
    with pytest.raises(ValueError, match="quarter-turn"):
        triality.group_automorphism("sigma", (1, 2))


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
    # kappa_star_matrix sums int numerators: a Scalar or Fraction one is no int
    for c in (I, ONE, Fraction(1, 2)):
        with pytest.raises(TypeError):
            triality.kappa_star_matrix({(1, 2): c}, 1, "plus")
    with pytest.raises(KeyError):  # a pair outside PAIR_ORDER is no basis bivector
        bivector_bracket({(1, 2): ONE}, {(2, 1): ONE})


def scaled_sum_kappa_star(coeffs, sign):
    """Oracle for kappa_star_matrix: the sum of the scaled generator matrices."""
    out = Matrix.from_int_rows([[0] * 8] * 8)
    for p, c in coeffs.items():
        out = out + kappa_real_matrix(p, sign).scale(c)
    return out


@given(st.dictionaries(st.sampled_from(PAIR_ORDER), st.integers(-6, 6), max_size=8), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_kappa_star_matrix_equals_the_scaled_sum(nums, den):
    coeffs = {p: Fraction(c, den) for p, c in nums.items()}
    for sign in ("plus", "minus"):
        got = triality.kappa_star_matrix(nums, den, sign)
        assert got == scaled_sum_kappa_star(coeffs, sign) and got._data is None


def test_g2_action_equals_the_scaled_sum_of_its_generators():
    alphas = [Fraction(m - 6, m % 4 + 1) for m in range(14)]
    for sign in ("plus", "minus"):
        combo = add(*({p: Scalar.rational(a) * c for p, c in g.items()}
                      for a, g in zip(alphas, g2_generators())))
        assert g2_action_matrix_on(sign, alphas) == scaled_sum_kappa_star(combo, sign)


def test_warm_g2_structure_reads_no_rational_matrix_as_scalars(monkeypatch):
    """C4's spans, kernels and bracket bases stay on int rows: once the outer
    maps are built, no rational Matrix has its Scalar entries read."""
    g2_structure()
    reads = []
    data = Matrix.data

    def read(self):
        if self.ints:
            reads.append((self.rows, self.cols))
        return data.fget(self)

    monkeypatch.setattr(Matrix, "data", property(read))
    assert all(ok for _, ok in g2_structure())
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
    assert all(ok for _, ok in g2_structure())
    assert all(ok for _, ok in s3_relations())
    report = verify.Report()
    verify.check_g2(report, 5, random.Random(1))
    assert report.fail_count == 0
    # g2_structure runs twice (once in check_g2): 686 brackets each; s3_relations
    # takes 56 actions and the 19 display trials 2 each, one per frame
    assert entered == {"bivector_bracket": 2 * 686, "kappa_star_matrix": 56 + 2 * 19}
    assert products == []


def test_rational_so8_work_constructs_no_scalar(monkeypatch):
    """With sigma* and tau* built, the S3 relations, C4's display-trial actions
    and C3's image-line, misprint and lambda* comparisons run on int
    coefficients: no Scalar is constructed (every one goes through
    scalars._new)."""
    sig, tau = build_outer("sigma"), build_outer("tau")
    sig_lines, tau_lines = ref.line_table(ref.SIGMA_LINES), ref.line_table(ref.TAU_LINES)
    trials = []  # C4's display trials, as check_g2 passes them
    on = verify.g2_action_matrix_on
    monkeypatch.setattr(verify, "g2_action_matrix_on", lambda w, alphas: trials.append(alphas) or on(w, alphas))
    report = verify.Report()
    verify.check_g2(report, 5, random.Random(1))
    assert report.fail_count == 0
    trials = trials[::2]  # each trial runs on the plus and the minus frame
    assert len(trials) == 19

    made, new = [], scalars._new
    monkeypatch.setattr(scalars, "_new", lambda n, d: made.append((n, d)) or new(n, d))
    assert all(ok for _, ok in s3_relations())
    assert made == []
    for alphas in trials:
        nums, den = ints_over_lcm(alphas)
        for sign in ("plus", "minus"):
            assert g2_action_matrix_on(sign, alphas) == triality.kappa_star_matrix(
                {p: sum(x * g.get(p, 0) for x, g in zip(nums, g2_generators())) for p in PAIR_ORDER},
                den, sign)
        assert g2_action_matrix(alphas) == g2_action_matrix_on("plus", alphas).transpose()
    assert made == []
    for outer, lines, half in ((sig, sig_lines, "minus"), (tau, tau_lines, "plus")):
        for p in PAIR_ORDER:
            assert image_coeffs(outer, p) == (lines[p], 2)
            assert verify.lambda_of_coeffs(*image_coeffs(outer, p)) == kappa_real_matrix(p, half)
    assert image_coeffs(sig, (2, 4)) != (sig_lines[(2, 3)], 2)
    assert made == []
