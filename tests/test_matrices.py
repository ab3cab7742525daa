import contextlib
import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import scalars
from spinbits.clifford import exp_bivector
from spinbits.fields import build_field_system
from spinbits.matrices import (
    MAX_ORACLE_N,
    Matrix,
    Monomial,
    Subspace,
    chirality_indices,
    e_basis_compose,
    e_basis_decompose,
    kappa_matrix,
    kappa_pm_matrix,
    lambda_matrix,
    real_basis_frame,
    gamma_oracle,
    ints_over_lcm,
    real_block,
    real_rep_matrix,
    signed_pick,
    tensor_oracle,
)
from spinbits.scalars import Angle, I, ONE, SQRT3, Scalar, ZERO
from spinbits.triality import build_outer, kappa_real_matrix

from dense_oracle import (
    SignedPermMatrix, complement_in, dense_tensor_oracle, from_columns, gamma_oracle_matrix, intersect,
    scalar_kernel, scalar_product, scalar_transpose,
)


def diag(entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])


def test_kappa6_golden_matrices():
    blk1 = [[ZERO, I], [I, ZERO]]
    blk2 = [[ZERO, -ONE], [ONE, ZERO]]
    for word, blk in (([1], blk1), ([2], blk2)):
        M = kappa_matrix(6, word).to_matrix()
        for b in range(4):
            for r in range(2):
                for c in range(2):
                    assert M.data[2 * b + r][2 * b + c] == blk[r][c]
        for r in range(8):
            for c in range(8):
                if r // 2 != c // 2:
                    assert M.data[r][c] == ZERO
    assert kappa_matrix(6, [1, 2]).to_matrix() == diag([I, -I, I, -I, I, -I, I, -I])


def test_kappa_matrix_against_oracle_words():
    rng = random.Random(13)
    for n in (4, 6, 8, 10):
        oracle = tensor_oracle(n)
        for _ in range(6):
            word = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            M = kappa_matrix(n, word).to_matrix()
            O = Matrix.identity(1 << (n // 2))
            for p in word:
                O = scalar_product(O, oracle[p - 1].to_matrix())
            assert M == O


def test_kappa_pm_examples():
    assert kappa_pm_matrix(8, [], 1).to_matrix() == Matrix.identity(8)
    idx = chirality_indices(8, -1)
    full = kappa_matrix(8, [1, 2]).to_matrix()
    want = Matrix([[full.data[r][c] if r == c else ZERO for c in idx] for r in idx])
    assert kappa_pm_matrix(8, [1, 2], -1).to_matrix() == want
    with pytest.raises(ValueError):
        kappa_pm_matrix(8, [1], 1)


def test_half_spinor_rotation_blocks():
    # the one-parameter subgroup through e2e3 + e6e7 acts by double-angle
    # rotations in slots (2,3) and (6,7) of the minus frame
    frame = real_basis_frame(8, "minus")
    for kk in (0, 1, 2, 3, 6):
        t = Angle(kk)
        dbl = Angle(2 * kk)
        elem = exp_bivector(8, [(t, (2, 3)), (t, (6, 7))])
        cols = []
        for v in frame.vectors:
            img = elem.apply(v)
            cols.append(frame.expand_scalars(img))
        got = from_columns(cols)
        expect = [[ONE if i == j else ZERO for j in range(8)] for i in range(8)]
        for (lo, hi) in ((1, 2), (5, 6)):
            expect[lo][lo] = dbl.cos()
            expect[hi][hi] = dbl.cos()
            expect[lo][hi] = -dbl.sin()
            expect[hi][lo] = dbl.sin()
        assert got == Matrix(expect)


def test_real_rep_matrix_examples():
    assert real_rep_matrix(8, [1], "plus") == Matrix.identity(8)

    M = real_rep_matrix(8, [2, 3], "plus")
    assert M.transpose() == M.scale(-1)
    assert M.ints
    assert M * M == Matrix.identity(8).scale(-ONE)

    # stage 10: the matrix of e1e2 on the full real frame is the first
    # field of the 31-sphere system
    M10 = real_rep_matrix(10, [1, 2], "full")
    J1 = build_field_system(32).J[0]
    assert M10 == Matrix.from_int_rows(J1.to_int_rows())


def test_real_rep_matrix_rejects_span_breakers():
    with pytest.raises(ValueError):
        real_rep_matrix(10, [1], "full")


def test_lambda_matrix_examples():
    assert lambda_matrix(6, [1, 2]) == diag([-ONE, -ONE, ONE, ONE, ONE, ONE])
    assert lambda_matrix(8, [1, 2, 1, 2]) == Matrix.identity(8)
    with pytest.raises(ValueError):
        lambda_matrix(6, [1])


def test_lambda_matrices_are_special_orthogonal():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.choice([4, 6, 8])
        word = [rng.randint(1, n) for _ in range(2 * rng.randint(1, 2))]
        M = lambda_matrix(n, word)  # Scalar rows: multiplied by the Scalar loops
        assert scalar_product(M, scalar_transpose(M)) == Matrix.identity(n)
        assert rational_det(M) == 1


def rational_det(M):
    """Determinant of a rational matrix by Gaussian elimination over Fraction."""
    m = [[x.as_fraction() for x in row] for row in M.data]
    det = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_e_basis_decompose_examples():
    M = kappa_real_matrix((1, 2), "minus")
    assert e_basis_decompose(M) == ({(1, 2): -1, (3, 4): -1, (5, 6): -1, (7, 8): -1}, 1)
    M = kappa_real_matrix((1, 2), "plus")
    assert e_basis_decompose(M) == ({(1, 2): 1, (3, 4): 1, (5, 6): 1, (7, 8): 1}, 1)
    # int numerators over the matrix's denominator
    assert e_basis_decompose(M.scale(Fraction(3, 2))) == ({(1, 2): 3, (3, 4): 3, (5, 6): 3, (7, 8): 3}, 2)
    assert e_basis_decompose(Matrix.from_int_rows([[0] * 8] * 8)) == ({}, 1)


def test_e_basis_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        coeffs = {}
        for i in range(1, 9):
            for j in range(i + 1, 9):
                if rng.random() < 0.3:
                    coeffs[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        coeffs = {k: v for k, v in coeffs.items() if v}
        den = lcm(*(c.denominator for c in coeffs.values()))
        M = e_basis_compose(8, {p: c.numerator * (den // c.denominator) for p, c in coeffs.items()}, den)
        assert M._data is None  # built on int rows
        # the oracle: the antisymmetric matrix of Scalar entries
        want = [[ZERO] * 8 for _ in range(8)]
        for (i, j), c in coeffs.items():
            want[j - 1][i - 1], want[i - 1][j - 1] = Scalar.rational(c), Scalar.rational(-c)
        assert M == Matrix(want)
        nums, d = e_basis_decompose(M)
        assert M.ints[1] == d and all(type(c) is int for c in nums.values())
        assert {p: Fraction(c, d) for p, c in nums.items()} == coeffs
        assert e_basis_compose(8, nums, d) == M


def test_e_basis_decompose_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        e_basis_decompose(Matrix.identity(4))
    with pytest.raises(ValueError, match="not antisymmetric"):  # not square
        e_basis_decompose(Matrix.from_int_rows([[0, 1, 0], [-1, 0, 0]]))
    # the form is read first: Scalar rows are refused before the symmetry, rational or not
    for rows in ([[SQRT3, ONE], [ONE, ZERO]], [[ZERO, ONE], [-ONE, ZERO]]):
        with pytest.raises(ValueError, match="int-form"):
            e_basis_decompose(Matrix(rows))


def test_nullspace_examples():
    kernel = Matrix.identity(4).nullspace()
    assert Matrix.identity(4).rank() == 4 and kernel.rows == 0 and kernel.cols == 4

    sig = build_outer("sigma")
    shifted = sig - Matrix.identity(28)
    kernel = shifted.nullspace()
    assert kernel.rows == 14 and shifted.rank() + 14 == 28

    tau = build_outer("tau")
    kernel = (tau + Matrix.identity(28)).nullspace()
    assert kernel.rows == 7


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(31)
    M = Matrix.from_int_rows([[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)])
    kernel = M.nullspace()
    assert M.rank() + kernel.rows == 6
    assert M * kernel.transpose() == Matrix.from_int_rows([[0] * kernel.rows] * 4)


def kernel_cases():
    """Seeded random rational matrices, some rows combinations of others,
    then the edge shapes, a full-rank matrix, sigma* - I and tau* + I."""
    rng = random.Random(8)
    cases = []
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(c)]
                for _ in range(rng.randint(1, r))]
        while len(rows) < r:
            ks = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(k * row[j] for k, row in zip(ks, rows)) for j in range(c)])
        cases.append(int_matrix(rows, c))
    cases += [
        Matrix.identity(5).nullspace(), Matrix.from_int_rows([[], [], []]), Matrix.from_int_rows([[0] * 4] * 3),
        Matrix.from_int_rows([[2, 1, 0], [0, 3, 1], [1, 0, 5]], 7),
        build_outer("sigma") - Matrix.identity(28), build_outer("tau") + Matrix.identity(28),
    ]
    return cases


def test_rational_kernel_is_built_on_ints_and_matches_the_scalar_loop(monkeypatch):
    def built(*args):
        raise AssertionError("a Scalar was built")

    for M in kernel_cases():
        assert M.ints
        with monkeypatch.context() as mp:
            mp.setattr(scalars, "_new", built)
            K, rank = M.nullspace(), M.rank()
        assert K._data is None and K.ints
        assert (K.cols, rank + K.rows) == (M.cols, M.cols)
        twin = Matrix._new(M.cols, data=M.data)  # the same entries as Scalar rows, at any row count
        assert K.data == scalar_kernel(twin) == twin.nullspace().data and rank == twin.rank()


def test_tensor_oracle_structure():
    o2 = tensor_oracle(2)
    assert o2[0].to_matrix() == Matrix([[ZERO, I], [I, ZERO]])
    assert o2[1].to_matrix() == Matrix([[ZERO, -ONE], [ONE, ZERO]])
    o3 = tensor_oracle(3)
    assert o3[2].to_matrix() == Matrix([[-I, ZERO], [ZERO, I]])
    o6 = tensor_oracle(6)
    assert o6[0] == kappa_matrix(6, [1])
    assert o6[1] == kappa_matrix(6, [2])


def test_tensor_oracle_limit():
    for oracle in (tensor_oracle, gamma_oracle):
        with pytest.raises(ValueError, match=f"above oracle limit {MAX_ORACLE_N}"):
            oracle(MAX_ORACLE_N + 1)


def test_monomial_oracles_equal_the_dense_kronecker_oracles():
    for n in range(2, 11):
        assert [m.to_matrix() for m in tensor_oracle(n)] == list(dense_tensor_oracle(n)), n
        assert gamma_oracle(n).to_matrix() == gamma_oracle_matrix(n), n


@st.composite
def monomials(draw, n=None, real=False):
    n = draw(st.integers(1, 12)) if n is None else n
    perm = draw(st.permutations(range(n)))
    phase = draw(st.lists(st.sampled_from((0, 2) if real else range(4)), min_size=n, max_size=n))
    return Monomial(perm, phase)


def _signed_perm(m):
    return SignedPermMatrix(len(m.perm), {a: (b, 1 - e) for a, (b, e) in enumerate(zip(m.perm, m.phase))})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_agrees_with_the_dict_signed_permutation(data):
    x = data.draw(monomials(real=True))
    y = data.draw(monomials(n=len(x.perm), real=True))
    z = data.draw(st.lists(st.integers(-9, 9), min_size=len(x.perm), max_size=len(x.perm)))
    X, Y = _signed_perm(x), _signed_perm(y)
    assert _signed_perm(x.compose(y)) == X.compose(Y)
    assert _signed_perm(-x) == -X
    assert (x.transpose() == -x) == X.is_antisymmetric()
    assert x.apply(z) == X.apply(z)
    assert x.to_int_rows() == X.to_int_rows()
    # an antisymmetric pair: x and its negated transpose glued as a 2x2 block swap
    n = len(x.perm)
    swap = Monomial([n + b for b in x.perm] + list(x.transpose().perm),
                    list(x.phase) + [e + 2 for e in x.transpose().phase])
    assert swap.transpose() == -swap and _signed_perm(swap).is_antisymmetric()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monomial_operations_are_matrix_operations(data):
    x = data.draw(monomials(n=data.draw(st.integers(1, 6))))
    y = data.draw(monomials(n=len(x.perm)))
    w = data.draw(monomials(n=data.draw(st.integers(1, 3))))
    assert x.compose(y).to_matrix() == scalar_product(x.to_matrix(), y.to_matrix())
    assert (-x).to_matrix() == x.to_matrix().scale(-1)
    assert x.transpose().to_matrix() == scalar_transpose(x.to_matrix())
    assert x.kron(w).to_matrix() == Matrix(_kron_rows(x.to_matrix().data, w.to_matrix().data))
    z = [Scalar.rational(t + 1) for t in range(len(x.perm))]
    image = scalar_transpose(scalar_product(x.to_matrix(), from_columns([z]))).data
    assert [gather_apply(x, z)] == image
    if all(e % 2 == 0 for e in x.phase):
        assert [x.apply(z)] == image


def _int_product(a, b):
    return [[sum(x * b[l][j] for l, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unchecked_monomial_operations_agree_with_the_checked_route(data):
    """compose, neg, transpose and kron skip the constructor's check: each result
    passes it unchanged, and on real monomials matches the int matrix operation."""
    real = data.draw(st.booleans())
    x = data.draw(monomials(n=data.draw(st.integers(1, 8)), real=real))
    y = data.draw(monomials(n=len(x.perm), real=real))
    w = data.draw(monomials(n=data.draw(st.integers(1, 3)), real=real))
    results = (x.compose(y), -x, x.transpose(), x.kron(w), Monomial.identity(len(x.perm)))
    for m in results:
        assert Monomial(m.perm, m.phase) == m
        assert type(m.perm) is type(m.phase) is tuple and all(0 <= e < 4 for e in m.phase)
    if real:
        X, Y, W = x.to_int_rows(), y.to_int_rows(), w.to_int_rows()
        assert results[0].to_int_rows() == _int_product(X, Y)
        assert results[1].to_int_rows() == [[-v for v in row] for row in X]
        assert results[2].to_int_rows() == [list(col) for col in zip(*X)]
        assert results[3].to_int_rows() == _kron_rows(X, W)


def loop_apply(m, z):
    """Oracle for Monomial.apply: the per-entry loop, i^phase[a] z[a] into slot perm[a]."""
    out = [0] * len(z)
    for x, b, e in zip(z, m.perm, m.phase):
        out[b] = x if not e else -x if e == 2 else Scalar.i_power(e) * x
    return out


def gather_apply(m, z):
    """Oracle for Monomial.apply: the gather its signed pick replaced, which
    multiplies entry a of the transpose's gather by i^phase, so it also takes
    an odd phase (and gives Scalar entries)."""
    T = m.transpose()
    return list(map(mul, map(z.__getitem__, T.perm), [Scalar.i_power(e) if e & 1 else 1 - e for e in T.phase]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gather_apply_agrees_with_the_loop(data):
    """The signed pick applies real monomials as both oracles do, keeping ints
    ints; a monomial with an odd phase has no signed pick."""
    x = data.draw(monomials(real=data.draw(st.booleans())))
    n = len(x.perm)
    ints = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    fracs = [Fraction(v, 3) for v in ints]
    scalars = [Scalar.rational(v) + I * Scalar.rational(v - 1) for v in ints]
    real = all(e % 2 == 0 for e in x.phase)
    for z in (ints, fracs, scalars):
        want = loop_apply(x, z)
        assert gather_apply(x, z) == want
        if real:
            got = x.apply(z)
            assert got == want
            assert z is not ints or all(type(v) is int for v in got)
            assert list(signed_pick(x.signed_source())([*z, *(-v for v in z)])) == want
        else:
            with pytest.raises(ValueError):
                x.apply(z)
    with pytest.raises(ValueError):
        x.apply(ints + [0])


@pytest.mark.parametrize("source", [(0,), (1,), (3, 0), (2, 2, 1)])
def test_signed_pick_returns_a_tuple_for_any_number_of_indices(source):
    v = (10, 11, 12, 13)
    assert signed_pick(source)(v) == tuple(v[s] for s in source)
    assert signed_pick(list(source))(list(v)) == tuple(v[s] for s in source)


def test_a_one_slot_monomial_applies_by_a_one_index_pick():
    assert Monomial((0,), (0,)).apply([7]) == [7]
    assert Monomial((0,), (2,)).apply([7]) == [-7]
    assert Monomial((0,), (2,)).signed_source() == (1,)


def _kron_rows(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def test_monomial_rejects_a_non_permutation():
    with pytest.raises(ValueError):
        Monomial([0, 0], [0, 0])
    with pytest.raises(ValueError):
        Monomial([0, 1], [0])
    with pytest.raises(ValueError):
        Monomial([1, 0], [1, 0]).to_int_rows()


@pytest.mark.parametrize("r", [2, 4, 8, 9, 10, 12])
def test_real_block_equals_frame_expansion_on_even_words(r):
    rng = random.Random(r)
    whiches = ("plus", "minus") if r % 4 == 0 else ("full",)
    words = [w for w in ((1, 2), (2, 1), (3, 3)) if max(w) <= r] + [
        tuple(rng.randint(1, r) for _ in range(2 * rng.randint(1, 3))) for _ in range(12)
    ]
    for which in whiches:
        for word in words:
            assert real_block(r, word, which).to_matrix() == real_rep_matrix(r, word, which), (which, word)


def test_real_block_rejects_odd_words():
    with pytest.raises(ValueError):
        real_block(8, (1,), "plus")


def test_matrix_json_payload():
    M = kappa_matrix(4, [1, 3]).to_matrix()
    assert M.to_json() == {"rows": 4, "cols": 4,
                           "entries": [[x.to_json() for x in row] for row in M.data]}
    assert Matrix([[ONE, ZERO], [ZERO, -I]]).to_json()["entries"] == [
        [{"1": {"re": "1/1", "im": "0/1"}}, {}], [{}, {"1": {"re": "0/1", "im": "-1/1"}}]]


# -- Subspace against the rank route it replaced -----------------------


def rank(vectors):
    return Matrix([list(v) for v in vectors]).rank() if vectors else 0


def int_matrix(rows, n):
    """The int-form n-column matrix of rational rows (Fractions or rational
    Scalars): their int numerators over the lcm of their denominators."""
    nums, den = ints_over_lcm([x.as_fraction() if isinstance(x, Scalar) else x for row in rows for x in row])
    return Matrix._of_ints([nums[i:i + n] for i in range(0, len(nums), n)], den, n)


def span(vectors, n):
    """The Subspace spanned by a list of Scalar vectors of length n: of their
    int-form matrix when every entry is rational, else of their Scalar rows."""
    if all(x.is_rational() for v in vectors for x in v):
        return Subspace(int_matrix(vectors, n))
    return Subspace(Matrix([list(v) for v in vectors]))


def member(u, vectors):
    """Oracle for Subspace membership: u adds nothing to the rank."""
    return rank(vectors + [u]) == rank(vectors)


def ints(vec):
    """The int numerators of a rational Scalar vector over its common denominator."""
    return int_matrix([vec], len(vec)).ints[0][0]


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), ZERO)


ENTRIES = [ZERO, ONE, -ONE, Scalar.rational(2), Scalar.rational(-1, 3), I, I * SQRT3, ONE + SQRT3]


@st.composite
def vector_sets(draw):
    """Two small vector sets and one extra vector, in a shared dimension <= 6.

    Entries come from a short list so that dependent vectors are common;
    ``rational`` restricts them to Q.
    """
    n = draw(st.integers(1, 6))
    rational = draw(st.booleans())
    pool = [x for x in ENTRIES if x.is_rational()] if rational else ENTRIES
    entry = st.sampled_from(pool)
    vec = st.lists(entry, min_size=n, max_size=n)
    a = draw(st.lists(vec, max_size=4))
    b = draw(st.lists(vec, max_size=4))
    if draw(st.booleans()):  # b often shares part of a
        b = b + a[: draw(st.integers(0, len(a)))]
    return n, rational, a, b, draw(vec)


@given(vector_sets())
@settings(max_examples=150, deadline=None)
def test_subspace_agrees_with_rank_oracle(case):
    """Spans, equality and membership against the rank oracle; on rational
    spans, the residue route's intersection and complement as well."""
    n, rational, a, b, v = case
    A, B = span(a, n), span(b, n)
    assert A.dim == rank(a) and B.dim == rank(b)
    assert (A == B) == (rank(a) == rank(b) == rank(a + b))
    if not (A.basis.ints and B.basis.ints):
        with pytest.raises(ValueError, match="int-form"):  # a product of Scalar rows
            intersect(A, B)
        return
    if rational:
        assert (ints(v) in A) == member(v, a)
    assert intersect(A, B).dim == rank(a) + rank(b) - rank(a + b)
    assert all(member(u, a) and member(u, b) for u in intersect(A, B).basis.data)

    C = complement_in(A, B)
    assert all(member(u, b) for u in C.basis.data)
    assert all(dot(u, w) == ZERO for u in C.basis.data for w in a)
    gram = [[dot(s, t) for t in B.basis.data] for s in A.basis.data]
    assert C.dim == B.dim - rank(gram)
    if all(member(u, b) for u in a):
        assert C.dim == B.dim - A.dim


def test_subspace_of_no_vectors():
    """A span takes its width from the Matrix, which nullspace keeps at 0 rows."""
    Z = Subspace(Matrix.identity(3).nullspace())
    assert Z.dim == 0 and Z.basis.cols == 3 and [0] * 3 in Z and [1, 0, 0] not in Z
    assert Z == span([], 3) != Subspace(Matrix.identity(2).nullspace())
    with pytest.raises(ValueError, match="length"):
        [0, 0] in Z


def test_membership_rejects_a_wrong_length_and_a_scalar_form_span():
    S = span([[ONE, ZERO, ZERO]], 3)
    assert [5, 0, 0] in S and [0, 1, 0] not in S
    for x in ([1, 0, 0, 5], [1, 0]):  # the clearing zip stopped at the shorter and called both members
        with pytest.raises(ValueError, match="length"):
            x in S
    for rows in ([[ONE, SQRT3]], [[ONE, ZERO]]):  # Scalar rows, irrational or not
        with pytest.raises(ValueError, match="int-form span"):
            [1, 0] in Subspace(Matrix(rows))


# -- the int form of rational matrices against their Scalar form ------------


fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rational_rows(draw, rows, cols):
    """rows x cols Fractions with non-unit denominators; the rows after the
    first few are combinations of those, so rank-deficient sets are common."""
    free = draw(st.integers(1, rows))
    out = draw(st.lists(st.lists(fraction, min_size=cols, max_size=cols), min_size=free, max_size=free))
    while len(out) < rows:
        cs = draw(st.lists(fraction, min_size=free, max_size=free))
        out.append([sum((c * row[j] for c, row in zip(cs, out)), Fraction(0)) for j in range(cols)])
    return [[Scalar.rational(x) for x in row] for row in out]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_int_route_equals_scalar_route(data):
    """Each operation on int-form operands against the same operation on their
    Scalar-form twins (the product and the transpose by the dense oracle)."""
    r, k, c = (data.draw(st.integers(1, 6)) for _ in range(3))
    a_rows, b_rows, a2_rows = (data.draw(rational_rows(p, q)) for p, q in ((r, k), (k, c), (r, k)))
    lam = Scalar.rational(data.draw(fraction))
    a = a_rows + data.draw(rational_rows(data.draw(st.integers(1, 3)), k))
    b = data.draw(rational_rows(data.draw(st.integers(1, 4)), k)) + a[: data.draw(st.integers(0, len(a)))]

    def run(build, product, transpose):
        A, B, A2 = build(a_rows), build(b_rows), build(a2_rows)
        S, T = Subspace(build(a)), Subspace(build(b))
        return [product(A, B), A + A2, A - A2, A.scale(lam), transpose(A), A == A2, A.rank(), A.nullspace(),
                S == T, S, T]

    fast = run(lambda rows: int_matrix(rows, len(rows[0])), Matrix.__mul__, Matrix.transpose)
    slow = run(Matrix, scalar_product, scalar_transpose)
    for x, y in zip(fast, slow):
        if isinstance(x, Subspace):
            assert x.pivots == y.pivots
            x, y = x.basis, y.basis
        if isinstance(x, Matrix):
            assert x.ints and y.ints is False
        assert x == y and y == x


def test_rational_matrices_keep_the_int_form():
    sig = build_outer("sigma")
    cube = sig * sig * sig
    assert cube._data is None and cube == Matrix.identity(28)
    assert cube._data is None  # no Scalar was built to compare
    assert cube.data[0][0] == ONE and cube.data[0][1] == ZERO
    rref, pivots = (sig - Matrix.identity(28))._echelon()
    assert rref._data is None and len(pivots) == 14
    half = Matrix.from_int_rows([[1, 2], [3, 4]]).scale(Scalar.rational(1, 2))
    assert half.ints == ([[1, 2], [3, 4]], 2)
    assert half.scale(Scalar.rational(2)).ints == ([[1, 2], [3, 4]], 1)


@pytest.mark.parametrize("c", [2, -3, 0, Fraction(1, 2), Fraction(-4, 6), Scalar.rational(5, 3), ZERO,
                               SQRT3, I, SQRT3 * I - ONE])
def test_scale_takes_int_fraction_and_scalar_factors(c):
    """Each entry times c, against the entrywise Scalar products; a rational
    factor keeps a rational matrix on its int form."""
    A = Matrix.from_int_rows([[1, -2, 0], [3, 4, 5]], 3)
    B = Matrix([[SQRT3, ONE], [ZERO, I]])
    x = c if isinstance(c, Scalar) else Scalar.rational(Fraction(c))
    for M in (A, B):
        got = M.scale(c)
        assert got == Matrix([[x * e for e in row] for row in M.data])
    if x.is_rational():
        assert A.scale(c)._data is None


def test_irrational_matrices_take_the_scalar_route():
    M = Matrix([[ONE, SQRT3], [ZERO, I]])
    assert M.ints is False
    assert scalar_product(M, Matrix.identity(2)) == M and M.rank() == 2
    assert Matrix.identity(2).scale(I) != Matrix.identity(2)


def test_matrix_form_is_fixed_where_it_is_built():
    """Matrix(rows) keeps Scalar rows even when every entry is rational, and
    equality across the two forms compares entries, both ways round."""
    rows = [[Scalar.rational(1, 2), ZERO, Scalar.rational(-3)], [ONE, Scalar.rational(2, 3), ZERO]]
    S, T = Matrix(rows), Matrix.from_int_rows([[3, 0, -18], [6, 4, 0]], 6)
    assert S.ints is False and T.ints == ([[3, 0, -18], [6, 4, 0]], 6)
    assert S == T and T == S and S.data == T.data
    changed = Matrix([rows[0], [ONE, Scalar.rational(2, 3), ONE]])
    assert changed != T and T != changed
    assert (S + T).ints is False and (T + T).ints and S.scale(2).ints is False


@pytest.mark.parametrize("M", [
    Matrix([[ONE, SQRT3], [ZERO, I]]), Matrix([[ONE, ZERO], [Scalar.rational(1, 2), ONE]]),
], ids=["irrational", "rational"])
def test_a_product_or_transpose_of_a_scalar_form_matrix_raises(M):
    one = Matrix.identity(2)
    for op in (lambda: M * one, lambda: one * M, lambda: M * M, lambda: M.transpose()):
        with pytest.raises(ValueError, match="int-form matri"):
            op()
    assert scalar_transpose(M) == Matrix([[M.data[j][i] for j in range(2)] for i in range(2)])
    assert scalar_transpose(Matrix([[ONE, SQRT3], [ZERO, I]])) == Matrix([[ONE, ZERO], [SQRT3, I]])


@pytest.mark.parametrize("c", [-1, Fraction(-3, 2)])
def test_scaling_by_an_int_or_fraction_builds_no_scalar(monkeypatch, c):
    A = Matrix.from_int_rows([[1, -2, 0], [3, 4, 5]], 3)
    want = A.scale(Scalar.rational(c))
    built = []
    new = scalars._new
    monkeypatch.setattr(scalars, "_new", lambda *args: built.append(args) or new(*args))
    got = A.scale(c)
    assert built == [] and got._data is None
    monkeypatch.undo()
    assert got == want and got.ints == want.ints


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_int_membership_agrees_with_the_rank_oracle(data):
    """A rational vector's int numerators, and every nonzero multiple of them,
    are members exactly when the vector adds nothing to the rank."""
    k = data.draw(st.integers(1, 6))
    a = data.draw(rational_rows(data.draw(st.integers(1, 4)), k))
    w = data.draw(rational_rows(1, k))[0]
    S = span(a, k)
    for v, want in ((data.draw(st.sampled_from(a)), True), (w, member(w, a))):
        assert all(([m * x for x in ints(v)] in S) is want for m in (1, -7))


def test_rational_membership_builds_no_matrix_and_no_scalar(monkeypatch):
    S = Subspace(build_outer("sigma") - Matrix.identity(28))
    inside = S.basis.ints[0][3]
    outside = list(range(28))
    assert not member([Scalar.rational(x) for x in outside], S.basis.data)

    def forbidden(*args):
        raise AssertionError("a Scalar or a Matrix was built")

    monkeypatch.setattr(scalars, "_new", forbidden)
    monkeypatch.setattr(Matrix, "__init__", forbidden)
    assert inside in S and outside not in S
