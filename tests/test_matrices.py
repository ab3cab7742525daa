import contextlib
import random
from fractions import Fraction

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
    real_block,
    real_rep_matrix,
    tensor_oracle,
)
from spinbits.scalars import Angle, I, ONE, SQRT3, Scalar, ZERO
from spinbits.triality import build_outer, kappa_real_matrix

from dense_oracle import SignedPermMatrix, dense_tensor_oracle, gamma_oracle_matrix, scalar_kernel


def diag(entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])


def test_kappa6_golden_matrices():
    blk1 = [[ZERO, I], [I, ZERO]]
    blk2 = [[ZERO, -ONE], [ONE, ZERO]]
    for word, blk in (([1], blk1), ([2], blk2)):
        M = kappa_matrix(6, word)
        for b in range(4):
            for r in range(2):
                for c in range(2):
                    assert M.data[2 * b + r][2 * b + c] == blk[r][c]
        for r in range(8):
            for c in range(8):
                if r // 2 != c // 2:
                    assert M.data[r][c] == ZERO
    assert kappa_matrix(6, [1, 2]) == diag([I, -I, I, -I, I, -I, I, -I])


def test_kappa_matrix_against_oracle_words():
    rng = random.Random(13)
    for n in (4, 6, 8, 10):
        oracle = tensor_oracle(n)
        for _ in range(6):
            word = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            M = kappa_matrix(n, word)
            O = Matrix.identity(1 << (n // 2))
            for p in word:
                O = O * oracle[p - 1].to_matrix()
            assert M == O


def test_kappa_pm_examples():
    assert kappa_pm_matrix(8, [], 1) == Matrix.identity(8)
    idx = chirality_indices(8, -1)
    full = kappa_matrix(8, [1, 2])
    want = Matrix([[full.data[r][c] if r == c else ZERO for c in idx] for r in idx])
    assert kappa_pm_matrix(8, [1, 2], -1) == want
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
        got = Matrix.from_columns(cols)
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
    assert M.is_antisymmetric()
    assert M.is_rational()
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
        M = lambda_matrix(n, word)
        assert M * M.transpose() == Matrix.identity(n)
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
    M = kappa_real_matrix([1, 2], "minus")
    assert e_basis_decompose(M) == {
        (1, 2): Fraction(-1), (3, 4): Fraction(-1), (5, 6): Fraction(-1), (7, 8): Fraction(-1)
    }
    M = kappa_real_matrix([1, 2], "plus")
    assert e_basis_decompose(M) == {
        (1, 2): Fraction(1), (3, 4): Fraction(1), (5, 6): Fraction(1), (7, 8): Fraction(1)
    }
    assert e_basis_decompose(Matrix.zero(8, 8)) == {}


def test_e_basis_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        coeffs = {}
        for i in range(1, 9):
            for j in range(i + 1, 9):
                if rng.random() < 0.3:
                    coeffs[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        coeffs = {k: v for k, v in coeffs.items() if v}
        M = e_basis_compose(8, coeffs)
        assert e_basis_decompose(M) == coeffs


def test_e_basis_decompose_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        e_basis_decompose(Matrix.identity(4))


def test_nullspace_examples():
    rank, kernel = Matrix.identity(4).nullspace()
    assert rank == 4 and kernel.rows == 0 and kernel.cols == 4

    sig = build_outer("sigma")
    shifted = sig - Matrix.identity(28)
    rank, kernel = shifted.nullspace()
    assert kernel.rows == 14 and rank + 14 == 28

    tau = build_outer("tau")
    rank, kernel = (tau + Matrix.identity(28)).nullspace()
    assert kernel.rows == 7


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(31)
    rows = [[Scalar.rational(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
    M = Matrix(rows)
    rank, kernel = M.nullspace()
    assert rank + kernel.rows == 6
    for vec in kernel.data:
        assert all(x == ZERO for x in M.apply(vec))


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
        cases.append(Matrix([[Scalar.from_fraction(x) for x in row] for row in rows]))
    cases += [
        Matrix.zero(0, 5), Matrix([[], [], []]), Matrix.zero(3, 4),
        Matrix.from_int_rows([[2, 1, 0], [0, 3, 1], [1, 0, 5]], 7),
        build_outer("sigma") - Matrix.identity(28), build_outer("tau") + Matrix.identity(28),
    ]
    return cases


def test_rational_kernel_is_built_on_ints_and_matches_the_scalar_loop(monkeypatch):
    def built(*args):
        raise AssertionError("a Scalar was built")

    for M in kernel_cases():
        assert M.is_rational()
        with monkeypatch.context() as mp:
            mp.setattr(scalars, "_new", built)
            rank, K = M.nullspace()
        assert K._data is None and K._int_form()
        assert (K.cols, rank + K.rows) == (M.cols, M.cols)
        assert K.data == scalar_kernel(M)


def test_tensor_oracle_structure():
    o2 = tensor_oracle(2)
    assert o2[0].to_matrix() == Matrix([[ZERO, I], [I, ZERO]])
    assert o2[1].to_matrix() == Matrix([[ZERO, -ONE], [ONE, ZERO]])
    o3 = tensor_oracle(3)
    assert o3[2].to_matrix() == Matrix([[-I, ZERO], [ZERO, I]])
    o6 = tensor_oracle(6)
    assert o6[0].to_matrix() == kappa_matrix(6, [1])
    assert o6[1].to_matrix() == kappa_matrix(6, [2])


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
    assert x.compose(y).to_matrix() == x.to_matrix() * y.to_matrix()
    assert (-x).to_matrix() == -x.to_matrix()
    assert x.transpose().to_matrix() == x.to_matrix().transpose()
    assert x.kron(w).to_matrix() == Matrix(_kron_rows(x.to_matrix().data, w.to_matrix().data))
    z = [Scalar.rational(t + 1) for t in range(len(x.perm))]
    assert x.apply(z) == x.to_matrix().apply(z)


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gather_apply_agrees_with_the_loop(data):
    x = data.draw(monomials(real=data.draw(st.booleans())))
    n = len(x.perm)
    ints = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    fracs = [Fraction(v, 3) for v in ints]
    scalars = [Scalar.rational(v) + I * Scalar.rational(v - 1) for v in ints]
    for z in (ints, fracs, scalars, ints):  # the last call reuses the kept gather
        got = x.apply(z)
        assert got == loop_apply(x, z)
        if z is ints and all(e % 2 == 0 for e in x.phase):
            assert all(type(v) is int for v in got)
    with pytest.raises(ValueError):
        x.apply(ints + [0])


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
    M = kappa_matrix(4, [1, 3])
    assert M.to_json() == {"rows": 4, "cols": 4,
                           "entries": [[x.to_json() for x in row] for row in M.data]}
    assert Matrix([[ONE, ZERO], [ZERO, -I]]).to_json()["entries"] == [
        [{"1": {"re": "1/1", "im": "0/1"}}, {}], [{}, {"1": {"re": "0/1", "im": "-1/1"}}]]


# -- Subspace against the rank route it replaced -----------------------


def rank(vectors):
    return Matrix([list(v) for v in vectors]).rank() if vectors else 0


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
    n, rational, a, b, v = case
    A, B = Subspace(a, n), Subspace(b, n)
    assert A.dim == rank(a) and B.dim == rank(b)
    assert (A == B) == (rank(a) == rank(b) == rank(a + b))
    assert (v in A) == (rank(a + [v]) == rank(a))
    assert (A & B).dim == rank(a) + rank(b) - rank(a + b)
    assert all(u in A and u in B for u in (A & B).rows)

    C = A.complement_in(B)
    assert all(u in B for u in C.rows)
    assert all(dot(u, w) == ZERO for u in C.rows for w in a)
    gram = [[dot(s, t) for t in B.rows] for s in A.rows]
    assert C.dim == B.dim - rank(gram)
    if rational and all(u in B for u in a):
        assert C.dim == B.dim - A.dim


def test_subspace_of_no_vectors():
    Z = Subspace([], 3)
    assert Z.dim == 0 and [ZERO] * 3 in Z and [ONE, ZERO, ZERO] not in Z
    with pytest.raises(ValueError):
        Subspace([])


# -- the int route of rational matrices against the Scalar route ----------


@contextlib.contextmanager
def scalar_route():
    """Run every Matrix operation as the Scalar loop, as for irrational entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "_int_form", lambda self: False)
        yield


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
    return [[Scalar.from_fraction(x) for x in row] for row in out]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_int_route_equals_scalar_route(data):
    r, k, c = (data.draw(st.integers(1, 6)) for _ in range(3))
    A = Matrix(data.draw(rational_rows(r, k)))
    B = Matrix(data.draw(rational_rows(k, c)))
    A2 = Matrix(data.draw(rational_rows(r, k)))
    lam = Scalar.from_fraction(data.draw(fraction))
    a = [row.copy() for row in A.data] + data.draw(rational_rows(data.draw(st.integers(1, 3)), k))
    b = data.draw(rational_rows(data.draw(st.integers(1, 4)), k)) + a[: data.draw(st.integers(0, len(a)))]
    v = data.draw(st.sampled_from(a + b))
    w = data.draw(rational_rows(1, k))[0]

    def run():
        S, T = Subspace(a, k), Subspace(b, k)
        return [
            A * B, A + A2, A - A2, A.scale(lam), A.transpose(), A == A2, A.rank(), A.nullspace(),
            S == T, v in S, w in S, w in T, S & T, T & S, S.complement_in(T), T.complement_in(S),
        ]

    fast = run()
    assert A.is_rational() and A._int_form()
    with scalar_route():
        slow = run()
    for x, y in zip(fast, slow):
        if isinstance(x, Subspace):
            assert (x.n, x.pivots, x.rows) == (y.n, y.pivots, y.rows)
        else:
            assert x == y


def test_rational_matrices_keep_the_int_form():
    sig = build_outer("sigma")
    cube = sig * sig * sig
    assert cube._data is None and cube == Matrix.identity(28)
    assert cube._data is None  # no Scalar was built to compare
    assert cube.data[0][0] == ONE and cube.data[0][1] == ZERO
    rref, pivots = (sig - Matrix.identity(28))._echelon()
    assert rref._data is None and len(pivots) == 14
    half = Matrix.from_int_rows([[1, 2], [3, 4]]).scale(Scalar.rational(1, 2))
    assert half._int_form() == ([[1, 2], [3, 4]], 2)
    assert half.scale(Scalar.rational(2))._int_form() == ([[1, 2], [3, 4]], 1)


def test_irrational_matrices_take_the_scalar_route():
    M = Matrix([[ONE, SQRT3], [ZERO, I]])
    assert M._int_form() is False and not M.is_rational()
    assert M * Matrix.identity(2) == M and M.rank() == 2
    assert Matrix.identity(2).scale(I) != Matrix.identity(2)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rational_vectors_take_the_int_route(data):
    r, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    A = Matrix(data.draw(rational_rows(r, k)))
    a = data.draw(rational_rows(data.draw(st.integers(1, 4)), k))
    member = data.draw(st.sampled_from(a))
    w = data.draw(rational_rows(1, k))[0]

    def run():
        S = Subspace(a, k)
        return [A.apply(w), A.apply(member) if r == k else None, w in S, member in S]

    fast = run()
    with scalar_route():
        slow = run()
    assert fast == slow and fast[3]


def test_rational_membership_and_apply_build_no_matrix_and_no_scalar_loop(monkeypatch):
    A = build_outer("sigma")
    S = Subspace(A - Matrix.identity(28))
    inside = S.rows[3]
    outside = [Scalar.rational(k, 3) for k in range(28)]
    with scalar_route():
        want = [A.apply(outside), A.apply(inside), inside in S, outside in S]

    def forbidden(*args):
        raise AssertionError("a Scalar loop or a one-row Matrix")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(Scalar, name, forbidden)
    monkeypatch.setattr(Matrix, "__init__", forbidden)
    assert [A.apply(outside), A.apply(inside), inside in S, outside in S] == want
    assert want[2] and not want[3]
