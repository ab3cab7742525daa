import math
import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import octonions as octonion_module, reference as ref
from spinbits.matrices import Monomial
from spinbits.octonions import (
    Octonion,
    algebra_checks,
    cells,
    division_table,
    octonion_mul,
    octonion_table,
    quaternion_checks,
    quaternion_table,
    random_octonion,
    real_clifford_table,
)

from dense_oracle import signed_index_division_table, signed_index_table, triple_loop_associative


def octonion(coeffs):
    """The Octonion of eight ints or Fractions, over the lcm of their denominators."""
    fracs = [Fraction(c) for c in coeffs]
    d = lcm(*(f.denominator for f in fracs))
    return Octonion._of([f.numerator * (d // f.denominator) for f in fracs], d)


def coeffs(x):
    """The Octonion's eight coefficients as Fractions."""
    return tuple(Fraction(n, x._d) for n in x._n)


def test_real_clifford_table_matches_tabulated():
    table = real_clifford_table(8)
    gold = [ref.signed_ints(r) for r in ref.PHI_TABLE]
    assert [cells(row) for row in table] == gold


def test_real_clifford_table_spot_cells():
    table = real_clifford_table(8)
    assert cells(table[0])[0] == (1, 0)
    assert cells(table[1])[0] == (-1, 1)
    assert cells(table[6])[6] == (1, 0)


def test_identification_signs():
    """Column 0 of the real table fixes labels, with the signs that identify
    each frame vector with a unit."""
    signs = [1, -1, -1, 1, 1, -1, -1, -1]
    assert [cells(row)[0] for row in real_clifford_table(8)] == [(s, i) for i, s in enumerate(signs)]


def test_octonion_table_matches_tabulated():
    table = octonion_table()
    gold = [ref.signed_ints(r) for r in ref.OCT_TABLE]
    assert [cells(row) for row in table] == gold


def test_octonion_table_spot_cells():
    table = octonion_table()
    assert cells(table[1])[2] == (-1, 3)
    assert cells(table[4])[5] == (-1, 1)
    for j in range(8):
        assert cells(table[0])[j] == (1, j)


def test_octonion_mul_examples():
    x = octonion([Fraction(k, 3) for k in range(1, 9)])
    assert octonion_mul(Octonion.unit(0), x) == x
    assert octonion_mul(Octonion.unit(1), Octonion.unit(1)) == octonion([-1] + [0] * 7)

    e1, e2, e4 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(4)
    lhs = octonion_mul(octonion_mul(e1, e2), e4)
    rhs = octonion_mul(e1, octonion_mul(e2, e4))
    assert lhs == Octonion.unit(7)
    assert rhs == octonion([0] * 7 + [-1])


def test_norm_multiplicativity_example():
    e4 = Octonion.unit(4)
    x = octonion([0, 1, 1, 0, 0, 0, 0, 0])  # e1 + e2
    prod = octonion_mul(x, e4)
    assert prod.norm() == Fraction(2)
    assert x.norm() * e4.norm() == Fraction(2)
    assert prod == octonion([0, 0, 0, 0, 0, -1, -1, 0])


def test_algebra_checks_all_pass():
    for name, ok in algebra_checks(samples=100, seed=1):
        assert ok, name


def test_algebra_checks_deterministic():
    first = algebra_checks(samples=25, seed=7)
    second = algebra_checks(samples=25, seed=7)
    assert first == second


def test_quaternion_table_structure():
    table = quaternion_table()
    assert len(table) == 4
    for name, ok in quaternion_checks():
        assert ok, name


def test_quaternion_identity_row():
    table = quaternion_table()
    for j in range(4):
        assert cells(table[0])[j] == (1, j)
        assert cells(table[j])[0] == (1, j)


def test_division_table_cells_are_unit_signed():
    for n in (4, 8):
        for row in division_table(n):
            for sign, index in cells(row):
                assert sign in (1, -1)
                assert 0 <= index < len(row.perm)


@pytest.mark.parametrize("n", [4, 8])
def test_cells_equal_the_signed_index_route(n):
    """The Monomial rows read as cells equal the SignedIndex cells, re-signed
    cell by cell by the identification signs."""
    assert [cells(row) for row in real_clifford_table(n)] == signed_index_table(n)
    assert [cells(row) for row in division_table(n)] == signed_index_division_table(n)


def test_a_negated_real_row_leaves_the_unit_table(monkeypatch):
    """Row i of the unit table is row i of the real table times the sign of its
    column 0, so negating a whole real row changes no unit product."""
    units, rows = division_table(8), list(real_clifford_table(8))
    rows[3] = -rows[3]
    monkeypatch.setattr(octonion_module, "real_clifford_table", lambda n: rows)
    assert division_table(8) == units


def corrupted(table, flips, swaps):
    """The table with the phase of each (row, column) in ``flips`` turned by 2,
    then the images of each (row, column, column) in ``swaps`` exchanged."""
    perm, phase = [list(r.perm) for r in table], [list(r.phase) for r in table]
    for r, c in flips:
        phase[r][c] ^= 2
    for r, c, k in swaps:
        perm[r][c], perm[r][k] = perm[r][k], perm[r][c]
    return [Monomial(p, e) for p, e in zip(perm, phase)]


cell_of_4 = st.integers(0, 3)


@given(st.lists(st.tuples(cell_of_4, cell_of_4), max_size=3),
       st.lists(st.tuples(cell_of_4, cell_of_4, cell_of_4), max_size=2))
@settings(max_examples=80, deadline=None)
def test_row_composition_associativity_equals_the_triple_loop(flips, swaps):
    table = corrupted(quaternion_table(), flips, swaps)
    with mock.patch.object(octonion_module, "quaternion_table", lambda: table):
        (assoc,) = [ok for name, ok in quaternion_checks() if name.startswith("associativity")]
    assert assoc == triple_loop_associative([cells(row) for row in table])
    if not flips and not swaps:
        assert assoc


def fraction_octonion_mul(x, y):
    """The Fraction loop that octonion_mul replaced: 64 Fraction multiply-adds."""
    table = [cells(row) for row in octonion_table()]
    out = [Fraction(0)] * 8
    for i, a in enumerate(coeffs(x)):
        for j, b in enumerate(coeffs(y)):
            sign, k = table[i][j]
            out[k] += sign * a * b
    return octonion(out)


octonions = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=30)),
    min_size=8, max_size=8,
).map(octonion)


@given(octonions, octonions)
@settings(max_examples=100, deadline=None)
def test_int_octonion_mul_agrees_with_fraction_loop(x, y):
    xy = octonion_mul(x, y)
    assert xy == fraction_octonion_mul(x, y)


def test_int_octonion_mul_on_coprime_denominators():
    x = octonion([Fraction(k + 1, p) for k, p in enumerate((2, 3, 5, 7, 11, 13, 17, 19))])
    y = octonion([Fraction(-k - 2, p) for k, p in enumerate((23, 29, 31, 37, 41, 43, 47, 53))])
    assert octonion_mul(x, y) == fraction_octonion_mul(x, y)
    assert octonion_mul(x, y).norm() == x.norm() * y.norm()


def loop_octonion_mul(x, y):
    """Oracle for octonion_mul: the 64-cell loop its signed picks replaced, on
    the int numerators, skipping zero coefficients."""
    table = [cells(row) for row in octonion_table()]
    out = [0] * 8
    for i, a in enumerate(x._n):
        if not a:
            continue
        for j, b in enumerate(y._n):
            if b:
                sign, k = table[i][j]
                out[k] += sign * a * b
    return Octonion._of(out, x._d * y._d)


units = st.integers(0, 7).map(Octonion.unit)
signed_units = st.tuples(units, st.sampled_from([1, -1])).map(
    lambda us: octonion([us[1] * c for c in coeffs(us[0])]))


@given(st.one_of(octonions, units, signed_units), st.one_of(octonions, units, signed_units))
@settings(max_examples=60, deadline=None)
def test_octonion_picks_agree_with_the_cell_loop(x, y):
    xy = octonion_mul(x, y)
    assert xy == loop_octonion_mul(x, y)
    assert xy._d > 0 and math.gcd(xy._d, *xy._n) == 1  # lowest terms, with or without a division
    assert type(xy._n) is tuple and all(type(c) is int for c in xy._n)


def test_unit_products_are_the_table():
    table = [cells(row) for row in octonion_table()]
    for i in range(8):
        for j in range(8):
            sign, k = table[i][j]
            want = octonion([sign * (t == k) for t in range(8)])
            assert octonion_mul(Octonion.unit(i), Octonion.unit(j)) == want
            assert loop_octonion_mul(Octonion.unit(i), Octonion.unit(j)) == want


class FractionOctonion:
    """Oracle for the int-numerator Octonion: eight Fractions, each operation
    on its own coefficients."""

    def __init__(self, values):
        self.coeffs = tuple(Fraction(c) for c in values)

    def norm(self):
        return sum((c * c for c in self.coeffs), Fraction(0))

    def __mul__(self, other):
        return FractionOctonion(coeffs(fraction_octonion_mul(octonion(self.coeffs), octonion(other.coeffs))))


# non-unit denominators throughout
fraction_coeffs = st.lists(
    st.builds(Fraction, st.integers(-40, 40), st.integers(2, 36)), min_size=8, max_size=8,
)


@given(fraction_coeffs, fraction_coeffs)
@settings(max_examples=150, deadline=None)
def test_int_octonion_agrees_with_the_fraction_oracle(a, b):
    x, y = octonion(a), octonion(b)
    fx, fy = FractionOctonion(a), FractionOctonion(b)
    assert coeffs(x) == fx.coeffs
    got, want = octonion_mul(x, y), fx * fy
    assert coeffs(got) == want.coeffs
    assert got == octonion(want.coeffs) and hash(got) == hash(octonion(want.coeffs))
    assert x.norm() == fx.norm() and type(x.norm()) is Fraction
    assert x.dot(y) == sum((s * t for s, t in zip(a, b)), Fraction(0))
    assert (x == y) == (fx.coeffs == fy.coeffs)


def test_real_clifford_tables_are_built_once_per_n(monkeypatch):
    from spinbits import verify
    from spinbits.matrices import RealBasisFrame

    expansions = []
    expand = RealBasisFrame.expand
    monkeypatch.setattr(RealBasisFrame, "expand",
                        lambda self, psi: expansions.append(len(self.vectors)) or expand(self, psi))
    real_clifford_table.cache_clear()
    report = verify.Report()
    verify.check_octonions(report, 0)
    assert report.fail_count == 0
    # one 8x8 table on the 8 stage-8 frame vectors and one 4x4 on the 4 at stage 4,
    # each cell expanded once
    assert sorted(expansions) == [4] * 16 + [8] * 64
    assert real_clifford_table(8) is real_clifford_table(8)
    assert isinstance(real_clifford_table(8)[0], Monomial)
    assert division_table(8) is not division_table(8)


def fraction_random_octonion(rng):
    """Oracle for random_octonion: eight Fractions, numerator drawn before denominator."""
    return octonion([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_random_octonion_equals_the_fraction_route(seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(5):
        x, y = random_octonion(fast), fraction_random_octonion(slow)
        assert x == y and coeffs(x) == coeffs(y)
    assert fast.random() == slow.random()  # the same draws, in the same order


def test_algebra_checks_computes_each_sample_product_once(monkeypatch):
    """x y and x x are formed once per sample: 7 products a sample, plus 4 for
    the associator witness and 8 for each of the 10 orthonormality points."""
    from spinbits import octonions

    calls = []
    real = octonions.octonion_mul
    monkeypatch.setattr(octonions, "octonion_mul", lambda x, y: calls.append(1) or real(x, y))
    for samples in (0, 1, 100):
        calls.clear()
        assert all(ok for _, ok in algebra_checks(samples, seed=1))
        assert len(calls) == 7 * samples + 4 + 80
