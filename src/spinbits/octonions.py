"""Division-algebra tables from Clifford multiplication on real spinor frames.

The bilinear map (vector, positive real spinor) -> negative real spinor
sends each (frame vector, frame spinor) pair to exactly plus or minus a
frame spinor; identifying the three frames with one coordinate space
turns the table into the octonion multiplication table (and at stage 4,
the quaternion one).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .clifford import clifford_apply
from .matrices import real_basis_frame, signed_pick
from .scalars import draw_ints
from .spinors import Spinor


class SignedIndex(NamedTuple):
    sign: int
    index: int

    def __neg__(self) -> "SignedIndex":
        return SignedIndex(-self.sign, self.index)


def _signed_expansion(frame, psi: Spinor) -> SignedIndex:
    coords = frame.expand(psi)
    hits = [(m, c) for m, c in enumerate(coords) if c]
    if len(hits) != 1 or abs(hits[0][1]) != 1:
        raise AssertionError(
            f"product is not a signed frame element: {hits}"
        )
    m, c = hits[0]
    return SignedIndex(1 if c > 0 else -1, m)


@lru_cache(maxsize=None)
def real_clifford_table(n: int = 8) -> Tuple[Tuple[SignedIndex, ...], ...]:
    """Cell (i, j) holds the signed negative-frame index of e_{i+1} acting
    on the j-th positive-frame spinor.

    Built once per n: callers share the rows, which are tuples.
    """
    plus = real_basis_frame(n, "plus")
    minus = real_basis_frame(n, "minus")
    d = len(plus.vectors)
    return tuple(
        tuple(_signed_expansion(minus, clifford_apply(n, i + 1, plus.vectors[j])) for j in range(d))
        for i in range(d)
    )


def identification_signs(n: int = 8) -> List[int]:
    """Signs s_i with (frame vector i) identified to s_i times unit i.

    Forced by the first column: e_{i+1} psi_0 = s_i phi_i, and unit 0 is
    the two-sided identity.
    """
    table = real_clifford_table(n)
    signs = []
    for i, row in enumerate(table):
        cell = row[0]
        if cell.index != i:
            raise AssertionError("first column is not a signed permutation fixing labels")
        signs.append(cell.sign)
    return signs


def division_table(n: int = 8) -> List[List[SignedIndex]]:
    """Unit multiplication table after identifying the three frames."""
    table = real_clifford_table(n)
    signs = identification_signs(n)
    d = len(table)
    return [
        [SignedIndex(signs[i] * table[i][j].sign, table[i][j].index) for j in range(d)]
        for i in range(d)
    ]


def octonion_table() -> List[List[SignedIndex]]:
    return division_table(8)


def quaternion_table() -> List[List[SignedIndex]]:
    return division_table(4)


class Octonion:
    """Octonion with eight exact rational coefficients.

    Held as eight int numerators over one positive denominator, in lowest
    terms, so equal octonions have equal numerators and denominators and
    every operation runs on ints.
    """

    __slots__ = ("_n", "_d")

    @staticmethod
    def _of(n: List[int], d: int) -> "Octonion":
        """The octonion n / d for int numerators n and d > 0."""
        g = gcd(d, *n)
        out = object.__new__(Octonion)
        out._n, out._d = (tuple(n), d) if g == 1 else (tuple(x // g for x in n), d // g)
        return out

    @staticmethod
    def unit(i: int) -> "Octonion":
        return Octonion._of([int(j == i) for j in range(8)], 1)

    def dot(self, other: "Octonion") -> Fraction:
        """The Euclidean inner product of the coefficient vectors."""
        return Fraction(sum(map(mul, self._n, other._n)), self._d * other._d)

    def norm(self) -> Fraction:
        return self.dot(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Octonion) and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))


@lru_cache(maxsize=None)
def _table() -> List[List[SignedIndex]]:
    return octonion_table()


@lru_cache(maxsize=None)
def _product_picks() -> Tuple[Callable[[Sequence[int]], tuple], ...]:
    """Pick k sends y + (-y) to the signed y_j that multiply x_0, ..., x_7 into
    unit k: row i of the table is a signed permutation, so e_i e_j = +-e_k at
    exactly one j."""
    sources = [[0] * 8 for _ in range(8)]
    for i, row in enumerate(_table()):
        for j, (sign, k) in enumerate(row):
            sources[k][i] = j if sign > 0 else j + 8
    return tuple(map(signed_pick, sources))


def octonion_mul(x: Octonion, y: Octonion) -> Octonion:
    """The product on integer numerators over one denominator: coefficient k is
    x dotted with one signed pick of y."""
    signed_y = (*y._n, *(-b for b in y._n))
    return Octonion._of([sum(map(mul, x._n, pick(signed_y))) for pick in _product_picks()], x._d * y._d)


def random_octonion(rng: random.Random) -> Octonion:
    """Coefficients p/q with p drawn from [-9, 9], then q from [1, 9]."""
    draws = draw_ints(rng, ((-9, 9), (1, 9)), 8)
    d = lcm(*draws[1::2])
    return Octonion._of([p * (d // q) for p, q in zip(draws[0::2], draws[1::2])], d)


def _unit_laws(table) -> Tuple[bool, bool, bool]:
    """The unit-table laws of a division algebra of any size: unit 0 is a
    two-sided identity, the imaginary units square to -1, and distinct
    imaginary units anticommute."""
    d = len(table)
    identity = all(table[0][j] == SignedIndex(1, j) == table[j][0] for j in range(d))
    squares = all(table[i][i] == SignedIndex(-1, 0) for i in range(1, d))
    anticommute = all(
        table[i][j] == -table[j][i] for i in range(1, d) for j in range(1, d) if i != j
    )
    return identity, squares, anticommute


def algebra_checks(samples: int = 100, seed: int = 1) -> List[Tuple[str, bool]]:
    """Exact division-algebra properties on seeded random rational octonions."""
    rng = random.Random(seed)
    results = list(zip(
        ("unit 0 is a two-sided identity",
         "imaginary units square to minus the identity",
         "distinct imaginary units anticommute"),
        _unit_laws(_table()),
    ))

    norm_ok = alt_left = alt_right = True
    for _ in range(samples):
        x = random_octonion(rng)
        y = random_octonion(rng)
        xy, xx = octonion_mul(x, y), octonion_mul(x, x)
        if xy.norm() != x.norm() * y.norm():
            norm_ok = False
        if octonion_mul(x, xy) != octonion_mul(xx, y):
            alt_left = False
        if octonion_mul(octonion_mul(y, x), x) != octonion_mul(y, xx):
            alt_right = False
    results.append((f"norm multiplicativity on {samples} samples", norm_ok))
    results.append((f"left alternativity on {samples} samples", alt_left))
    results.append((f"right alternativity on {samples} samples", alt_right))

    e1, e2, e4 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(4)
    witness = octonion_mul(octonion_mul(e1, e2), e4) != octonion_mul(
        e1, octonion_mul(e2, e4)
    )
    results.append(("non-associativity witness (units 1, 2, 4)", witness))

    orth = True
    for _ in range(10):
        x = random_octonion(rng)
        nx = x.norm()
        if not nx:
            continue
        cols = [octonion_mul(x, Octonion.unit(j)) for j in range(8)]
        for a in range(8):
            for b in range(a, 8):
                if cols[a].dot(cols[b]) != (nx if a == b else 0):
                    orth = False
    results.append(("left multiplication columns scale orthonormally", orth))
    return results


def quaternion_checks() -> List[Tuple[str, bool]]:
    """Associativity and the quaternionic relations for the stage-4 table."""
    table = quaternion_table()
    results = list(zip(
        ("identity row and column",
         "imaginary units square to minus identity",
         "imaginary units anticommute pairwise"),
        _unit_laws(table),
    ))
    results.append(
        ("product of two distinct imaginary units is the third",
         all(
             table[i][j].index not in (0, i, j)
             for i in range(1, 4) for j in range(1, 4) if i != j
         ))
    )

    def mul(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
        cell = table[x[1]][y[1]]
        return (x[0] * y[0] * cell.sign, cell.index)

    assoc = all(
        mul(mul((1, a), (1, b)), (1, c)) == mul((1, a), mul((1, b), (1, c)))
        for a in range(4) for b in range(4) for c in range(4)
    )
    results.append(("associativity on all 64 basis triples", assoc))
    return results
