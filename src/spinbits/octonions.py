"""Division-algebra tables from Clifford multiplication on real spinor frames.

The bilinear map (vector, positive real spinor) -> negative real spinor
sends each (frame vector, frame spinor) pair to exactly plus or minus a
frame spinor; identifying the three frames with one coordinate space
turns the table into the octonion multiplication table (and at stage 4,
the quaternion one).

Each row of a table is a real ``matrices.Monomial``, a signed permutation:
row i of the unit table is left multiplication by unit i, so the product's
signed picks are its rows' signed sources and associativity is a
composition of rows.  ``cells`` reads a row as (sign, index) pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, List, Sequence, Tuple

from .clifford import clifford_apply
from .matrices import Monomial, real_basis_frame, signed_pick
from .scalars import draw_ints
from .spinors import Spinor


def _signed_cell(frame, psi: Spinor) -> Tuple[int, int]:
    """The (index, phase) of psi as a frame vector: psi is plus (phase 0) or
    minus (phase 2) the frame vector at index."""
    coords = frame.expand(psi)
    hits = [(m, c) for m, c in enumerate(coords) if c]
    if len(hits) != 1 or abs(hits[0][1]) != 1:
        raise AssertionError(f"product is not a signed frame element: {hits}")
    m, c = hits[0]
    return m, 0 if c > 0 else 2


@lru_cache(maxsize=None)
def real_clifford_table(n: int = 8) -> Tuple[Monomial, ...]:
    """Row i is e_{i+1} from the positive to the negative real frame: a real
    Monomial sending column j to the signed negative-frame index of e_{i+1}
    acting on the j-th positive-frame spinor.

    Built once per n: callers share the rows, which never change.
    """
    plus = real_basis_frame(n, "plus")
    minus = real_basis_frame(n, "minus")
    return tuple(
        Monomial(*zip(*(_signed_cell(minus, clifford_apply(n, i + 1, v)) for v in plus.vectors)))
        for i in range(len(plus.vectors))
    )


def division_table(n: int = 8) -> List[Monomial]:
    """Unit multiplication table after identifying the three frames: row i is
    left multiplication by unit i.

    Frame vector i is identified with plus or minus unit i as its column 0
    forces, e_{i+1} psi_0 = +-phi_i with unit 0 the two-sided identity, so
    row i is negated when its column 0 has phase 2.  A real table whose
    column 0 moves a label is not checked here: C7's identity checks fail on
    the unit table it gives.
    """
    return [-row if row.phase[0] else row for row in real_clifford_table(n)]


def octonion_table() -> List[Monomial]:
    return division_table(8)


def quaternion_table() -> List[Monomial]:
    return division_table(4)


def cells(row: Monomial) -> List[Tuple[int, int]]:
    """The row's cells as (sign, index) pairs: column j goes to sign times basis vector index."""
    return [(1 - e, k) for k, e in zip(row.perm, row.phase)]


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
def _product_picks() -> Tuple[Callable[[Sequence[int]], tuple], ...]:
    """Pick k sends y + (-y) to the signed y_j that multiply x_0, ..., x_7 into
    unit k: entry k of row i's signed source, since row i is left
    multiplication by unit i."""
    return tuple(map(signed_pick, zip(*(row.signed_source() for row in octonion_table()))))


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
    c = [cells(row) for row in table]
    d = len(c)
    identity = all(c[0][j] == (1, j) == c[j][0] for j in range(d))
    squares = all(c[i][i] == (-1, 0) for i in range(1, d))
    anticommute = all(
        c[i][j] == (-c[j][i][0], c[j][i][1]) for i in range(1, d) for j in range(1, d) if i != j
    )
    return identity, squares, anticommute


def algebra_checks(samples: int = 100, seed: int = 1) -> List[Tuple[str, bool]]:
    """Exact division-algebra properties on seeded random rational octonions."""
    rng = random.Random(seed)
    results = list(zip(
        ("unit 0 is a two-sided identity",
         "imaginary units square to minus the identity",
         "distinct imaginary units anticommute"),
        _unit_laws(octonion_table()),
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
             table[i].perm[j] not in (0, i, j)
             for i in range(1, 4) for j in range(1, 4) if i != j
         ))
    )
    # (e_a e_b) e_c = e_a (e_b e_c) for every c: left multiplication by e_a
    # after e_b is left multiplication by e_a e_b = +-e_k
    assoc = all(
        table[a].compose(table[b]) == (-table[k] if e else table[k])
        for a, row in enumerate(table) for b, (k, e) in enumerate(zip(row.perm, row.phase))
    )
    results.append(("associativity on all 64 basis triples", assoc))
    return results
