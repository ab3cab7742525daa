"""The dense and dict routes of the bit rule, kept as test oracles.

``spinbits`` reads every generator action, structure map and real frame
block off the int bit rule as a ``Monomial``.  The routes it had before
are kept here, deliberately naive, so that each fast route is checked
against an independent slow one:

* ``dense_tensor_oracle`` and ``gamma_oracle_matrix`` build dense
  2^k x 2^k ``Scalar`` matrices as Kronecker products of 2x2 blocks;
* ``frame_kappa_real_matrix`` expands each word image in the stage-8
  real frame (``real_rep_matrix``) and then flips the frame orientation;
* ``SignedPermMatrix`` is a signed permutation held as dicts both ways;
* ``scalar_kernel`` builds a kernel basis as ``Scalar`` rows off the
  reduced echelon rows, the route ``Matrix.nullspace`` takes for
  irrational matrices only.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from spinbits.matrices import Matrix, real_rep_matrix
from spinbits.scalars import I, ONE, Scalar, ZERO
from spinbits.spinors import Spinor
from spinbits.triality import FRAME_SIGNS


def _u_block(name: str) -> List[List[Scalar]]:
    """2x2 blocks of the standard maps in the ordered basis (u_plus, u_minus)."""
    M1 = Scalar.rational(-1)
    return {
        "id": [[ONE, ZERO], [ZERO, ONE]],
        "g1": [[ZERO, I], [I, ZERO]],
        "g2": [[ZERO, M1], [ONE, ZERO]],
        "T": [[M1, ZERO], [ZERO, ONE]],
        "alpha": [[ZERO, I], [-I, ZERO]],
        "beta": [[ZERO, ONE], [ONE, ZERO]],
    }[name]


def _kron(a: List[List[Scalar]], b: List[List[Scalar]]) -> List[List[Scalar]]:
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    out = [[ZERO] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            if not a[i][j]:
                continue
            for p in range(rb):
                for q in range(cb):
                    if b[p][q]:
                        out[i * rb + p][j * cb + q] = a[i][j] * b[p][q]
    return out


def _kron_chain(blocks: List[List[List[Scalar]]]) -> List[List[Scalar]]:
    out = blocks[0]
    for b in blocks[1:]:
        out = _kron(out, b)
    return out


def dense_tensor_oracle(n: int) -> Tuple[Matrix, ...]:
    """Dense generator matrices built from 2x2 tensor factors (slot 1 is
    the most significant bit; see ``spinbits.matrices.tensor_oracle``)."""
    k = n // 2
    mats = []
    for p in range(1, n + 1):
        if p == n and n % 2 == 1:
            m = _kron_chain([_u_block("T")] * k)
            m = [[I * x for x in row] for row in m]
        else:
            j = (p + 1) // 2
            g = "g1" if p % 2 == 1 else "g2"
            blocks = [_u_block("id")] * (k - j) + [_u_block(g)] + [_u_block("T")] * (j - 1)
            m = _kron_chain(blocks)
        mats.append(Matrix(m))
    return tuple(mats)


def gamma_oracle_matrix(n: int) -> Matrix:
    """Dense tensor-product matrix of gamma_n; apply after conjugating coordinates."""
    k = n // 2
    return Matrix(_kron_chain([_u_block("alpha" if s % 2 == 1 else "beta") for s in range(1, k + 1)]))


def gamma_oracle_apply(n: int, psi: Spinor) -> Spinor:
    """gamma_n via the dense tensor matrix: conjugate coordinates, then multiply."""
    k = n // 2
    vec = [psi.coeff(a).conjugate() for a in range(1 << k)]
    out = gamma_oracle_matrix(n).apply(vec)
    return Spinor(k, {a: c for a, c in enumerate(out) if c})


def frame_kappa_real_matrix(word: Sequence[int], sign: str) -> Matrix:
    """The stage-8 real half-spinor matrix through frame expansion, with the
    4th and 5th frame vectors negated as in ``spinbits.triality``."""
    M = real_rep_matrix(8, list(word), sign)
    return Matrix([
        [-x if x and FRAME_SIGNS[r] * FRAME_SIGNS[c] < 0 else x for c, x in enumerate(row)]
        for r, row in enumerate(M.data)
    ])


class SignedPermMatrix:
    """Signed permutation matrix, stored sparsely both ways."""

    __slots__ = ("n", "col_to_row", "row_to_col")

    def __init__(self, n: int, col_to_row: Dict[int, Tuple[int, int]]):
        if len(col_to_row) != n:
            raise ValueError("not a permutation")
        self.n = n
        self.col_to_row = col_to_row
        self.row_to_col = {}
        for c, (r, s) in col_to_row.items():
            if s not in (1, -1):
                raise ValueError("entries must be +-1")
            if r in self.row_to_col:
                raise ValueError("not a permutation")
            self.row_to_col[r] = (c, s)

    def apply(self, z: Sequence) -> List:
        if len(z) != self.n:
            raise ValueError("length mismatch")
        return [z[c] if s > 0 else -z[c]
                for c, s in map(self.row_to_col.__getitem__, range(self.n))]

    def compose(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        # self * other as matrices
        c2r = {}
        for c, (mid, s1) in other.col_to_row.items():
            r, s2 = self.col_to_row[mid]
            c2r[c] = (r, s1 * s2)
        return SignedPermMatrix(self.n, c2r)

    def is_antisymmetric(self) -> bool:
        return all(
            self.col_to_row.get(r) == (c, -s) for c, (r, s) in self.col_to_row.items()
        )

    def __neg__(self) -> "SignedPermMatrix":
        return SignedPermMatrix(self.n, {c: (r, -s) for c, (r, s) in self.col_to_row.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedPermMatrix)
            and self.n == other.n
            and self.col_to_row == other.col_to_row
        )

    def to_int_rows(self) -> List[List[int]]:
        rows = [[0] * self.n for _ in range(self.n)]
        for c, (r, s) in self.col_to_row.items():
            rows[r][c] = s
        return rows


def scalar_kernel(M: Matrix) -> List[List[Scalar]]:
    """The kernel basis of M as Scalar rows: for each free column f, e_f with
    minus the f entry of each reduced echelon row at that row's pivot."""
    ech, pivots = M._echelon()
    pivot_cols = set(pivots)
    basis = []
    for f in (j for j in range(M.cols) if j not in pivot_cols):
        vec = [ZERO] * M.cols
        vec[f] = ONE
        for row, pc in zip(ech.data, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    return basis
