"""Dense exact matrices over the scalar field, representation matrices,
and the independent tensor-product oracle for the generator action.

Matrices act on coordinate columns.  The spinor-space basis order is
always u_0, u_1, ..., u_{2^k - 1}; chirality bases are index-filtered
from that order, and real bases come from spinors.real_form_basis.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .clifford import lambda_vector, word_apply, CliffordElem
from .scalars import I, ONE, Scalar, ZERO
from .spinors import Spinor, chirality, hermitian, real_form_basis


class Matrix:
    """Rectangular matrix with Scalar entries and exact elimination."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: List[List[Scalar]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.data = data

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_int_rows(rows: Sequence[Sequence[int]]) -> "Matrix":
        return Matrix([[Scalar.rational(x) for x in row] for row in rows])

    @staticmethod
    def from_columns(cols: List[List[Scalar]]) -> "Matrix":
        rows = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(rows)])

    def __getitem__(self, rc: Tuple[int, int]) -> Scalar:
        return self.data[rc[0]][rc[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self.data])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        odata = other.data
        out = []
        for lrow in self.data:
            nonzero = [(l, x) for l, x in enumerate(lrow) if x]
            row = []
            for j in range(other.cols):
                acc = ZERO
                for l, x in nonzero:
                    acc = acc + x * odata[l][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def _shape_check(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def apply(self, vec: List[Scalar]) -> List[Scalar]:
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        nonzero = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for row in self.data:
            acc = ZERO
            for j, v in nonzero:
                acc = acc + row[j] * v
            out.append(acc)
        return out

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == -self.data[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def is_rational(self) -> bool:
        return all(x.is_rational() for row in self.data for x in row)

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self) -> Tuple[int, List[List[Scalar]]]:
        """Exact (rank, kernel basis); rank + len(basis) == cols."""
        ech, pivots = self._echelon()
        pivot_cols = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_cols]
        basis = []
        for f in free:
            vec = [ZERO] * self.cols
            vec[f] = ONE
            # back-substitute pivot rows (echelon has unit pivots, zeros above)
            for r in range(len(pivots) - 1, -1, -1):
                pc = pivots[r]
                acc = ZERO
                for j in range(pc + 1, self.cols):
                    if vec[j]:
                        acc = acc + ech[r][j] * vec[j]
                vec[pc] = -acc
            basis.append(vec)
        return len(pivots), basis

    def _echelon(self) -> Tuple[List[List[Scalar]], List[int]]:
        """Reduced row echelon form with unit pivots; returns (rows, pivot cols)."""
        m = [row[:] for row in self.data]
        pivots: List[int] = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = m[r][c].inverse()
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [m[i][j] - f * m[r][j] for j in range(self.cols)]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[x.to_json() for x in row] for row in self.data],
        }

    @staticmethod
    def from_json(obj: dict) -> "Matrix":
        return Matrix([[Scalar.from_json(x) for x in row] for row in obj["entries"]])

    def latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(x.latex() for x in row) for row in self.data
        )
        return "\\left(\\begin{array}{%s}\n%s\n\\end{array}\\right)" % ("c" * self.cols, body)

    def __repr__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Bilinear coordinate product (no complex conjugation)."""
    acc = ZERO
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


class Subspace:
    """The span of some vectors in an n-dimensional coordinate space.

    The span is held as its reduced row echelon form, computed once: its
    ``rows`` have unit pivots in the ``pivots`` columns and zeros above
    and below them.  That form is unique, so two spans are equal exactly
    when their rows are, and membership is a single reduction.
    """

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, vectors: Sequence[Sequence[Scalar]], n: int | None = None):
        vectors = [list(v) for v in vectors]
        self.n = len(vectors[0]) if vectors else n
        if self.n is None:
            raise ValueError("the span of no vectors needs its dimension n")
        ech, self.pivots = Matrix(vectors)._echelon()
        self.rows = ech[: len(self.pivots)]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __contains__(self, vec: Sequence[Scalar]) -> bool:
        """Clear each pivot coordinate of ``vec``; a member leaves nothing."""
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                vec = [x - c * y if y else x for x, y in zip(vec, row)]
        return not any(vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, by Zassenhaus: reduce the rows (a | a) and (b | 0);
        the rows left with a zero first half span a & b in their second."""
        n, pad = self.n, [ZERO] * self.n
        ech, pivots = Matrix([r + r for r in self.rows] + [r + pad for r in other.rows])._echelon()
        return Subspace([row[n:] for row, p in zip(ech, pivots) if p >= n], n)

    def complement_in(self, outer: "Subspace") -> "Subspace":
        """Members of ``outer`` orthogonal to this span under _dot."""
        if not self.rows:
            return outer
        gram = Matrix([[_dot(s, t) for t in outer.rows] for s in self.rows])
        _, kernel = gram.nullspace()
        return Subspace(
            [[_dot(c, col) for col in zip(*outer.rows)] for c in kernel], self.n
        )


def max_oracle_dim() -> int:
    return int(os.environ.get("SPINBITS_MAX_N", "12"))


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


@lru_cache(maxsize=None)
def tensor_oracle(n: int) -> Tuple[Matrix, ...]:
    """Dense generator matrices built purely from 2x2 tensor factors.

    Slot 1 is the most significant bit; e_{2j-1} and e_{2j} carry g1/g2
    in slot k-j+1 with T factors to the right, and an odd top generator
    is i times T in every slot.  Serves as the independent oracle for
    the bit-flip route.
    """
    if n > max_oracle_dim():
        raise ValueError(f"n={n} above oracle limit {max_oracle_dim()}")
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


@lru_cache(maxsize=None)
def gamma_oracle_matrix(n: int) -> Matrix:
    """Tensor-product matrix of gamma_n; apply after conjugating coordinates."""
    if n > max_oracle_dim():
        raise ValueError(f"n={n} above oracle limit {max_oracle_dim()}")
    k = n // 2
    blocks = [_u_block("alpha" if s % 2 == 1 else "beta") for s in range(1, k + 1)]
    return Matrix(_kron_chain(blocks))


def gamma_oracle_apply(n: int, psi: Spinor) -> Spinor:
    """gamma_n via the tensor oracle: conjugate coordinates, then multiply."""
    k = n // 2
    vec = [psi.coeff(a).conjugate() for a in range(1 << k)]
    out = gamma_oracle_matrix(n).apply(vec)
    return Spinor(k, {a: c for a, c in enumerate(out) if c})


def spinor_to_column(psi: Spinor) -> List[Scalar]:
    return [psi.coeff(a) for a in range(1 << psi.k)]


def kappa_matrix(n: int, word: Sequence[int]) -> Matrix:
    """Matrix of the word's spinor action; column a is the image of u_a."""
    k = n // 2
    cols = []
    for a in range(1 << k):
        cols.append(spinor_to_column(word_apply(n, word, Spinor.basis(k, a))))
    return Matrix.from_columns(cols)


def chirality_indices(n: int, sign: int) -> List[int]:
    """Ascending basis indices of the (+1 or -1) half-spinor space."""
    k = n // 2
    return [a for a in range(1 << k) if chirality(a) == sign]


def kappa_pm_matrix(n: int, word: Sequence[int], sign: int) -> Matrix:
    """Half-spinor matrix of an even word, in the chirality-filtered basis."""
    if n % 2:
        raise ValueError("half-spinor spaces need even n")
    if len(word) % 2:
        raise ValueError("odd words reverse chirality")
    k = n // 2
    idx = chirality_indices(n, sign)
    pos = {a: m for m, a in enumerate(idx)}
    cols = []
    for a in idx:
        img = word_apply(n, word, Spinor.basis(k, a))
        col = [ZERO] * len(idx)
        for b, c in img.terms.items():
            if b not in pos:
                raise ValueError("word left the chirality subspace")
            col[pos[b]] = c
        cols.append(col)
    return Matrix.from_columns(cols)


class RealBasisFrame:
    """An ordered real basis together with fast expansion of span members."""

    def __init__(self, r: int, which: str):
        self.r = r
        self.which = which
        self.vectors = real_form_basis(r, which)
        self.support: Dict[int, List[int]] = {}
        for m, v in enumerate(self.vectors):
            for a in v.terms:
                self.support.setdefault(a, []).append(m)

    def expand_scalars(self, psi: Spinor) -> List[Scalar]:
        """Exact real-field coordinates of a member of the real span.

        Coordinates are Re<b_m, psi> against the basis; the expansion is
        validated by reconstructing psi, so leaving the span is an error.
        """
        candidates = sorted({m for a in psi.terms for m in self.support.get(a, ())})
        coords = [ZERO] * len(self.vectors)
        recon = Spinor.zero(psi.k)
        for m in candidates:
            x = hermitian(self.vectors[m], psi).real_part()
            if x:
                coords[m] = x
                recon = recon + self.vectors[m].scale(x)
        if recon != psi:
            raise ValueError("vector is not in the real span")
        return coords

    def expand(self, psi: Spinor) -> List[Fraction]:
        """Rational coordinates; raises when any coordinate needs a radical."""
        out = []
        for x in self.expand_scalars(psi):
            if not x.is_rational():
                raise ValueError("expansion produced an irrational coordinate")
            out.append(x.as_fraction())
        return out


@lru_cache(maxsize=None)
def real_basis_frame(r: int, which: str) -> RealBasisFrame:
    return RealBasisFrame(r, which)


def real_rep_matrix(r: int, word: Sequence[int], source: str) -> Matrix:
    """Rational matrix of a word between real forms, in the standard frames.

    ``source`` names the starting real basis; odd words move plus <->
    minus (when those forms exist), even words stay put.  Entries must
    come out purely rational or the word does not act on the real forms.
    """
    src = real_basis_frame(r, source)
    if len(word) % 2 == 0:
        dst = src
    else:
        flip = {"plus": "minus", "minus": "plus"}
        if source not in flip:
            raise ValueError("odd words need plus/minus forms on both sides")
        dst = real_basis_frame(r, flip[source])
    cols = []
    for v in src.vectors:
        img = word_apply(r, word, v)
        try:
            coords = dst.expand(img)
        except ValueError as e:
            raise ValueError(f"word {list(word)} does not preserve the real spans: {e}")
        cols.append([Scalar.from_fraction(f) if f else ZERO for f in coords])
    return Matrix.from_columns(cols)


def lambda_matrix(n: int, g) -> Matrix:
    """n x n matrix of the conjugation action on vectors of an even word
    or of an even CliffordElem (see clifford.lambda_vector)."""
    cols = []
    for i in range(1, n + 1):
        img = lambda_vector(n, g, CliffordElem.generator(n, i))
        col = [ZERO] * n
        for m, c in img.terms.items():
            col[m.bit_length() - 1] = c
        cols.append(col)
    return Matrix.from_columns(cols)


def e_basis_decompose(M: Matrix) -> Dict[Tuple[int, int], Fraction]:
    """Coefficients of an antisymmetric matrix over the standard basis E_ij.

    E_ij maps the i-th coordinate vector to the j-th and the j-th to
    minus the i-th, so c_ij is read off at entry (j, i); inputs must be
    antisymmetric with rational entries.
    """
    if not M.is_antisymmetric():
        raise ValueError("matrix is not antisymmetric")
    out = {}
    for i in range(1, M.rows + 1):
        for j in range(i + 1, M.cols + 1):
            c = M.data[j - 1][i - 1]
            if c:
                if not c.is_rational():
                    raise ValueError("non-rational entry in decomposition")
                out[(i, j)] = c.as_fraction()
    return out


def e_basis_compose(n: int, coeffs: Dict[Tuple[int, int], Fraction]) -> Matrix:
    """Inverse of e_basis_decompose: build the antisymmetric matrix."""
    M = [[ZERO] * n for _ in range(n)]
    for (i, j), c in coeffs.items():
        M[j - 1][i - 1] = Scalar.from_fraction(c)
        M[i - 1][j - 1] = Scalar.from_fraction(-c)
    return Matrix(M)
