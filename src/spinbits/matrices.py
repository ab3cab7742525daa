"""Dense exact matrices over the scalar field, monomial maps (a bit flip
times a power of i), representation matrices, real frame blocks read off
the bit rule, and the independent tensor-product oracle for the
generator action.

Matrices act on coordinate columns.  The spinor-space basis order is
always u_0, u_1, ..., u_{2^k - 1}; chirality bases are index-filtered
from that order, and real bases come from spinors.real_form_basis.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .clifford import lambda_vector, word_apply, word_phase, CliffordElem
from .scalars import ONE, Scalar, ZERO, _coerce, _ratio
from .spinors import Spinor, chirality, frame_index_set, hermitian, real_form_basis, real_structure_phase


class Matrix:
    """Rectangular matrix with Scalar entries and exact elimination.

    A matrix whose entries are all rational also has an int form: int rows
    over one positive denominator, in lowest terms, read off the entries'
    numerators once.  Products, sums, rational scaling, equality and
    elimination run on that form, and Scalar entries are built only when
    ``data`` is read.  A matrix with an irrational entry runs the same
    operations as Scalar loops; each operation picks its route from the
    entries of its operands.  A Matrix and its rows are never changed
    after construction, so the two forms cannot disagree.
    """

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, data: List[List[Scalar]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self._data = data
        self._ints = None  # the int form, or False; read through _int_form

    @staticmethod
    def _new(cols: int, data=None, ints=None) -> "Matrix":
        m = object.__new__(Matrix)
        m.rows = len(data if ints is None else ints[0])
        m.cols, m._data, m._ints = cols, data, ints
        return m

    @staticmethod
    def _of_ints(num: List[List[int]], den: int, cols: int) -> "Matrix":
        """The matrix num / den for int rows num (consumed) and den > 0."""
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        return Matrix._new(cols, ints=(num, den))

    def _int_form(self):
        """(int rows, denominator) when every entry is rational, else False."""
        if self._ints is None:
            self._ints = int_rows(self._data)
        return self._ints

    @property
    def data(self) -> List[List[Scalar]]:
        if self._data is None:
            num, den = self._ints
            self._data = [[_ratio(x, den) for x in row] for row in num]
        return self._data

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._new(cols, ints=([[0] * cols for _ in range(rows)], 1))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_int_rows([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_int_rows(rows: Sequence[Sequence[int]], den: int = 1) -> "Matrix":
        """The matrix rows / den for int rows and an int den > 0."""
        num = [list(row) for row in rows]
        return Matrix._of_ints(num, den, len(num[0]) if num else 0)

    @staticmethod
    def from_columns(cols: List[List[Scalar]]) -> "Matrix":
        rows = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(rows)])

    def __getitem__(self, rc: Tuple[int, int]) -> Scalar:
        return self.data[rc[0]][rc[1]]

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Matrix) and self.rows == other.rows and self.cols == other.cols):
            return False
        a, b = self._int_form(), other._int_form()
        if a or b:  # both canonical, or a rational matrix against an irrational one
            return a == b
        return self.data == other.data

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        self._shape_check(other)
        a, b = self._int_form(), other._int_form()
        if a and b:
            (an, ad), (bn, bd) = a, b
            g = gcd(ad, bd)
            fa, fb = bd // g, sign * (ad // g)
            return Matrix._of_ints(
                [[x * fa + y * fb for x, y in zip(r, s)] for r, s in zip(an, bn)],
                ad * fa, self.cols,
            )
        op = operator.add if sign > 0 else operator.sub
        return Matrix._new(self.cols, data=[list(map(op, r, s)) for r, s in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c: Scalar) -> "Matrix":
        a = self._int_form()
        if a and c.is_rational():
            num, den = a
            k = c._n[0] if c._n else 0
            return Matrix._of_ints([[k * x for x in row] for row in num], den * c._d, self.cols)
        return Matrix._new(self.cols, data=[[c * x for x in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        a, b = self._int_form(), other._int_form()
        if a and b:
            (an, ad), (bn, bd) = a, b
            bnz = [[(j, y) for j, y in enumerate(row) if y] for row in bn]
            out = []
            for lrow in an:
                acc = [0] * other.cols
                for l, x in enumerate(lrow):
                    if x:
                        for j, y in bnz[l]:
                            acc[j] += x * y
                out.append(acc)
            return Matrix._of_ints(out, ad * bd, other.cols)
        # row i of the product is other's transpose applied to row i of self
        T = other.transpose()
        return Matrix._new(other.cols, data=[T.apply(lrow) for lrow in self.data])

    def _shape_check(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def transpose(self) -> "Matrix":
        a = self._int_form()
        if a:
            num, den = a
            return Matrix._new(self.rows, ints=([[row[j] for row in num] for j in range(self.cols)], den))
        data = self.data
        return Matrix._new(self.rows, data=[[row[j] for row in data] for j in range(self.cols)])

    def apply(self, vec: List[Scalar]) -> List[Scalar]:
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        a = self._int_form()
        v = a and int_rows([list(map(_coerce, vec))])
        if v:
            (num, ad), ([x], vd) = a, v
            return [_ratio(sum(map(operator.mul, row, x)), ad * vd) for row in num]
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
        a = self._int_form()
        rows = a[0] if a else self.data
        return all(
            rows[i][j] == -rows[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def is_rational(self) -> bool:
        return bool(self._int_form())

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self) -> Tuple[int, "Matrix"]:
        """Exact (rank, kernel basis as the rows of a Matrix); rank + basis rows == cols.

        Each free column f gives the basis row e_f minus, at the pivot of each
        reduced echelon row, that row's entry f.  For a rational matrix, whose
        echelon rows are R / d, that is d e_f - R[.][f] over d, built on ints.
        """
        ech, pivots = self._echelon()
        a = ech._int_form()
        rows, zero, unit = (a[0], 0, a[1]) if a else (ech.data, ZERO, ONE)
        pivot_cols = set(pivots)
        basis = []
        for f in (j for j in range(self.cols) if j not in pivot_cols):
            vec = [zero] * self.cols
            vec[f] = unit
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[f]
            basis.append(vec)
        if a:
            return len(pivots), Matrix._of_ints(basis, a[1], self.cols)
        return len(pivots), Matrix._new(self.cols, data=basis)

    def _echelon(self) -> Tuple["Matrix", List[int]]:
        """The nonzero rows of the reduced row echelon form, and their pivot columns.

        That form is unique.  A rational matrix reaches it by fraction-free
        elimination on its int rows: each update p * row - f * pivot_row is
        divided by its content, and the pivot rows are scaled to a common
        pivot value d at the end, which is the form's denominator.
        """
        a = self._int_form()
        if a:
            m = [_primitive(row) for row in a[0]]
            pivots = _eliminate(m, self.cols, _int_clear)
            rows = m[: len(pivots)]
            d = lcm(*(row[c] for row, c in zip(rows, pivots)))
            return Matrix._of_ints(
                [[x * (d // row[c]) for x in row] for row, c in zip(rows, pivots)], d, self.cols
            ), pivots
        m = [row[:] for row in self.data]
        pivots = _eliminate(m, self.cols, _scalar_clear, _scalar_unit)
        return Matrix._new(self.cols, data=m[: len(pivots)]), pivots

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[x.to_json() for x in row] for row in self.data],
        }

    def latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(x.latex() for x in row) for row in self.data
        )
        return "\\left(\\begin{array}{%s}\n%s\n\\end{array}\\right)" % ("c" * self.cols, body)

    def __repr__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)


def _eliminate(m: list, cols: int, clear, to_unit=None) -> List[int]:
    """Gauss-Jordan elimination of the rows m in place; returns the pivot columns.

    ``clear(row, pivot_row, c)`` clears column c of ``row``, and
    ``to_unit(row, c)``, when given, scales a new pivot row to a unit
    pivot.  The first len(pivots) rows of m end up as the pivot rows, the
    rest are zero.
    """
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if to_unit is not None:
            m[r] = to_unit(m[r], c)
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = clear(m[i], m[r], c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def _scalar_unit(row, c):
    inv = row[c].inverse()
    return [inv * x if x else x for x in row]


def _scalar_clear(row, prow, c):
    f = row[c]
    return [x - f * y if y else x for x, y in zip(row, prow)]


def _int_clear(row, prow, c):
    p, f = prow[c], row[c]
    return _primitive([p * x - f * y for x, y in zip(row, prow)])


def int_rows(rows: Sequence[Sequence[Scalar]]):
    """(int rows, one positive denominator) of Scalar rows whose entries
    are all rational, in lowest terms; False when an entry is irrational."""
    nonzero = [x for row in rows for x in row if x._n]
    if any([len(x._n) > 1 for x in nonzero]):
        return False
    # canonical entries over the lcm of their denominators leave no common
    # factor, so this form is already in lowest terms
    den = lcm(*{x._d for x in nonzero})
    return [[x._n[0] * (den // x._d) if x._n else 0 for x in row] for row in rows], den


def _primitive(row: List[int]) -> List[int]:
    """The int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class Subspace:
    """The span of some vectors in an n-dimensional coordinate space.

    The span is held as its reduced row echelon form, computed once: the
    rows of ``basis`` have unit pivots in the ``pivots`` columns and zeros
    above and below them.  That form is unique, so two spans are equal
    exactly when their bases are, and a vector v is a member exactly when
    it equals the combination of the rows with its own pivot coordinates.
    A rational span keeps its basis in int form throughout.
    """

    __slots__ = ("n", "basis", "pivots")

    def __init__(self, vectors, n: int | None = None):
        """The span of a sequence of vectors, or of the rows of a Matrix."""
        if not isinstance(vectors, Matrix):
            vectors = Matrix([list(v) for v in vectors])
        self.n = vectors.cols if vectors.rows else n
        if self.n is None:
            raise ValueError("the span of no vectors needs its dimension n")
        if not vectors.rows:
            vectors = Matrix.zero(0, self.n)
        self.basis, self.pivots = vectors._echelon()

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> List[List[Scalar]]:
        return self.basis.data

    def _residue(self, M: Matrix) -> Matrix:
        """Each row of M minus the combination of the basis rows with its
        pivot coordinates: a zero row exactly for a member of the span."""
        select = Matrix.from_int_rows([[int(p == q) for q in self.pivots] for p in range(self.n)])
        return M - M * select * self.basis

    def __contains__(self, vec: Sequence[Scalar]) -> bool:
        """Clear each pivot coordinate of ``vec``; a member leaves nothing."""
        vec = list(vec)
        v = int_rows([vec])
        if v and self.basis._int_form():
            return self.contains_ints(v[0][0])
        return self._clears(vec, self.rows, vec)

    def contains_ints(self, x: Sequence[int]) -> bool:
        """Membership of the int vector x, and of every nonzero multiple of it: on a
        rational span, whose rows are R / d, clear d x with x[p] R."""
        a = self.basis._int_form()
        if not a:
            return [_coerce(t) for t in x] in self
        return self._clears([a[1] * t for t in x], a[0], x)

    def _clears(self, vec: list, rows, x) -> bool:
        """Whether vec minus x[p] times each row, p its pivot, is zero."""
        for row, p in zip(rows, self.pivots):
            c = x[p]
            if c:
                vec = [t - c * y if y else t for t, y in zip(vec, row)]
        return not any(vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection: c . A lies in B exactly when c annihilates the
        residue R of A's rows against B, so A & B is spanned by K A for
        the kernel K of R transposed."""
        _, K = other._residue(self.basis).transpose().nullspace()
        return Subspace(K * self.basis, self.n)

    def complement_in(self, outer: "Subspace") -> "Subspace":
        """Members of ``outer`` orthogonal to this span under the bilinear
        coordinate product (no complex conjugation)."""
        if not self.pivots:
            return outer
        _, K = (self.basis * outer.basis.transpose()).nullspace()
        return Subspace(K * outer.basis, self.n)


class Monomial:
    """The linear map u_a -> i**phase[a] u_perm[a], a bit flip times a power of i.

    Every Clifford word acts on basic spinors this way, and so does every
    real frame block of an even word (a signed permutation: even phases).
    As a matrix, column a holds i**phase[a] in row perm[a].  The index map
    is a permutation, the phases are ints mod 4, and neither changes after
    construction.  Only the constructor checks its input: the operations
    build valid results from valid operands.
    """

    __slots__ = ("perm", "phase", "_gather")

    def __init__(self, perm: Iterable[int], phase: Iterable[int]):
        self.perm, self.phase, self._gather = tuple(perm), tuple(e % 4 for e in phase), None
        if len(self.phase) != len(self.perm) or set(self.perm) != set(range(len(self.perm))):
            raise ValueError("not a monomial map")

    @staticmethod
    def _of(perm: Sequence[int], phase: Sequence[int]) -> "Monomial":
        """The monomial of a permutation and phases in 0..3, unchecked."""
        m = object.__new__(Monomial)
        m.perm, m.phase, m._gather = tuple(perm), tuple(phase), None
        return m

    @staticmethod
    def identity(n: int) -> "Monomial":
        return Monomial._of(range(n), [0] * n)

    def compose(self, other: "Monomial") -> "Monomial":
        """This map after ``other``: the matrix product self * other."""
        perm, phase = self.perm, self.phase
        return Monomial._of([perm[b] for b in other.perm],
                            [(e + phase[b]) & 3 for b, e in zip(other.perm, other.phase)])

    def kron(self, other: "Monomial") -> "Monomial":
        """The Kronecker product, self's slot most significant: the slot
        indices concatenate and the phases add."""
        m = len(other.perm)
        return Monomial._of([b * m + c for b in self.perm for c in other.perm],
                            [(e + f) & 3 for e in self.phase for f in other.phase])

    def __neg__(self) -> "Monomial":
        return Monomial._of(self.perm, [e ^ 2 for e in self.phase])

    def transpose(self) -> "Monomial":
        perm, phase = [0] * len(self.perm), [0] * len(self.perm)
        for a, (b, e) in enumerate(zip(self.perm, self.phase)):
            perm[b], phase[b] = a, e
        return Monomial._of(perm, phase)

    def apply(self, z: Sequence) -> List:
        """The image of the coordinate column z: entry perm[a] is z[a] i^phase[a], read by a
        gather kept from the first call; an even phase is the int 1 - phase[a], so ints stay ints."""
        if len(z) != len(self.perm):
            raise ValueError("length mismatch")
        if self._gather is None:
            T = self.transpose()
            self._gather = T.perm, [Scalar.i_power(e) if e & 1 else 1 - e for e in T.phase]
        source, factor = self._gather
        return list(map(operator.mul, map(z.__getitem__, source), factor))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.perm == other.perm and self.phase == other.phase

    def __hash__(self):
        return hash((self.perm, self.phase))

    def to_int_rows(self) -> List[List[int]]:
        """The matrix rows of a real monomial (every phase even)."""
        rows = [[0] * len(self.perm) for _ in self.perm]
        for a, (b, e) in enumerate(zip(self.perm, self.phase)):
            if e & 1:
                raise ValueError("the monomial has imaginary entries")
            rows[b][a] = 1 - e
        return rows

    def to_matrix(self) -> Matrix:
        rows = [[ZERO] * len(self.perm) for _ in self.perm]
        for a, (b, e) in enumerate(zip(self.perm, self.phase)):
            rows[b][a] = Scalar.i_power(e)
        return Matrix(rows)


# the largest n the tensor oracles build: 2^12-square monomials
MAX_ORACLE_N = 24


def _block(name: str) -> Monomial:
    """2x2 blocks of the standard maps in the ordered basis (u_plus, u_minus)."""
    perm, phase = {
        "id": ((0, 1), (0, 0)),
        "g1": ((1, 0), (1, 1)),
        "g2": ((1, 0), (0, 2)),
        "T": ((0, 1), (2, 0)),
        "alpha": ((1, 0), (3, 1)),
        "beta": ((1, 0), (0, 0)),
    }[name]
    return Monomial(perm, phase)


@lru_cache(maxsize=None)
def tensor_oracle(n: int) -> Tuple[Monomial, ...]:
    """Generator maps built purely from 2x2 tensor factors, as monomials.

    Slot 1 is the most significant bit; e_{2j-1} and e_{2j} carry g1/g2
    in slot k-j+1 with T factors to the right, and an odd top generator
    is i times T in every slot.  Serves as the independent oracle for
    the bit-flip route.
    """
    if n > MAX_ORACLE_N:
        raise ValueError(f"n={n} above oracle limit {MAX_ORACLE_N}")
    k = n // 2
    out = []
    for p in range(1, n + 1):
        if p == n and n % 2 == 1:
            names, shift = ["T"] * k, 1
        else:
            j = (p + 1) // 2
            names, shift = ["id"] * (k - j) + ["g1" if p % 2 else "g2"] + ["T"] * (j - 1), 0
        m = reduce(Monomial.kron, map(_block, names))
        out.append(Monomial(m.perm, [e + shift for e in m.phase]))
    return tuple(out)


@lru_cache(maxsize=None)
def gamma_oracle(n: int) -> Monomial:
    """gamma_n from its tensor definition: conjugate the coordinates, then
    apply this tensor product, so on each basic spinor it is this monomial."""
    if n > MAX_ORACLE_N:
        raise ValueError(f"n={n} above oracle limit {MAX_ORACLE_N}")
    return reduce(Monomial.kron, (_block("alpha" if s % 2 else "beta") for s in range(1, n // 2 + 1)))


def spinor_to_column(psi: Spinor) -> List[Scalar]:
    return [psi.coeff(a) for a in range(1 << psi.k)]


def _word_monomial(n: int, word: Sequence[int], idx: Sequence[int]) -> Monomial:
    """The word's action on the span of u_a, a in idx, by the bit rule, as a
    Monomial on the positions in idx."""
    pos = {a: m for m, a in enumerate(idx)}
    images = [word_phase(n, word, a) for a in idx]
    if any(b not in pos for _, b in images):
        raise ValueError("word left the chirality subspace")
    return Monomial([pos[b] for _, b in images], [e for e, _ in images])


def kappa_matrix(n: int, word: Sequence[int]) -> Matrix:
    """Matrix of the word's spinor action; column a is the image of u_a."""
    return _word_monomial(n, word, range(1 << (n // 2))).to_matrix()


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
    return _word_monomial(n, word, chirality_indices(n, sign)).to_matrix()


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


@lru_cache(maxsize=None)
def real_block(r: int, word: Tuple[int, ...], which: str) -> Monomial:
    """The matrix of an even word on the stage-r real frame, read off the bit rule.

    Frame column 2t+q is i^q u_a, gamma-symmetrized at stages 0, 1 mod 8,
    for the t-th frame index a.  The word sends it to i^s u_b, s = q + e,
    which is frame vector 2 pos[b] + s mod 2 with sign + iff s mod 4 < 2.
    At stages 0, 1 mod 8 (gamma^2 = +1, and gamma commutes with even
    words) an image index outside the frame folds through gamma:
    w + gamma w = w' + gamma w' for w = i^s u_b and w' = gamma w =
    i^(g-s) u_~b.  The minus frame is e_1 times the plus one, and
    conjugation by e_1 negates every other generator, so its block is the
    plus block times -1 to the number of e_1 in the word.  ``which`` is
    "plus", "minus" or "full" as in spinors.real_form_basis.
    """
    if len(word) % 2:
        raise ValueError("odd words move between the plus and minus frames")
    if which == "minus":
        plus = real_block(r, word, "plus")
        return -plus if word.count(1) % 2 else plus
    idx = frame_index_set(r)
    pos = {a: t for t, a in enumerate(idx)}
    perm, phase = [], []
    for a in idx:
        e, b = word_phase(r, word, a)
        if b in pos:
            shifts = (e, e + 1)
        else:
            g, b = real_structure_phase(r, b)
            shifts = (g - e, g - e - 1)
        for s in shifts:
            perm.append(2 * pos[b] + s % 2)
            phase.append(s & 2)
    return Monomial(perm, phase)


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
    a = M._int_form()
    if not a:
        raise ValueError("non-rational entry in decomposition")
    (num, den), n = a, M.rows
    return {(i + 1, j + 1): Fraction(num[j][i], den) for i in range(n) for j in range(i + 1, n) if num[j][i]}


def e_basis_compose(n: int, coeffs: Dict[Tuple[int, int], Fraction]) -> Matrix:
    """Inverse of e_basis_decompose: build the antisymmetric matrix."""
    M = [[ZERO] * n for _ in range(n)]
    for (i, j), c in coeffs.items():
        M[j - 1][i - 1] = Scalar.from_fraction(c)
        M[i - 1][j - 1] = Scalar.from_fraction(-c)
    return Matrix(M)
