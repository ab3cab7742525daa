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
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .clifford import lambda_vector, word_apply, word_phase, CliffordElem
from .scalars import ONE, Scalar, ZERO, _ratio
from .spinors import Spinor, chirality, frame_index_set, hermitian, real_form_basis, real_structure_phase


class Matrix:
    """Rectangular matrix with Scalar entries and exact elimination.

    A matrix holds one of two forms, fixed where it is built.  The int
    builders (``from_int_rows``, ``identity``, and every operation whose
    operands are all in int form) give int rows over one positive
    denominator, in lowest terms, in ``ints``; Scalar entries are built
    from them only when ``data`` is read.  ``Matrix(rows)`` and any
    operation with a Scalar-form operand give Scalar rows, and ``ints``
    is False, even when every entry is rational.  Sums, scaling, equality
    and elimination run on either form; a product or a transpose is taken
    of int forms only, and raises ValueError otherwise.  A Matrix and its
    rows are never changed after construction, so the two forms cannot
    disagree.
    """

    __slots__ = ("rows", "cols", "_data", "ints")

    def __init__(self, data: List[List[Scalar]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self._data = data
        self.ints = False

    @staticmethod
    def _new(cols: int, data=None, ints=False) -> "Matrix":
        m = object.__new__(Matrix)
        m.rows = len(ints[0] if ints else data)
        m.cols, m._data, m.ints = cols, data, ints
        return m

    @staticmethod
    def _of_ints(num: List[List[int]], den: int, cols: int) -> "Matrix":
        """The matrix num / den for int rows num (consumed) and den > 0."""
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        return Matrix._new(cols, ints=(num, den))

    @property
    def data(self) -> List[List[Scalar]]:
        if self._data is None:
            num, den = self.ints
            self._data = [[_ratio(x, den) for x in row] for row in num]
        return self._data

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_int_rows([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_int_rows(rows: Sequence[Sequence[int]], den: int = 1) -> "Matrix":
        """The matrix rows / den for int rows and an int den > 0."""
        num = [list(row) for row in rows]
        return Matrix._of_ints(num, den, len(num[0]) if num else 0)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Matrix) and self.rows == other.rows and self.cols == other.cols):
            return False
        a, b = self.ints, other.ints
        if a and b:  # both in lowest terms
            return a == b
        return self.data == other.data

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        self._shape_check(other)
        a, b = self.ints, other.ints
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

    def scale(self, c) -> "Matrix":
        """This matrix times a Scalar, int or Fraction c."""
        a = self.ints
        if a and type(c) is Scalar and c.is_rational():
            c = c.as_fraction()
        if a and type(c) is not Scalar:  # an int or a Fraction: its numerator over its denominator
            (num, den), k = a, c.numerator
            return Matrix._of_ints([[k * x for x in row] for row in num], den * c.denominator, self.cols)
        return Matrix._new(self.cols, data=[[c * x for x in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        a, b = self.ints, other.ints
        if not (a and b):
            raise ValueError("a product is taken of int-form matrices")
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

    def _shape_check(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def transpose(self) -> "Matrix":
        a = self.ints
        if not a:
            raise ValueError("a transpose is taken of an int-form matrix")
        num, den = a
        return Matrix._new(self.rows, ints=([[row[j] for row in num] for j in range(self.cols)], den))

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self) -> "Matrix":
        """The exact kernel basis as the rows of a Matrix; rank + basis rows == cols.

        Each free column f gives the basis row e_f minus, at the pivot of each
        reduced echelon row, that row's entry f.  For an int-form matrix, whose
        echelon rows are R / d, that is d e_f - R[.][f] over d, built on ints.
        """
        ech, pivots = self._echelon()
        a = ech.ints
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
            return Matrix._of_ints(basis, a[1], self.cols)
        return Matrix._new(self.cols, data=basis)

    def _echelon(self) -> Tuple["Matrix", List[int]]:
        """The nonzero rows of the reduced row echelon form, and their pivot columns.

        That form is unique.  An int-form matrix reaches it by fraction-free
        elimination on its int rows: each update p * row - f * pivot_row is
        divided by its content, and the pivot rows are scaled to a common
        pivot value d at the end, which is the form's denominator.
        """
        a = self.ints
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


def _primitive(row: List[int]) -> List[int]:
    """The int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class Subspace:
    """The span of the rows of a Matrix, in the coordinate space of its columns.

    The span is held as its reduced row echelon form, computed once: the
    rows of ``basis`` have unit pivots in the ``pivots`` columns and zeros
    above and below them.  That form is unique, so two spans are equal
    exactly when their bases are, and a vector v is a member exactly when
    it equals the combination of the rows with its own pivot coordinates.
    An int-form Matrix gives an int-form basis; membership is asked of int
    vectors, and only of an int-form span.
    """

    __slots__ = ("basis", "pivots")

    def __init__(self, vectors: Matrix):
        self.basis, self.pivots = vectors._echelon()

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __contains__(self, x: Sequence[int]) -> bool:
        """Membership of the int vector x, and of every nonzero multiple of it:
        the basis rows are R / d, so d x minus x[p] R, p each row's pivot, is zero."""
        a = self.basis.ints
        if not a:
            raise ValueError("membership is asked of an int-form span")
        if len(x) != self.basis.cols:
            raise ValueError("length mismatch")
        rows, d = a
        vec = [d * t for t in x]
        for row, p in zip(rows, self.pivots):
            c = x[p]
            if c:
                vec = [t - c * y if y else t for t, y in zip(vec, row)]
        return not any(vec)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.pivots == other.pivots and self.basis == other.basis


class Monomial:
    """The linear map u_a -> i**phase[a] u_perm[a], a bit flip times a power of i.

    Every Clifford word acts on basic spinors this way, and so does every
    real frame block of an even word (a signed permutation: even phases).
    As a matrix, column a holds i**phase[a] in row perm[a].  The index map
    is a permutation, the phases are ints mod 4, and neither changes after
    construction.  Only the constructor checks its input: the operations
    build valid results from valid operands.

    A real monomial acts on a coordinate column z as a signed pick: entry
    b of its image is entry ``signed_source()[b]`` of z + (-z), the
    column followed by its negation, so ``signed_pick`` gathers a whole
    image in one C-level call with no multiplication.
    """

    __slots__ = ("perm", "phase")

    def __init__(self, perm: Iterable[int], phase: Iterable[int]):
        self.perm, self.phase = tuple(perm), tuple(e % 4 for e in phase)
        if len(self.phase) != len(self.perm) or set(self.perm) != set(range(len(self.perm))):
            raise ValueError("not a monomial map")

    @staticmethod
    def _of(perm: Sequence[int], phase: Sequence[int]) -> "Monomial":
        """The monomial of a permutation and phases in 0..3, unchecked."""
        m = object.__new__(Monomial)
        m.perm, m.phase = tuple(perm), tuple(phase)
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

    def signed_source(self) -> Tuple[int, ...]:
        """Of a real monomial: entry b of the image of z is entry source[b] of
        z + (-z), so z[a] lands in slot perm[a], from the second half at phase 2."""
        n = len(self.perm)
        source = [0] * n
        for a, (b, e) in enumerate(zip(self.perm, self.phase)):
            if e & 1:
                raise ValueError("the monomial has imaginary entries")
            source[b] = a + n * (e >> 1)
        return tuple(source)

    def apply(self, z: Sequence) -> List:
        """The image of the coordinate column z under a real monomial, read off its
        signed source: every entry is some +-z[a], so ints stay ints."""
        if len(z) != len(self.perm):
            raise ValueError("length mismatch")
        signed = [*z, *(-v for v in z)]
        return [signed[s] for s in self.signed_source()]

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


def signed_pick(source: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map v -> (v[s] for s in source) as one C-level ``itemgetter``, always
    returning a tuple: an itemgetter of one index returns the item itself."""
    if len(source) == 1:
        return lambda v, s=source[0]: (v[s],)
    return operator.itemgetter(*source)


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


def _word_monomial(n: int, word: Sequence[int], idx: Sequence[int]) -> Monomial:
    """The word's action on the span of u_a, a in idx, by the bit rule, as a
    Monomial on the positions in idx."""
    pos = {a: m for m, a in enumerate(idx)}
    images = [word_phase(n, word, a) for a in idx]
    if any(b not in pos for _, b in images):
        raise ValueError("word left the chirality subspace")
    return Monomial([pos[b] for _, b in images], [e for e, _ in images])


def kappa_matrix(n: int, word: Sequence[int]) -> Monomial:
    """The word's spinor action as a Monomial; as a matrix, column a is the image of u_a."""
    return _word_monomial(n, word, range(1 << (n // 2)))


def chirality_indices(n: int, sign: int) -> List[int]:
    """Ascending basis indices of the (+1 or -1) half-spinor space."""
    k = n // 2
    return [a for a in range(1 << k) if chirality(a) == sign]


def kappa_pm_matrix(n: int, word: Sequence[int], sign: int) -> Monomial:
    """Half-spinor action of an even word as a Monomial, in the chirality-filtered basis."""
    if n % 2:
        raise ValueError("half-spinor spaces need even n")
    if len(word) % 2:
        raise ValueError("odd words reverse chirality")
    return _word_monomial(n, word, chirality_indices(n, sign))


class RealBasisFrame:
    """An ordered real basis together with fast expansion of span members."""

    def __init__(self, r: int, which: str):
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
            cols.append(dst.expand(img))
        except ValueError as e:
            raise ValueError(f"word {list(word)} does not preserve the real spans: {e}")
    nums, den = ints_over_lcm([x for row in zip(*cols) for x in row])
    n = len(cols)
    return Matrix.from_int_rows([nums[i:i + n] for i in range(0, len(nums), n)], den)


def ints_over_lcm(values: Sequence) -> Tuple[List[int], int]:
    """Int numerators of rationals (ints or Fractions) over the lcm of their denominators."""
    fracs = [Fraction(a) for a in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def lambda_matrix(n: int, g) -> Matrix:
    """n x n matrix of the conjugation action on vectors of an even word
    or of an even CliffordElem (see clifford.lambda_vector)."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        img = lambda_vector(n, g, CliffordElem.generator(n, i + 1))
        for m, c in img.terms.items():
            rows[m.bit_length() - 1][i] = c
    return Matrix(rows)


def e_basis_decompose(M: Matrix) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Coefficients of an antisymmetric matrix over the standard basis E_ij:
    their int numerators, and the matrix's denominator.

    E_ij maps the i-th coordinate vector to the j-th and the j-th to
    minus the i-th, so c_ij is read off at entry (j, i); inputs must be
    antisymmetric and in int form.
    """
    a = M.ints
    if not a:
        raise ValueError("a decomposition is taken of an int-form matrix")
    (num, den), n = a, M.rows
    if M.cols != n or any(num[i][j] != -num[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not antisymmetric")
    return {(i + 1, j + 1): num[j][i] for i in range(n) for j in range(i + 1, n) if num[j][i]}, den


def e_basis_compose(n: int, coeffs: Dict[Tuple[int, int], int], den: int) -> Matrix:
    """Inverse of e_basis_decompose: the antisymmetric matrix of int ``coeffs`` over ``den``."""
    M = [[0] * n for _ in range(n)]
    for (i, j), c in coeffs.items():
        M[j - 1][i - 1], M[i - 1][j - 1] = c, -c
    return Matrix.from_int_rows(M, den)
