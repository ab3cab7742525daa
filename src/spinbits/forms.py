"""Exterior algebra on eight coordinates with rational coefficients:
dualization of antisymmetric endomorphisms to 2-forms, the invariant
4-form built from them, its 3-form contraction, and the top-form square.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .matrices import Matrix, e_basis_decompose
from .scalars import LatexCombination, accumulate

DIM = 8


def canonical_term(indices: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Sort wedge indices, tracking the permutation sign; repeated index kills the term."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, ()
    return sign, tuple(idx)


class ExtForm(LatexCombination):
    """Homogeneous exterior form with Fraction coefficients on sorted index subsets."""

    __slots__ = ("degree",)
    _space = "degree"
    _coeff = Fraction

    def __init__(self, degree: int, terms: Dict[Tuple[int, ...], Fraction] | None = None):
        if not 0 <= degree <= DIM:
            raise ValueError("degree out of range")
        super().__init__(degree, terms)

    def _key(self, key: Sequence[int]) -> Tuple[int, ...]:
        key = tuple(key)
        if len(key) != self.degree or list(key) != sorted(set(key)):
            raise ValueError(f"bad index subset {key} for degree {self.degree}")
        if any(not 1 <= i <= DIM for i in key):
            raise ValueError(f"index out of range in {key}")
        return key

    @staticmethod
    def dx(*indices: int) -> "ExtForm":
        sign, key = canonical_term(indices)
        if sign == 0:
            return ExtForm(len(indices))
        return ExtForm(len(indices), {key: Fraction(sign)})

    @staticmethod
    def zero(degree: int) -> "ExtForm":
        return ExtForm(degree)

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        sign, key = canonical_term(indices)
        return sign * self.terms.get(key, Fraction(0))

    @staticmethod
    def _latex_name(key: Tuple[int, ...]) -> str:
        return "\\wedge ".join(f"dx_{{{i}}}" for i in key) or "1"

    @staticmethod
    def _latex_term(c: Fraction, name: str) -> str:
        if c in (1, -1):
            return ("-" if c < 0 else "") + name
        return f"{c}\\," + name

    @staticmethod
    def _repr_name(key: Tuple[int, ...]) -> str:
        return "dx" + "".join(str(i) for i in key)

    @staticmethod
    def _repr_term(c: Fraction, name: str) -> str:
        return f"{c}*{name}"


def wedge(a: ExtForm, b: ExtForm) -> ExtForm:
    if a.degree + b.degree > DIM:
        raise ValueError("degree overflow")

    def products():
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                sign, key = canonical_term(ka + kb)
                if sign:
                    yield key, sign * ca * cb

    return ExtForm(a.degree + b.degree, accumulate({}, products()))


def dualize_endomorphism(M: Matrix) -> ExtForm:
    """Antisymmetric rational matrix -> 2-form, E_kl component c becoming c dx_k^dx_l."""
    coeffs, den = e_basis_decompose(M)
    return ExtForm(2, {p: Fraction(c, den) for p, c in coeffs.items()})


def contract_first(form: ExtForm) -> ExtForm:
    """Interior product with the first coordinate direction.

    Keeps only terms containing index 1 and deletes it; with sorted
    subsets the deleted index is in front, so no sign appears.
    """
    t = {}
    for key, c in form.terms.items():
        if key and key[0] == 1:
            t[key[1:]] = c
    return ExtForm(form.degree - 1, t)


def _two_form_frames() -> List[ExtForm]:
    from .triality import PAIR_ORDER, kappa_real_matrix

    return [dualize_endomorphism(kappa_real_matrix(p, "plus")) for p in PAIR_ORDER if p[0] >= 2]


@lru_cache(maxsize=None)
def spin7_four_form() -> ExtForm:
    """Sum of the squares of the 21 dualized 2-forms; invariant 4-form.

    Built once: callers share the form and never mutate it.
    """
    total = ExtForm.zero(4)
    for f in _two_form_frames():
        total = total + wedge(f, f)
    return total


def g2_three_form() -> ExtForm:
    return contract_first(spin7_four_form())


def omega_square() -> ExtForm:
    om = spin7_four_form()
    return wedge(om, om)


def derivation_action(G: Matrix, form: ExtForm) -> ExtForm:
    """Lie-derivative style action of a linear vector-space map on a
    constant-coefficient form: dx_m -> -sum_c G[m][c] dx_c, extended as
    a derivation across each wedge monomial."""
    a = G.rows == G.cols == DIM and G.ints
    if not a:
        raise ValueError("need an int-form 8x8 matrix")
    rows, den = a

    def images():
        for key, c in form.terms.items():
            for slot, m in enumerate(key):
                for col, g in enumerate(rows[m - 1], 1):
                    if g:
                        sign, newkey = canonical_term(key[:slot] + (col,) + key[slot + 1:])
                        if sign:
                            yield newkey, -c * g * sign

    return ExtForm(form.degree, accumulate({}, images())).scale(Fraction(1, den))
