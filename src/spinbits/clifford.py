"""Clifford multiplication by bit flips, and exact arithmetic in Cl_n.

The generator action on basic spinors never builds a matrix: e_p sends
u_a to a power of i times u_b where b differs from a in one bit.  For
p < n the action does not depend on n at all, so words in low
generators can be applied in any ambient dimension.

Algebra elements are normalized monomial maps: a basis monomial
e_{i1}...e_{im} (indices increasing) is the bitmask with bits i-1 set,
and products are computed by XOR with a transposition-counting sign,
using e_i e_j = -e_j e_i and e_i^2 = -1.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .scalars import Angle, Combination, ONE, Scalar, accumulate
from .spinors import Spinor, parity


def generator_phase(n: int, p: int, a: int) -> Tuple[int, int]:
    """e_p u_a = i**e u_b inside Cl_n; returns (e, b), 0 <= e < 4."""
    if not 1 <= p <= n:
        raise ValueError(f"generator index {p} out of range for n={n}")
    k = n // 2
    if p == n and n % 2 == 1:
        # diagonal action of the odd top generator
        return 1 + 2 * ((k + a.bit_count()) & 1), a
    j = (p + 1) // 2
    if p % 2 == 1:
        # e_{2j-1}: i * (-1)^(j-1) * (-1)^(sum of bits below j-1)
        low = (a & ((1 << (j - 1)) - 1)).bit_count()
        return 1 + 2 * ((j - 1 + low) & 1), a ^ (1 << (j - 1))
    # e_{2j}: (-1)^(j-1) * (-1)^(sum of bits below j)
    low = (a & ((1 << j) - 1)).bit_count()
    return 2 * ((j - 1 + low) & 1), a ^ (1 << (j - 1))


def generator_action(n: int, p: int, a: int) -> Tuple[Scalar, int]:
    """e_p u_a = coeff * u_b inside Cl_n; returns (coeff, b)."""
    e, b = generator_phase(n, p, a)
    return Scalar.i_power(e), b


def word_phase(n: int, word: Sequence[int], a: int) -> Tuple[int, int]:
    """A product of generators, written left to right, applied to u_a: (e, b)
    with e_{w1} ... e_{wm} u_a = i**e u_b, 0 <= e < 4."""
    e = 0
    for p in reversed(word):
        f, a = generator_phase(n, p, a)
        e += f
    return e % 4, a


def clifford_apply(n: int, p: int, psi: Spinor) -> Spinor:
    """Linear extension of the generator action e_p to a full spinor.

    A bit-flip map sends distinct indices to distinct indices, times a
    unit, so the images of the terms never meet and none is zero."""
    if psi.k != n // 2:
        raise ValueError(f"spinor width {psi.k} does not match n={n}")
    out = {}
    for a, c in psi.terms.items():
        g, b = generator_action(n, p, a)
        out[b] = c * g
    return psi._like(out)


def word_apply(n: int, word: Sequence[int], psi: Spinor) -> Spinor:
    """Apply a product of generators, written left to right, to a spinor:
    each term c u_a goes to (c i**e) u_b, (e, b) = word_phase(n, word, a)."""
    if not word:
        return psi
    if psi.k != n // 2:
        raise ValueError(f"spinor width {psi.k} does not match n={n}")
    out = {}
    for a, c in psi.terms.items():
        e, b = word_phase(n, word, a)
        out[b] = c * Scalar.i_power(e)
    return psi._like(out)


def blade_product(mask_i: int, mask_j: int) -> Tuple[int, int]:
    """Product of basis monomials: returns (sign, xor mask).

    Sign counts the transpositions needed to interleave the second
    sorted monomial into the first, plus one flip per contracted pair
    (e_i^2 = -1).
    """
    count = 0
    cur = mask_i
    j = mask_j
    while j:
        b = j & -j  # lowest set bit of the remaining right factor
        bpos = b.bit_length() - 1
        above = cur >> (bpos + 1)
        count += above.bit_count()
        if cur & b:
            count += 1  # contraction with signature -1
        cur ^= b
        j ^= b
    return (-1 if count & 1 else 1), mask_i ^ mask_j


class CliffordElem(Combination):
    """Element of the complexified Clifford algebra Cl_n over exact scalars."""

    __slots__ = ("n",)
    _space = "n"

    def _key(self, m: int) -> int:
        if not 0 <= m < 1 << self.n:
            raise ValueError(f"monomial mask {m} out of range for n={self.n}")
        return m

    @staticmethod
    def one(n: int) -> "CliffordElem":
        return CliffordElem(n, {0: ONE})

    @staticmethod
    def generator(n: int, i: int) -> "CliffordElem":
        if not 1 <= i <= n:
            raise ValueError(f"generator e_{i} undefined in Cl_{n}")
        return CliffordElem(n, {1 << (i - 1): ONE})

    @staticmethod
    def from_word(n: int, word: Sequence[int]) -> "CliffordElem":
        out = CliffordElem.one(n)
        for p in word:
            out = out * CliffordElem.generator(n, p)
        return out

    def __mul__(self, other: "CliffordElem") -> "CliffordElem":
        self._check(other)

        def products():
            for mi, ci in self.terms.items():
                for mj, cj in other.terms.items():
                    sgn, m = blade_product(mi, mj)
                    yield m, (ci * cj if sgn > 0 else -(ci * cj))

        return self._like(accumulate({}, products()))

    def reverse(self) -> "CliffordElem":
        """Reversion anti-automorphism: a grade-m monomial picks up (-1)^(m(m-1)/2),
        which is -1 exactly when m mod 4 is 2 or 3."""
        return self._like({mask: -c if mask.bit_count() & 2 else c for mask, c in self.terms.items()})

    def grades(self) -> set:
        return {m.bit_count() for m in self.terms}

    def apply(self, psi: Spinor) -> Spinor:
        """Spinor representation of this element (each monomial acts by bit flips)."""
        out = Spinor.zero(psi.k)
        for m, c in self.terms.items():
            word = [i + 1 for i in range(self.n) if (m >> i) & 1]
            out = out + word_apply(self.n, word, psi).scale(c)
        return out

    def _repr_name(self, m: int) -> str:
        return "".join(f"e{i+1}" for i in range(self.n) if (m >> i) & 1) or "1"


def volume_element(n: int) -> CliffordElem:
    """vol_n = e_1 e_2 ... e_n as a single monomial."""
    return CliffordElem(n, {(1 << n) - 1: ONE})


def chirality_involution(n: int, psi: Spinor) -> Spinor:
    """psi -> (-i)^(n/2) vol_n psi; defined for even n."""
    if n % 2:
        raise ValueError("chirality involution needs even n")
    out = volume_element(n).apply(psi)
    return out.scale(Scalar.i_power(-(n // 2)))


def exp_bivector(n: int, factors: Sequence[Tuple[Angle, Tuple[int, int]]]) -> CliffordElem:
    """Product of rotations exp(theta * e_i e_j) over pairwise disjoint pairs.

    Each factor is exactly cos(theta) + sin(theta) e_i e_j; disjointness
    keeps the factors commuting so the product equals the exponential of
    the bivector sum.
    """
    used = 0
    out = CliffordElem.one(n)
    for theta, (i, j) in factors:
        if not (1 <= i < j <= n):
            raise ValueError(f"bad index pair ({i}, {j})")
        mask = (1 << (i - 1)) | (1 << (j - 1))
        if used & mask:
            raise ValueError("index pairs must be pairwise disjoint")
        used |= mask
        factor = CliffordElem(n, {0: theta.cos(), mask: theta.sin()})
        out = out * factor
    return out


def lambda_vector(n: int, g, y: CliffordElem) -> CliffordElem:
    """Conjugation action g y g~ of an even element on a vector.

    ``g`` may be a word (sequence of generator indices, even length) or a
    CliffordElem, in which case the reversal is the reversion
    anti-automorphism.  The result must again have grade one.
    """
    if y.grades() not in (set(), {1}):
        raise ValueError("lambda acts on grade-1 elements")
    if isinstance(g, CliffordElem):
        elem, rev = g, g.reverse()
    else:
        word = list(g)
        if len(word) % 2:
            raise ValueError("need an even word")
        elem = CliffordElem.from_word(n, word)
        rev = CliffordElem.from_word(n, list(reversed(word)))
    out = elem * y * rev
    if out.grades() not in (set(), {1}):
        raise ValueError("conjugation did not preserve grade 1")
    return out


def delta_iso(k: int, psi: Spinor) -> Spinor:
    """Equivariant embedding of the odd-stage spinors into even-parity indices.

    u_a with a < 2**(k-1) keeps its index when the bit-parity of a is
    even and gains the top bit 2**(k-1) when it is odd, so every image
    index has even parity in k bits.
    """
    if psi.k != k - 1:
        raise ValueError(f"expected width {k - 1}, got {psi.k}")
    top = 1 << (k - 1)
    return Spinor(k, {(a | top if parity(a) else a): c for a, c in psi.terms.items()})

