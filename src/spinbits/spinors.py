"""Binary-coded spinors.

A basic spinor u_a is a nonnegative integer a < 2**k whose binary
digits encode a sign tuple (s_1, ..., s_k), s_j = +-1, via

    a = sum_j (1 - s_j)/2 * 2**(k-j)

so s_1 sits at the most significant bit and s_k at bit 0.  General
spinors are sparse complex-linear combinations of the u_a with exact
coefficients.
"""

from __future__ import annotations

from typing import List, Tuple

from .scalars import I, INV_SQRT2, LatexCombination, ONE, Scalar, ZERO


def signs_from_index(a: int, k: int) -> Tuple[int, ...]:
    """Basis index -> sign tuple of length k."""
    if not 0 <= a < (1 << k):
        raise ValueError(f"index {a} out of range for {k} bits")
    return tuple(-1 if (a >> (k - j)) & 1 else 1 for j in range(1, k + 1))

def parity(a: int) -> int:
    """Number of set bits mod 2."""
    return a.bit_count() & 1

def chirality(a: int) -> int:
    """+1 on even bit-parity indices, -1 on odd ones."""
    return -1 if parity(a) else 1


class Spinor(LatexCombination):
    """Sparse exact linear combination of basic spinors u_a, a < 2**k."""

    __slots__ = ("k",)
    _space = "k"

    def _key(self, a: int) -> int:
        if not 0 <= a < 1 << self.k:
            raise ValueError(f"index {a} out of range for k={self.k}")
        return a

    @staticmethod
    def basis(k: int, a: int, coeff: Scalar = ONE) -> "Spinor":
        return Spinor(k, {a: coeff})

    @staticmethod
    def zero(k: int) -> "Spinor":
        return Spinor(k)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "terms": [
                {"index": a, "coeff": c.to_json()} for a, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def _latex_name(a: int) -> str:
        return f"u_{{{a}}}"

    @staticmethod
    def _repr_name(a: int) -> str:
        return f"u_{a}"


def hermitian(psi1: Spinor, psi2: Spinor) -> Scalar:
    """Hermitian product with orthonormal u_a, conjugate-linear in the first slot."""
    psi1._check(psi2)
    total = ZERO
    small, big = psi1.terms, psi2.terms
    for a, c in small.items():
        d = big.get(a)
        if d is not None:
            total = total + c.conjugate() * d
    return total


def real_structure_phase(n: int, a: int) -> Tuple[int, int]:
    """gamma_n applied to u_a as (e, b): gamma_n u_a = i**e u_b, 0 <= e < 4.

    gamma_n is the tensor product over the k = floor(n/2) factors of the
    standard quaternionic structure on odd slots and the real structure
    on even slots (slot 1 = most significant bit), each of which flips
    the slot sign; the odd-slot factor -s*i is i**3 for s = +1 and i for
    s = -1, so e = #odd slots + 2 * #odd slots with s = +1.
    """
    k = n // 2
    if k == 0:
        raise ValueError("need n >= 2")
    # slot j sits at bit k - j, so the odd slots are the bits k-1, k-3, ...
    odd_slots = sum(1 << (k - j) for j in range(1, k + 1, 2))
    plus = (odd_slots & ~a).bit_count()
    return ((k + 1) // 2 + 2 * plus) % 4, (1 << k) - 1 - a


def real_structure(n: int, psi: Spinor) -> Spinor:
    """The real/quaternionic structure gamma_n; conjugate-linear."""
    if psi.k != n // 2:
        raise ValueError(f"spinor width {psi.k} does not match n={n}")
    out = {}
    for a, c in psi.terms.items():
        e, b = real_structure_phase(n, a)
        out[b] = c.conjugate() * Scalar.i_power(e)
    return psi._like(out)


def gamma_squares_to(n: int) -> int:
    """+1 or -1 according to gamma_n**2 = +-Id (period 8 in n)."""
    return 1 if n % 8 in (0, 1, 6, 7) else -1


def frame_index_set(r: int) -> List[int]:
    """The indices a whose u_a (and i u_a) span the real frame at stage r.

    Even-parity a < 2**k at stages 2, 4 mod 8; at stages 0, 1 mod 8 the
    frame vectors are gamma-symmetrized, so the indices stop below
    2**(k-1) (even parity only at stage 0 mod 8).
    """
    if r < 2:
        raise ValueError(f"stage {r} has no real frame; the real frames start at stage 2")
    res = r % 8
    k = r // 2
    if res in (2, 4):
        return [a for a in range(1 << k) if parity(a) == 0]
    if res == 0:
        return [a for a in range(1 << (k - 1)) if parity(a) == 0]
    if res == 1:
        return list(range(1 << (k - 1)))
    raise ValueError("stage without its own frame")


def real_form_basis(r: int, which: str = "full") -> List[Spinor]:
    """Ordered real basis of the real (half-)spinor representation at stage r.

    Stages r = 0, 1, 2, 4 (mod 8) are supported; the remaining residues
    alias lower stages by dimension coincidence and are rejected here.
    ``which`` is "plus"/"minus" when there are two real irreducibles
    (r = 0, 4 mod 8) and "full" otherwise.
    """
    res = r % 8
    k = r // 2
    if res in (0, 4) and which not in ("plus", "minus"):
        raise ValueError(f"stage {r} has plus/minus forms; got {which!r}")
    if res in (1, 2) and which != "full":
        raise ValueError(f"stage {r} has a single real form; got {which!r}")

    if res in (0, 1):
        basis = []
        for a in frame_index_set(r):
            for u in (Spinor.basis(k, a), Spinor.basis(k, a, I)):
                basis.append((u + real_structure(r, u)).scale(INV_SQRT2))
    elif res in (2, 4):
        basis = []
        for a in frame_index_set(r):
            basis.append(Spinor.basis(k, a))
            basis.append(Spinor.basis(k, a, I))
    else:
        raise ValueError(
            f"stage r={r} (r mod 8 = {res}) has no separate real form; "
            "use the matching stage of the same dimension"
        )

    if which == "minus":
        from .clifford import clifford_apply

        basis = [clifford_apply(r, 1, v) for v in basis]
    return basis
