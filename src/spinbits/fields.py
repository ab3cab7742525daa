"""Orthonormal tangent vector fields on spheres from real Clifford modules.

For the largest stage r whose irreducible real module dimension divides
N, the images of e_1 e_j (j = 2..r) on R^N give r-1 antisymmetric
complex structures J with pairwise anticommutation, so Z, J_2 Z, ...,
J_r Z is an exact orthogonal frame at every point Z of the sphere.

Everything runs on integers.  e_1 e_p sends each basic spinor to a power
of i times one basic spinor, so each J block is read straight off the bit
rule as a real ``Monomial`` (``matrices.real_block``): a signed
permutation, a bit flip with a sign.  Every such fixed map is evaluated as
a signed pick, one C-level ``itemgetter`` from a vector followed by its
negation, built once per map.  ``FieldSystem.frame_pick`` stacks z, J_1 z,
... of a system into one pick; the Gram check packs each coordinate of that frame
into one int of byte digits and reads each Gram row off one dot product;
``closed_form_pick`` compiles ``e1ep_phase``, the same action as one
closed formula, and ``frame_placement_pick`` the frame's placement of J z.
The real-frame route (``RealBasisFrame.expand``), the pairwise Gram loop
and the dict closed form survive only in the tests, as oracles.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_right
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .matrices import Monomial, real_block, signed_pick
from .scalars import draw_ints
from .spinors import frame_index_set, real_structure_phase


class IrrepInfo(NamedTuple):
    d: int
    count: int


def _stage_dim(r: int) -> int:
    """Dimension d(r) of an irreducible real module at stage r >= 1."""
    return 1 << (r // 2 + (-1, 0, 0, 1, 0, 1, 0, 0)[r % 8])


def irrep_info(r: int) -> IrrepInfo:
    """Dimension and count of the irreducible real modules at stage r."""
    if r < 1:
        raise ValueError("stage must be positive")
    count = 2 if r % 4 == 0 else 1
    return IrrepInfo(_stage_dim(r), count)


@lru_cache(maxsize=None)
def _stage_dims(bits: int) -> Tuple[int, ...]:
    """d(1), d(2), ... for every stage whose dimension has at most ``bits`` bits."""
    dims = []
    while _stage_dim(len(dims) + 1).bit_length() <= bits:
        dims.append(_stage_dim(len(dims) + 1))
    return tuple(dims)


def max_stage(N: int) -> int:
    """Largest r whose irreducible module dimension divides N."""
    if N < 1:
        raise ValueError("need N >= 1")
    # a divisor of N has at most N's bit length, so the table holds them all;
    # each d(r) is a power of two and d never falls as r grows, so d(r)
    # divides N exactly when d(r) <= N & -N, the 2-part of N
    return bisect_right(_stage_dims(N.bit_length()), N & -N)


def hurwitz_radon(N: int) -> int:
    """Closed form 8a + 2^b for N = 2^(4a+b) * odd, 0 <= b <= 3."""
    if N < 1:
        raise ValueError("need N >= 1")
    a, b = divmod((N & -N).bit_length() - 1, 4)
    return 8 * a + (1 << b)


class _FieldSystem(NamedTuple):
    N: int
    r: int
    J: List[Monomial]


class FieldSystem(_FieldSystem):
    """The r-1 exact orthogonal almost-complex structures on R^N.

    A named tuple that keeps its stacked pick, built at first use from J;
    ``_replace`` makes a new system, which builds its own.
    """

    def field_count(self) -> int:
        return self.r - 1

    @cached_property
    def frame_pick(self) -> Optional[Callable[[Sequence[int]], tuple]]:
        """The stacked signed pick: from z + (-z) it gives z_j, (J_1 z)_j, ...,
        (J_{r-1} z)_j for j = 0, 1, ... in turn, the frame at z in column-major
        order.  None when some J has an odd phase: the system is not a real frame.
        """
        try:
            sources = [J.signed_source() for J in self.J]
        except ValueError:
            return None
        return signed_pick([s for column in zip(range(self.N), *sources) for s in column])


def build_field_system(N: int, split: Optional[Tuple[int, int]] = None) -> FieldSystem:
    """Maximal system of tangent fields on S^(N-1).

    The stage is r = max_stage(N), so d(r) < d(r + 1), which holds only
    at r = 0, 1, 2, 4 mod 8: the stages with their own real frame.  The
    module is m copies of the real irreducible frame (m1 plus- and m2
    minus-copies when there are two inequivalent ones, all-plus by
    default).  The block of e_1 e_p on a minus copy is minus its block on
    a plus copy (``real_block``), so each J is diag(1 m1 times, -1 m2
    times) Kronecker that plus block.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    r = max_stage(N)
    info = irrep_info(r)
    d = info.d
    if info.count == 2:
        if split is None:
            m1, m2 = N // d, 0
        else:
            m1, m2 = split
        if min(m1, m2) < 0 or d * (m1 + m2) != N:
            raise ValueError(f"split {split} does not fill dimension {N}")
    else:
        if split is not None:
            raise ValueError("split only applies when two inequivalent modules exist")
        m1, m2 = N // d, 0

    signs = Monomial(range(m1 + m2), [0] * m1 + [2] * m2)
    which = "plus" if info.count == 2 else "full"
    Js = [signs.kron(real_block(r, (1, p), which)) for p in range(2, r + 1)]
    return FieldSystem(N=N, r=r, J=Js)


def e1ep_phase(r: int, p: int, a: int) -> Tuple[int, int]:
    """The composite bit rule: e_1 e_p u_a = i^e u_b, returned as (e, b), 0 <= e < 4."""
    if not 2 <= p <= r:
        raise ValueError("p out of range")
    a0 = a & 1
    if p == 2:
        return (3 if a0 else 1), a
    if p == r and r % 2 == 1:
        k = r // 2
        return 2 * ((k + 1 + (a & ((1 << k) - 1)).bit_count()) & 1), a ^ 1
    j = (p + 1) // 2
    ajm1 = (a >> (j - 1)) & 1
    low = (a & ((1 << (j - 1)) - 1)).bit_count()
    exp2 = (2 * j - 1 + low + ajm1 * (-2 * j + p + 1)) % 2
    return (1 - p + 2 * exp2) % 4, a ^ (1 << (j - 1)) ^ 1


def _gauss_pick(r: int, n: int, terms) -> Callable[[Sequence[int]], tuple]:
    """The spinor sum of (X + i Y) i^e u_b over ``terms`` = (x, y, e, b), with X and
    Y the entries x and y of a real vector v of length n, compiled into one signed
    pick: from v + (-v) + (0,), the dense coordinates (re_0, im_0, re_1, ...).

    At stages 0, 1 mod 8 each term w also puts gamma w at c, where gamma u_b =
    i^g u_c is conjugate-linear: that is sqrt2 times the frame's 1/sqrt2
    symmetrization, so the coordinates stay Gaussian integers.  Every
    coordinate comes from at most one term, or the sum is not a pick.
    """
    zero, out = 2 * n, [2 * n] * (2 << (r // 2))
    symmetrize = r % 8 in (0, 1)

    def place(b: int, re: int, im: int, e: int):
        for _ in range(e % 4):  # times i: (re, im) -> (-im, re), an index past n negates
            re, im = (im + n) % (2 * n), re
        if out[2 * b] != zero or out[2 * b + 1] != zero:
            raise ValueError(f"two terms meet at u_{b}")
        out[2 * b], out[2 * b + 1] = re, im

    for x, y, e, b in terms:
        place(b, x, y, e)
        if symmetrize:  # conj((X + i Y) i^e) i^g = (X - i Y) i^(g - e)
            g, c = real_structure_phase(r, b)
            place(c, x, (y + n) % (2 * n), g - e)
    return signed_pick(out)


@lru_cache(maxsize=None)
def closed_form_pick(r: int, p: int) -> Callable[[Sequence[int]], tuple]:
    """The closed-form value of the field for e_1 e_p as a signed pick.

    From z + (-z) + (0,), where z lists X_a, Y_a for each a of
    ``frame_index_set(r)`` in turn, it gives the dense Gaussian-int spinor
    coordinates of e_1 e_p (X_a + i Y_a) u_a = (X_a + i Y_a) i^e u_b (the
    bit rule), gamma-symmetrized at stages 0, 1 mod 8 (times sqrt2 there).
    """
    idx = frame_index_set(r)
    return _gauss_pick(r, 2 * len(idx), (
        (2 * t, 2 * t + 1, *e1ep_phase(r, p, a)) for t, a in enumerate(idx)))


@lru_cache(maxsize=None)
def frame_placement_pick(r: int, stride: int, offset: int) -> Callable[[Sequence[int]], tuple]:
    """The point of the stage-r real frame with coordinates X_a, Y_a as a signed pick.

    X_a and Y_a of the t-th a of ``frame_index_set(r)`` are entries
    (2t) stride + offset and (2t + 1) stride + offset of v, so a column of
    a stacked ``FieldSystem.frame_pick`` is read in place.  From
    v + (-v) + (0,) it gives the dense coordinates ``closed_form_pick`` gives.
    """
    idx = frame_index_set(r)
    return _gauss_pick(r, 2 * len(idx) * stride, (
        (2 * t * stride + offset, (2 * t + 1) * stride + offset, 0, a) for t, a in enumerate(idx)))


def emit_coordinates(N: int, fmt: str = "text",
                     split: Optional[Tuple[int, int]] = None):
    """Fields as signed coordinate tuples in variables v1..vN.

    Text rows look like "(-v2, v1, ...)"; json gives signed 1-based
    indices; latex wraps the text tuples.
    """
    system = build_field_system(N, split=split)
    # entry b of J (1, ..., N) is the signed 1-based column of row b's entry
    rows = [J.apply(range(1, N + 1)) for J in system.J]
    if fmt == "json":
        return {"sphere": N - 1, "stage": system.r, "fields": rows}
    name = "v_{{{}}}" if fmt == "latex" else "v{}"
    tuples = ["(" + ", ".join("-" * (v < 0) + name.format(abs(v)) for v in row) + ")" for row in rows]
    if fmt == "latex":
        return "\n".join(f"V_{{{m}}} = {t}" for m, t in enumerate(tuples, start=1))
    return "\n".join(tuples)


def structure_failure(system: FieldSystem) -> Optional[dict]:
    """The first structure equation the system breaks, or None.

    Checks each J for antisymmetry and J^2 = -1, then every pair for
    anticommutation; a failure names N, the 1-based J (or pair) and the
    equation.  With every J antisymmetric, (J_a J_b)^T = J_b J_a, so
    J_a J_b = -J_b J_a exactly when J_a J_b is antisymmetric.
    """
    minus_one = -Monomial.identity(system.N)
    for j, J in enumerate(system.J, start=1):
        if J.transpose() != -J:
            return {"N": system.N, "J": j, "equation": "J^T = -J"}
        if J.compose(J) != minus_one:
            return {"N": system.N, "J": j, "equation": "J^2 = -1"}
    for a in range(len(system.J)):
        for b in range(a + 1, len(system.J)):
            P = system.J[a].compose(system.J[b])
            if P.transpose() != -P:
                return {"N": system.N, "J": [a + 1, b + 1], "equation": "J_a J_b = -J_b J_a"}
    return None


# unsigned array codes by digit width in bytes, narrowest first
_DIGIT_CODES = sorted({array(code).itemsize: code for code in "BHILQ"}.items())


def gram_is_scaled_identity(system: FieldSystem, z: Sequence[int]) -> bool:
    """Gram matrix G of (z, V_1(z), ..., V_{r-1}(z)) at the int point z equals |z|^2 Id, exactly.

    The stacked pick reads the frame off z + m, m - z (m = max|z_j|): every
    entry is u + m in [0, 2m].  Each u_b is a signed permutation of z, so
    G_bb = |z|^2 and |G_ab| <= |z|^2 (Cauchy-Schwarz); digits of base
    B = 256^w with B > |z|^2 hold those offsets (2m <= |z|^2 once |z|^2 >= 4)
    and each G_ab - |z|^2 delta_ab, all under B in size, uniquely; w is the
    narrowest array width that fits, or any width by ``int.to_bytes``.
    Column j packs into P_j = sum over b of (u_b[j] + m) B^b, one
    ``int.from_bytes``.  Row a's dot D_a = (u_a + m) . P is sum over b of
    (G_ab + m S_a + m S_b + N m^2) B^b with S_b = sum(u_b), so with
    Q = sum(P), R = sum of B^b and T_a = sum(u_a + m), D_a - m T_a R -
    m (Q - N m R) = sum over b of G_ab B^b, which is |z|^2 B^a exactly when
    row a of G is |z|^2 on the diagonal and 0 elsewhere.  A J with an odd
    phase has no pick: not a real frame, False.
    """
    pick = system.frame_pick
    if pick is None:
        return False
    N, R = len(z), len(system.J) + 1
    norm = sum(map(mul, z, z))
    m = max(map(abs, z), default=0)
    picked = pick([x + m for x in z] + [m - x for x in z])
    width = max(1, (norm.bit_length() + 7) // 8)
    code = next((c for w, c in _DIGIT_CODES if w >= width), None)
    if code is None:
        data = b"".join(v.to_bytes(width, "little") for v in picked)
    else:
        digits = array(code, picked)
        if sys.byteorder == "big":
            digits.byteswap()
        data, width = digits.tobytes(), digits.itemsize
    step, shift = R * width, 8 * width
    P = [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]
    rep = ((1 << shift * R) - 1) // ((1 << shift) - 1)
    base, mrep = m * (sum(P) - N * m * rep), m * rep
    for a in range(R):
        row = picked[a::R]
        if sum(map(mul, row, P)) - sum(row) * mrep - base != norm << shift * a:
            return False
    return True


def random_point(N: int, rng: random.Random) -> List[int]:
    """A nonzero point of Z^N with coordinates in [-9, 9]."""
    if N < 1:
        raise ValueError("a nonzero point needs N >= 1")
    while True:
        z = draw_ints(rng, ((-9, 9),), N)
        if any(z):
            return z
