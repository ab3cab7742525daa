"""Orthonormal tangent vector fields on spheres from real Clifford modules.

For the largest stage r whose irreducible real module dimension divides
N, the images of e_1 e_j (j = 2..r) on R^N give r-1 antisymmetric
complex structures J with pairwise anticommutation, so Z, J_2 Z, ...,
J_r Z is an exact orthogonal frame at every point Z of the sphere.

Everything runs on integers.  e_1 e_p sends each basic spinor to a power
of i times one basic spinor, so each J block is read straight off the bit
rule as a real ``Monomial`` (``matrices.real_block``), and the Gram check
reads each Gram row off one dot product of packed ints.  ``e1ep_phase`` is
the same action as one closed formula, used by the closed-form field values.
The real-frame route (``RealBasisFrame.expand``) and the pairwise Gram loop
survive only in the tests, as oracles.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .matrices import Monomial, real_block
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


class FieldSystem(NamedTuple):
    """The r-1 exact orthogonal almost-complex structures on R^N."""

    N: int
    r: int
    J: List[Monomial]

    def field_count(self) -> int:
        return self.r - 1


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


@lru_cache(maxsize=None)
def _e1ep_table(r: int, p: int) -> Tuple[Tuple[int, int, int], ...]:
    """(a, e, b) for e_1 e_p u_a = i^e u_b over the stage-r frame indices a."""
    return tuple((a, *e1ep_phase(r, p, a)) for a in frame_index_set(r))


@lru_cache(maxsize=None)
def _gamma_table(r: int) -> Tuple[Tuple[int, int], ...]:
    """real_structure_phase(r, b) for every b < 2^(r // 2)."""
    return tuple(real_structure_phase(r, b) for b in range(1 << (r // 2)))


GaussCoords = Dict[int, Tuple[int, int]]


def _symmetrized(r: int, terms) -> GaussCoords:
    """The spinor sum of (re + i im) u_b over ``terms`` = (b, re, im), as b -> (re, im).

    At stages 0, 1 mod 8 each term w becomes w + gamma w, which is sqrt2
    times the frame's 1/sqrt2 symmetrization, so the coordinates stay
    Gaussian integers; zero coordinates are dropped.
    """
    gamma = _gamma_table(r) if r % 8 in (0, 1) else None
    out: Dict[int, List[int]] = {}
    for b, re, im in terms:
        acc = out.setdefault(b, [0, 0])
        acc[0] += re
        acc[1] += im
        if gamma:  # gamma u_b = i^g u_c and gamma is conjugate-linear
            g, c = gamma[b]
            acc = out.setdefault(c, [0, 0])
            re2, im2 = _times_i_power(re, -im, g)
            acc[0] += re2
            acc[1] += im2
    return {b: (re, im) for b, (re, im) in out.items() if re or im}


def _times_i_power(re: int, im: int, e: int) -> Tuple[int, int]:
    """(re + i im) i^e as (re', im')."""
    return ((re, im), (-im, re), (-re, -im), (im, -re))[e % 4]


def field_formula_coords(r: int, p: int, x: Dict[int, int], y: Dict[int, int]) -> GaussCoords:
    """The closed-form value of the field for e_1 e_p at the point with frame
    coordinates X_a = x[a], Y_a = y[a] (ints), as Gaussian-int spinor
    coordinates b -> (re, im), times sqrt2 at stages 0, 1 mod 8.

    Follows the per-residue recipes: e_1 e_p (X_a + i Y_a) u_a =
    (X_a + i Y_a) i^e u_b by the bit rule, gamma-symmetrized at stages
    0, 1 mod 8.
    """
    terms = [(b, *_times_i_power(x.get(a, 0), y.get(a, 0), e)) for a, e, b in _e1ep_table(r, p)]
    return _symmetrized(r, terms)


def frame_point_coords(r: int, x: Dict[int, int], y: Dict[int, int]) -> GaussCoords:
    """The point with int coordinates (X_a, Y_a) in the stage-r real frame, as
    Gaussian-int spinor coordinates b -> (re, im), times sqrt2 at stages 0, 1 mod 8."""
    return _symmetrized(r, ((a, x.get(a, 0), y.get(a, 0)) for a in sorted(set(x) | set(y))))


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


def gram_is_scaled_identity(system: FieldSystem, z: Sequence[int]) -> bool:
    """Gram matrix G of (z, V_1(z), ..., V_{r-1}(z)) at the int point z equals |z|^2 Id, exactly.

    Each entry of u_b = J_b z is some +-z_j, so with m = max|z_j| every
    |G_ab| and |z|^2 are below 2^(k-1), k = (N m^2).bit_length() + 1.
    Row a is one dot u_a . P, P = sum over b >= a of u_b 2^(k(b-a)): it is the sum
    of G_ab 2^(k(b-a)), whose balanced base-2^k digits are unique, so it equals
    |z|^2 exactly when G_aa = |z|^2 and G_ab = 0 for b > a.  A J with an odd
    phase makes Scalar entries, caught before a shift: not a real frame, False.
    """
    norm = sum(map(mul, z, z))
    k = (len(z) * max(map(abs, z), default=0) ** 2).bit_length() + 1
    P = [0] * len(z)
    for u in reversed([z] + [J.apply(z) for J in system.J]):
        P = [(p << k) + x for p, x in zip(P, u)]
        dot = sum(map(mul, u, P))
        if type(dot) is not int or dot != norm:
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
