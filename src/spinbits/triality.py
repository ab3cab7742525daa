"""Outer automorphisms of the spin(8) story: sigma*, tau*, their
eigenspaces, the g2 fixed subalgebra, the S3 relations, group-level
automorphisms on generators, and the images of the center.

sigma* and tau* are constructed from first principles: decompose the
half-spinor action of each generator e_i e_j over the standard
antisymmetric basis E_kl and halve.  The tabulated lists in
``reference`` are used by the verification suite, never as the source
of the construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from .clifford import CliffordElem, blade_product, volume_element
from .matrices import Matrix, Monomial, Subspace, e_basis_decompose, int_rows, real_block
from .scalars import Angle, HALF, I, ONE, SQRT3, Scalar, ZERO, INV_SQRT2, _ratio
from .spinors import Spinor

PAIR_ORDER: List[Tuple[int, int]] = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
_PAIR_POS = {p: n for n, p in enumerate(PAIR_ORDER)}

BivectorCoeffs = Dict[Tuple[int, int], Scalar]


def to_vector(coeffs: BivectorCoeffs, zero=ZERO) -> List[Scalar]:
    """Coordinates of a bivector combination over PAIR_ORDER."""
    vec = [zero] * 28
    for p, c in coeffs.items():
        vec[_PAIR_POS[p]] = c
    return vec


def to_coeffs(vec: Sequence[Scalar]) -> BivectorCoeffs:
    """The bivector combination with these PAIR_ORDER coordinates."""
    return {PAIR_ORDER[r]: c for r, c in enumerate(vec) if c}


def bivector_span(vectors: Iterable[BivectorCoeffs]) -> Subspace:
    """The span of some bivector combinations, in PAIR_ORDER coordinates."""
    return Subspace([to_vector(v) for v in vectors], 28)


def image_coeffs(outer: Matrix, pair: Tuple[int, int]) -> BivectorCoeffs:
    """The image of e_pair under a rational map on bivectors, read off its int column."""
    c = _PAIR_POS[pair]
    num, den = outer._int_form()
    return {PAIR_ORDER[r]: _ratio(row[c], den) for r, row in enumerate(num) if row[c]}


# Orientation of the half-spinor frames used throughout this module:
# the gamma-symmetrized bases with the 4th and 5th vectors negated (on
# both chiralities).  The tabulated E-decompositions, the 28x28 arrays,
# and the dualized 2-forms are mutually consistent exactly in this
# orientation; the division-algebra tables live in the unflipped frame.
FRAME_SIGNS = (1, 1, 1, -1, -1, 1, 1, 1)


def kappa_real_matrix(word: Sequence[int], sign: str) -> Matrix:
    """Real half-spinor matrix of an even word at stage 8, read off the bit rule
    (``real_block``), in this module's frame orientation.

    Built once per (word, sign): callers share the Matrix and never mutate it.
    """
    return _kappa_real_matrix(tuple(word), sign)


@lru_cache(maxsize=None)
def _kappa_real_matrix(word: Tuple[int, ...], sign: str) -> Matrix:
    frame = Monomial(range(8), [1 - s for s in FRAME_SIGNS])
    return Matrix.from_int_rows(frame.compose(real_block(8, word, sign)).compose(frame).to_int_rows())


@lru_cache(maxsize=None)
def build_outer(name: str) -> Matrix:
    """The 28x28 matrix of sigma* from the minus half-spinor action, or of
    tau* from the plus one: column p holds half the E_kl coefficients of
    the action of e_p.  Built once: callers share it and never mutate it."""
    if name not in ("sigma", "tau"):
        raise ValueError("name must be sigma or tau")
    source = "minus" if name == "sigma" else "plus"
    cols = []
    for p in PAIR_ORDER:
        deco = e_basis_decompose(kappa_real_matrix(p, source))
        cols.append(to_vector({q: Scalar.from_fraction(c / 2) for q, c in deco.items()}))
    return Matrix.from_columns(cols)


def eigenspace(outer: Matrix, lam: Scalar) -> Tuple[int, Matrix]:
    """(dimension, basis rows) of the exact kernel of (map - lambda Id)."""
    if lam not in (ONE, -ONE, (SQRT3 * I - ONE) * HALF, (-SQRT3 * I - ONE) * HALF):
        raise ValueError("unsupported eigenvalue")
    _, kernel = (outer - Matrix.identity(28).scale(lam)).nullspace()
    return kernel.rows, kernel


def omega_eigenvalue(conj: bool = False) -> Scalar:
    """Primitive cube root of unity (-1 + i sqrt3)/2, or its conjugate."""
    s = -SQRT3 if conj else SQRT3
    return (s * I - ONE) * HALF


def _int_coeffs(rows: List[Sequence[Scalar]]) -> Tuple[List[List[int]], int]:
    """Int numerators of rows of rational coefficients over one denominator."""
    ints = int_rows(rows)
    if not ints:
        raise ValueError("bivector coefficients must be rational")
    return ints


def kappa_star_matrix(pairs_coeffs: BivectorCoeffs, sign: str) -> Matrix:
    """Half-spinor action matrix of a rational bivector combination on a
    real frame, summed on the int rows of the generators' matrices."""
    ([nums], den) = _int_coeffs([list(pairs_coeffs.values())])
    acc = [[0] * 8 for _ in range(8)]
    for p, x in zip(pairs_coeffs, nums):
        rows, _ = kappa_real_matrix(p, sign)._int_form()  # a signed permutation: denominator 1
        for out, row in zip(acc, rows):
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return Matrix.from_int_rows(acc, den)


def s3_relations() -> List[Tuple[str, bool]]:
    """The S3 presentation and representation-permutation identities."""
    sig, tau = build_outer("sigma"), build_outer("tau")
    ident = Matrix.identity(28)
    sig2, st, ts = sig * sig, sig * tau, tau * sig
    results = [
        ("tau*^2 = Id", tau * tau == ident),
        ("sigma*^3 = Id", sig2 * sig == ident),
        ("sigma* tau* = tau* sigma*^2", st == tau * sig2),
        ("sigma*^2 tau* = tau* sigma*", sig2 * tau == ts),
        ("(tau* sigma*)^2 = Id", ts * ts == ident),
        ("(sigma* tau*)^2 = Id", st * st == ident),
    ]
    ok_minus = all(
        kappa_star_matrix(image_coeffs(ts, p), "minus") == kappa_real_matrix(list(p), "plus")
        for p in PAIR_ORDER
    )
    ok_plus = all(
        kappa_star_matrix(image_coeffs(ts, p), "plus") == kappa_real_matrix(list(p), "minus")
        for p in PAIR_ORDER
    )
    results.append(("kappa-* (tau* sigma*) = kappa+*", ok_minus))
    results.append(("kappa+* (tau* sigma*) = kappa-*", ok_plus))
    return results


def span_contains(span: Subspace, vec: BivectorCoeffs) -> bool:
    """Exact membership of a bivector combination in a span, on ints when its
    coefficients are ints."""
    if all(type(c) is int for c in vec.values()):
        return span.contains_ints(to_vector(vec, 0))
    return to_vector(vec) in span


def g2_generators() -> List[BivectorCoeffs]:
    """The 14 spanning bivectors of the fixed subalgebra of sigma*.

    Parsed once: callers share the combinations and never mutate them.
    """
    return list(_g2_generators())


@lru_cache(maxsize=None)
def _g2_generators() -> Tuple[BivectorCoeffs, ...]:
    from . import reference

    return tuple(
        {p: Scalar.rational(c) for p, c in reference.bivector_terms(line).items()}
        for line in reference.G2_GENERATORS
    )


def bivector_bracket(a: BivectorCoeffs, b: BivectorCoeffs) -> BivectorCoeffs:
    """Clifford commutator of two rational bivector combinations, again a bivector.

    The bracket is bilinear, so it is summed on ints from the structure
    constants of the basis pairs.  Int coefficients give int coefficients
    (zero ones kept); Scalar ones are summed on their numerators over one
    denominator d, and the sums divided by d^2.
    """
    ints = all(type(c) is int for c in chain(a.values(), b.values()))
    if not ints:
        [na, nb], d = _int_coeffs([list(a.values()), list(b.values())])
        a, b = dict(zip(a, na)), dict(zip(b, nb))
    table, acc = _bracket_table(), {}
    for p, x in a.items():
        row = table[p]
        for q, y in b.items():
            rc = row[q]
            if rc:
                r, c = rc
                acc[r] = acc.get(r, 0) + c * x * y
    return acc if ints else {r: _ratio(s, d * d) for r, s in acc.items() if s}


@lru_cache(maxsize=None)
def _bracket_table() -> Dict[Tuple[int, int], Dict]:
    """table[p][q] = (r, c) with [e_p, e_q] = c e_r, or None when e_p and e_q
    commute, for the basis bivectors, read off the blade product; built once
    and shared."""
    mask = {p: (1 << (p[0] - 1)) | (1 << (p[1] - 1)) for p in PAIR_ORDER}
    table = {}
    for p in PAIR_ORDER:
        table[p] = row = {}
        for q in PAIR_ORDER:
            (s, m), (t, _) = blade_product(mask[p], mask[q]), blade_product(mask[q], mask[p])
            # unless they commute, e_p and e_q share one index and e_p e_q is a bivector
            row[q] = (tuple(k + 1 for k in range(8) if m >> k & 1), s - t) if s != t else None
    return table


def apply_bivector_to_spinor(coeffs: BivectorCoeffs, psi: Spinor) -> Spinor:
    """The sum of c_ij e_i e_j over pairs i < j, acting on psi."""
    terms = {(1 << (i - 1)) | (1 << (j - 1)): c for (i, j), c in coeffs.items()}
    return CliffordElem(8, terms).apply(psi)


def g2_structure() -> Dict[str, object]:
    """The g2 generators plus the full battery of structural checks."""
    sig, tau = build_outer("sigma"), build_outer("tau")
    sig2, ts = sig * sig, tau * sig
    gens = g2_generators()
    g2 = bivector_span(gens)
    checks: List[Tuple[str, bool]] = []

    k4 = 4
    psi_plus = (Spinor.basis(k4, 0) - Spinor.basis(k4, 15)).scale(INV_SQRT2)
    psi_minus = (Spinor.basis(k4, 1, I) - Spinor.basis(k4, 14, I)).scale(INV_SQRT2)
    checks.append(
        ("annihilates the basic positive spinor",
         all(apply_bivector_to_spinor(g, psi_plus).is_zero() for g in gens))
    )
    checks.append(
        ("annihilates the basic negative spinor",
         all(apply_bivector_to_spinor(g, psi_minus).is_zero() for g in gens))
    )

    dim_fix_sigma, fix_sigma = eigenspace(sig, ONE)
    checks.append(("fixed space of sigma* has dimension 14", dim_fix_sigma == 14))
    checks.append(("generators span the fixed space of sigma*", g2 == Subspace(fix_sigma)))

    fix_tau = Subspace(eigenspace(tau, ONE)[1])
    spin7_low = bivector_span({(i, j): ONE} for (i, j) in PAIR_ORDER if i >= 2)
    inter = fix_tau & spin7_low
    checks.append(("g2 = spin7(e2..e8) intersect Fix(tau*)", inter.dim == 14 and g2 == inter))

    fix_ts = Subspace(eigenspace(ts, ONE)[1])
    fix_ts2 = Subspace(eigenspace(tau * sig2, ONE)[1])
    checks.append(("Fix(tau* sigma*) = spin7(e2..e8)", fix_ts == spin7_low))
    for label, fix in (("tau* sigma*^2", fix_ts2), ("tau* sigma*", fix_ts)):
        inter = fix_tau & fix
        checks.append((f"g2 = Fix(tau*) intersect Fix({label})", inter.dim == 14 and g2 == inter))

    image = Subspace(fix_ts.basis * sig2.transpose(), 28)
    checks.append(("sigma*^2 maps Fix(tau* sigma*) onto Fix(tau*)", image == fix_tau))

    def ints(span):  # its int echelon rows: the bracket is bilinear, so membership stays
        return [to_coeffs(row) for row in span.basis._int_form()[0]]

    g2_ints, fix_tau_ints = ints(g2), ints(fix_tau)
    closure = all(span_contains(g2, bivector_bracket(a, b)) for a in g2_ints for b in g2_ints)
    checks.append(("bracket closure of g2", closure))

    # bracket structure of the pair (spin7, g2): reductive complement in
    # both spin7 copies, symmetric pair only one level up via the tau*
    # involution (spin8 = Fix(tau*) + m with [m, m] inside Fix(tau*))
    for label, copy in (("e2..e8 copy", spin7_low), ("Fix(tau*) copy", fix_tau)):
        m = g2.complement_in(copy)
        m_ints = ints(m)
        gm = all(span_contains(m, bivector_bracket(g, x)) for g in g2_ints for x in m_ints)
        mm = all(span_contains(copy, bivector_bracket(x, y)) for x in m_ints for y in m_ints)
        checks.append(
            (f"reductive pair (spin7, g2) in the {label}: [g2,m] in m, [m,m] in spin7",
             m.dim == 7 and gm and mm)
        )
    m_tau = Subspace(eigenspace(tau, -ONE)[1])
    m_tau_ints = ints(m_tau)
    sym_mm = all(span_contains(fix_tau, bivector_bracket(x, y)) for x in m_tau_ints for y in m_tau_ints)
    sym_gm = all(span_contains(m_tau, bivector_bracket(g, x)) for g in fix_tau_ints for x in m_tau_ints)
    checks.append(
        ("symmetric pair (spin8, spin7) from the tau* involution", sym_mm and sym_gm)
    )

    return {"generators": gens, "checks": checks}


def g2_action_matrix(alphas: Sequence) -> Matrix:
    """Action of sum(alpha_m G_m) on the positive real frame, presented
    in the row convention of the tabulated display (the transpose of the
    column-action matrix); exact over rational alpha."""
    return g2_action_matrix_on("plus", alphas).transpose()


def g2_action_matrix_on(which: str, alphas: Sequence) -> Matrix:
    """Column-convention action of sum(alpha_m G_m) on a real frame."""
    if len(alphas) != 14:
        raise ValueError("need 14 coefficients")
    gens = g2_generators()
    alphas = [a if isinstance(a, Scalar) else Scalar.from_fraction(Fraction(a)) for a in alphas]
    # alpha_m and the generators' coefficients, all over one denominator d
    (xs, *ys), d = _int_coeffs([alphas] + [list(g.values()) for g in gens])
    acc: Dict[Tuple[int, int], int] = {}
    for x, g, row in zip(xs, gens, ys):
        for p, y in zip(g, row):
            acc[p] = acc.get(p, 0) + x * y
    return kappa_star_matrix({p: _ratio(s, d * d) for p, s in acc.items() if s}, which)


def group_automorphism(which: str, pair: Tuple[int, int]) -> CliffordElem:
    """Image of the generator e_i e_j under the group-level lift.

    Exponentiating t * image-bivector to t = pi/2 gives a product of
    four commuting rotation factors at angle pi/4 with signs read from
    the bivector image.
    """
    coeffs = image_coeffs(build_outer(which), pair)
    quarter = Angle(3)  # pi/4
    out = CliffordElem.one(8)
    for (i, j), c in sorted(coeffs.items()):
        f = c * 2  # entries are +-1/2
        sin = quarter.sin() if f == ONE else -quarter.sin() if f == -ONE else None
        if sin is None:
            raise ValueError("generator image is not a quarter-turn product")
        out = out * CliffordElem(
            8, {0: quarter.cos(), (1 << (i - 1)) | (1 << (j - 1)): sin}
        )
    return out


def center_images(which: str) -> Dict[str, CliffordElem]:
    """Images of the nontrivial central elements, computed inside Cl_8."""
    vol = volume_element(8)
    g12 = group_automorphism(which, (1, 2))
    minus_one_img = g12 * g12
    vol_img = CliffordElem.one(8)
    for pair in ((1, 2), (3, 4), (5, 6), (7, 8)):
        vol_img = vol_img * group_automorphism(which, pair)
    neg_vol_img = minus_one_img * vol_img
    return {"-1": minus_one_img, "vol": vol_img, "-vol": neg_vol_img}
