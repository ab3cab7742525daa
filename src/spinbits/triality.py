"""Outer automorphisms of the spin(8) story: sigma*, tau*, their
eigenspaces, the g2 fixed subalgebra, the S3 relations, group-level
automorphisms on generators, and the images of the center.

sigma* and tau* are constructed from first principles: decompose the
half-spinor action of each generator e_i e_j over the standard
antisymmetric basis E_kl and halve.  The tabulated lists in
``reference`` are used by the verification suite, never as the source
of the construction.

A bivector combination (``BivectorCoeffs``) maps pairs (i, j), i < j, to
coefficients: int numerators, beside one denominator where that is not 1,
for every rational element of so(8), and Scalars only where omega is.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .clifford import CliffordElem, blade_product, exp_bivector
from .matrices import Matrix, Monomial, Subspace, e_basis_decompose, ints_over_lcm, real_block
from .scalars import Angle, HALF, I, ONE, SQRT3, Scalar, INV_SQRT2
from .spinors import Spinor

PAIR_ORDER: List[Tuple[int, int]] = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
_PAIR_POS = {p: n for n, p in enumerate(PAIR_ORDER)}

BivectorCoeffs = Dict[Tuple[int, int], object]  # int numerators, or Scalars


def to_vector(coeffs: BivectorCoeffs) -> List[int]:
    """Coordinates of a bivector combination over PAIR_ORDER, 0 off its pairs."""
    vec = [0] * 28
    for p, c in coeffs.items():
        vec[_PAIR_POS[p]] = c
    return vec


def to_coeffs(vec: Sequence[Scalar]) -> BivectorCoeffs:
    """The bivector combination with these PAIR_ORDER coordinates."""
    return {PAIR_ORDER[r]: c for r, c in enumerate(vec) if c}


def bivector_span(vectors: Iterable[BivectorCoeffs]) -> Subspace:
    """The span of some int bivector combinations, in PAIR_ORDER coordinates:
    28 columns, even when there is no vector."""
    return Subspace(Matrix._of_ints([to_vector(v) for v in vectors], 1, 28))


def kernel(*maps: Matrix) -> Subspace:
    """The common kernel of some int-form matrices on bivectors: the kernel of
    their stacked int rows, since a positive denominator scales no kernel."""
    return Subspace(Matrix._of_ints([row for m in maps for row in m.ints[0]], 1, 28).nullspace())


def image_coeffs(outer: Matrix, pair: Tuple[int, int]) -> Tuple[BivectorCoeffs, int]:
    """The image of e_pair under a rational map: its column's int numerators, and the map's denominator."""
    c = _PAIR_POS[pair]
    num, den = outer.ints
    return {PAIR_ORDER[r]: row[c] for r, row in enumerate(num) if row[c]}, den


# Orientation of the half-spinor frames used throughout this module:
# the gamma-symmetrized bases with the 4th and 5th vectors negated (on
# both chiralities).  The tabulated E-decompositions, the 28x28 arrays,
# and the dualized 2-forms are mutually consistent exactly in this
# orientation; the division-algebra tables live in the unflipped frame.
FRAME_SIGNS = (1, 1, 1, -1, -1, 1, 1, 1)


@lru_cache(maxsize=None)
def kappa_real_matrix(word: Tuple[int, ...], sign: str) -> Matrix:
    """Real half-spinor matrix of an even word (a tuple, such as a PAIR_ORDER
    pair) at stage 8, read off the bit rule (``real_block``), in this module's
    frame orientation.

    Built once per (word, sign): callers share the Matrix and never mutate it.
    """
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
    # kappa is an int matrix, so its E_kl coefficients are ints: the columns over 2
    cols = [to_vector(e_basis_decompose(kappa_real_matrix(p, source))[0]) for p in PAIR_ORDER]
    return Matrix.from_int_rows(zip(*cols), 2)


def eigenspace(outer: Matrix, lam: Scalar) -> Matrix:
    """The exact kernel of (map - lambda Id), its basis as the rows of a Matrix."""
    if lam not in (ONE, -ONE, (SQRT3 * I - ONE) * HALF, (-SQRT3 * I - ONE) * HALF):
        raise ValueError("unsupported eigenvalue")
    return (outer - Matrix.identity(28).scale(lam)).nullspace()


def omega_eigenvalue(conj: bool = False) -> Scalar:
    """Primitive cube root of unity (-1 + i sqrt3)/2, or its conjugate."""
    s = -SQRT3 if conj else SQRT3
    return (s * I - ONE) * HALF


def kappa_star_matrix(coeffs: BivectorCoeffs, den: int, sign: str) -> Matrix:
    """Half-spinor action on a real frame of the bivector combination with int
    numerators ``coeffs`` over ``den``, summed on the generators' int rows."""
    acc = [[0] * 8 for _ in range(8)]
    for p, x in coeffs.items():
        rows, _ = kappa_real_matrix(p, sign).ints  # a signed permutation: denominator 1
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
        kappa_star_matrix(*image_coeffs(ts, p), "minus") == kappa_real_matrix(p, "plus")
        for p in PAIR_ORDER
    )
    ok_plus = all(
        kappa_star_matrix(*image_coeffs(ts, p), "plus") == kappa_real_matrix(p, "minus")
        for p in PAIR_ORDER
    )
    results.append(("kappa-* (tau* sigma*) = kappa+*", ok_minus))
    results.append(("kappa+* (tau* sigma*) = kappa-*", ok_plus))
    return results


def span_contains(span: Subspace, vec: BivectorCoeffs) -> bool:
    """Exact membership of an int bivector combination in an int-form span."""
    return to_vector(vec) in span


@lru_cache(maxsize=None)
def g2_generators() -> Tuple[BivectorCoeffs, ...]:
    """The 14 spanning bivectors of the fixed subalgebra of sigma*, on ints.

    Parsed once: callers share the tuple and its combinations and never
    mutate them.
    """
    from . import reference

    return tuple(map(reference.bivector_terms, reference.G2_GENERATORS))


def bivector_bracket(a: BivectorCoeffs, b: BivectorCoeffs) -> BivectorCoeffs:
    """Clifford commutator of two bivector combinations, again a bivector.

    The bracket is bilinear, so it is summed in the coefficients' own
    arithmetic from the structure constants of the basis pairs: int
    coefficients give int ones.  Coefficients that sum to zero are kept.
    """
    table, acc = _bracket_table(), {}
    for p, x in a.items():
        row = table[p]
        for q, y in b.items():
            rc = row[q]
            if rc:
                r, c = rc
                acc[r] = acc.get(r, 0) + c * x * y
    return acc


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


def g2_structure() -> List[Tuple[str, bool]]:
    """The full battery of structural checks of the g2 generators."""
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

    fix_sigma = eigenspace(sig, ONE)
    checks.append(("fixed space of sigma* has dimension 14", fix_sigma.rows == 14))
    checks.append(("generators span the fixed space of sigma*", g2 == Subspace(fix_sigma)))

    # each span below is a kernel: spin7(e2..e8) that of the seven e1 e_j
    # coordinates, and Fix(tau*) intersect Fix(X) that of tau* - Id over X - Id
    ident = Matrix.identity(28)
    e1_coords = Matrix.from_int_rows([to_vector({(1, j): 1}) for j in range(2, 9)])
    tau_eq = tau - ident
    fix_tau = Subspace(eigenspace(tau, ONE))
    spin7_low = kernel(e1_coords)
    inter = kernel(tau_eq, e1_coords)
    checks.append(("g2 = spin7(e2..e8) intersect Fix(tau*)", inter.dim == 14 and g2 == inter))

    fix_ts = Subspace(eigenspace(ts, ONE))
    checks.append(("Fix(tau* sigma*) = spin7(e2..e8)", fix_ts == spin7_low))
    for label, X in (("tau* sigma*^2", tau * sig2), ("tau* sigma*", ts)):
        inter = kernel(tau_eq, X - ident)
        checks.append((f"g2 = Fix(tau*) intersect Fix({label})", inter.dim == 14 and g2 == inter))

    image = Subspace(fix_ts.basis * sig2.transpose())
    checks.append(("sigma*^2 maps Fix(tau* sigma*) onto Fix(tau*)", image == fix_tau))

    def ints(span):  # its int echelon rows: the bracket is bilinear, so membership stays
        return [to_coeffs(row) for row in span.basis.ints[0]]

    g2_ints, fix_tau_ints = ints(g2), ints(fix_tau)
    closure = all(span_contains(g2, bivector_bracket(a, b)) for a in g2_ints for b in g2_ints)
    checks.append(("bracket closure of g2", closure))

    # bracket structure of the pair (spin7, g2): reductive complement in
    # both spin7 copies, symmetric pair only one level up via the tau*
    # involution (spin8 = Fix(tau*) + m with [m, m] inside Fix(tau*)); m is
    # the members of the copy orthogonal to g2 under the coordinate product:
    # the kernel of g2's basis rows over the copy's equations
    copies = (("e2..e8 copy", spin7_low, e1_coords), ("Fix(tau*) copy", fix_tau, tau_eq))
    for label, copy, equations in copies:
        m = kernel(g2.basis, equations)
        m_ints = ints(m)
        gm = all(span_contains(m, bivector_bracket(g, x)) for g in g2_ints for x in m_ints)
        mm = all(span_contains(copy, bivector_bracket(x, y)) for x in m_ints for y in m_ints)
        checks.append(
            (f"reductive pair (spin7, g2) in the {label}: [g2,m] in m, [m,m] in spin7",
             m.dim == 7 and gm and mm)
        )
    m_tau = Subspace(eigenspace(tau, -ONE))
    m_tau_ints = ints(m_tau)
    sym_mm = all(span_contains(fix_tau, bivector_bracket(x, y)) for x in m_tau_ints for y in m_tau_ints)
    sym_gm = all(span_contains(m_tau, bivector_bracket(g, x)) for g in fix_tau_ints for x in m_tau_ints)
    checks.append(
        ("symmetric pair (spin8, spin7) from the tau* involution", sym_mm and sym_gm)
    )

    return checks


def g2_action_matrix(alphas: Sequence) -> Matrix:
    """Action of sum(alpha_m G_m) on the positive real frame, presented
    in the row convention of the tabulated display (the transpose of the
    column-action matrix); exact over rational alpha."""
    return g2_action_matrix_on("plus", alphas).transpose()


def g2_action_matrix_on(which: str, alphas: Sequence) -> Matrix:
    """Column-convention action of sum(alpha_m G_m) on a real frame, summed on ints."""
    if len(alphas) != 14:
        raise ValueError("need 14 coefficients")
    nums, den = ints_over_lcm(alphas)
    acc: Dict[Tuple[int, int], int] = {}
    for x, g in zip(nums, g2_generators()):
        for p, y in g.items():
            acc[p] = acc.get(p, 0) + x * y
    return kappa_star_matrix({p: s for p, s in acc.items() if s}, den, which)


def group_automorphism(which: str, pair: Tuple[int, int]) -> CliffordElem:
    """Image of the generator e_i e_j under the group-level lift.

    Exponentiating t * image-bivector to t = pi/2 gives a product of
    four commuting rotation factors at angle pi/4 with signs read from
    the bivector image.
    """
    coeffs, den = image_coeffs(build_outer(which), pair)
    if any(2 * abs(c) != den for c in coeffs.values()):  # entries are +-1/2
        raise ValueError("generator image is not a quarter-turn product")
    return exp_bivector(8, [(Angle(3 if c > 0 else -3), p) for p, c in sorted(coeffs.items())])


def center_images(which: str) -> Dict[str, CliffordElem]:
    """Images of the nontrivial central elements, computed inside Cl_8."""
    g12 = group_automorphism(which, (1, 2))
    minus_one_img = g12 * g12
    vol_img = CliffordElem.one(8)
    for pair in ((1, 2), (3, 4), (5, 6), (7, 8)):
        vol_img = vol_img * group_automorphism(which, pair)
    neg_vol_img = minus_one_img * vol_img
    return {"-1": minus_one_img, "vol": vol_img, "-vol": neg_vol_img}
