"""The certificate suite: every reproduced result, run end to end.

Each criterion contributes named pass/fail checks to a Report; the
report is deterministic for a fixed seed and sample count.  ``samples``
sets the property checks' random draws: at 0, C4's display check and C8's
Gram frames draw none and C10's Hermitian identities report PASS unrun,
while C7 still draws at least 100 octonion pairs (on its own seed 1) and
C8's closed-form check 2 points per stage.  Golden-table checks always run.
A criterion that raises adds one named FAIL, the error its witness.
The checks that read the tables import ``reference`` themselves, so that
importing this module (and the CLI) does not load them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import List, NamedTuple, Optional

from .clifford import (
    CliffordElem,
    chirality_involution,
    clifford_apply,
    delta_iso,
    exp_bivector,
    generator_phase,
    volume_element,
    word_apply,
    word_phase,
)
from .fields import (
    build_field_system,
    closed_form_pick,
    e1ep_phase,
    emit_coordinates,
    frame_placement_pick,
    gram_is_scaled_identity,
    hurwitz_radon,
    irrep_info,
    max_stage,
    random_point,
    structure_failure,
)
from .forms import ExtForm, derivation_action, dualize_endomorphism, g2_three_form, omega_square_is_504_vol, spin7_four_form
from .matrices import (
    Matrix,
    Monomial,
    e_basis_compose,
    gamma_oracle,
    ints_over_lcm,
    kappa_matrix,
    lambda_matrix,
    tensor_oracle,
)
from .octonions import algebra_checks, cells, octonion_table, quaternion_checks, real_clifford_table
from .scalars import Angle, I, ONE, Scalar, ZERO, _make, draw_ints
from .spinors import (
    Spinor,
    chirality,
    frame_index_set,
    gamma_squares_to,
    hermitian,
    parity,
    real_structure,
    real_structure_phase,
    signs_from_index,
)
from .triality import (
    PAIR_ORDER,
    build_outer,
    center_images,
    g2_action_matrix_on,
    g2_structure,
    image_coeffs,
    kappa_real_matrix,
    omega_eigenvalue,
    s3_relations,
    to_vector,
)


class Check(NamedTuple):
    name: str
    status: str
    witness: Optional[object] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class Report:
    def __init__(self, pairs=()):
        self.checks: List[Check] = []
        self.extend(pairs)

    def add(self, name: str, ok: bool, witness: Optional[object] = None):
        self.checks.append(Check(name, "pass" if ok else "fail", witness))

    def extend(self, pairs):
        for name, ok in pairs:
            self.add(name, ok)

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def fail_count(self) -> int:
        return len(self.checks) - self.pass_count

    def exit_code(self) -> int:
        return 0 if self.fail_count == 0 else 1

    def to_json(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "pass": self.pass_count,
            "fail": self.fail_count,
        }


def _rand_scalar(rng: random.Random) -> Scalar:
    """With odds 1/2 per radical, re and im drawn as -5..5 over 1..4, over one lcm."""
    nums, dens = [0] * 8, [1] * 8
    for k in range(0, 8, 2):
        if rng.random() < 0.5:
            nums[k], dens[k], nums[k + 1], dens[k + 1] = draw_ints(rng, ((-5, 5), (1, 4)), 2)
    den = lcm(*dens)
    return _make([n * (den // d) for n, d in zip(nums, dens)], den)


def _rand_spinor(rng: random.Random, k: int) -> Spinor:
    out = Spinor.zero(k)
    for _ in range(3):
        [a] = draw_ints(rng, ((0, (1 << k) - 1),))
        out = out + Spinor.basis(k, a, _rand_scalar(rng))
    return out


# -- criterion 1 -----------------------------------------------------


def check_kernel_oracle(report: Report, max_n: int = 12):
    """The int bit rule against the tensor oracle at every (n, p, a); the
    witness is the first disagreement."""
    witness = next((
        {"n": n, "p": p, "a": a}
        for n in range(2, max_n + 1)
        for p, oracle in enumerate(tensor_oracle(n), start=1)
        for a, image in enumerate(zip(oracle.phase, oracle.perm))
        if generator_phase(n, p, a) != image
    ), None)
    report.add(f"C1 bit-flip kernel equals tensor oracle for n <= {max_n}", witness is None, witness)


# -- criterion 2 -----------------------------------------------------


def check_golden_matrices(report: Report):
    # four copies of the 2x2 blocks [[0, i], [i, 0]] and [[0, -1], [1, 0]]
    for p, phase in ((1, (1, 1)), (2, (0, 2))):
        want = Monomial.identity(4).kron(Monomial((1, 0), phase))
        report.add(f"C2 kappa_6(e{p}) block pattern", kappa_matrix(6, [p]) == want)

    # the diagonal i, -i, i, -i, i, -i, i, -i
    report.add("C2 kappa_6(e1 e2) diagonal", kappa_matrix(6, [1, 2]) == Monomial(range(8), (1, 3) * 4))

    signs = (-1, -1, 1, 1, 1, 1)
    want = Matrix.from_int_rows([[s * (i == j) for j in range(6)] for i, s in enumerate(signs)])
    report.add("C2 lambda_6(e1 e2) diagonal", lambda_matrix(6, [1, 2]) == want)

    # one-parameter torus factors at exact angles: u_a is a weight vector whose
    # half-angle phase for pair t reads bit t-1, and the vector side rotates by
    # the full angle
    ok = True
    for t, pair in ((1, (1, 2)), (2, (3, 4)), (3, (5, 6))):
        for kk in (1, 2, 3, 6):
            theta = Angle(kk)
            elem = exp_bivector(6, [(theta, pair)])
            for a in range(8):
                sgn = -1 if (a >> (t - 1)) & 1 else 1
                phase = theta.cos() + I * theta.sin() * Scalar.rational(sgn)
                if elem.apply(Spinor.basis(3, a)) != Spinor.basis(3, a, phase):
                    ok = False
            dbl = Angle(2 * kk)
            expected = [[ONE if i == j else ZERO for j in range(6)] for i in range(6)]
            lo, hi = pair[0] - 1, pair[1] - 1
            expected[lo][lo] = dbl.cos()
            expected[hi][hi] = dbl.cos()
            expected[lo][hi] = -dbl.sin()
            expected[hi][lo] = dbl.sin()
            if lambda_matrix(6, elem).data != expected:
                ok = False
    report.add("C2 one-parameter torus matrices at exact angles", ok)

    # general torus element: basic spinors are exact weight vectors
    ok = True
    for angles in ((1, 2, 3), (3, 3, 3), (2, 0, 5)):
        thetas = [Angle(x) for x in angles]
        elem = exp_bivector(6, list(zip(thetas, ((1, 2), (3, 4), (5, 6)))))
        for a in range(8):
            img = elem.apply(Spinor.basis(3, a))
            phase = ONE
            signs = signs_from_index(a, 3)
            for t in range(3):
                eps = signs[3 - 1 - t]  # pair t+1 reads bit t
                phase = phase * (thetas[t].cos() + I * thetas[t].sin() * Scalar.rational(eps))
            if img != Spinor.basis(3, a, phase):
                ok = False
    report.add("C2 general torus element acts by exact weight phases", ok)


# -- criterion 3 -----------------------------------------------------


def check_triality(report: Report):
    from . import reference as ref

    sig, tau = build_outer("sigma"), build_outer("tau")

    for name, outer in (("sigma", sig), ("tau", tau)):
        want = Matrix.from_int_rows(ref.outer_matrix_expected(name), 2)
        report.add(f"C3 {name}* equals the tabulated 28x28 array", outer == want)

    # the tabulated image lines are the images' int numerators over 2
    sig_lines, tau_lines = ref.line_table(ref.SIGMA_LINES), ref.line_table(ref.TAU_LINES)
    for name, outer, lines in (("sigma", sig, sig_lines), ("tau", tau, tau_lines)):
        ok = all(image_coeffs(outer, p) == (lines[p], 2) for p in PAIR_ORDER)
        report.add(f"C3 {name}* reproduces all 28 tabulated image lines", ok)

    # the tabulated kappa-(e2 e4) line misprints its bivector argument as
    # the e2 e3 one; the constructed value must differ from the misprint
    report.add(
        "C3 flagged misprint: constructed sigma*(e2 e4) differs from the duplicated line",
        image_coeffs(sig, (2, 4)) != (sig_lines[(2, 3)], 2),
    )

    s3 = dict(s3_relations())  # computed once, reported here and with the other relations
    report.add("C3 sigma*^3 = Id", s3["sigma*^3 = Id"])
    report.add("C3 tau*^2 = Id", s3["tau*^2 = Id"])

    # an eigenspace of lambda has dimension 28 - rank(M - lambda Id)
    dims = {
        "sigma fixed": (sig, ONE, 14),
        "sigma omega": (sig, omega_eigenvalue(), 7),
        "sigma omega-bar": (sig, omega_eigenvalue(True), 7),
        "tau fixed": (tau, ONE, 21),
        "tau minus": (tau, -ONE, 7),
    }
    for label, (outer, lam, want) in dims.items():
        got = 28 - (outer - Matrix.identity(28).scale(lam)).rank()
        report.add(f"C3 eigenspace dimension: {label} = {want}", got == want)

    report.extend((f"C3 {name}", ok) for name, ok in s3.items())

    # read off the tabulated lines, so that neither side is built from the other
    for name, lines, half in (("sigma", sig_lines, "minus"), ("tau", tau_lines, "plus")):
        ok = all(lambda_of_coeffs(lines[p], 2) == kappa_real_matrix(p, half) for p in PAIR_ORDER)
        report.add(f"C3 lambda* after {name}* equals the {half} half-spinor action", ok)

    # tabulated eigenvectors a + i sqrt3 b satisfy their eigen-equations exactly: for
    # lambda = re + i sqrt3 im and the lines stacked as int rows A and B, M (a + i sqrt3 b)
    # = lambda (a + i sqrt3 b) is A M^T = re A - 3 im B and B M^T = im A + re B
    def eigenvectors(outer, lines, re, im) -> bool:
        A, B = (Matrix.from_int_rows(map(to_vector, part)) for part in zip(*map(ref.bivector_parts, lines)))
        MT = outer.transpose()
        return A * MT == A.scale(re) - B.scale(3 * im) and B * MT == A.scale(im) + B.scale(re)

    half = Fraction(1, 2)
    report.add(
        "C3 all 14 tabulated complex eigenvectors verified",
        eigenvectors(sig, ref.SIGMA_OMEGA_EIGENVECTORS, -half, half)
        and eigenvectors(sig, ref.SIGMA_OMEGABAR_EIGENVECTORS, -half, -half),
    )
    report.add(
        "C3 the 21 tabulated spin7 generators are tau*-fixed",
        eigenvectors(tau, ref.SPIN7_GENERATORS, 1, 0),
    )
    report.add(
        "C3 the 7 tabulated tau-minus eigenvectors verified",
        eigenvectors(tau, ref.TAU_MINUS_EIGENVECTORS, -1, 0),
    )


def lambda_of_coeffs(coeffs, den: int) -> Matrix:
    """lambda* of the bivector combination with int numerators ``coeffs``
    over ``den``: c_ij e_i e_j -> 2 c_ij E_ij."""
    return e_basis_compose(8, {p: 2 * c for p, c in coeffs.items()}, den)


# -- criterion 4 -----------------------------------------------------


def check_g2(report: Report, samples: int, rng: random.Random):
    from . import reference as ref

    report.extend((f"C4 {name}", ok) for name, ok in g2_structure())

    display_ok = True
    trials = [
        [1 if m == t else 0 for m in range(14)] for t in range(14)
    ]
    if samples:
        for _ in range(min(5, samples)):
            draws = draw_ints(rng, ((-4, 4), (1, 3)), 14)
            trials.append([Fraction(p, q) for p, q in zip(draws[0::2], draws[1::2])])
    for alphas in trials:
        # the display's entries, 2 * (sum of +-alpha_m), on the alphas' int numerators over den
        nums, den = ints_over_lcm(alphas)
        want = Matrix.from_int_rows([
            [2 * sum(s * nums[m - 1] for s, m in ref.signed_ints(ref.G2_ACTION_DISPLAY.get((r, c), "")))
             for c in range(1, 9)]
            for r in range(1, 9)
        ], den)
        # the display is in the row convention, the transpose of the column action
        plus = g2_action_matrix_on("plus", alphas)
        if plus.transpose() != want or plus != g2_action_matrix_on("minus", alphas):
            display_ok = False
    report.add("C4 general action matrix matches the display on both frames", display_ok)


# -- criterion 5 -----------------------------------------------------


def check_center(report: Report):
    vol = volume_element(8)
    one = CliffordElem.one(8)
    sig_imgs = center_images("sigma")
    tau_imgs = center_images("tau")
    report.add("C5 sigma(-1) = vol", sig_imgs["-1"] == vol)
    report.add("C5 sigma(vol) = -vol", sig_imgs["vol"] == -vol)
    report.add("C5 sigma(-vol) = -1", sig_imgs["-vol"] == -one)
    report.add("C5 tau(-1) = vol", tau_imgs["-1"] == vol)
    report.add("C5 tau(vol) = -1", tau_imgs["vol"] == -one)


# -- criterion 6 -----------------------------------------------------


def check_forms(report: Report):
    from . import reference as ref

    om = spin7_four_form()
    gold = ExtForm.zero(4)
    for s, quad in ref.OMEGA_TERMS:
        gold = gold + ExtForm.dx(*quad).scale(6 * s)
    report.add("C6 the 4-form equals the tabulated 14-term display (factor 6)", om == gold)

    report.add("C6 the 4-form squares to 504 times the volume form", omega_square_is_504_vol())

    phi = g2_three_form()
    gold3 = ExtForm.zero(3)
    for s, tri in ref.PHI_FORM_TERMS:
        gold3 = gold3 + ExtForm.dx(*tri).scale(6 * s)
    report.add("C6 the 3-form equals the tabulated 7-term display (factor 6)", phi == gold3)

    ok = True
    for m in range(14):
        alphas = [1 if t == m else 0 for t in range(14)]
        G = g2_action_matrix_on("plus", alphas)
        if not derivation_action(G, om).is_zero():
            ok = False
        if not derivation_action(G, phi).is_zero():
            ok = False
    report.add("C6 derivation invariance of both forms under all 14 generators", ok)

    lines = ref.line_table(ref.F_FORMS)
    ok = all(
        dualize_endomorphism(kappa_real_matrix(p, "plus")) == ExtForm(2, lines[p])
        for p in ((2, 3), (7, 8), (4, 6))
    )
    report.add("C6 dualized 2-forms match the tabulated lines", ok)


# -- criterion 7 -----------------------------------------------------


def check_octonions(report: Report, samples: int):
    from . import reference as ref

    gold = [ref.signed_ints(r) for r in ref.OCT_TABLE]
    ok = list(map(cells, octonion_table())) == gold
    report.add("C7 octonion table matches the tabulated 64 cells", ok)
    goldp = [ref.signed_ints(r) for r in ref.PHI_TABLE]
    ok = list(map(cells, real_clifford_table(8))) == goldp
    report.add("C7 real multiplication table matches the tabulated 64 cells", ok)

    n = max(samples, 100)
    report.extend((f"C7 {name}", ok) for name, ok in algebra_checks(n, seed=1))
    report.extend((f"C7 quaternions: {name}", ok) for name, ok in quaternion_checks())


# -- criterion 8 -----------------------------------------------------


def check_fields(report: Report, samples: int, rng: random.Random):
    from . import reference as ref

    report.add(
        "C8 maximal stage equals the Hurwitz-Radon count for N <= 4096",
        all(max_stage(N) == hurwitz_radon(N) for N in range(1, 4097)),
    )

    # over the full 9 x 32 grid, so a missing row or slot is a mismatch
    # whose emitted value is None
    emitted = emit_coordinates(build_field_system(32))
    gold = [[s * v for s, v in ref.signed_ints(row)] for row in ref.V_ROWS]
    mismatches = {
        (j, slot): mine
        for j, (row, want) in enumerate(zip_longest(emitted, gold, fillvalue=()), start=1)
        for slot, (mine, v) in enumerate(zip_longest(row, want), start=1)
        if mine != v
    }
    report.add(
        "C8 the nine emitted rows match the tabulated rows outside the two flagged misprints",
        mismatches == ref.V_ROW_TYPOS,
        {"corrected_cells": {f"V{j} slot {s}": v for (j, s), v in mismatches.items()}},
    )

    # the witness is the first failure: a structure equation, or the
    # index of the first random point whose Gram matrix is not |Z|^2 Id
    witness = None
    npoints = min(50, samples) if samples else 0
    for N in (2, 4, 8, 16, 32, 64, 128):
        system = build_field_system(N)
        failure = structure_failure(system)
        if failure is None:
            for t in range(npoints):
                if not gram_is_scaled_identity(system, random_point(N, rng)):
                    failure = {"N": N, "point": t}
                    break
        if witness is None:
            witness = failure
    report.add(
        "C8 structure equations and exact Gram frames for N in {2,...,128}",
        witness is None,
        witness,
    )

    # both routes carry the frame's 1/sqrt2 at stages 0, 1 mod 8, so both
    # are compared times sqrt2, as dense Gaussian-int coordinates: the closed
    # form picked off the point, and J z picked off the system's stacked
    # frame, placed in the real frame
    ok = True
    for r in (8, 9, 10, 12):
        n = len(frame_index_set(r))
        system = build_field_system(irrep_info(r).d)
        stacked, R = system.frame_pick, len(system.J) + 1
        for _ in range(max(3, min(10, samples)) if samples else 2):
            xv, yv = draw_ints(rng, ((-5, 5),), n), draw_ints(rng, ((-5, 5),), n)
            z = [t for xy in zip(xv, yv) for t in xy]  # X_a, Y_a frame coordinate pairs
            if stacked is None:  # a J with an odd phase: no real frame to place
                ok = False
                continue
            frame = stacked(z + [-t for t in z])
            signed_z, signed_frame = (*z, *(-t for t in z), 0), (*frame, *(-t for t in frame), 0)
            for p in range(2, r + 1):
                if closed_form_pick(r, p)(signed_z) != frame_placement_pick(r, R, p - 1)(signed_frame):
                    ok = False
    report.add("C8 closed-form field values agree with the matrix route (r = 8, 9, 10, 12)", ok)

    ok = all(
        e1ep_phase(r, p, a) == word_phase(r, [1, p], a)
        for r in range(2, 13) for p in range(2, r + 1) for a in range(1 << (r // 2))
    )
    report.add("C8 composite bit rules equal two generator applications for r <= 12", ok)


# -- criterion 9 -----------------------------------------------------


def check_delta_iso(report: Report):
    """The witness is the first failure in loop order: a basis image of odd
    parity, or a (k, a, p, q) whose two sides differ."""
    witness = None
    for k in range(2, 6):
        n = 2 * k
        for a in range(1 << (k - 1)):
            u = Spinor.basis(k - 1, a)
            fu = delta_iso(k, u)
            odd = parity(next(iter(fu.terms)))
            if odd and witness is None:
                witness = {"k": k, "a": a, "parity": odd}
            for p in range(1, 2 * k):
                for q in range(p + 1, 2 * k):
                    lhs = delta_iso(k, word_apply(2 * k - 1, [p, q], u))
                    rhs = word_apply(n, [p, q], fu)
                    if lhs != rhs and witness is None:
                        witness = {"k": k, "a": a, "p": p, "q": q}
    report.add(
        "C9 the odd-to-even embedding is equivariant for all generator pairs, k <= 5",
        witness is None,
        witness,
    )


# -- criterion 10 ----------------------------------------------------


def check_structure_maps(report: Report, samples: int, rng: random.Random, max_n: int = 12):
    # gamma conjugates the coordinates first, so on basic spinors the
    # tensor definition is its monomial alone
    ok = all(
        real_structure_phase(n, a) == image
        for n in range(2, max_n + 1)
        for gamma in [gamma_oracle(n)]
        for a, image in enumerate(zip(gamma.phase, gamma.perm))
    )
    report.add(f"C10 binary structure maps equal the tensor definitions for n <= {max_n}", ok)

    ok = True
    for n in range(2, max_n + 1):
        k = n // 2
        sgn = gamma_squares_to(n)
        for a in range(1 << k):
            u = Spinor.basis(k, a)
            if real_structure(n, real_structure(n, u)) != u.scale(Scalar.rational(sgn)):
                ok = False
    report.add("C10 structure maps square to the residue-determined sign", ok)

    # the pairing identity carries the sign of gamma^2: plain in the real
    # residues, a minus in the quaternionic ones (forced already by the
    # rank-one quaternionic structure on C^2)
    ok = True
    for _ in range(samples or 0):
        n = rng.choice([2, 4, 6, 8, 10, 12])
        k = n // 2
        v, w = _rand_spinor(rng, k), _rand_spinor(rng, k)
        gv, gw = real_structure(n, v), real_structure(n, w)
        sgn = Scalar.rational(gamma_squares_to(n))
        if hermitian(gv, w) != sgn * hermitian(v, gw).conjugate():
            ok = False
        if hermitian(gv, gw) != hermitian(v, w).conjugate():
            ok = False
        [p] = draw_ints(rng, ((1, n),))
        if hermitian(clifford_apply(n, p, v), w) != -hermitian(v, clifford_apply(n, p, w)):
            ok = False
    report.add("C10 Hermitian compatibility identities on random pairs", ok if samples else True)

    ok = True
    for n in (2, 4, 6, 8, 10):
        k = n // 2
        for a in range(1 << k):
            u = Spinor.basis(k, a)
            img = chirality_involution(n, u)
            if img != u.scale(Scalar.rational(chirality(a))):
                ok = False
    report.add("C10 bit-parity chirality equals the volume involution eigenvalue", ok)


def verify_all(seed: int = 1, samples: int = 100, max_n: int = 12) -> Report:
    """Run the full certificate suite; deterministic for fixed inputs.

    Each check is looked up by name as it runs, so a rebound ``check_*``
    is the one called."""
    rng = random.Random(seed)
    report = Report()
    for c, (name, *args) in enumerate((
        ("check_kernel_oracle", max_n), ("check_golden_matrices",), ("check_triality",),
        ("check_g2", samples, rng), ("check_center",), ("check_forms",), ("check_octonions", samples),
        ("check_fields", samples, rng), ("check_delta_iso",), ("check_structure_maps", samples, rng, max_n),
    ), start=1):
        try:
            globals()[name](report, *args)
        except Exception as e:
            report.add(f"C{c} {name} raised", False, {"error": f"{type(e).__name__}: {e}"})
    return report
