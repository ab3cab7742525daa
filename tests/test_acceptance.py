"""Acceptance gate: every criterion of the certificate suite, at its
stated tolerance (exact structural equality throughout), one summary
line per criterion.
"""

import random
import time

import pytest

from spinbits import verify
from spinbits.clifford import CliffordElem, clifford_apply, word_apply
from spinbits.spinors import Spinor
from spinbits.verify import (
    Report,
    check_center,
    check_delta_iso,
    check_fields,
    check_forms,
    check_g2,
    check_golden_matrices,
    check_kernel_oracle,
    check_octonions,
    check_structure_maps,
    check_triality,
)

SEED = 1
SAMPLES = 100


def _run(label, fn, *args):
    report = Report()
    start = time.time()
    fn(report, *args)
    elapsed = time.time() - start
    failed = [c.name for c in report.checks if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {label} ({len(report.checks)} checks, {elapsed:.1f}s)")
    assert not failed, failed
    return report


def test_criterion_1_kernel_oracle_equivalence():
    # all n <= 12, all generators, all basis indices; expected < 1 minute
    start = time.time()
    _run("criterion 1: bit-flip kernel == tensor oracle (n <= 12)", check_kernel_oracle, 12)
    assert time.time() - start < 60


def test_criterion_2_golden_matrices():
    _run("criterion 2: tabulated stage-6 matrices and exact torus matrices",
         check_golden_matrices)


def test_criterion_3_triality():
    _run("criterion 3: sigma*/tau* arrays, orders, eigenspaces, S3 relations",
         check_triality)


def test_criterion_4_g2():
    rng = random.Random(SEED)
    _run("criterion 4: g2 generators, annihilation, corollaries, action matrix",
         check_g2, SAMPLES, rng)


def test_criterion_5_center():
    _run("criterion 5: images of the center under both lifts", check_center)


def test_criterion_6_forms():
    _run("criterion 6: invariant 4-form, 504-fold square, 3-form, invariance",
         check_forms)


def test_criterion_7_octonions():
    _run("criterion 7: octonion table, norm, alternativity, quaternions",
         check_octonions, SAMPLES)


def test_criterion_8_vector_fields():
    rng = random.Random(SEED)
    _run("criterion 8: Hurwitz-Radon counts, sphere-31 rows, Gram frames, formulas",
         check_fields, SAMPLES, rng)


def test_criterion_9_delta_isomorphism():
    _run("criterion 9: odd-to-even equivariant embedding, k <= 5", check_delta_iso)


def test_criterion_10_structure_maps():
    rng = random.Random(SEED)
    _run("criterion 10: structure maps vs tensor definitions, squares, pairings",
         check_structure_maps, SAMPLES, rng)


# -- every criterion can fail: one corrupted builder each ---------------
# (C1, C3, C4, C8 and C10 have theirs next to their subsystems' tests)


def failed_checks(fn, *args):
    report = Report()
    fn(report, *args)
    return {c.name: c.witness for c in report.checks if not c.passed}


# (check name, builder in verify's namespace, corruption of that builder): each
# swaps a word for another (e1^3 = -e1, e2 e1 = -e1 e2), reverses a rotation, or
# negates a torus element, which negates its spinor images but not its rotation
C2_CORRUPTIONS = {
    "kappa_e1": ("C2 kappa_6(e1) block pattern", "kappa_matrix",
                 lambda f, n, w: f(n, [1, 1, 1] if w == [1] else w)),
    "kappa_e2": ("C2 kappa_6(e2) block pattern", "kappa_matrix",
                 lambda f, n, w: f(n, [2, 2, 2] if w == [2] else w)),
    "kappa_e1e2": ("C2 kappa_6(e1 e2) diagonal", "kappa_matrix",
                   lambda f, n, w: f(n, [2, 1] if w == [1, 2] else w)),
    "lambda_e1e2": ("C2 lambda_6(e1 e2) diagonal", "lambda_matrix",
                    lambda f, n, g: f(n, [1, 3] if g == [1, 2] else g)),
    "torus_rotation": ("C2 one-parameter torus matrices at exact angles", "lambda_matrix",
                       lambda f, n, g: f(n, g.reverse() if isinstance(g, CliffordElem) else g)),
    "torus_spinor": ("C2 one-parameter torus matrices at exact angles", "exp_bivector",
                     lambda f, n, factors: -f(n, factors) if len(factors) == 1 else f(n, factors)),
    "general_torus": ("C2 general torus element acts by exact weight phases", "exp_bivector",
                      lambda f, n, factors: -f(n, factors) if len(factors) == 3 else f(n, factors)),
}


def test_every_c2_check_has_a_corruption():
    report = Report()
    check_golden_matrices(report)
    assert [c.name for c in report.checks] == list(dict.fromkeys(name for name, _, _ in C2_CORRUPTIONS.values()))


@pytest.mark.parametrize("case", C2_CORRUPTIONS)
def test_each_c2_corruption_fails_exactly_its_check(monkeypatch, case):
    name, builder, corrupt = C2_CORRUPTIONS[case]
    original = getattr(verify, builder)
    monkeypatch.setattr(verify, builder, lambda *args: corrupt(original, *args))
    assert list(failed_checks(check_golden_matrices)) == [name]


def test_swapped_center_images_fail_c5(monkeypatch):
    center_images = verify.center_images

    def swapped(which):
        images = dict(center_images(which))
        if which == "sigma":
            images["vol"], images["-vol"] = images["-vol"], images["vol"]
        return images

    monkeypatch.setattr(verify, "center_images", swapped)
    assert set(failed_checks(check_center)) == {"C5 sigma(vol) = -vol", "C5 sigma(-vol) = -1"}


def test_a_rescaled_four_form_fails_c6(monkeypatch):
    four_form = verify.spin7_four_form
    monkeypatch.setattr(verify, "spin7_four_form", lambda: four_form().scale(2))
    assert list(failed_checks(check_forms)) == [
        "C6 the 4-form equals the tabulated 14-term display (factor 6)"]


def test_a_flipped_octonion_cell_fails_c7(monkeypatch):
    octonion_table = verify.octonion_table

    def flipped():
        table = [row[:] for row in octonion_table()]
        table[1][2] = -table[1][2]
        return table

    monkeypatch.setattr(verify, "octonion_table", flipped)
    assert list(failed_checks(check_octonions, 0)) == [
        "C7 octonion table matches the tabulated 64 cells"]


C9 = "C9 the odd-to-even embedding is equivariant for all generator pairs, k <= 5"


def test_a_nonlinear_embedding_fails_c9_with_a_witness(monkeypatch):
    # negating the image of u_0 alone keeps every image a basic spinor
    # but breaks equivariance wherever a generator pair moves u_0
    delta_iso = verify.delta_iso
    monkeypatch.setattr(verify, "delta_iso",
                        lambda k, u: -delta_iso(k, u) if 0 in u.terms else delta_iso(k, u))
    failed = failed_checks(check_delta_iso)
    # the witness is the first (k, a, p, q), in the check's loop order, whose sides differ
    first = next(
        {"k": k, "a": a, "p": p, "q": q}
        for k in range(2, 6)
        for a in range(1 << (k - 1))
        for p in range(1, 2 * k)
        for q in range(p + 1, 2 * k)
        if verify.delta_iso(k, word_apply(2 * k - 1, [p, q], Spinor.basis(k - 1, a)))
        != word_apply(2 * k, [p, q], verify.delta_iso(k, Spinor.basis(k - 1, a)))
    )
    assert failed == {C9: first}


def test_an_odd_parity_embedding_fails_c9_with_a_parity_witness(monkeypatch):
    # e_1 after the embedding flips one bit of every image, and commutes with no pair
    delta_iso = verify.delta_iso
    monkeypatch.setattr(verify, "delta_iso", lambda k, u: clifford_apply(2 * k, 1, delta_iso(k, u)))
    assert failed_checks(check_delta_iso) == {C9: {"k": 2, "a": 0, "parity": 1}}
