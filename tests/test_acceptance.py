"""Acceptance gate: every criterion of the certificate suite, at its
stated tolerance (exact structural equality throughout), one summary
line per criterion.
"""

import random
import time

import pytest

from spinbits import fields, triality, verify
from spinbits.clifford import CliffordElem, clifford_apply, word_apply
from spinbits.matrices import Monomial
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


def assert_table_covers(check, table, implied):
    """Every check that ``check`` reports is failed by a row of ``table`` or
    listed in ``implied``, and an implied check fails in no row unless a
    check that implies it fails there too."""
    report = Report()
    check(report)
    names = {c.name for c in report.checks}
    reached = set().union(*(row[0] for row in table.values()))
    assert reached | set(implied) == names
    for name, (implying, _reason) in implied.items():
        assert set(implying) <= names
        for row in table.values():
            assert name not in row[0] or row[0] & set(implying), (name, row[0])


SIG_MINUS_ONE, SIG_VOL, SIG_MINUS_VOL = "C5 sigma(-1) = vol", "C5 sigma(vol) = -vol", "C5 sigma(-vol) = -1"
TAU_MINUS_ONE, TAU_VOL = "C5 tau(-1) = vol", "C5 tau(vol) = -1"

# (exact failing set, lift, generator, image pairs whose sign is flipped): each
# row reads one wrong sign (or two) off the bivector image of one generator,
# so its lift has that rotation factor turned the other way
C5_CORRUPTIONS = {
    "sigma_e1e2_one_sign": ({SIG_MINUS_ONE, SIG_VOL, SIG_MINUS_VOL}, "sigma", (1, 2), {(7, 8)}),
    "sigma_e1e2_two_signs": ({SIG_VOL, SIG_MINUS_VOL}, "sigma", (1, 2), {(5, 6), (7, 8)}),
    "sigma_e3e4_one_sign": ({SIG_VOL, SIG_MINUS_VOL}, "sigma", (3, 4), {(1, 2)}),
    "tau_e1e2_one_sign": ({TAU_MINUS_ONE, TAU_VOL}, "tau", (1, 2), {(7, 8)}),
    "tau_e5e6_one_sign": ({TAU_VOL}, "tau", (5, 6), {(1, 2)}),
}

C5_IMPLIED = {
    SIG_MINUS_VOL: ((SIG_MINUS_ONE, SIG_VOL),
                    "center_images builds the image of -vol as the product of the images "
                    "of -1 and vol, and vol * (-vol) = -1"),
}


def test_every_c5_check_is_reached_or_implied():
    assert_table_covers(check_center, C5_CORRUPTIONS, C5_IMPLIED)


@pytest.mark.parametrize("case", C5_CORRUPTIONS)
def test_each_c5_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, which, pair, flipped = C5_CORRUPTIONS[case]
    image, outer = triality.image_coeffs, triality.build_outer(which)

    def corrupt(m, p):
        coeffs, den = image(m, p)
        if m is outer and p == pair:
            coeffs = {q: -c if q in flipped else c for q, c in coeffs.items()}
        return coeffs, den

    monkeypatch.setattr(triality, "image_coeffs", corrupt)
    assert set(failed_checks(check_center)) == expected


C8_STAGE = "C8 maximal stage equals the Hurwitz-Radon count for N <= 4096"
C8_ROWS = "C8 the nine emitted rows match the tabulated rows outside the two flagged misprints"
C8_FRAMES = "C8 structure equations and exact Gram frames for N in {2,...,128}"
C8_CLOSED = "C8 closed-form field values agree with the matrix route (r = 8, 9, 10, 12)"
C8_BITS = "C8 composite bit rules equal two generator applications for r <= 12"


def c8_system(N, change):
    """A corruption of the field builder that changes the J list of the size-N system."""
    def corrupt(build, n, split=None):
        system = build(n, split)
        return system._replace(J=change(system.J)) if n == N else system
    return corrupt


def flip_first_sign(J):
    """The J list with the first entry of J_2 negated."""
    phase = list(J[1].phase)
    phase[0] += 2
    return [J[0], Monomial(J[1].perm, phase), *J[2:]]


# (exact failing set, module, builder, corruption of that builder): the field
# builder is read by C8's Gram frames and closed forms through verify, and by
# its emitted rows through fields.emit_coordinates; the stage and the bit rule
# are read through verify
C8_CORRUPTIONS = {
    "stage_one_too_high": ({C8_STAGE}, verify, "max_stage",
                           lambda f, N: f(N) + 1 if N == 24 else f(N)),
    "emitted_sign": ({C8_ROWS}, fields, "build_field_system", c8_system(32, flip_first_sign)),
    "repeated_J": ({C8_FRAMES}, verify, "build_field_system",
                   c8_system(128, lambda J: [J[1], *J[1:]])),
    "flipped_J_entry": ({C8_FRAMES, C8_CLOSED}, verify, "build_field_system",
                        c8_system(16, flip_first_sign)),
    "negated_J": ({C8_CLOSED}, verify, "build_field_system", c8_system(16, lambda J: [-J[0], *J[1:]])),
    "swapped_Js": ({C8_CLOSED}, verify, "build_field_system",
                   c8_system(32, lambda J: [J[1], J[0], *J[2:]])),
    "bit_rule_sign": ({C8_BITS}, verify, "e1ep_phase",
                      lambda f, r, p, a: ((f(r, p, a)[0] + 2) % 4, f(r, p, a)[1])
                      if (r, p, a) == (12, 12, 0) else f(r, p, a)),
}


def run_c8(report):
    check_fields(report, 3, random.Random(SEED))


def test_every_c8_check_is_reached():
    assert_table_covers(run_c8, C8_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C8_CORRUPTIONS)
def test_each_c8_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, module, builder, corrupt = C8_CORRUPTIONS[case]
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args, **kw: corrupt(original, *args, **kw))
    assert set(failed_checks(run_c8)) == expected


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
