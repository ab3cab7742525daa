"""Acceptance gate: every criterion of the certificate suite, at its
stated tolerance (exact structural equality throughout), one summary
line per criterion.
"""

import functools
import random
import time

import pytest

from spinbits import fields, octonions, triality, verify
from spinbits.clifford import CliffordElem, clifford_apply, word_apply
from spinbits.matrices import Matrix, Monomial, Subspace
from spinbits.scalars import I, ONE
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

from dense_oracle import complement_in

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


C4 = {key: f"C4 {name}" for key, name in (
    ("plus", "annihilates the basic positive spinor"),
    ("minus", "annihilates the basic negative spinor"),
    ("dim", "fixed space of sigma* has dimension 14"),
    ("span", "generators span the fixed space of sigma*"),
    ("low", "g2 = spin7(e2..e8) intersect Fix(tau*)"),
    ("ts", "Fix(tau* sigma*) = spin7(e2..e8)"),
    ("ts2_meet", "g2 = Fix(tau*) intersect Fix(tau* sigma*^2)"),
    ("ts_meet", "g2 = Fix(tau*) intersect Fix(tau* sigma*)"),
    ("image", "sigma*^2 maps Fix(tau* sigma*) onto Fix(tau*)"),
    ("closure", "bracket closure of g2"),
    ("low_pair", "reductive pair (spin7, g2) in the e2..e8 copy: [g2,m] in m, [m,m] in spin7"),
    ("tau_pair", "reductive pair (spin7, g2) in the Fix(tau*) copy: [g2,m] in m, [m,m] in spin7"),
    ("symmetric", "symmetric pair (spin8, spin7) from the tau* involution"),
    ("display", "general action matrix matches the display on both frames"),
)}


@functools.lru_cache(maxsize=None)
def c4_spans():
    """The spans C4's bracket checks test membership in, built by the residue route."""
    tau = triality.build_outer("tau")
    g2 = triality.bivector_span(triality.g2_generators())
    fix_tau = Subspace(triality.eigenspace(tau, ONE))
    spin7_low = triality.bivector_span({(i, j): 1} for (i, j) in triality.PAIR_ORDER if i >= 2)
    return {
        "g2": g2,
        "m in e2..e8": complement_in(g2, spin7_low),
        "m in Fix(tau*)": complement_in(g2, fix_tau),
        "Fix(tau*) at -1": Subspace(triality.eigenspace(tau, -ONE)),
    }


def sigma_fixed_rows(change):
    """A corruption of eigenspace that changes the rows of Fix(sigma*) alone."""
    def corrupt(eigenspace, outer, lam):
        K = eigenspace(outer, lam)
        return Matrix(change(K.data)) if outer is triality.build_outer("sigma") and lam == ONE else K
    return corrupt


def outer_maps(**images):
    """A corruption of build_outer that returns, for a name, a product of the true maps."""
    def corrupt(build_outer, name):
        return images[name](build_outer("sigma"), build_outer("tau")) if name in images else build_outer(name)
    return corrupt


def not_in(span):
    """A corruption of span_contains that finds no member of one span."""
    return lambda f, s, vec: False if s == c4_spans()[span] else f(s, vec)


def flip_generator_sign(gens):
    """The generators with the e2e6 term of the fourth negated ("-126 +137" -> "+126 +137")."""
    bad = list(gens)
    bad[3] = {p: -c if p == (2, 6) else c for p, c in bad[3].items()}
    return bad


# (exact failing set, module, builder, corruption of that builder): each row
# corrupts an input that g2_structure's kernels and the residue route of
# dense_oracle read alike, so it fails the same set whichever route builds the
# spans; sigma* -> tau* is the only row that reaches the sigma*^2 image check,
# which the S3 relations tie to Fix(tau* sigma*) = spin7(e2..e8) for true maps
C4_CORRUPTIONS = {
    "positive_spinor_kept": ({C4["plus"]}, triality, "apply_bivector_to_spinor",
                             lambda f, g, psi: psi if 0 in psi.terms else f(g, psi)),
    "negative_spinor_kept": ({C4["minus"]}, triality, "apply_bivector_to_spinor",
                             lambda f, g, psi: psi if 1 in psi.terms else f(g, psi)),
    "repeated_fixed_row": ({C4["dim"]}, triality, "eigenspace", sigma_fixed_rows(lambda rows: rows + rows[:1])),
    "replaced_fixed_row": ({C4["span"]}, triality, "eigenspace",
                           sigma_fixed_rows(lambda rows: [[ONE] + rows[0][1:]] + rows[1:])),
    "tau_as_tau_sigma": ({C4["low"], C4["ts"]}, triality, "build_outer", outer_maps(tau=lambda s, t: t * s)),
    "tau_as_tau_sigma2": ({C4["ts"]}, triality, "build_outer", outer_maps(tau=lambda s, t: t * s * s)),
    "sigma_as_tau": ({C4[k] for k in ("dim", "span", "ts", "ts2_meet", "ts_meet", "image")}, triality,
                     "build_outer", outer_maps(sigma=lambda s, t: t)),
    "flipped_generator_sign": ({C4[k] for k in ("plus", "minus", "span", "low", "ts2_meet", "ts_meet", "closure",
                                                "low_pair", "tau_pair", "display")},
                               triality, "g2_generators", lambda f: flip_generator_sign(f())),
    "g2_not_closed": ({C4["closure"]}, triality, "span_contains", not_in("g2")),
    "low_complement_open": ({C4["low_pair"]}, triality, "span_contains", not_in("m in e2..e8")),
    "tau_complement_open": ({C4["tau_pair"]}, triality, "span_contains", not_in("m in Fix(tau*)")),
    "tau_minus_open": ({C4["symmetric"]}, triality, "span_contains", not_in("Fix(tau*) at -1")),
    "doubled_display": ({C4["display"]}, verify, "g2_action_matrix", lambda f, alphas: f(alphas).scale(2)),
}


def run_c4(report):
    check_g2(report, 0, random.Random(SEED))


def test_every_c4_check_is_reached():
    assert_table_covers(run_c4, C4_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C4_CORRUPTIONS)
def test_each_c4_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, module, builder, corrupt = C4_CORRUPTIONS[case]
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: corrupt(original, *args))
    assert set(failed_checks(run_c4)) == expected


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


def table_rows(i, flips=(), swaps=()):
    """A corruption of a table builder: row i with the phase of each column in
    ``flips`` turned by 2, then the images of each column pair in ``swaps``
    exchanged."""
    def corrupt(build, *args):
        rows = list(build(*args))
        perm, phase = list(rows[i].perm), list(rows[i].phase)
        for c in flips:
            phase[c] ^= 2
        for c, k in swaps:
            perm[c], perm[k] = perm[k], perm[c]
        rows[i] = Monomial(perm, phase)
        return rows
    return corrupt


def test_a_flipped_octonion_cell_fails_c7(monkeypatch):
    corrupt, octonion_table = table_rows(1, flips=[2]), verify.octonion_table
    monkeypatch.setattr(verify, "octonion_table", lambda: corrupt(octonion_table))
    assert list(failed_checks(check_octonions, 0)) == [
        "C7 octonion table matches the tabulated 64 cells"]


C7 = {key: f"C7 {name}" for key, name in (
    ("table", "octonion table matches the tabulated 64 cells"),
    ("real", "real multiplication table matches the tabulated 64 cells"),
    ("identity", "unit 0 is a two-sided identity"),
    ("squares", "imaginary units square to minus the identity"),
    ("anticommute", "distinct imaginary units anticommute"),
    ("norm", "norm multiplicativity on 100 samples"),
    ("left", "left alternativity on 100 samples"),
    ("right", "right alternativity on 100 samples"),
    ("witness", "non-associativity witness (units 1, 2, 4)"),
    ("orthonormal", "left multiplication columns scale orthonormally"),
    ("q_identity", "quaternions: identity row and column"),
    ("q_squares", "quaternions: imaginary units square to minus identity"),
    ("q_anticommute", "quaternions: imaginary units anticommute pairwise"),
    ("q_third", "quaternions: product of two distinct imaginary units is the third"),
    ("q_assoc", "quaternions: associativity on all 64 basis triples"),
)}
C7_LAWS = {C7[k] for k in ("norm", "left", "right", "orthonormal")}

# (exact failing set, module, builder, corruption of that builder): verify reads
# the two tables C7 compares with the tabulated cells; octonions reads the unit
# table that the unit laws and octonion_mul's picks are built from, the
# quaternion table, and the real table both division tables are read off.  A
# flipped phase in row 1 is a wrong sign of e_1 e_j, a swap a wrong unit; a swap
# with column 0 moves a label, which the unit laws name and nothing raises.
C7_CORRUPTIONS = {
    "octonion_cell": ({C7["table"]}, verify, "octonion_table", table_rows(1, flips=[2])),
    "real_cell": ({C7["real"]}, verify, "real_clifford_table", table_rows(3, flips=[5])),
    "identity_cell": ({C7["identity"]} | C7_LAWS, octonions, "octonion_table", table_rows(0, flips=[0])),
    "square_cell": ({C7["squares"]} | C7_LAWS, octonions, "octonion_table", table_rows(1, flips=[1])),
    "swapped_units": ({C7["anticommute"]} | C7_LAWS, octonions, "octonion_table", table_rows(1, swaps=[(2, 3)])),
    "flipped_pair": ({C7["anticommute"], C7["witness"]} | C7_LAWS, octonions, "octonion_table",
                     table_rows(1, flips=[2, 3])),
    "flipped_real_pair": ({C7["table"], C7["anticommute"], C7["witness"], C7["q_anticommute"], C7["q_assoc"]}
                          | C7_LAWS, octonions, "real_clifford_table", table_rows(1, flips=[2, 3])),
    "moved_label": ({C7["table"], C7["identity"], C7["anticommute"], C7["q_identity"], C7["q_anticommute"],
                     C7["q_third"], C7["q_assoc"]} | C7_LAWS, octonions, "real_clifford_table",
                    table_rows(1, swaps=[(0, 3)])),
    "q_identity_cell": ({C7["q_identity"], C7["q_assoc"]}, octonions, "quaternion_table",
                        table_rows(0, flips=[0])),
    "q_square_cell": ({C7["q_squares"], C7["q_assoc"]}, octonions, "quaternion_table", table_rows(1, flips=[1])),
    "q_flipped_pair": ({C7["q_anticommute"], C7["q_assoc"]}, octonions, "quaternion_table",
                       table_rows(1, flips=[2, 3])),
    "q_swapped_units": ({C7["q_anticommute"], C7["q_third"], C7["q_assoc"]}, octonions, "quaternion_table",
                        table_rows(1, swaps=[(2, 3)])),
}


def run_c7(report):
    check_octonions(report, 0)


def test_every_c7_check_is_reached():
    assert_table_covers(run_c7, C7_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C7_CORRUPTIONS)
def test_each_c7_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, module, builder, corrupt = C7_CORRUPTIONS[case]
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: corrupt(original, *args))
    octonions._product_picks.cache_clear()  # octonion_mul's picks are read off the unit table once
    try:
        assert set(failed_checks(run_c7)) == expected
    finally:
        octonions._product_picks.cache_clear()


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


C10_TENSOR = "C10 binary structure maps equal the tensor definitions for n <= 12"
C10_SQUARE = "C10 structure maps square to the residue-determined sign"
C10_HERMITIAN = "C10 Hermitian compatibility identities on random pairs"
C10_CHIRALITY = "C10 bit-parity chirality equals the volume involution eigenvalue"

# (exact failing set, builder in verify's namespace, corruption of that builder):
# a wrong gamma^2 sign at an odd n is read only by the squares, at an even n by
# the pairing too; a doubled gamma keeps h(gamma v, w) = sgn conj h(v, gamma w)
# but squares to 4 sgn and scales h(gamma v, gamma w) by 4; i e_p is no longer
# skew for h; a negated chirality is a wrong eigenvalue
C10_CORRUPTIONS = {
    "gamma_phase": ({C10_TENSOR}, "real_structure_phase",
                    lambda f, n, a: ((f(n, a)[0] + 2) % 4, f(n, a)[1]) if (n, a) == (9, 5) else f(n, a)),
    "odd_square_sign": ({C10_SQUARE}, "gamma_squares_to", lambda f, n: -f(n) if n == 3 else f(n)),
    "even_square_sign": ({C10_SQUARE, C10_HERMITIAN}, "gamma_squares_to", lambda f, n: -f(n) if n == 6 else f(n)),
    "doubled_gamma": ({C10_SQUARE, C10_HERMITIAN}, "real_structure",
                      lambda f, n, psi: f(n, psi).scale(2) if n == 4 else f(n, psi)),
    "turned_generator": ({C10_HERMITIAN}, "clifford_apply", lambda f, n, p, psi: f(n, p, psi).scale(I)),
    "chirality_sign": ({C10_CHIRALITY}, "chirality", lambda f, a: -f(a) if a == 3 else f(a)),
}


def run_c10(report):
    check_structure_maps(report, 20, random.Random(SEED))


def test_every_c10_check_is_reached():
    assert_table_covers(run_c10, C10_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C10_CORRUPTIONS)
def test_each_c10_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, builder, corrupt = C10_CORRUPTIONS[case]
    original = getattr(verify, builder)
    monkeypatch.setattr(verify, builder, lambda *args: corrupt(original, *args))
    assert set(failed_checks(run_c10)) == expected
