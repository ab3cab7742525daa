"""Acceptance gate: every criterion of the certificate suite, at its
stated tolerance (exact structural equality throughout), one summary
line per criterion.
"""

import functools
import random
import time

import pytest

from spinbits import forms, octonions, reference as ref, triality, verify
from spinbits.clifford import CliffordElem, clifford_apply
from spinbits.matrices import Matrix, Monomial, Subspace
from spinbits.scalars import I, ONE
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


C1 = "C1 bit-flip kernel equals tensor oracle for n <= 8"

# ({check name: witness}, builder in verify's namespace, corruption of that
# builder): the witness is the first (n, p, a) whose images differ
C1_CORRUPTIONS = {
    "flipped_phase": ({C1: {"n": 7, "p": 5, "a": 3}}, "generator_phase",
                      lambda f, n, p, a: ((f(n, p, a)[0] + 2) % 4, f(n, p, a)[1]) if (n, p, a) == (7, 5, 3)
                      else f(n, p, a)),
    # e_5 of Cl_5 acts diagonally, e_1 flips bit 0 of u_0
    "reversed_oracle": ({C1: {"n": 5, "p": 1, "a": 0}}, "tensor_oracle",
                        lambda f, n: f(n)[::-1] if n == 5 else f(n)),
}


def run_c1(report):
    check_kernel_oracle(report, 8)


def test_every_c1_check_is_reached():
    assert_table_covers(run_c1, C1_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C1_CORRUPTIONS)
def test_each_c1_corruption_fails_with_its_witness(monkeypatch, case):
    expected, builder, corrupt = C1_CORRUPTIONS[case]
    original = getattr(verify, builder)
    monkeypatch.setattr(verify, builder, lambda *args: corrupt(original, *args))
    assert failed_checks(run_c1) == expected


C3 = {key: f"C3 {name}" for key, name in (
    ("sig_array", "sigma* equals the tabulated 28x28 array"),
    ("tau_array", "tau* equals the tabulated 28x28 array"),
    ("sig_lines", "sigma* reproduces all 28 tabulated image lines"),
    ("tau_lines", "tau* reproduces all 28 tabulated image lines"),
    ("misprint", "flagged misprint: constructed sigma*(e2 e4) differs from the duplicated line"),
    ("sig_order", "sigma*^3 = Id"),
    ("tau_order", "tau*^2 = Id"),
    ("sig_fixed", "eigenspace dimension: sigma fixed = 14"),
    ("sig_omega", "eigenspace dimension: sigma omega = 7"),
    ("sig_omegabar", "eigenspace dimension: sigma omega-bar = 7"),
    ("tau_fixed", "eigenspace dimension: tau fixed = 21"),
    ("tau_minus", "eigenspace dimension: tau minus = 7"),
    ("st", "sigma* tau* = tau* sigma*^2"),
    ("s2t", "sigma*^2 tau* = tau* sigma*"),
    ("ts_order", "(tau* sigma*)^2 = Id"),
    ("st_order", "(sigma* tau*)^2 = Id"),
    ("kappa_minus", "kappa-* (tau* sigma*) = kappa+*"),
    ("kappa_plus", "kappa+* (tau* sigma*) = kappa-*"),
    ("sig_lambda", "lambda* after sigma* equals the minus half-spinor action"),
    ("tau_lambda", "lambda* after tau* equals the plus half-spinor action"),
    ("complex", "all 14 tabulated complex eigenvectors verified"),
    ("spin7", "the 21 tabulated spin7 generators are tau*-fixed"),
    ("tau_minus_vectors", "the 7 tabulated tau-minus eigenvectors verified"),
)}


def c3_set(*keys):
    return {C3[key] for key in keys}


def array_entry(name):
    """The tabulated array of ``name`` with 1 added to its first entry."""
    def corrupt(tabulated):
        def rows(which):
            out = tabulated(which)
            if which == name:
                out[0][0] += 1
            return out
        return rows
    return corrupt


def first_line(old, new):
    """A tabulated line list with ``old`` replaced by ``new`` in its first line."""
    def corrupt(lines):
        assert old in lines[0]
        return [lines[0].replace(old, new)] + lines[1:]
    return corrupt


def negated_block(word, which):
    """real_block with the block of one word on one half-spinor frame negated."""
    return lambda f: lambda r, w, wh: -f(r, w, wh) if (w, wh) == (word, which) else f(r, w, wh)


def outer_map(name, change):
    return lambda f: lambda which: change(f(which)) if which == name else f(which)


# (exact failing set, module, attribute, replacement built from the original):
# a wrong tabulated entry fails its comparison alone; -1 is no eigenvalue of
# sigma* (sigma*^3 = Id); -tau* keeps every S3 relation but not the kappa ones;
# a negated kappa block changes sigma* or tau* everywhere it is read; the
# lambda* checks compose build_outer's E_kl decomposition back, so they fail
# under a wrong composition and under no corrupted kappa block
C3_CORRUPTIONS = {
    "sigma_array_entry": (c3_set("sig_array"), ref, "outer_matrix_expected", array_entry("sigma")),
    "tau_array_entry": (c3_set("tau_array"), ref, "outer_matrix_expected", array_entry("tau")),
    "sigma_line_sign": (c3_set("sig_lines"), ref, "SIGMA_LINES", first_line("12: -112", "12: +112")),
    "tau_line_sign": (c3_set("tau_lines"), ref, "TAU_LINES", first_line("12: +112", "12: -112")),
    "omega_i_sqrt3_sign": (c3_set("complex"), ref, "SIGMA_OMEGA_EIGENVECTORS", first_line("+1j13", "-1j13")),
    "omegabar_unit_term": (c3_set("complex"), ref, "SIGMA_OMEGABAR_EIGENVECTORS", first_line("+168", "-168")),
    "spin7_generator": (c3_set("spin7"), ref, "SPIN7_GENERATORS", first_line("+123", "-123")),
    "tau_minus_vector": (c3_set("tau_minus_vectors"), ref, "TAU_MINUS_EIGENVECTORS", first_line("+124", "-124")),
    "misprinted_image": (c3_set("misprint", "sig_lines", "sig_lambda"), verify, "image_coeffs",
                         lambda f: lambda m, p: f(m, (2, 3) if m is verify.build_outer("sigma") and p == (2, 4) else p)),
    "omega_root": (c3_set("sig_omega"), verify, "omega_eigenvalue",
                   lambda f: lambda conj=False: f(conj) if conj else -ONE),
    "omegabar_root": (c3_set("sig_omegabar"), verify, "omega_eigenvalue",
                      lambda f: lambda conj=False: -ONE if conj else f(conj)),
    "identity_sigma": (c3_set("sig_array", "sig_lines", "sig_fixed", "sig_omega", "sig_omegabar", "sig_lambda",
                              "complex"),
                       verify, "build_outer", outer_map("sigma", lambda m: Matrix.identity(28))),
    "negated_tau": (c3_set("tau_array", "tau_lines", "tau_fixed", "tau_minus", "tau_lambda", "spin7",
                           "tau_minus_vectors"),
                    verify, "build_outer", outer_map("tau", lambda m: m.scale(-1))),
    "negated_tau_in_s3": (c3_set("kappa_minus", "kappa_plus"), triality, "build_outer",
                          outer_map("tau", lambda m: m.scale(-1))),
    "negated_compose": (c3_set("sig_lambda", "tau_lambda"), verify, "e_basis_compose",
                        lambda f: lambda n, coeffs, den: f(n, {p: -c for p, c in coeffs.items()}, den)),
    "plus_block_sign": (c3_set("tau_array", "tau_lines", "tau_order", "tau_fixed", "tau_minus", "st", "s2t",
                               "ts_order", "st_order", "kappa_minus", "kappa_plus", "spin7", "tau_minus_vectors"),
                        triality, "real_block", negated_block((2, 3), "plus")),
    "minus_block_sign": (c3_set("sig_array", "sig_lines", "sig_order", "sig_fixed", "sig_omega", "sig_omegabar",
                                "st", "s2t", "complex"),
                         triality, "real_block", negated_block((2, 3), "minus")),
}

# computed once by s3_relations and reported both with the eigenspaces and with the relations
C3_TWICE = c3_set("sig_order", "tau_order")


def test_every_c3_check_is_reached():
    assert_table_covers(check_triality, C3_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C3_CORRUPTIONS)
def test_each_c3_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, module, name, replace = C3_CORRUPTIONS[case]
    caches = (triality.kappa_real_matrix, triality.build_outer)  # built from the kappa blocks
    monkeypatch.setattr(module, name, replace(getattr(module, name)))
    for cache in caches:
        cache.cache_clear()
    try:
        report = Report()
        check_triality(report)
    finally:
        for cache in caches:
            cache.cache_clear()
    failed = [c.name for c in report.checks if not c.passed]
    assert sorted(failed) == sorted([*expected, *(C3_TWICE & expected)])


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


def flip_first_sign(J, turn=2):
    """The J list with the first entry of J_2 times i^turn (negated by default)."""
    phase = list(J[1].phase)
    phase[0] += turn
    return [J[0], Monomial(J[1].perm, phase), *J[2:]]


# (exact failing set, module, builder, corruption of that builder): C8 reads
# the field builder, the emitted rows, the stage and the bit rule through
# verify; a J with an odd phase has no stacked pick, so no real frame to place
C8_CORRUPTIONS = {
    "stage_one_too_high": ({C8_STAGE}, verify, "max_stage",
                           lambda f, N: f(N) + 1 if N == 24 else f(N)),
    "emitted_sign": ({C8_ROWS}, verify, "emit_coordinates",
                     lambda f, system: f(system._replace(J=flip_first_sign(system.J)))),
    "repeated_J": ({C8_FRAMES}, verify, "build_field_system",
                   c8_system(128, lambda J: [J[1], *J[1:]])),
    "flipped_J_entry": ({C8_FRAMES, C8_CLOSED}, verify, "build_field_system",
                        c8_system(16, flip_first_sign)),
    "negated_J": ({C8_CLOSED}, verify, "build_field_system", c8_system(16, lambda J: [-J[0], *J[1:]])),
    "swapped_Js": ({C8_ROWS, C8_CLOSED}, verify, "build_field_system",
                   c8_system(32, lambda J: [J[1], J[0], *J[2:]])),
    "odd_J_phase": ({C8_FRAMES, C8_CLOSED}, verify, "build_field_system",
                    c8_system(16, lambda J: flip_first_sign(J, turn=1))),
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
    "doubled_display": ({C4["display"]}, verify, "g2_action_matrix_on",
                        lambda f, which, alphas: f(which, alphas).scale(2)),
    "negated_minus_frame": ({C4["display"]}, verify, "g2_action_matrix_on",
                            lambda f, which, alphas: f(which, alphas).scale(-1 if which == "minus" else 1)),
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


C6 = {key: f"C6 {name}" for key, name in (
    ("four", "the 4-form equals the tabulated 14-term display (factor 6)"),
    ("square", "the 4-form squares to 504 times the volume form"),
    ("three", "the 3-form equals the tabulated 7-term display (factor 6)"),
    ("invariance", "derivation invariance of both forms under all 14 generators"),
    ("two_forms", "dualized 2-forms match the tabulated lines"),
)}


def so8_action(pair):
    """A corruption of g2_action_matrix_on: every g2 generator acts as the so(8) one of ``pair``."""
    return lambda f, which, alphas: triality.kappa_real_matrix(pair, which)


# (exact failing set, module, builder, corruption of that builder): the square
# is read through forms, where its predicate lives, the rest through verify;
# e2 e3 lies in the spin7 that fixes omega but not in g2, so it breaks phi
# alone, and e1 e2 breaks both forms
C6_CORRUPTIONS = {
    "rescaled_four_form": ({C6["four"]}, verify, "spin7_four_form", lambda f: f().scale(2)),
    "rescaled_square": ({C6["square"]}, forms, "omega_square", lambda f: f().scale(2)),
    "rescaled_three_form": ({C6["three"]}, verify, "g2_three_form", lambda f: f().scale(2)),
    "spin7_action": ({C6["invariance"]}, verify, "g2_action_matrix_on", so8_action((2, 3))),
    "so8_action": ({C6["invariance"]}, verify, "g2_action_matrix_on", so8_action((1, 2))),
    "negated_two_form": ({C6["two_forms"]}, verify, "kappa_real_matrix", lambda f, p, half: f(p, half).scale(-1)),
}


def test_every_c6_check_is_reached():
    assert_table_covers(check_forms, C6_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C6_CORRUPTIONS)
def test_each_c6_corruption_fails_exactly_its_set(monkeypatch, case):
    expected, module, builder, corrupt = C6_CORRUPTIONS[case]
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: corrupt(original, *args))
    assert set(failed_checks(check_forms)) == expected


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


# ({check name: witness}, corruption of verify's delta_iso): the witness is the
# first failure in loop order; negating the image of u_0 alone keeps every image
# a basic spinor, and e1 e2 keeps u_0, so the first pair that moves it is (1, 3);
# e_1 after the embedding flips one bit of every image
C9_CORRUPTIONS = {
    "nonlinear_embedding": ({C9: {"k": 2, "a": 0, "p": 1, "q": 3}},
                            lambda f, k, u: -f(k, u) if 0 in u.terms else f(k, u)),
    "odd_parity_embedding": ({C9: {"k": 2, "a": 0, "parity": 1}},
                             lambda f, k, u: clifford_apply(2 * k, 1, f(k, u))),
}


def test_every_c9_check_is_reached():
    assert_table_covers(check_delta_iso, C9_CORRUPTIONS, {})


@pytest.mark.parametrize("case", C9_CORRUPTIONS)
def test_each_c9_corruption_fails_with_its_witness(monkeypatch, case):
    expected, corrupt = C9_CORRUPTIONS[case]
    delta_iso = verify.delta_iso
    monkeypatch.setattr(verify, "delta_iso", lambda k, u: corrupt(delta_iso, k, u))
    assert failed_checks(check_delta_iso) == expected


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
