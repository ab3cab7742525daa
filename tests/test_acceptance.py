"""Acceptance gate: every criterion of the certificate suite, at its
stated tolerance (exact structural equality throughout), one summary
line per criterion; and one table of corruptions that fails every check
of the suite by name.
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

import criteria
from criteria import failures
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


# -- every check can fail: one table of corruptions ----------------------

# the distinct check names of verify_all, as the rows of CORRUPTIONS run it
NAMES = list(dict.fromkeys(
    c.name for c in verify.verify_all(criteria.SEED, criteria.SAMPLES, criteria.MAX_N).checks))


def named(prefix):
    """The check name equal to ``prefix``, or else the one that starts with it."""
    [name] = [n for n in NAMES if n == prefix] or [n for n in NAMES if n.startswith(prefix)]
    return name


def fail(*prefixes):
    """{name: None} for the named checks: each reports no witness."""
    return {named(p): None for p in prefixes}


def witness(prefix, value):
    """{name: value} for the named check, which reports ``value`` as its witness."""
    return {named(prefix): value}


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


def outer_maps(**images):
    """A corruption of build_outer that returns, for a name, a map built from the true sigma* and tau*."""
    return lambda f: lambda name: images[name](f("sigma"), f("tau")) if name in images else f(name)


def flipped_image(which, pair, flipped):
    """A corruption of image_coeffs: the image of e_pair under ``which`` with
    the sign of each term in ``flipped`` turned, so its lift has that
    rotation factor turned the other way."""
    def corrupt(image):
        def stand_in(m, p):
            coeffs, den = image(m, p)
            if m is triality.build_outer(which) and p == pair:
                coeffs = {q: -c if q in flipped else c for q, c in coeffs.items()}
            return coeffs, den
        return stand_in
    return corrupt


def swapped_vol(images):
    """The center images with those of vol and -vol exchanged."""
    return {**images, "vol": images["-vol"], "-vol": images["vol"]}


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
    def corrupt(eigenspace):
        def stand_in(outer, lam):
            K = eigenspace(outer, lam)
            return Matrix(change(K.data)) if outer is triality.build_outer("sigma") and lam == ONE else K
        return stand_in
    return corrupt


def not_in(span):
    """A corruption of span_contains that finds no member of one span."""
    return lambda f: lambda s, vec: False if s == c4_spans()[span] else f(s, vec)


def flip_generator_sign(gens):
    """The generators with the e2e6 term of the fourth negated ("-126 +137" -> "+126 +137")."""
    bad = list(gens)
    bad[3] = {p: -c if p == (2, 6) else c for p, c in bad[3].items()}
    return bad


def so8_action(pair):
    """A corruption of g2_action_matrix_on: every g2 generator acts as the so(8) one of ``pair``."""
    return lambda f: lambda which, alphas: triality.kappa_real_matrix(pair, which)


def table_rows(i, flips=(), swaps=()):
    """A corruption of a table builder: row i with the phase of each column in
    ``flips`` turned by 2, then the images of each column pair in ``swaps``
    exchanged."""
    def corrupt(build):
        def stand_in(*args):
            rows = list(build(*args))
            perm, phase = list(rows[i].perm), list(rows[i].phase)
            for c in flips:
                phase[c] ^= 2
            for c, k in swaps:
                perm[c], perm[k] = perm[k], perm[c]
            rows[i] = Monomial(perm, phase)
            return rows
        return stand_in
    return corrupt


def c8_system(N, change):
    """A corruption of the field builder that changes the J list of the size-N system."""
    def corrupt(build):
        def stand_in(n, split=None):
            system = build(n, split)
            return system._replace(J=change(system.J)) if n == N else system
        return stand_in
    return corrupt


def turned(J, j=2, col=0, turn=2):
    """The J list with entry ``col`` of J_j times i^turn (negated by default)."""
    phase = list(J[j - 1].phase)
    phase[col] += turn
    return [*J[:j - 1], Monomial(J[j - 1].perm, phase), *J[j:]]


# the tabulated rows of the size-32 system, V1 to V9
V_ROWS = [[s * v for s, v in ref.signed_ints(row)] for row in ref.V_ROWS]


def corrected_cells(cells):
    """C8's table check, failing with ``cells`` and the two flagged misprints as its witness."""
    typos = {f"V{j} slot {s}": v for (j, s), v in ref.V_ROW_TYPOS.items()}
    return witness("C8 the nine", {"corrected_cells": {**cells, **typos}})


def failing_point(N, t):
    """A corruption of gram_is_scaled_identity that fails point t of the size-N system."""
    def corrupt(gram):
        seen = []

        def stand_in(system, z):
            seen.append(system.N)
            return gram(system, z) and not (system.N == N and seen.count(N) == t + 1)
        return stand_in
    return corrupt


def turned_phase(at):
    """A corruption of a (phase, bit) rule: the phase at the arguments ``at`` turned by 2."""
    return lambda f: lambda *args: ((f(*args)[0] + 2) % 4, f(*args)[1]) if args == at else f(*args)


C7_LAWS = ("C7 norm", "C7 left alternativity", "C7 right alternativity", "C7 left multiplication")
FRAMES = "C8 structure equations"

# case: (criterion, expected, module, attribute, replace): with
# module.attribute replaced by replace(original), the criterion run alone
# (criteria.CRITERIA) fails exactly the checks named in expected, each with
# its witness; a blind spot expects {} and names the test that catches it
CORRUPTIONS = {
    # C1: the witness is the first (n, p, a) whose images differ; e_5 of Cl_5
    # acts diagonally, e_1 flips bit 0 of u_0
    "flipped_phase": ("C1", witness("C1 bit-flip", {"n": 7, "p": 5, "a": 3}), verify, "generator_phase",
                      turned_phase((7, 5, 3))),
    "reversed_oracle": ("C1", witness("C1 bit-flip", {"n": 5, "p": 1, "a": 0}), verify, "tensor_oracle",
                        lambda f: lambda n: f(n)[::-1] if n == 5 else f(n)),

    # C2: each swaps a word for another (e1^3 = -e1, e2 e1 = -e1 e2), reverses
    # a rotation, or negates a torus element, which negates its spinor images
    # but not its rotation
    "kappa_e1": ("C2", fail("C2 kappa_6(e1)"), verify, "kappa_matrix",
                 lambda f: lambda n, w: f(n, [1, 1, 1] if w == [1] else w)),
    "kappa_e2": ("C2", fail("C2 kappa_6(e2)"), verify, "kappa_matrix",
                 lambda f: lambda n, w: f(n, [2, 2, 2] if w == [2] else w)),
    "kappa_e1e2": ("C2", fail("C2 kappa_6(e1 e2)"), verify, "kappa_matrix",
                   lambda f: lambda n, w: f(n, [2, 1] if w == [1, 2] else w)),
    "lambda_e1e2": ("C2", fail("C2 lambda_6"), verify, "lambda_matrix",
                    lambda f: lambda n, g: f(n, [1, 3] if g == [1, 2] else g)),
    "torus_rotation": ("C2", fail("C2 one-parameter"), verify, "lambda_matrix",
                       lambda f: lambda n, g: f(n, g.reverse() if isinstance(g, CliffordElem) else g)),
    "torus_spinor": ("C2", fail("C2 one-parameter"), verify, "exp_bivector",
                     lambda f: lambda n, factors: -f(n, factors) if len(factors) == 1 else f(n, factors)),
    "general_torus": ("C2", fail("C2 general torus"), verify, "exp_bivector",
                      lambda f: lambda n, factors: -f(n, factors) if len(factors) == 3 else f(n, factors)),

    # C3: a wrong tabulated entry fails its comparison alone, a wrong image
    # line also the lambda* check read off it; -1 is no eigenvalue of sigma*
    # (sigma*^3 = Id); -tau* keeps every S3 relation but not the kappa ones; a
    # negated kappa block changes sigma* or tau* everywhere it is read, and the
    # lambda* check of its half
    "sigma_array_entry": ("C3", fail("C3 sigma* equals"), ref, "outer_matrix_expected", array_entry("sigma")),
    "tau_array_entry": ("C3", fail("C3 tau* equals"), ref, "outer_matrix_expected", array_entry("tau")),
    "sigma_line_sign": ("C3", fail("C3 sigma* reproduces", "C3 lambda* after sigma*"), ref, "SIGMA_LINES",
                        first_line("12: -112", "12: +112")),
    "tau_line_sign": ("C3", fail("C3 tau* reproduces", "C3 lambda* after tau*"), ref, "TAU_LINES",
                      first_line("12: +112", "12: -112")),
    "omega_i_sqrt3_sign": ("C3", fail("C3 all 14"), ref, "SIGMA_OMEGA_EIGENVECTORS", first_line("+1j13", "-1j13")),
    "omegabar_unit_term": ("C3", fail("C3 all 14"), ref, "SIGMA_OMEGABAR_EIGENVECTORS", first_line("+168", "-168")),
    "spin7_generator": ("C3", fail("C3 the 21"), ref, "SPIN7_GENERATORS", first_line("+123", "-123")),
    "tau_minus_vector": ("C3", fail("C3 the 7"), ref, "TAU_MINUS_EIGENVECTORS", first_line("+124", "-124")),
    "misprinted_image": ("C3", fail("C3 flagged misprint", "C3 sigma* reproduces"), verify, "image_coeffs",
                         lambda f: lambda m, p: f(m, (2, 3) if m is verify.build_outer("sigma") and p == (2, 4)
                                                  else p)),
    "omega_root": ("C3", fail("C3 eigenspace dimension: sigma omega ="), verify, "omega_eigenvalue",
                   lambda f: lambda conj=False: f(conj) if conj else -ONE),
    "omegabar_root": ("C3", fail("C3 eigenspace dimension: sigma omega-bar"), verify, "omega_eigenvalue",
                      lambda f: lambda conj=False: -ONE if conj else f(conj)),
    "identity_sigma": ("C3", fail("C3 sigma* equals", "C3 sigma* reproduces", "C3 eigenspace dimension: sigma fixed",
                                  "C3 eigenspace dimension: sigma omega =", "C3 eigenspace dimension: sigma omega-bar",
                                  "C3 all 14"),
                       verify, "build_outer", outer_maps(sigma=lambda s, t: Matrix.identity(28))),
    "negated_tau": ("C3", fail("C3 tau* equals", "C3 tau* reproduces", "C3 eigenspace dimension: tau fixed",
                               "C3 eigenspace dimension: tau minus", "C3 the 21", "C3 the 7"),
                    verify, "build_outer", outer_maps(tau=lambda s, t: t.scale(-1))),
    "negated_tau_in_s3": ("C3", fail("C3 kappa-*", "C3 kappa+*"), triality, "build_outer",
                          outer_maps(tau=lambda s, t: t.scale(-1))),
    "negated_compose": ("C3", fail("C3 lambda* after sigma*", "C3 lambda* after tau*"), verify, "e_basis_compose",
                        lambda f: lambda n, coeffs, den: f(n, {p: -c for p, c in coeffs.items()}, den)),
    "plus_block_sign": ("C3", fail("C3 tau* equals", "C3 tau* reproduces", "C3 tau*^2",
                                   "C3 eigenspace dimension: tau fixed", "C3 eigenspace dimension: tau minus",
                                   "C3 sigma* tau* =", "C3 sigma*^2 tau*", "C3 (tau* sigma*)^2", "C3 (sigma* tau*)^2",
                                   "C3 kappa-*", "C3 kappa+*", "C3 lambda* after tau*", "C3 the 21", "C3 the 7"),
                        triality, "real_block", negated_block((2, 3), "plus")),
    "minus_block_sign": ("C3", fail("C3 sigma* equals", "C3 sigma* reproduces", "C3 sigma*^3",
                                    "C3 eigenspace dimension: sigma fixed", "C3 eigenspace dimension: sigma omega =",
                                    "C3 eigenspace dimension: sigma omega-bar", "C3 sigma* tau* =", "C3 sigma*^2 tau*",
                                    "C3 lambda* after sigma*", "C3 all 14"),
                         triality, "real_block", negated_block((2, 3), "minus")),

    # C4: each row corrupts an input that g2_structure's kernels and the
    # residue route of dense_oracle read alike, so it fails the same set
    # whichever route builds the spans; sigma* -> tau* is the only row that
    # reaches the sigma*^2 image check, which the S3 relations tie to
    # Fix(tau* sigma*) = spin7(e2..e8) for true maps
    "positive_spinor_kept": ("C4", fail("C4 annihilates the basic positive"), triality, "apply_bivector_to_spinor",
                             lambda f: lambda g, psi: psi if 0 in psi.terms else f(g, psi)),
    "negative_spinor_kept": ("C4", fail("C4 annihilates the basic negative"), triality, "apply_bivector_to_spinor",
                             lambda f: lambda g, psi: psi if 1 in psi.terms else f(g, psi)),
    "repeated_fixed_row": ("C4", fail("C4 fixed space"), triality, "eigenspace",
                           sigma_fixed_rows(lambda rows: rows + rows[:1])),
    "replaced_fixed_row": ("C4", fail("C4 generators span"), triality, "eigenspace",
                           sigma_fixed_rows(lambda rows: [[ONE] + rows[0][1:]] + rows[1:])),
    "tau_as_tau_sigma": ("C4", fail("C4 g2 = spin7", "C4 Fix(tau* sigma*) ="), triality, "build_outer",
                         outer_maps(tau=lambda s, t: t * s)),
    "tau_as_tau_sigma2": ("C4", fail("C4 Fix(tau* sigma*) ="), triality, "build_outer",
                          outer_maps(tau=lambda s, t: t * s * s)),
    "sigma_as_tau": ("C4", fail("C4 fixed space", "C4 generators span", "C4 Fix(tau* sigma*) =",
                                "C4 g2 = Fix(tau*) intersect Fix(tau* sigma*^2)",
                                "C4 g2 = Fix(tau*) intersect Fix(tau* sigma*)", "C4 sigma*^2 maps"),
                     triality, "build_outer", outer_maps(sigma=lambda s, t: t)),
    # with tau* = -Id, Fix(tau*) is a span of no rows in 28 columns: C4
    # raises nothing, and exactly the checks that read Fix(tau*) or a span
    # built with it fail
    "tau_fixes_nothing": ("C4", fail("C4 g2 = spin7", "C4 g2 = Fix(tau*) intersect Fix(tau* sigma*^2)",
                                     "C4 g2 = Fix(tau*) intersect Fix(tau* sigma*)", "C4 Fix(tau* sigma*) =",
                                     "C4 reductive pair (spin7, g2) in the Fix(tau*)", "C4 symmetric pair"),
                          triality, "build_outer", outer_maps(tau=lambda s, t: Matrix.identity(28).scale(-1))),
    "flipped_generator_sign": ("C4", fail("C4 annihilates the basic positive", "C4 annihilates the basic negative",
                                          "C4 generators span", "C4 g2 = spin7",
                                          "C4 g2 = Fix(tau*) intersect Fix(tau* sigma*^2)",
                                          "C4 g2 = Fix(tau*) intersect Fix(tau* sigma*)", "C4 bracket closure",
                                          "C4 reductive pair (spin7, g2) in the e2..e8",
                                          "C4 reductive pair (spin7, g2) in the Fix(tau*)", "C4 general action"),
                               triality, "g2_generators", lambda f: lambda: flip_generator_sign(f())),
    "g2_not_closed": ("C4", fail("C4 bracket closure"), triality, "span_contains", not_in("g2")),
    "low_complement_open": ("C4", fail("C4 reductive pair (spin7, g2) in the e2..e8"), triality, "span_contains",
                            not_in("m in e2..e8")),
    "tau_complement_open": ("C4", fail("C4 reductive pair (spin7, g2) in the Fix(tau*)"), triality, "span_contains",
                            not_in("m in Fix(tau*)")),
    "tau_minus_open": ("C4", fail("C4 symmetric pair"), triality, "span_contains", not_in("Fix(tau*) at -1")),
    "doubled_display": ("C4", fail("C4 general action"), verify, "g2_action_matrix_on",
                        lambda f: lambda which, alphas: f(which, alphas).scale(2)),
    "negated_minus_frame": ("C4", fail("C4 general action"), verify, "g2_action_matrix_on",
                            lambda f: lambda which, alphas: f(which, alphas).scale(-1 if which == "minus" else 1)),

    # C5: each flips one sign (or two) of the bivector image of one generator
    "sigma_e1e2_one_sign": ("C5", fail("C5 sigma(-1) = vol", "C5 sigma(vol) = -vol", "C5 sigma(-vol) = -1"),
                            triality, "image_coeffs", flipped_image("sigma", (1, 2), {(7, 8)})),
    "sigma_e1e2_two_signs": ("C5", fail("C5 sigma(vol) = -vol", "C5 sigma(-vol) = -1"),
                             triality, "image_coeffs", flipped_image("sigma", (1, 2), {(5, 6), (7, 8)})),
    "sigma_e3e4_one_sign": ("C5", fail("C5 sigma(vol) = -vol", "C5 sigma(-vol) = -1"),
                            triality, "image_coeffs", flipped_image("sigma", (3, 4), {(1, 2)})),
    "tau_e1e2_one_sign": ("C5", fail("C5 tau(-1) = vol", "C5 tau(vol) = -1"),
                          triality, "image_coeffs", flipped_image("tau", (1, 2), {(7, 8)})),
    "tau_e5e6_one_sign": ("C5", fail("C5 tau(vol) = -1"), triality, "image_coeffs",
                          flipped_image("tau", (5, 6), {(1, 2)})),
    "swapped_center_images": ("C5", fail("C5 sigma(vol) = -vol", "C5 sigma(-vol) = -1"), verify, "center_images",
                              lambda f: lambda which: swapped_vol(f(which)) if which == "sigma" else f(which)),
    # blind spot: vol squares to 1, so each central image equals its own
    # inverse and no C5 check tells the lift from its inverse; test_triality's
    # test_group_automorphism_sign_patterns and
    # test_group_automorphism_equals_the_quarter_turn_product catch it
    "inverse_lift": ("C5", {}, triality, "group_automorphism", lambda f: lambda which, pair: f(which, pair).reverse()),

    # C6: the square is read through forms, where its predicate lives, the
    # rest through verify; e2 e3 lies in the spin7 that fixes omega but not in
    # g2, so it breaks phi alone, and e1 e2 breaks both forms
    "rescaled_four_form": ("C6", fail("C6 the 4-form equals"), verify, "spin7_four_form",
                           lambda f: lambda: f().scale(2)),
    "rescaled_square": ("C6", fail("C6 the 4-form squares"), forms, "omega_square", lambda f: lambda: f().scale(2)),
    "rescaled_three_form": ("C6", fail("C6 the 3-form"), verify, "g2_three_form", lambda f: lambda: f().scale(2)),
    "spin7_action": ("C6", fail("C6 derivation"), verify, "g2_action_matrix_on", so8_action((2, 3))),
    "so8_action": ("C6", fail("C6 derivation"), verify, "g2_action_matrix_on", so8_action((1, 2))),
    "negated_two_form": ("C6", fail("C6 dualized"), verify, "kappa_real_matrix",
                         lambda f: lambda p, half: f(p, half).scale(-1)),

    # C7: verify reads the two tables C7 compares with the tabulated cells;
    # octonions reads the unit table that the unit laws and octonion_mul's
    # picks are built from, the quaternion table, and the real table both
    # division tables are read off.  A flipped phase in row 1 is a wrong sign
    # of e_1 e_j, a swap a wrong unit; a swap with column 0 moves a label,
    # which the unit laws name and nothing raises.
    "octonion_cell": ("C7", fail("C7 octonion table"), verify, "octonion_table", table_rows(1, flips=[2])),
    "real_cell": ("C7", fail("C7 real multiplication"), verify, "real_clifford_table", table_rows(3, flips=[5])),
    "identity_cell": ("C7", fail("C7 unit 0", *C7_LAWS), octonions, "octonion_table", table_rows(0, flips=[0])),
    "square_cell": ("C7", fail("C7 imaginary units square", *C7_LAWS), octonions, "octonion_table",
                    table_rows(1, flips=[1])),
    "swapped_units": ("C7", fail("C7 distinct imaginary", *C7_LAWS), octonions, "octonion_table",
                      table_rows(1, swaps=[(2, 3)])),
    "flipped_pair": ("C7", fail("C7 distinct imaginary", "C7 non-associativity", *C7_LAWS), octonions, "octonion_table",
                     table_rows(1, flips=[2, 3])),
    "flipped_real_pair": ("C7", fail("C7 octonion table", "C7 distinct imaginary", "C7 non-associativity",
                                     "C7 quaternions: imaginary units anticommute", "C7 quaternions: associativity",
                                     *C7_LAWS),
                          octonions, "real_clifford_table", table_rows(1, flips=[2, 3])),
    "moved_label": ("C7", fail("C7 octonion table", "C7 unit 0", "C7 distinct imaginary", "C7 quaternions: identity",
                               "C7 quaternions: imaginary units anticommute", "C7 quaternions: product",
                               "C7 quaternions: associativity", *C7_LAWS),
                    octonions, "real_clifford_table", table_rows(1, swaps=[(0, 3)])),
    "q_identity_cell": ("C7", fail("C7 quaternions: identity", "C7 quaternions: associativity"), octonions,
                        "quaternion_table", table_rows(0, flips=[0])),
    "q_square_cell": ("C7", fail("C7 quaternions: imaginary units square", "C7 quaternions: associativity"), octonions,
                      "quaternion_table", table_rows(1, flips=[1])),
    "q_flipped_pair": ("C7", fail("C7 quaternions: imaginary units anticommute", "C7 quaternions: associativity"),
                       octonions, "quaternion_table", table_rows(1, flips=[2, 3])),
    "q_swapped_units": ("C7", fail("C7 quaternions: imaginary units anticommute", "C7 quaternions: product",
                                   "C7 quaternions: associativity"),
                        octonions, "quaternion_table", table_rows(1, swaps=[(2, 3)])),

    # C8 reads the field builder, the emitted rows, the stage and the bit rule
    # through verify; a J with an odd phase has no stacked pick, so no real
    # frame to place
    "stage_one_too_high": ("C8", fail("C8 maximal stage"), verify, "max_stage",
                           lambda f: lambda N: f(N) + 1 if N == 24 else f(N)),
    "emitted_sign": ("C8", corrected_cells({"V2 slot 3": -1}), verify, "emit_coordinates",
                     lambda f: lambda system: f(system._replace(J=turned(system.J)))),
    # a short emitted table is a mismatch at each missing slot, with value None
    "missing_rows": ("C8", corrected_cells({f"V{j} slot {s}": None for j in (7, 8, 9) for s in range(1, 33)}),
                     verify, "emit_coordinates", lambda f: lambda system: f(system)[:6]),
    "missing_slot": ("C8", corrected_cells({"V9 slot 32": None}), verify, "emit_coordinates",
                     lambda f: lambda system: [*f(system)[:-1], f(system)[-1][:-1]]),
    "repeated_J": ("C8", witness(FRAMES, {"N": 128, "J": [1, 2], "equation": "J_a J_b = -J_b J_a"}), verify,
                   "build_field_system", c8_system(128, lambda J: [J[1], *J[1:]])),
    "flipped_J_entry": ("C8", witness(FRAMES, {"N": 16, "J": 2, "equation": "J^T = -J"}) | fail("C8 closed-form"),
                        verify, "build_field_system", c8_system(16, turned)),
    "flipped_J_block": ("C8", corrected_cells({"V3 slot 8": -5})
                        | witness(FRAMES, {"N": 32, "J": 3, "equation": "J^T = -J"}) | fail("C8 closed-form"),
                        verify, "build_field_system", c8_system(32, lambda J: turned(J, 3, 4))),
    "negated_J": ("C8", fail("C8 closed-form"), verify, "build_field_system", c8_system(16, lambda J: [-J[0], *J[1:]])),
    "swapped_Js": ("C8", corrected_cells({f"V{j} slot {s}": v for j, row in ((1, V_ROWS[1]), (2, V_ROWS[0]))
                                          for s, v in enumerate(row, start=1)}) | fail("C8 closed-form"),
                   verify, "build_field_system",
                   c8_system(32, lambda J: [J[1], J[0], *J[2:]])),
    "odd_J_phase": ("C8", witness(FRAMES, {"N": 16, "J": 2, "equation": "J^T = -J"}) | fail("C8 closed-form"),
                    verify, "build_field_system",
                    c8_system(16, lambda J: turned(J, turn=1))),
    # the Gram points fail only where something replaces the Gram check itself
    "failing_point": ("C8", witness(FRAMES, {"N": 8, "point": 1}), verify, "gram_is_scaled_identity",
                      failing_point(8, 1)),
    # blind spot: with every J antisymmetric, J^2 = -1 and the Js pairwise
    # anticommuting, the Gram matrix of (z, J_1 z, ...) is |z|^2 Id at every
    # z, so no check sees points that are never drawn;
    # test_fields' test_random_point_rejects_an_all_zero_range pins the draws
    "undrawn_points": ("C8", {}, verify, "random_point", lambda f: lambda N, rng: [1] * N),
    "bit_rule_sign": ("C8", fail("C8 composite"), verify, "e1ep_phase", turned_phase((12, 12, 0))),

    # C9: the witness is the first failure in loop order; negating the image
    # of u_0 alone keeps every image a basic spinor, and e1 e2 keeps u_0, so
    # the first pair that moves it is (1, 3); e_1 after the embedding flips
    # one bit of every image
    "nonlinear_embedding": ("C9", witness("C9", {"k": 2, "a": 0, "p": 1, "q": 3}), verify, "delta_iso",
                            lambda f: lambda k, u: -f(k, u) if 0 in u.terms else f(k, u)),
    "odd_parity_embedding": ("C9", witness("C9", {"k": 2, "a": 0, "parity": 1}), verify, "delta_iso",
                             lambda f: lambda k, u: clifford_apply(2 * k, 1, f(k, u))),

    # C10: a wrong gamma^2 sign at an odd n is read only by the squares, at an
    # even n by the pairing too; a doubled gamma keeps h(gamma v, w) = sgn conj
    # h(v, gamma w) but squares to 4 sgn and scales h(gamma v, gamma w) by 4;
    # i e_p is no longer skew for h; a negated chirality is a wrong eigenvalue
    "gamma_phase": ("C10", fail("C10 binary"), verify, "real_structure_phase", turned_phase((9, 5))),
    "odd_square_sign": ("C10", fail("C10 structure maps square"), verify, "gamma_squares_to",
                        lambda f: lambda n: -f(n) if n == 3 else f(n)),
    "even_square_sign": ("C10", fail("C10 structure maps square", "C10 Hermitian"), verify, "gamma_squares_to",
                         lambda f: lambda n: -f(n) if n == 6 else f(n)),
    "doubled_gamma": ("C10", fail("C10 structure maps square", "C10 Hermitian"), verify, "real_structure",
                      lambda f: lambda n, psi: f(n, psi).scale(2) if n == 4 else f(n, psi)),
    "turned_generator": ("C10", fail("C10 Hermitian"), verify, "clifford_apply",
                         lambda f: lambda n, p, psi: f(n, p, psi).scale(I)),
    "chirality_sign": ("C10", fail("C10 bit-parity"), verify, "chirality",
                       lambda f: lambda a: -f(a) if a == 3 else f(a)),
}

# name: (names that imply it, why it fails only with one of them)
IMPLIED = {
    named("C5 sigma(-vol) = -1"): (
        (named("C5 sigma(-1) = vol"), named("C5 sigma(vol) = -vol")),
        "center_images builds the image of -vol as the product of the images of -1 and vol, and vol * (-vol) = -1"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_each_corruption_fails_exactly_its_checks(case):
    criterion, expected, module, attribute, replace = CORRUPTIONS[case]
    assert failures(criterion, module, attribute, replace) == expected


@pytest.mark.parametrize("name", NAMES)
def test_every_check_fails_in_some_row_or_is_implied(name):
    """A new check needs a row of CORRUPTIONS that fails it, or an entry in
    IMPLIED; an implied check fails only in rows where a check that implies
    it fails too."""
    failing = [expected.keys() for _, expected, *_ in CORRUPTIONS.values() if name in expected]
    if name in IMPLIED:
        implying, _reason = IMPLIED[name]
        assert all(names & set(implying) for names in failing), name
    else:
        assert failing, f"no row of CORRUPTIONS fails {name!r}: add one, or list it in IMPLIED"
