import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import reference as ref
from spinbits import verify
from spinbits.clifford import word_apply
from spinbits.fields import (
    FieldSystem,
    IrrepInfo,
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
from spinbits.matrices import Monomial, real_basis_frame, real_block
from spinbits.scalars import I, INV_SQRT2, ONE, Scalar, draw_ints
from spinbits.spinors import Spinor, frame_index_set, real_structure, real_structure_phase


def e1ep_closed_form(r, p, a):
    """The composite bit rule as a Scalar coefficient and an index."""
    e, b = e1ep_phase(r, p, a)
    return Scalar.i_power(e), b


def frame_block(r, which, p):
    """Oracle for real_block(r, (1, p), which): push each real frame vector
    through e_1 e_p as a spinor and expand the image in the frame."""
    frame = real_basis_frame(r, which)
    perm, phase = [], []
    for v in frame.vectors:
        coords = frame.expand(word_apply(r, [1, p], v))
        hits = [(m, x) for m, x in enumerate(coords) if x]
        assert len(hits) == 1 and abs(hits[0][1]) == 1
        perm.append(hits[0][0])
        phase.append(0 if hits[0][1] > 0 else 2)
    return Monomial(perm, phase)


def assert_structure(system):
    """J^T = -J, J^2 = -1 and pairwise anticommutation, on the monomials."""
    minus_one = -Monomial.identity(system.N)
    for J in system.J:
        assert J.transpose() == -J
        assert J.compose(J) == minus_one
    for a in range(len(system.J)):
        for b in range(a + 1, len(system.J)):
            assert system.J[a].compose(system.J[b]) == -system.J[b].compose(system.J[a])


def _times_i_power(re, im, e):
    """(re + i im) i^e as (re', im')."""
    return ((re, im), (-im, re), (-re, -im), (im, -re))[e % 4]


def _symmetrized(r, terms):
    """The spinor sum of (re + i im) u_b over ``terms`` = (b, re, im), as b -> (re, im).

    At stages 0, 1 mod 8 each term w becomes w + gamma w, which is sqrt2
    times the frame's 1/sqrt2 symmetrization, so the coordinates stay
    Gaussian integers; zero coordinates are dropped.
    """
    symmetrize = r % 8 in (0, 1)
    out = {}
    for b, re, im in terms:
        acc = out.setdefault(b, [0, 0])
        acc[0] += re
        acc[1] += im
        if symmetrize:  # gamma u_b = i^g u_c and gamma is conjugate-linear
            g, c = real_structure_phase(r, b)
            acc = out.setdefault(c, [0, 0])
            re2, im2 = _times_i_power(re, -im, g)
            acc[0] += re2
            acc[1] += im2
    return {b: (re, im) for b, (re, im) in out.items() if re or im}


def field_formula_coords(r, p, x, y):
    """Oracle for closed_form_pick, the dict route it replaced: the closed-form
    value of the field for e_1 e_p at the point with frame coordinates
    X_a = x[a], Y_a = y[a] (ints), as Gaussian-int spinor coordinates
    b -> (re, im), times sqrt2 at stages 0, 1 mod 8."""
    terms = []
    for a in frame_index_set(r):
        e, b = e1ep_phase(r, p, a)
        terms.append((b, *_times_i_power(x.get(a, 0), y.get(a, 0), e)))
    return _symmetrized(r, terms)


def frame_point_coords(r, x, y):
    """Oracle for frame_placement_pick, the dict route it replaced: the point with
    int coordinates (X_a, Y_a) in the stage-r real frame, as Gaussian-int spinor
    coordinates b -> (re, im), times sqrt2 at stages 0, 1 mod 8."""
    return _symmetrized(r, ((a, x.get(a, 0), y.get(a, 0)) for a in sorted(set(x) | set(y))))


def dense(r, coords):
    """The dict coordinates b -> (re, im) as the picks give them: re_0, im_0, re_1, ..."""
    return tuple(v for b in range(1 << (r // 2)) for v in coords.get(b, (0, 0)))


def signed(z):
    """z + (-z) + (0,): the vector every compiled pick reads."""
    return (*z, *(-v for v in z), 0)


def field_formula_value(r, p, x, y):
    """Oracle for field_formula_coords: the closed-form field value of e_1 e_p
    at the point with frame coordinates X_a = x[a], Y_a = y[a], as a Scalar
    spinor, gamma-symmetrized with 1/sqrt2 at stages 0, 1 mod 8."""
    idx = frame_index_set(r)
    symmetrize = r % 8 in (0, 1)
    k = r // 2
    out = Spinor.zero(k)
    for a in idx:
        xa = Scalar.rational(Fraction(x.get(a, 0)))
        ya = Scalar.rational(Fraction(y.get(a, 0)))
        if not (xa or ya):
            continue
        coeff, b = e1ep_closed_form(r, p, a)
        term = Spinor.basis(k, b, (xa + I * ya) * coeff)
        if symmetrize:
            term = (term + real_structure(r, term)).scale(INV_SQRT2)
        out = out + term
    return out


def frame_point_spinor(r, x, y):
    """Oracle for frame_point_coords: the Scalar spinor with coordinates
    (X_a, Y_a) in the stage-r real frame."""
    k = r // 2
    out = Spinor.zero(k)
    for a in sorted(set(x) | set(y)):
        xa = Scalar.rational(Fraction(x.get(a, 0)))
        ya = Scalar.rational(Fraction(y.get(a, 0)))
        term = Spinor.basis(k, a, xa + I * ya)
        if r % 8 in (0, 1):
            term = (term + real_structure(r, term)).scale(INV_SQRT2)
        out = out + term
    return out


def gauss_spinor(r, coords):
    """The spinor with Gaussian-int coordinates b -> (re, im), over sqrt2 at stages 0, 1 mod 8."""
    scale = INV_SQRT2 if r % 8 in (0, 1) else ONE
    return Spinor(r // 2, {
        b: (Scalar.rational(re) + I * Scalar.rational(im)) * scale for b, (re, im) in coords.items()
    })


IRREP_DIMS = [None] + [irrep_info(r).d for r in range(1, 402)]  # up to d(401) = 2^200


def old_max_stage(N):
    """Oracle for max_stage: the stage walk from r = 1, with d(r) from irrep_info."""
    best, r = 1, 1
    while IRREP_DIMS[r] <= N:
        if N % IRREP_DIMS[r] == 0:
            best = r
        r += 1
    return best


def scaled(Z):
    """The int multiple of the rational point Z by the lcm of its denominators."""
    fracs = [Fraction(v) for v in Z]
    D = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (D // f.denominator) for f in fracs]


def pairwise_gram(system, Z):
    """Oracle for gram_is_scaled_identity: every one of the r(r+1)/2 inner
    products on the int multiple of Z, one at a time."""
    z = scaled(Z)
    vecs = [z] + [J.apply(z) for J in system.J]
    norm = sum(map(mul, z, z))
    for a, u in enumerate(vecs):
        if sum(map(mul, u, u)) != norm:
            return False
        for v in vecs[a + 1:]:
            if sum(map(mul, u, v)):
                return False
    return True


def fraction_gram(system, Z):
    """Oracle for gram_is_scaled_identity: the Gram matrix in Fractions."""
    z = [Fraction(v) for v in Z]
    vecs = [z] + [J.apply(z) for J in system.J]
    norm = sum((v * v for v in z), Fraction(0))
    for a in range(len(vecs)):
        for b in range(a, len(vecs)):
            dot = sum((vecs[a][t] * vecs[b][t] for t in range(system.N)), Fraction(0))
            if dot != (norm if a == b else 0):
                return False
    return True


def flip_one_sign(system, j, col):
    """A copy of the system with the sign of one entry of J_j negated."""
    J = system.J[j - 1]
    phase = list(J.phase)
    phase[col] += 2
    Js = list(system.J)
    Js[j - 1] = Monomial(J.perm, phase)
    return system._replace(J=Js)


def test_irrep_info_examples():
    assert (irrep_info(3).d, irrep_info(3).count) == (4, 1)
    assert (irrep_info(8).d, irrep_info(8).count) == (8, 2)
    assert (irrep_info(10).d, irrep_info(10).count) == (32, 1)
    assert irrep_info(1).d == 1
    with pytest.raises(ValueError):
        irrep_info(0)


def test_records_keep_positional_construction_and_attributes():
    info = IrrepInfo(8, 2)
    assert info == irrep_info(8)
    assert (info.d, info.count) == (8, 2)
    assert repr(info) == "IrrepInfo(d=8, count=2)"
    system = build_field_system(16)
    clone = FieldSystem(system.N, system.r, system.J)
    assert (clone.N, clone.r, clone.J) == (16, 9, system.J)
    assert clone.field_count() == 8
    assert FieldSystem(N=4, r=3, J=[]).field_count() == 2


def test_max_stage_examples():
    assert max_stage(32) == 10
    assert max_stage(16) == 9
    for N in (1, 3, 9, 15, 1001):
        assert max_stage(N) == 1


# d(r) < d(r + 1) only at r = 0, 1, 2, 4 mod 8, so the largest stage whose d
# divides N is always one of those: the stages with their own real frame
FRAMED_STAGES = (0, 1, 2, 4)


def test_max_stage_equals_the_stage_walk():
    for N in range(1, (1 << 16) + 1):
        assert max_stage(N) == old_max_stage(N), N
        assert max_stage(N) % 8 in FRAMED_STAGES, N
    for odd in (1, 3, 5, 77, 2**31 - 1, 3**40):
        N = (1 << 40) * odd
        assert max_stage(N) == old_max_stage(N) == hurwitz_radon(N) == 8 * 10 + 1


@given(st.integers(min_value=0, max_value=(1 << 200) - 1), st.integers(min_value=0, max_value=199))
def test_max_stage_equals_the_stage_walk_below_2_200(N, twos):
    N = ((N >> twos) | 1) << twos  # 2-part exactly 2^twos, still below 2^200
    assert max_stage(N) == old_max_stage(N) == hurwitz_radon(N)
    assert max_stage(N) % 8 in FRAMED_STAGES


def test_max_stage_equals_hurwitz_radon():
    for N in range(1, 4097):
        assert max_stage(N) == hurwitz_radon(N)
        assert N == 1 or build_field_system(N).r == max_stage(N), N


def test_hurwitz_radon_closed_form():
    assert hurwitz_radon(1) == 1
    assert hurwitz_radon(2) == 2
    assert hurwitz_radon(4) == 4
    assert hurwitz_radon(8) == 8
    assert hurwitz_radon(16) == 9
    assert hurwitz_radon(32) == 10
    assert hurwitz_radon(64) == 12
    assert hurwitz_radon(128) == 16
    assert hurwitz_radon(256) == 17


def test_closed_forms_match_generator_composition():
    for r in range(2, 13):
        k = r // 2
        for p in range(2, r + 1):
            for a in range(1 << k):
                c, b = e1ep_closed_form(r, p, a)
                assert Spinor.basis(k, b, c) == word_apply(r, [1, p], Spinor.basis(k, a))
                e, _ = e1ep_phase(r, p, a)
                assert 0 <= e < 4 and c == Scalar.i_power(e)


# every stage with its own real frame (0, 1, 2, 4 mod 8) up to 18
FRAME_STAGES = [r for r in range(2, 19) if r % 8 in (0, 1, 2, 4)]


@pytest.mark.parametrize("r", FRAME_STAGES)
def test_bit_rule_blocks_match_frame_expansion(r):
    whiches = ("plus", "minus") if r % 4 == 0 else ("full",)
    for which in whiches:
        for p in range(2, r + 1):
            assert real_block(r, (1, p), which) == frame_block(r, which, p), (which, p)


def test_apply_keeps_the_entry_type():
    J = build_field_system(8).J[2]
    out = J.apply(list(range(1, 9)))
    assert all(type(x) is int for x in out)
    assert out == J.apply([Fraction(x) for x in range(1, 9)])


_GRAM_SYSTEMS = {N: build_field_system(N) for N in (4, 16, 24, 32)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_int_gram_equals_fraction_gram(data):
    N = data.draw(st.sampled_from(sorted(_GRAM_SYSTEMS)))
    system = _GRAM_SYSTEMS[N]
    nums = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=N, max_size=N))
    dens = data.draw(st.lists(st.integers(1, 12), min_size=N, max_size=N)
                     .filter(lambda ds: any(d > 1 for d in ds)))
    z = [Fraction(n, d) for n, d in zip(nums, dens)]
    assert gram_is_scaled_identity(system, scaled(z)) is fraction_gram(system, z) is True
    j = data.draw(st.integers(1, len(system.J)))
    col = data.draw(st.integers(0, N - 1))
    broken = flip_one_sign(system, j, col)
    assert gram_is_scaled_identity(broken, scaled(z)) is fraction_gram(broken, z) is False


def both_oracles(system, z):
    """The Gram answer of the pairwise loop, which the Fraction oracle must share."""
    want = pairwise_gram(system, z)
    assert fraction_gram(system, z) is want
    return want


_POINTS = {
    "fractions": st.fractions(min_value=-20, max_value=20, max_denominator=50),
    "large": st.integers(-10**9, 10**9),  # k grows to about 66 bits
    "zero": st.just(0),
}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_packed_gram_equals_both_oracles(data):
    N = data.draw(st.sampled_from(sorted(_GRAM_SYSTEMS)))
    system = _GRAM_SYSTEMS[N]
    z = data.draw(st.lists(_POINTS[data.draw(st.sampled_from(sorted(_POINTS)))], min_size=N, max_size=N))
    assert gram_is_scaled_identity(system, scaled(z)) is both_oracles(system, z) is True
    j = data.draw(st.integers(1, len(system.J)))
    broken = flip_one_sign(system, j, data.draw(st.integers(0, N - 1)))
    got = gram_is_scaled_identity(broken, scaled(z))
    assert got is both_oracles(broken, z)
    if all(z):  # the flipped entry makes <Z, V_j(Z)> = +-2 z_a z_b
        assert got is False


@st.composite
def real_monomial_systems(draw):
    """Any real signed permutations, frames or not: their Gram rows carry several
    nonzero entries, which a packing with too few bits per digit could cancel."""
    N = draw(st.integers(1, 6))
    Js = [Monomial(draw(st.permutations(range(N))), draw(st.lists(st.sampled_from([0, 2]), min_size=N, max_size=N)))
          for _ in range(draw(st.integers(0, 5)))]
    return FieldSystem(N, len(Js) + 1, Js)


@settings(max_examples=400, deadline=None)
@given(real_monomial_systems(), st.data())
def test_packed_gram_equals_both_oracles_on_any_real_monomials(system, data):
    z = data.draw(st.lists(st.integers(-3, 3), min_size=system.N, max_size=system.N))
    assert gram_is_scaled_identity(system, z) is both_oracles(system, z)


@pytest.mark.parametrize("Js, z", [
    ([((0, 3, 1, 2), (0, 0, 0, 0)), ((0, 1, 2, 3), (2, 0, 2, 0))], [-2, -2, -2, -1]),
    ([((1, 0, 2), (0, 0, 2)), ((0, 1, 2), (0, 0, 2))], [-2, 1, -2]),
])
def test_packed_gram_is_false_where_narrower_digits_would_cancel(Js, z):
    """Row 0 of these Gram matrices is |Z|^2, G_01, G_02 with G_01 = -2^j G_02 != 0
    for a j at most (N m^2).bit_length() - 1, so packing with that few bits per
    digit would read |Z|^2."""
    system = FieldSystem(len(z), len(Js) + 1, [Monomial(*J) for J in Js])
    assert gram_is_scaled_identity(system, z) is both_oracles(system, z) is False


def test_packed_gram_is_false_where_digits_sized_for_the_offsets_would_cancel():
    """Byte digits (B = 256) hold every offset here, m <= 127, but |z|^2 > B^2,
    and G - |z|^2 Id is 8 (B^2 E_02 - B E_03 - B E_12 + E_13), symmetrized: each
    row of it is 0 in base B, so only digits of base above |z| tell G from
    |z|^2 Id.  The Js are sign flips: coordinate block p has signs (1, s1, s2, s3)
    on (z, J_1 z, J_2 z, J_3 z) and squared length w_p, which makes
    G_ab = sum over p of w_p s_a s_b."""
    B, z, phases = 256, [], [[], [], []]
    for signs in itertools.product((1, -1), repeat=3):
        s1, s2, s3 = signs
        w = 66049 + B * B * s2 - B * s3 - B * s1 * s2 + s1 * s3
        while w:
            z.append(min(math.isqrt(w), 127))
            w -= z[-1] ** 2
            for phase, s in zip(phases, signs):
                phase.append(1 - s)
    system = FieldSystem(len(z), 4, [Monomial(range(len(z)), phase) for phase in phases])
    vecs = [z] + [J.apply(z) for J in system.J]
    G = [[sum(map(mul, u, v)) - (a == b) * sum(map(mul, z, z)) for b, v in enumerate(vecs)]
         for a, u in enumerate(vecs)]
    assert max(map(abs, z)) <= 127 and sum(map(mul, z, z)) > B * B and any(map(any, G))
    assert all(sum(c * B ** b for b, c in enumerate(row)) == 0 for row in G)
    assert gram_is_scaled_identity(system, z) is both_oracles(system, z) is False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_GRAM_SYSTEMS)), st.integers(-10**6, 10**6).filter(bool),
       st.booleans(), st.data())
def test_packed_gram_at_the_edge_of_the_digit_bound(N, c, negate, data):
    """A repeated (or negated) J on a constant point makes G_ab = +-|Z|^2 = +-N m^2,
    the largest entry the digit bound has to hold."""
    system = _GRAM_SYSTEMS[N]
    j = data.draw(st.integers(0, len(system.J) - 1))
    Js = list(system.J)
    Js.insert(j + 1, -Js[j] if negate else Js[j])
    twin, z = system._replace(J=Js), [c] * N
    assert gram_is_scaled_identity(twin, z) is both_oracles(twin, z) is False
    assert gram_is_scaled_identity(system, z) is both_oracles(system, z) is True


@pytest.mark.parametrize("z", [[0] * 8, list(range(1, 9)), [Fraction(1, 3)] * 8])
def test_packed_gram_calls_a_j_with_an_odd_phase_not_real(z):
    """[[0, -i], [i, 0]] blocks give Scalar entries: not a real frame, so False,
    wherever the J sits and even at Z = 0."""
    system = build_field_system(8)
    odd = Monomial.identity(4).kron(Monomial((1, 0), (1, 3)))
    for j in range(len(system.J)):
        Js = list(system.J)
        Js[j] = odd
        assert gram_is_scaled_identity(system._replace(J=Js), scaled(z)) is False
        assert structure_failure(system._replace(J=Js)) is not None


def loop_frame(system, z):
    """Oracle for FieldSystem.frame_pick: z and each J z by the per-entry loop, column-major."""
    images = [z]
    for J in system.J:
        image = [None] * len(z)
        for a, (b, e) in enumerate(zip(J.perm, J.phase)):
            image[b] = -z[a] if e else z[a]
        images.append(image)
    return tuple(v for column in zip(*images) for v in column)


@settings(max_examples=80, deadline=None)
@given(real_monomial_systems(), st.data())
def test_stacked_pick_equals_the_loop_on_any_real_monomials(system, data):
    z = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=system.N, max_size=system.N))
    pick = system.frame_pick
    assert pick(z + [-v for v in z]) == loop_frame(system, z)
    assert system.frame_pick is pick  # built once per system
    if system.J:  # an odd phase anywhere in any J: no pick
        j = data.draw(st.integers(0, len(system.J) - 1))
        J = system.J[j]
        phase = list(J.phase)
        phase[data.draw(st.integers(0, system.N - 1))] += 1
        Js = list(system.J)
        Js[j] = Monomial(J.perm, phase)
        assert system._replace(J=Js).frame_pick is None


def test_stage_one_has_a_frame_of_z_alone():
    """r = 1 (S^2, and N = 1): no J, so the pick is z itself, even one index long,
    and every Gram matrix is the 1 x 1 matrix |z|^2."""
    system = build_field_system(3)
    assert (system.r, system.J) == (1, [])
    assert system.frame_pick([4, -5, 6, -4, 5, -6]) == (4, -5, 6)
    one = FieldSystem(1, 1, [])
    assert one.frame_pick([-7, 7]) == (-7,)
    for z in ([0, 0, 0], [1, -2, 9], [10**9] * 3):
        assert gram_is_scaled_identity(system, z) is both_oracles(system, z) is True
    assert gram_is_scaled_identity(one, [-7]) is both_oracles(one, [-7]) is True
    flip = FieldSystem(1, 2, [Monomial((0,), (2,))])  # J = -1: <z, Jz> = -|z|^2
    assert gram_is_scaled_identity(flip, [3]) is both_oracles(flip, [3]) is False


def greedy_squares(t):
    """Non-negative ints whose squares sum to t, each the largest that fits."""
    out = []
    while t:
        out.append(math.isqrt(t))
        t -= out[-1] ** 2
    return out


# |z|^2 on each side of every switch of the digit width: |z|^2 needs 8, 16, 32,
# 64 and 72 bits, where the digits go from 1 to 2, 4 and 8 bytes, then past the
# widest array code to int.to_bytes
DIGIT_SWITCHES = [t for bits in (8, 16, 32, 64, 72) for t in ((1 << bits) - 1, 1 << bits)]


@pytest.mark.parametrize("norm", DIGIT_SWITCHES)
@pytest.mark.parametrize("N", [16, 32])
def test_packed_gram_on_both_sides_of_each_digit_width(norm, N):
    system = _GRAM_SYSTEMS[N]
    roots = greedy_squares(norm)
    pad = [0] * (N - len(roots))
    for z in (roots + pad, pad + [(-1) ** t * v for t, v in enumerate(roots)]):
        assert sum(v * v for v in z) == norm
        assert gram_is_scaled_identity(system, z) is both_oracles(system, z) is True
        for negate in (False, True):  # G_01 = +-|z|^2, the largest entry a digit holds
            Js = [-system.J[0] if negate else system.J[0], *system.J]
            twin = system._replace(J=Js)
            assert gram_is_scaled_identity(twin, z) is both_oracles(twin, z) is False
        broken = flip_one_sign(system, 1, next(t for t, v in enumerate(z) if v))
        assert gram_is_scaled_identity(broken, z) is both_oracles(broken, z)


def test_structure_failure_names_the_first_broken_equation():
    system = build_field_system(32)
    assert structure_failure(system) is None
    broken = flip_one_sign(system, 3, 5)
    assert structure_failure(broken) == {"N": 32, "J": 3, "equation": "J^T = -J"}


def test_structure_failure_names_a_bad_square_and_a_commuting_pair():
    system = build_field_system(8)
    # antisymmetric, but with odd phases: [[0, -i], [i, 0]] squares to +1
    odd = Monomial.identity(4).kron(Monomial((1, 0), (1, 3)))
    assert odd.transpose() == -odd and odd.compose(odd) == Monomial.identity(8)
    Js = list(system.J)
    Js[1] = odd
    assert structure_failure(system._replace(J=Js)) == {"N": 8, "J": 2, "equation": "J^2 = -1"}
    # a duplicated J commutes with its copy
    Js = list(system.J)
    Js.insert(3, Js[2])
    assert structure_failure(system._replace(J=Js)) == {
        "N": 8, "J": [3, 4], "equation": "J_a J_b = -J_b J_a"}


@pytest.mark.parametrize("N", [2, 8, 16, 32, 64])
def test_one_product_per_pair_agrees_with_both_products(N):
    """Oracle for the pair check: J_a J_b = -J_b J_a, both products built."""
    system = build_field_system(N)
    assert structure_failure(system) is None
    assert_structure(system)
    Js = list(system.J) + [system.J[0]]
    pairs = [(a, b) for a in range(len(Js)) for b in range(a + 1, len(Js))]
    first = next((a, b) for a, b in pairs if Js[a].compose(Js[b]) != -Js[b].compose(Js[a]))
    assert structure_failure(system._replace(J=Js))["J"] == [first[0] + 1, first[1] + 1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(0, 300))
def test_symmetric_draws_are_randint_draws(seed, count, span):
    mine, theirs = random.Random(seed), random.Random(seed)
    assert draw_ints(mine, ((-span, span),), count) == [theirs.randint(-span, span) for _ in range(count)]
    assert mine.getstate() == theirs.getstate()


def test_random_point_rejects_an_all_zero_range():
    rng = random.Random(1)
    for N in (0, -3):
        with pytest.raises(ValueError):
            random_point(N, rng)
    with pytest.raises(ValueError):
        draw_ints(rng, ((1, -1),), 3)
    assert rng.getstate() == random.Random(1).getstate()
    # seed 23 draws 0 first, so a one-coordinate point is drawn again
    mine, theirs = random.Random(23), random.Random(23)
    z = random_point(1, mine)
    want = [theirs.randint(-9, 9)]
    assert want == [0]
    while not any(want):
        want = [theirs.randint(-9, 9)]
    assert z == want and mine.getstate() == theirs.getstate()


def block_diagonal(blocks):
    """Oracle for the J of a field system: these blocks down the diagonal."""
    perm, phase = [], []
    for block in blocks:
        perm += [len(perm) + b for b in block.perm]
        phase += block.phase
    return Monomial(perm, phase)


@pytest.mark.parametrize("N, split", [(2, None), (4, (1, 0)), (8, (0, 1)), (16, None), (24, (2, 1)),
                                      (32, None), (48, None), (64, None), (128, (1, 0)), (256, None)])
def test_field_system_is_the_block_diagonal_of_frame_blocks(N, split):
    system = build_field_system(N, split)
    m1, m2 = split or (N // irrep_info(system.r).d, 0)
    which = "plus" if irrep_info(system.r).count == 2 else "full"
    for p, J in enumerate(system.J, start=2):
        blocks = [real_block(system.r, (1, p), which)] * m1 + [real_block(system.r, (1, p), "minus")] * m2
        assert J == block_diagonal(blocks)


def test_negative_split_is_rejected():
    with pytest.raises(ValueError):
        build_field_system(24, (-1, 4))


def transpose_rows(system):
    """Oracle for emit_coordinates: row b of J holds 1 - phase in column T.perm[b], T = J^T."""
    rows = []
    for J in system.J:
        T = J.transpose()
        rows.append([(1 - e) * (c + 1) for c, e in zip(T.perm, T.phase)])
    return rows


@pytest.mark.parametrize("N, split", [(2, None), (16, None), (24, (2, 1)), (32, None), (64, (1, 0)), (72, (4, 5))])
def test_emitted_rows_are_the_transposed_frames(N, split):
    rows = transpose_rows(build_field_system(N, split))
    assert emit_coordinates(N, "json", split)["fields"] == rows
    text = emit_coordinates(N, "text", split).splitlines()
    latex = emit_coordinates(N, "latex", split).splitlines()
    for m, row in enumerate(rows, start=1):
        assert text[m - 1] == "(" + ", ".join(f"-v{-v}" if v < 0 else f"v{v}" for v in row) + ")"
        assert latex[m - 1] == f"V_{{{m}}} = (" + ", ".join(
            f"-v_{{{-v}}}" if v < 0 else f"v_{{{v}}}" for v in row) + ")"


def test_hurwitz_radon_counts_the_twos():
    for N in range(1, 5000):
        twos = 0
        while N >> twos & 1 == 0:
            twos += 1
        a, b = divmod(twos, 4)
        assert hurwitz_radon(N) == 8 * a + 2 ** b


def test_c8_witness_names_a_broken_system(monkeypatch):
    real_build = verify.build_field_system

    def build(N, split=None):
        system = real_build(N, split=split)
        return flip_one_sign(system, 2, 0) if N == 16 else system

    monkeypatch.setattr(verify, "build_field_system", build)
    report = verify.Report()
    verify.check_fields(report, 3, random.Random(1))
    check = next(c for c in report.checks if c.name.startswith("C8 structure equations"))
    assert not check.passed
    assert check.witness == {"N": 16, "J": 2, "equation": "J^T = -J"}


def test_c8_witness_names_the_failing_point(monkeypatch):
    calls = []

    def gram(system, z):
        calls.append(system.N)
        return not (system.N == 8 and calls.count(8) == 2)

    monkeypatch.setattr(verify, "gram_is_scaled_identity", gram)
    report = verify.Report()
    verify.check_fields(report, 3, random.Random(1))
    check = next(c for c in report.checks if c.name.startswith("C8 structure equations"))
    assert check.witness == {"N": 8, "point": 1}


@pytest.mark.parametrize("samples", [0, 7, 100])
def test_c8_draws_its_points_then_its_closed_form_coordinates(samples):
    """C8 leaves the generator where a replay of its draws does, so the checks
    after it draw the same numbers: min(50, samples) points for each N, then two
    coordinate lists for each closed-form sample."""
    rng, replay = random.Random(samples), random.Random(samples)
    report = verify.Report()
    verify.check_fields(report, samples, rng)
    assert all(c.passed for c in report.checks)
    for N in (2, 4, 8, 16, 32, 64, 128):
        for _ in range(min(50, samples)):
            random_point(N, replay)
    for r in (8, 9, 10, 12):
        for _ in range(max(3, min(10, samples)) if samples else 2):
            for _ in "xy":
                draw_ints(replay, ((-5, 5),), len(frame_index_set(r)))
    assert rng.getstate() == replay.getstate()


def c8_rows_check(monkeypatch, trim):
    """C8's table check, run on the emitted rows as ``trim`` leaves them."""
    emit = verify.emit_coordinates

    def trimmed(N, fmt="text", split=None):
        out = emit(N, fmt, split)
        out["fields"] = trim(out["fields"])
        return out

    monkeypatch.setattr(verify, "emit_coordinates", trimmed)
    report = verify.Report()
    verify.check_fields(report, 0, random.Random(1))
    return next(c for c in report.checks if c.name.startswith("C8 the nine emitted rows"))


def test_c8_counts_missing_rows_as_mismatches(monkeypatch):
    check = c8_rows_check(monkeypatch, lambda rows: rows[:6])
    assert not check.passed
    cells = check.witness["corrected_cells"]
    assert len(cells) == 2 + 3 * 32
    assert cells["V7 slot 1"] is None and cells["V9 slot 32"] is None


def test_c8_counts_a_missing_slot_as_a_mismatch(monkeypatch):
    check = c8_rows_check(monkeypatch, lambda rows: rows[:-1] + [rows[-1][:-1]])
    assert not check.passed
    assert check.witness == {
        "corrected_cells": {"V5 slot 6": 1, "V6 slot 8": -16, "V9 slot 32": None}
    }


def test_build_field_system_32_matches_tabulated_rows():
    emitted = emit_coordinates(32, fmt="json")["fields"]
    gold = [[s * v for s, v in ref.signed_ints(row)] for row in ref.V_ROWS]
    assert len(emitted) == 9 and all(len(row) == 32 for row in emitted)
    mismatches = {
        (j, slot): mine
        for j, (row, want) in enumerate(zip(emitted, gold), start=1)
        for slot, (mine, v) in enumerate(zip(row, want), start=1)
        if mine != v
    }
    # the two flagged misprints are corrected; everything else is exact
    assert mismatches == ref.V_ROW_TYPOS


def test_v1_and_v8_examples():
    system = build_field_system(32)
    e1 = [Fraction(int(t == 0)) for t in range(32)]
    assert system.J[0].apply(e1) == [Fraction(int(t == 1)) for t in range(32)]
    v8 = system.J[7].apply(e1)
    assert v8 == [Fraction(-(t == 16)) for t in range(32)]


def test_first_row_text():
    first = emit_coordinates(32).splitlines()[0]
    assert first.startswith("(-v2, v1, v4, -v3, v6, -v5, -v8, v7,")


def test_smallest_sphere():
    assert emit_coordinates(2) == "(-v2, v1)"


def test_quaternionic_frame_on_s3():
    system = build_field_system(4)
    assert system.r == 4 and system.field_count() == 3
    assert_structure(system)


def test_structure_equations_various_N():
    rng = random.Random(19)
    for N in (2, 8, 16, 24, 32, 48, 64, 128, 256, 512):
        system = build_field_system(N)
        assert system.r == hurwitz_radon(N)
        assert_structure(system)
        for _ in range(3):
            assert gram_is_scaled_identity(system, random_point(N, rng))


def test_signed_permutation_entries():
    for N in (16, 32, 64):
        for J in build_field_system(N).J:
            rows = J.to_int_rows()
            for row in rows:
                nz = [x for x in row if x]
                assert len(nz) == 1 and nz[0] in (1, -1)


def test_tangency():
    rng = random.Random(23)
    system = build_field_system(16)
    for _ in range(10):
        z = random_point(16, rng)
        for j in range(1, system.field_count() + 1):
            v = system.J[j - 1].apply(z)
            assert sum(a * b for a, b in zip(v, z)) == 0


def test_multiplicity_split():
    rng = random.Random(37)
    # stage 8 carries two inequivalent real forms; N = 24 allows mixed splits
    for split in ((3, 0), (2, 1), (1, 2), (0, 3)):
        system = build_field_system(24, split=split)
        plus, minus = real_block(8, (1, 2), "plus"), real_block(8, (1, 2), "minus")
        assert system.r == 8 and system.J[0] == block_diagonal([plus] * split[0] + [minus] * split[1])
        assert_structure(system)
        for _ in range(2):
            assert gram_is_scaled_identity(system, random_point(24, rng))
    with pytest.raises(ValueError):
        build_field_system(24, split=(1, 1))
    with pytest.raises(ValueError):
        build_field_system(32, split=(1, 1))


def test_field_formula_matches_matrix_route():
    rng = random.Random(29)
    for r in (8, 9, 10, 12):
        idx = frame_index_set(r)
        N = irrep_info(r).d
        system = build_field_system(N)
        assert system.r == r
        for _ in range(3):
            x = {a: rng.randint(-5, 5) for a in idx}
            y = {a: rng.randint(-5, 5) for a in idx}
            z = []
            for a in idx:
                z.extend((x[a], y[a]))
            for p in range(2, r + 1):
                direct = field_formula_value(r, p, x, y)
                out = system.J[p - 2].apply(z)
                xs = {a: out[2 * t] for t, a in enumerate(idx)}
                ys = {a: out[2 * t + 1] for t, a in enumerate(idx)}
                assert direct == frame_point_spinor(r, xs, ys)
                assert field_formula_coords(r, p, x, y) == frame_point_coords(r, xs, ys)


# stages with their own frame: symmetrized (0, 1 mod 8) and plain (2, 4 mod 8)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gaussian_int_routes_equal_the_scalar_spinor_routes(data):
    r = data.draw(st.sampled_from([2, 4, 8, 9, 10, 12, 16, 17]))
    idx = frame_index_set(r)
    coord = st.integers(-6, 6)
    x = {a: data.draw(coord) for a in idx}
    y = {a: data.draw(coord) for a in idx}
    p = data.draw(st.integers(2, r))
    assert gauss_spinor(r, field_formula_coords(r, p, x, y)) == field_formula_value(r, p, x, y)
    assert gauss_spinor(r, frame_point_coords(r, x, y)) == frame_point_spinor(r, x, y)


# every stage from 2 to 12; only those at 0, 1, 2, 4 mod 8 have a real frame
@pytest.mark.parametrize("r", range(2, 13))
def test_compiled_closed_form_equals_the_dict_route(r):
    if r % 8 not in FRAMED_STAGES:
        for p in range(2, r + 1):
            with pytest.raises(ValueError):
                closed_form_pick(r, p)
        with pytest.raises(ValueError):
            frame_placement_pick(r, 1, 0)
        return
    rng = random.Random(r)
    idx = frame_index_set(r)
    for _ in range(4):
        x = {a: rng.randint(-9, 9) for a in idx}
        y = {a: rng.randint(-9, 9) for a in idx}
        z = [v for a in idx for v in (x[a], y[a])]
        assert frame_placement_pick(r, 1, 0)(signed(z)) == dense(r, frame_point_coords(r, x, y))
        for p in range(2, r + 1):
            assert closed_form_pick(r, p)(signed(z)) == dense(r, field_formula_coords(r, p, x, y))


@pytest.mark.parametrize("r", [2, 4, 8, 9, 10, 12])
def test_frame_placement_reads_a_column_of_the_stacked_frame(r):
    """Placed at stride R, offset q, the pick reads J_{q+1} z out of the stacked
    frame: the frame point of J z, as the dict route places it."""
    rng = random.Random(100 + r)
    idx = frame_index_set(r)
    system = build_field_system(irrep_info(r).d)
    R = len(system.J) + 1
    z = [rng.randint(-9, 9) for _ in range(system.N)]
    frame = system.frame_pick(z + [-v for v in z])
    for q in range(R):
        Jz = frame[q::R]
        want = frame_point_coords(r, dict(zip(idx, Jz[0::2])), dict(zip(idx, Jz[1::2])))
        assert frame_placement_pick(r, R, q)(signed(frame)) == dense(r, want)


def test_c8_closed_form_check_fails_on_a_flipped_j_block(monkeypatch):
    real_build = verify.build_field_system

    def build(N, split=None):
        system = real_build(N, split=split)
        return flip_one_sign(system, 3, 4) if N == irrep_info(10).d else system

    monkeypatch.setattr(verify, "build_field_system", build)
    report = verify.Report()
    verify.check_fields(report, 3, random.Random(1))
    failed = [c.name for c in report.checks if not c.passed]
    assert "C8 closed-form field values agree with the matrix route (r = 8, 9, 10, 12)" in failed


def test_random_point_is_int_and_gram_takes_ints():
    rng = random.Random(5)
    z = random_point(16, rng)
    assert all(type(v) is int for v in z) and any(z)
    system = build_field_system(16)
    assert gram_is_scaled_identity(system, z) is fraction_gram(system, z) is True
    broken = flip_one_sign(system, 2, 3)
    assert gram_is_scaled_identity(broken, z) is fraction_gram(broken, z) is False


def test_frame_closure_under_top_generator():
    # stage 9: e_1 e_9 maps the symmetrized frame into itself (the
    # reflection partner lands on the same frame member up to sign)
    frame = real_basis_frame(9, "full")
    for v in frame.vectors:
        img = word_apply(9, [1, 9], v)
        coords = frame.expand(img)
        assert sum(1 for c in coords if c) == 1


def test_json_emission():
    out = emit_coordinates(8, fmt="json")
    assert out["sphere"] == 7 and out["stage"] == 8
    assert len(out["fields"]) == 7
    assert all(len(row) == 8 for row in out["fields"])
