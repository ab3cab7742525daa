import random
import re
from fractions import Fraction

import pytest

from spinbits import verify
from spinbits.clifford import clifford_apply, exp_bivector
from spinbits.scalars import Angle, HALF, I, INV_SQRT2, ONE, SQRT2, SQRT3, Scalar, ZERO
from spinbits.spinors import (
    Spinor,
    chirality,
    frame_index_set,
    gamma_squares_to,
    hermitian,
    real_form_basis,
    real_structure,
    real_structure_phase,
    signs_from_index,
)

from dense_oracle import gamma_oracle_apply

# Sign-tuple correspondence table at k = 3.
SIGN_TABLE_K3 = [
    ((1, 1, 1), 0), ((1, 1, -1), 1), ((1, -1, 1), 2), ((1, -1, -1), 3),
    ((-1, 1, 1), 4), ((-1, 1, -1), 5), ((-1, -1, 1), 6), ((-1, -1, -1), 7),
]

# Half-spinor index sets at n = 8.
DELTA8_PLUS_INDICES = [0, 3, 5, 6, 9, 10, 12, 15]
DELTA8_MINUS_INDICES = [1, 2, 4, 7, 8, 11, 13, 14]

# Ordered real basis of the positive half-spinor form at stage 8
# (coefficients carry a 1/sqrt2 normalization not written here), and
# its image under the first generator, used as the negative frame.
REAL_PLUS_8 = ["u0-u15", "iu0+iu15", "u3+u12", "iu3-iu12",
               "u5-u10", "iu5+iu10", "u6+u9", "iu6-iu9"]
REAL_MINUS_8 = ["iu1-iu14", "-u1-u14", "iu2+iu13", "-u2+u13",
                "iu4-iu11", "-u4-u11", "iu7+iu8", "-u7+u8"]


def index_of_signs(signs) -> int:
    """a = sum_j (1 - s_j)/2 * 2**(k-j), the encoding signs_from_index inverts."""
    k = len(signs)
    return sum((1 - s) // 2 << (k - j) for j, s in enumerate(signs, start=1))


def parse_spinor(text: str, k: int = 4) -> Spinor:
    """Parse compact forms like "iu3-iu12" or "-u1-u14" (1/sqrt2 implied off)."""
    out = Spinor.zero(k)
    for sign, im, idx in re.findall(r"([+-]?)(i?)u(\d+)", text):
        c = ONE if sign != "-" else -ONE
        if im:
            c = c * I
        out = out + Spinor.basis(k, int(idx), c)
    return out


def test_sign_table_k3():
    for signs, a in SIGN_TABLE_K3:
        assert signs_from_index(a, 3) == signs


def test_sign_bijection_examples():
    assert signs_from_index(1, 3) == (1, 1, -1)
    assert signs_from_index(7, 3) == (-1, -1, -1)
    for k in (1, 4, 9):
        assert signs_from_index(0, k) == (1,) * k


def test_sign_bijection_round_trip():
    for k in range(1, 11):
        for a in range(1 << k):
            assert index_of_signs(signs_from_index(a, k)) == a
    k = 16
    for a in (0, 1, 37, 40000, (1 << 16) - 1):
        assert index_of_signs(signs_from_index(a, k)) == a


def test_sign_index_out_of_range():
    for a, k in ((8, 3), (-1, 3), (1, 0)):
        with pytest.raises(ValueError, match=f"index {a} out of range for {k} bits"):
            signs_from_index(a, k)


def test_hermitian_product():
    u3 = Spinor.basis(3, 3)
    u5 = Spinor.basis(3, 5)
    assert hermitian(u3, u3) == ONE
    assert hermitian(u3, u5) == ZERO
    u0 = Spinor.basis(3, 0)
    assert hermitian(u0.scale(I), u0) == -I


def test_hermitian_width_mismatch():
    with pytest.raises(ValueError):
        hermitian(Spinor.basis(2, 0), Spinor.basis(3, 0))


def test_chirality_index_sets_at_stage_8():
    plus = [a for a in range(16) if chirality(a) == 1]
    minus = [a for a in range(16) if chirality(a) == -1]
    assert plus == DELTA8_PLUS_INDICES
    assert minus == DELTA8_MINUS_INDICES
    assert chirality(0) == 1


def test_real_structure_basis_values():
    # gamma_8(u_0) = -u_15, and symmetrization gives the first frame vector
    g = real_structure(8, Spinor.basis(4, 0))
    assert g == Spinor.basis(4, 15, -ONE)
    sym = (Spinor.basis(4, 0) + g).scale(INV_SQRT2)
    assert sym == (Spinor.basis(4, 0) - Spinor.basis(4, 15)).scale(INV_SQRT2)


def test_real_structure_phase_is_the_odd_slot_product():
    # gamma_n u_a = prod over odd slots of (-s_slot * i), times u_(~a)
    for n in range(2, 17):
        k = n // 2
        for a in range(1 << k):
            coeff = ONE
            for slot in range(1, k + 1, 2):
                coeff = coeff * (-signs_from_index(a, k)[slot - 1]) * I
            e, b = real_structure_phase(n, a)
            assert 0 <= e < 4 and b == (1 << k) - 1 - a
            assert coeff == Scalar.i_power(e)


def test_real_structure_is_conjugate_linear():
    psi = Spinor.basis(4, 3, I) + Spinor.basis(4, 5, Scalar.rational(2))
    lhs = real_structure(8, psi.scale(I))
    rhs = real_structure(8, psi).scale(-I)
    assert lhs == rhs


def test_quaternionic_structure_at_stage_2():
    for a in (0, 1):
        u = Spinor.basis(1, a)
        assert real_structure(2, real_structure(2, u)) == u.scale(-ONE)


def test_gamma_squares_match_residue():
    for n in range(2, 13):
        k = n // 2
        sgn = gamma_squares_to(n)
        for a in range(1 << k):
            u = Spinor.basis(k, a)
            assert real_structure(n, real_structure(n, u)) == u.scale(Scalar.rational(sgn))


def test_gamma_binary_equals_tensor_oracle():
    for n in range(2, 13):
        k = n // 2
        for a in range(1 << k):
            u = Spinor.basis(k, a)
            assert real_structure(n, u) == gamma_oracle_apply(n, u)


def test_gamma_pairing_identities():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.choice([2, 4, 6, 8, 10, 12])
        k = n // 2
        v = Spinor.basis(k, rng.randrange(1 << k), I + Scalar.rational(rng.randint(-3, 3)))
        w = Spinor.basis(k, rng.randrange(1 << k), Scalar.rational(rng.randint(-3, 3), 2))
        sgn = Scalar.rational(gamma_squares_to(n))
        assert hermitian(real_structure(n, v), w) == sgn * hermitian(v, real_structure(n, w)).conjugate()
        assert hermitian(real_structure(n, v), real_structure(n, w)) == hermitian(v, w).conjugate()


def test_real_form_basis_stage_8_matches_tabulated_frames():
    plus = real_form_basis(8, "plus")
    minus = real_form_basis(8, "minus")
    for got, text in zip(plus, REAL_PLUS_8):
        assert got == parse_spinor(text).scale(INV_SQRT2)
    for got, text in zip(minus, REAL_MINUS_8):
        assert got == parse_spinor(text).scale(INV_SQRT2)
    assert [clifford_apply(8, 1, v) for v in plus] == minus


def test_real_form_basis_sizes_and_membership():
    b10 = real_form_basis(10, "full")
    assert len(b10) == 32
    idx = sorted({a for v in b10 for a in v.terms})
    assert idx == [a for a in range(32) if chirality(a) == 1]

    b8 = real_form_basis(8, "plus")
    assert len(b8) == 8

    b9 = real_form_basis(9, "full")
    assert len(b9) == 16


def test_real_form_basis_rejects_aliased_stages():
    for r in (3, 5, 6, 7, 11):
        with pytest.raises(ValueError):
            real_form_basis(r, "full")
    with pytest.raises(ValueError):
        real_form_basis(8, "full")
    with pytest.raises(ValueError):
        real_form_basis(10, "plus")


def test_basic_spinors_are_torus_eigenvectors():
    # pair t reads the sign at bit t-1; phases multiply across factors
    rng = random.Random(9)
    for _ in range(10):
        k = rng.choice([2, 3, 4])
        n = 2 * k
        thetas = [Angle(rng.randrange(24)) for _ in range(k)]
        elem = exp_bivector(n, [(thetas[t], (2 * t + 1, 2 * t + 2)) for t in range(k)])
        a = rng.randrange(1 << k)
        signs = signs_from_index(a, k)
        phase = ONE
        for t in range(k):
            eps = signs[k - 1 - t]
            phase = phase * (thetas[t].cos() + I * thetas[t].sin() * Scalar.rational(eps))
        assert elem.apply(Spinor.basis(k, a)) == Spinor.basis(k, a, phase)


def test_spinor_json_payload():
    psi = Spinor(3, {5: Scalar.rational(-2, 3), 0: I})
    assert psi.to_json() == {"k": 3, "terms": [
        {"index": 0, "coeff": I.to_json()},
        {"index": 5, "coeff": {"1": {"re": "-2/3", "im": "0/1"}}},
    ]}


def test_spinor_latex():
    psi = Spinor.basis(4, 15, I)
    assert psi.latex() == "iu_{15}"


def test_int_and_fraction_coefficients_become_scalars():
    psi = Spinor.basis(2, 1, 2)
    assert psi.latex() == "2u_{1}"
    assert psi.to_json() == {"k": 2, "terms": [{"index": 1, "coeff": {"1": {"re": "2/1", "im": "0/1"}}}]}
    assert psi == Spinor.basis(2, 1, Scalar.rational(2))
    assert Spinor(2, {0: Fraction(-1, 3), 3: 0}).latex() == "-\\frac{1}{3}u_{0}"


def test_spinor_latex_and_repr_of_a_sum():
    # coefficients +-1 drop to a sign; one with an inner sign is parenthesized
    psi = Spinor(3, {
        5: -ONE, 0: ONE, 2: ONE + I, 3: HALF * SQRT2, 6: -I,
        7: SQRT3 - Scalar.rational(2, 3) * I, 1: Scalar.rational(-3),
    })
    assert psi.latex() == (
        "u_{0}-3u_{1}+(1+i)u_{2}+\\frac{1}{2}\\sqrt{2}u_{3}-u_{5}-iu_{6}"
        "+(-\\frac{2}{3}i+\\sqrt{3})u_{7}"
    )
    assert repr(psi) == (
        "(1)u_0 + (-3)u_1 + (1 + 1i)u_2 + (1/2*sqrt2)u_3 + (-1)u_5 + (-1i)u_6"
        " + (-2/3i + 1*sqrt3)u_7"
    )
    assert Spinor.zero(2).latex() == repr(Spinor.zero(2)) == "0"


def test_real_frames_start_at_stage_2():
    for r in (-3, 0, 1):
        with pytest.raises(ValueError, match=f"stage {r} has no real frame"):
            frame_index_set(r)
    with pytest.raises(ValueError, match="stage 1 has no real frame"):
        real_form_basis(1, "full")


def test_c10_fails_on_a_flipped_gamma_phase(monkeypatch):
    def flipped(n, a):
        e, b = real_structure_phase(n, a)
        return ((e + 2) % 4 if (n, a) == (9, 5) else e), b

    monkeypatch.setattr(verify, "real_structure_phase", flipped)
    report = verify.Report()
    verify.check_structure_maps(report, 0, random.Random(1), max_n=10)
    fails = [c.name for c in report.checks if not c.passed]
    assert fails == ["C10 binary structure maps equal the tensor definitions for n <= 10"]
