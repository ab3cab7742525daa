import pytest

from spinbits import reference as ref


def test_signed_ints_keeps_the_sign_of_zero():
    assert ref.signed_ints("+0 -0") == [(1, 0), (-1, 0)]


def test_signed_ints_reads_rows_slots_and_alpha_combos():
    assert ref.signed_ints("+3 -12") == [(1, 3), (-1, 12)]
    assert ref.signed_ints("-2,+1") == [(-1, 2), (1, 1)]
    assert ref.signed_ints("+1-12") == [(1, 1), (-1, 12)]
    assert ref.signed_ints("") == []


def test_multiplication_tables_decode_to_8x8():
    for table in (ref.OCT_TABLE, ref.PHI_TABLE):
        assert [len(ref.signed_ints(row)) for row in table] == [8] * 8
    assert any(cell == (-1, 0) for row in ref.OCT_TABLE for cell in ref.signed_ints(row))


def test_v_rows_decode_to_9x32():
    assert [len(ref.signed_ints(row)) for row in ref.V_ROWS] == [32] * 9


def test_outer_arrays_decode_to_28x28():
    for which in ("sigma", "tau"):
        rows = ref.outer_matrix_expected(which)
        assert [len(row) for row in rows] == [28] * 28
        assert {x for row in rows for x in row} == {-1, 0, 1}


def test_bivector_terms():
    assert ref.bivector_terms("+123 -145") == {(2, 3): 1, (4, 5): -1}
    with pytest.raises(ValueError, match="i\\*sqrt3"):
        ref.bivector_terms("-1j13 +168")


def test_bivector_parts_split_the_unit_and_the_i_sqrt3_terms():
    assert ref.bivector_parts("-1j13 +168 -157") == ({(6, 8): 1, (5, 7): -1}, {(1, 3): -1})
    assert ref.bivector_parts("+123 -145") == ({(2, 3): 1, (4, 5): -1}, {})


def test_line_tables_decode_to_lines_of_four_terms():
    for lines, count in ((ref.SIGMA_LINES, 28), (ref.TAU_LINES, 28), (ref.F_FORMS, 21)):
        table = ref.line_table(lines)
        assert len(table) == count
        assert all(len(terms) == 4 for terms in table.values())
        assert all(i < j for (i, j) in table)


def test_generator_lists_decode_to_lines_of_two_terms():
    for lines, count in ((ref.G2_GENERATORS, 14), (ref.SPIN7_GENERATORS, 21)):
        assert len(lines) == count
        assert all(len(ref.bivector_terms(line)) == 2 for line in lines)


def test_each_eigenvector_line_has_one_i_sqrt3_term():
    for line in ref.SIGMA_OMEGA_EIGENVECTORS + ref.SIGMA_OMEGABAR_EIGENVECTORS:
        a, b = ref.bivector_parts(line)
        assert len(a) == 3 and len(b) == 1
        assert set(a.values()) | set(b.values()) <= {1, -1}
