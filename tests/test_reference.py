import random

import pytest

from spinbits import reference as ref
from spinbits import triality, verify


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


# -- every table is read by a named check: poisoning one entry fails it -----

# each criterion's check_* that reads tables, run alone with no samples
CHECKS = {
    "C3": lambda report: verify.check_triality(report),
    "C4": lambda report: verify.check_g2(report, 0, random.Random(1)),
    "C6": lambda report: verify.check_forms(report),
    "C7": lambda report: verify.check_octonions(report, 0),
    "C8": lambda report: verify.check_fields(report, 0, random.Random(1)),
}

# the criterion that reads each table
OWNERS = {
    **dict.fromkeys(("SIGMA_LINES", "TAU_LINES", "SIGMA_MATRIX", "TAU_MATRIX", "SPIN7_GENERATORS",
                     "TAU_MINUS_EIGENVECTORS", "SIGMA_OMEGA_EIGENVECTORS", "SIGMA_OMEGABAR_EIGENVECTORS"), "C3"),
    **dict.fromkeys(("G2_GENERATORS", "G2_ACTION_DISPLAY"), "C4"),
    **dict.fromkeys(("OMEGA_TERMS", "PHI_FORM_TERMS", "F_FORMS"), "C6"),
    **dict.fromkeys(("OCT_TABLE", "PHI_TABLE"), "C7"),
    **dict.fromkeys(("V_ROWS", "V_ROW_TYPOS"), "C8"),
}

TABLES = sorted(name for name in vars(ref) if name.isupper() and not name.startswith("_"))


def poison_entry(entry):
    """The entry with one sign changed: a string's first sign flipped (an
    unsigned row gets a minus on its first token), an int negated, a
    (sign, term) pair's sign negated."""
    if isinstance(entry, str):
        signs = [entry.index(c) for c in "+-" if c in entry]
        if not signs:
            return "-" + entry
        i = min(signs)
        return entry[:i] + "+-"[entry[i] == "+"] + entry[i + 1:]
    if isinstance(entry, int):
        return -entry
    sign, term = entry
    return -sign, term


def poisoned(table):
    """The table with its first entry poisoned."""
    if isinstance(table, dict):
        key = next(iter(table))
        return {**table, key: poison_entry(table[key])}
    return [poison_entry(table[0])] + table[1:]


@pytest.mark.parametrize("name", TABLES)
def test_a_poisoned_table_fails_a_named_check_of_its_criterion(monkeypatch, name):
    assert name in OWNERS, f"no check is known to read reference.{name}: add its owner, or delete the table"
    criterion = OWNERS[name]
    monkeypatch.setattr(ref, name, poisoned(getattr(ref, name)))
    triality.g2_generators.cache_clear()  # the one cache that parses a table
    try:
        report = verify.Report()
        CHECKS[criterion](report)
    finally:
        triality.g2_generators.cache_clear()
    failed = [c.name for c in report.checks if not c.passed]
    assert failed and all(n.startswith(f"{criterion} ") for n in failed), failed
