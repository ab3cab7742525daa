"""Fixtures shared by the test modules."""

import pytest

from spinbits import reference as ref


@pytest.fixture
def flipped_sigma_table(monkeypatch):
    """Adds 1 to the first entry of the tabulated sigma* array that C3 compares with."""
    tabulated = ref.outer_matrix_expected

    def flipped(which):
        rows = tabulated(which)
        if which == "sigma":
            rows[0][0] += 1
        return rows

    monkeypatch.setattr(ref, "outer_matrix_expected", flipped)
