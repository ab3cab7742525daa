"""Fixtures shared by the test modules."""

import os
from pathlib import Path

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


@pytest.fixture
def src_env():
    """The environment of a subprocess that imports spinbits from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
