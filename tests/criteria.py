"""Each criterion of the certificate run alone, as ``verify_all`` runs it,
with one attribute of a ``spinbits`` module replaced and every cache of the
package cleared around the run."""

import contextlib
import random
import sys

import pytest

from spinbits import verify
from spinbits.verify import Report

# verify_all's seed and max_n, and the fewest samples that keep the failing
# set of every row of test_acceptance.CORRUPTIONS: below 15, C10 draws no
# pair at n = 6, so a wrong gamma^2 sign there fails the squares alone
SEED, SAMPLES, MAX_N = 1, 15, 12

# each check_* looked up when it runs, so a rebound one is the one called,
# with a fresh generator of its own
CRITERIA = {
    "C1": lambda report: verify.check_kernel_oracle(report, MAX_N),
    "C2": lambda report: verify.check_golden_matrices(report),
    "C3": lambda report: verify.check_triality(report),
    "C4": lambda report: verify.check_g2(report, SAMPLES, random.Random(SEED)),
    "C5": lambda report: verify.check_center(report),
    "C6": lambda report: verify.check_forms(report),
    "C7": lambda report: verify.check_octonions(report, SAMPLES),
    "C8": lambda report: verify.check_fields(report, SAMPLES, random.Random(SEED)),
    "C9": lambda report: verify.check_delta_iso(report),
    "C10": lambda report: verify.check_structure_maps(report, SAMPLES, random.Random(SEED), MAX_N),
}


@contextlib.contextmanager
def fresh_caches():
    """Clears every functools cache in a spinbits module's globals on entry
    and on exit, so that no cached value built from a stand-in leaks into a
    later run."""
    caches = {value for name, module in list(sys.modules.items()) if name.split(".")[0] == "spinbits"
              for value in vars(module).values() if hasattr(value, "cache_clear")}
    for cache in caches:
        cache.cache_clear()
    try:
        yield
    finally:
        for cache in caches:
            cache.cache_clear()


def failures(criterion, module, attribute, replace):
    """{name: witness} of the checks of ``criterion`` that fail with
    ``module.attribute`` replaced by ``replace(original)``, between fresh
    caches.  A name that the criterion reports twice must fail at both
    places."""
    report = Report()
    with fresh_caches(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, attribute, replace(getattr(module, attribute)))
        CRITERIA[criterion](report)
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert not failed.keys() & {c.name for c in report.checks if c.passed}, "a twice-reported name differs"
    return failed
