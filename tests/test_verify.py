import json
import random
import subprocess
import sys
from fractions import Fraction

from spinbits import verify
from spinbits.verify import Check, Report

from scalar_oracle import scalar_of

# every module perfbench/tracer.py wraps a function of
TRACED = ("scalars", "clifford", "spinors", "matrices", "triality", "forms", "octonions", "fields", "verify")
DEFERRED = ("dataclasses", "inspect", "ast", "json", "spinbits.reference")


def test_cli_import_loads_the_traced_modules_and_nothing_deferred(src_env):
    names = DEFERRED + tuple(f"spinbits.{m}" for m in TRACED)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, spinbits.cli; print(*[n in sys.modules for n in {names!r}])"],
        capture_output=True, text=True, env=src_env, check=True,
    ).stdout.split()
    loaded = dict(zip(names, (flag == "True" for flag in out)))
    assert [n for n in DEFERRED if loaded[n]] == []
    assert [m for m in TRACED if not loaded[f"spinbits.{m}"]] == []


def test_check_keeps_fields_repr_and_passed():
    c = Check("C0 x", "pass")
    assert (c.name, c.status, c.witness, c.passed) == ("C0 x", "pass", None, True)
    assert repr(c) == "Check(name='C0 x', status='pass', witness=None)"
    assert not Check("C0 y", "fail", {"n": 3}).passed


def test_report_round_trips_through_json():
    rep = Report([("C0 a", True)])
    rep.add("C0 b", False, {"N": 8, "point": 1})
    assert rep.checks == [Check("C0 a", "pass"), Check("C0 b", "fail", {"N": 8, "point": 1})]
    assert json.loads(json.dumps(rep.to_json())) == rep.to_json() == {
        "checks": [
            {"name": "C0 a", "status": "pass", "witness": None},
            {"name": "C0 b", "status": "fail", "witness": {"N": 8, "point": 1}},
        ],
        "pass": 1,
        "fail": 1,
    }
    assert (rep.pass_count, rep.fail_count, rep.exit_code()) == (1, 1, 1)


def fraction_rand_scalar(rng):
    """Oracle for verify._rand_scalar: the same draws as Fraction pairs."""
    comps = {}
    for rad in (1, 2, 3, 6):
        if rng.random() < 0.5:
            comps[rad] = (
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
    return scalar_of(comps)


def test_rand_scalar_equals_the_fraction_route_and_keeps_the_stream():
    for seed in (1, 3, 7):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(1000):
            x, y = verify._rand_scalar(a), fraction_rand_scalar(b)
            assert (x, x.to_json(), repr(x)) == (y, y.to_json(), repr(y))
        assert a.getstate() == b.getstate()


def test_hermitian_identities_apply_gamma_once_per_spinor(monkeypatch):
    calls = []
    real = verify.real_structure
    monkeypatch.setattr(verify, "real_structure", lambda n, psi: calls.append(n) or real(n, psi))
    counts = []
    for samples in (0, 30):
        calls.clear()
        report = verify.Report()
        verify.check_structure_maps(report, samples, random.Random(1))
        assert report.fail_count == 0
        counts.append(len(calls))
    assert counts[1] - counts[0] == 2 * 30


def test_verify_all_draws_no_randint(monkeypatch):
    """Every sampled check draws through scalars.draw_ints (or random/choice)."""
    def refuse(*args):
        raise AssertionError("randint or randrange called")

    monkeypatch.setattr(random.Random, "randint", refuse)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    assert verify.verify_all(seed=7).fail_count == 0


def test_sampled_checks_keep_the_randint_stream():
    """C4's and C10's draws, replayed through randint and randrange, leave the
    rng in the same state, so every sample is the one drawn before."""
    for samples in (1, 5, 30):
        mine, theirs = random.Random(samples), random.Random(samples)
        verify.check_g2(verify.Report(), samples, mine)
        for _ in range(min(5, samples) * 14):
            theirs.randint(-4, 4), theirs.randint(1, 3)
        assert mine.getstate() == theirs.getstate()
        verify.check_structure_maps(verify.Report(), samples, mine)
        for _ in range(samples):
            n = theirs.choice([2, 4, 6, 8, 10, 12])
            for _ in range(2 * 3):  # two spinors of three terms
                theirs.randrange(1 << (n // 2))
                fraction_rand_scalar(theirs)
            theirs.randint(1, n)
        assert mine.getstate() == theirs.getstate()


def test_a_criterion_that_raises_is_one_named_fail_and_the_rest_still_run(monkeypatch, capsys):
    from spinbits.cli import main

    names = [c.name for c in verify.verify_all().checks]

    def broken(which):
        raise ValueError(f"no {which} today")

    monkeypatch.setattr(verify, "build_outer", broken)  # C3 alone reads it through verify
    kept = [name for name in names if not name.startswith("C3 ")]
    at = next(i for i, name in enumerate(names) if name.startswith("C3 "))
    want = [f"[PASS] {name}" for name in kept]
    want.insert(at, "[FAIL] C3 check_triality raised")
    assert main(["verify-all"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == want + [f"{len(kept)} passed, 1 failed"] and err == ""

    assert main(["verify-all", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c for c in report["checks"] if c["status"] == "fail"] == [
        {"name": "C3 check_triality raised", "status": "fail", "witness": {"error": "ValueError: no sigma today"}}]
    assert (report["pass"], report["fail"]) == (len(kept), 1)
