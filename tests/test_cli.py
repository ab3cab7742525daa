import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spinbits import cli, octonions
from spinbits.cli import MAX_DENSE_N, MAX_SPHERE, MAX_SPINOR_N, build_parser, main, parse_word
from spinbits.matrices import MAX_ORACLE_N, Monomial, kappa_matrix, kappa_pm_matrix, lambda_matrix
from spinbits.scalars import I, Scalar
from spinbits.spinors import Spinor
from spinbits.triality import g2_action_matrix
from spinbits.verify import verify_all


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_perfbench(name):
    """A module of the benchmark in perfbench/, which is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


def test_parse_word():
    assert parse_word("e1e2") == [1, 2]
    assert parse_word("e10e2") == [10, 2]
    with pytest.raises(Exception):
        parse_word("x1")


def test_spinor_mul_json(capsys):
    code, out = run(capsys, "spinor", "mul", "--n", "8", "--p", "5", "--index", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"index": 15, "coeff": {"1": {"re": "0/1", "im": "1/1"}}}
    ]
    assert payload == Spinor.basis(4, 15, I).to_json()


def test_spinor_mul_range_error(capsys):
    code, _ = run(capsys, "spinor", "mul", "--n", "6", "--p", "9", "--index", "0")
    assert code == 2


def test_spinor_mul_prints_every_image_up_to_the_cap(capsys):
    # e_n at even n flips the top bit: the image index 2^(n/2 - 1) must print
    cap = str(MAX_SPINOR_N)
    for fmt in ("text", "json", "latex"):
        code, out = run(capsys, "spinor", "mul", "--n", cap, "--p", cap, "--index", "0", "--format", fmt)
        assert code == 0 and str(1 << (MAX_SPINOR_N // 2 - 1)) in out, fmt
    above = str(MAX_SPINOR_N + 1)
    assert exit_code(["spinor", "mul", "--n", above, "--p", above, "--index", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_readme_states_the_caps():
    text = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    start = text.index("Fixed caps bound every flag")
    caps = text[start:text.index("## ", start)]
    dense_n = max(n for n in range(1, 64) if 1 << (n // 2) <= MAX_DENSE_N)
    default_max_n = build_parser().parse_args(["verify-all"]).max_n
    stated = {
        f"`verify-all --max-n` takes 2..{MAX_ORACLE_N} (default {default_max_n})": (2, MAX_ORACLE_N, default_max_n),
        f"at most {MAX_DENSE_N} rows": (MAX_DENSE_N,),
        f"(dimension up to 2^(n/2)) takes n <= {dense_n}": (2, 2, dense_n),
        f"take n, N <= {MAX_DENSE_N}": (MAX_DENSE_N,),
        f"`fields --sphere` is at most {MAX_SPHERE} (N = {MAX_SPHERE + 1})": (MAX_SPHERE, MAX_SPHERE + 1),
        f"`spinor mul --n` at most {MAX_SPINOR_N}.": (MAX_SPINOR_N,),
        "exits `2`": (2,),
    }
    for phrase in stated:
        assert phrase in caps, phrase
    # no other number in the paragraph (criterion names such as C10 aside)
    numbers = {int(t) for t in re.findall(r"(?<!\w)\d+", caps)}
    assert numbers == {x for values in stated.values() for x in values}


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_rep_matrix_json(capsys):
    code, out = run(
        capsys, "rep", "matrix", "--n", "6", "--word", "e1e2", "--space", "full",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == kappa_matrix(6, [1, 2]).to_matrix().to_json()
    assert payload["rows"] == payload["cols"] == 8


def test_rep_matrix_vector_space(capsys):
    code, out = run(
        capsys, "rep", "matrix", "--n", "6", "--word", "e1e2", "--space", "vector",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == lambda_matrix(6, [1, 2]).to_json()
    assert payload["rows"] == 6


def test_rep_matrix_chirality_spaces(capsys):
    for space, sign in (("plus", 1), ("minus", -1)):
        code, out = run(
            capsys, "rep", "matrix", "--n", "8", "--word", "e1e2",
            "--space", space, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == kappa_pm_matrix(8, [1, 2], sign).to_matrix().to_json()
        assert payload["rows"] == payload["cols"] == 8


def test_rep_matrix_dense_spaces_are_capped(capsys):
    # checked before any matrix is built: 2^20 x 2^20 would never finish
    for space in ("full", "plus", "minus", "real-plus", "real-minus"):
        code = main(["rep", "matrix", "--n", "40", "--word", "e1e2", "--space", space])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: --n 40 is above 21 for the dense {space} space (dimension up to 2^20, "
            f"above {MAX_DENSE_N}); --space vector allows n <= {MAX_DENSE_N}\n"
        )
    code, out = run(capsys, "rep", "matrix", "--n", "40", "--word", "e1e2",
                    "--space", "vector", "--format", "json")
    assert code == 0
    assert json.loads(out) == lambda_matrix(40, [1, 2]).to_json()


def test_rep_matrix_dense_cap_is_dimension_1024(capsys):
    code, out = run(capsys, "rep", "matrix", "--n", "21", "--word", "e1e2", "--space", "full")
    assert code == 0 and len(out.splitlines()) == MAX_DENSE_N == 1024
    for n in ("22", str(10**40)):
        start = time.perf_counter()
        assert main(["rep", "matrix", "--n", n, "--word", "e1e2", "--space", "full"]) == 2
        assert time.perf_counter() - start < 1.0, n
        assert capsys.readouterr().out == ""


def test_rep_matrix_bad_space_word(capsys):
    code, _ = run(
        capsys, "rep", "matrix", "--n", "8", "--word", "e1", "--space", "plus",
    )
    assert code == 2


def test_triality_check_order(capsys):
    code, out = run(capsys, "triality", "sigma", "--check-order")
    assert code == 0
    assert "order 3" in out
    code, out = run(capsys, "triality", "tau", "--check-order")
    assert code == 0


def test_triality_eigen(capsys):
    code, out = run(capsys, "triality", "sigma", "--eigen", "omega", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 7


def test_triality_s3_and_center(capsys):
    code, out = run(capsys, "triality", "s3")
    assert code == 0
    assert "0 failed" in out
    code, out = run(capsys, "triality", "center")
    assert code == 0
    assert "sigma(-1)" in out


def test_triality_g2_generators(capsys):
    code, out = run(capsys, "triality", "g2", "--generators", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 14


def test_triality_g2_matrix(capsys):
    alphas = ",".join(["1"] + ["0"] * 13)
    code, out = run(capsys, "triality", "g2", "--matrix", alphas, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == g2_action_matrix([1] + [0] * 13).to_json()
    assert payload["entries"][1][2] == Scalar.rational(2).to_json()


def test_octonion_table_json(capsys):
    code, out = run(capsys, "octonion", "table", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert table[1][2] == [-1, 3]


def test_octonion_check(capsys):
    code, out = run(capsys, "octonion", "check", "--samples", "10", "--seed", "3")
    assert code == 0
    assert "0 failed" in out


def test_octonion_quaternions(capsys):
    code, out = run(capsys, "octonion", "quaternions")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_forms_commands(capsys):
    code, out = run(capsys, "forms", "omega", "--check-square")
    assert code == 0
    assert "504" in out
    code, out = run(capsys, "forms", "phi", "--latex")
    assert code == 0
    assert "dx_{2}" in out


def test_fields_coords(capsys):
    code, out = run(capsys, "fields", "--sphere", "31", "--emit", "coords")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("(-v2, v1, v4, -v3,")


def test_fields_matrices_and_verify(capsys):
    code, out = run(capsys, "fields", "--sphere", "7", "--emit", "matrices", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stage"] == 8 and len(payload["matrices"]) == 7
    code, out = run(capsys, "fields", "--sphere", "15", "--verify", "--samples", "4")
    assert code == 0
    assert "0 failed" in out


def test_fields_split_usage_error(capsys):
    code, _ = run(capsys, "fields", "--sphere", "31", "--split", "1,1")
    assert code == 2


def test_verify_all_sampleless_golden_only(capsys):
    code, out = run(
        capsys, "verify-all", "--samples", "0", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == verify_all(seed=1, samples=0, max_n=6).to_json()
    assert payload["fail"] == 0
    assert payload["pass"] == len(payload["checks"])


def test_report_json_payload():
    rep = verify_all(seed=1, samples=0, max_n=4)
    payload = rep.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["checks"] == [
        {"name": c.name, "status": c.status, "witness": c.witness} for c in rep.checks
    ]
    assert (payload["pass"], payload["fail"], rep.exit_code()) == (len(rep.checks), 0, 0)


def test_fault_injection_hits_exactly_one_check(flipped_sigma_table):
    rep = verify_all(seed=1, samples=0, max_n=4)
    fails = [c.name for c in rep.checks if not c.passed]
    assert fails == ["C3 sigma* equals the tabulated 28x28 array"]
    assert rep.exit_code() == 1


@pytest.mark.parametrize("command", workloads.CLI_COMMANDS)
def test_readme_command_matches_golden(capsys, command):
    argv = command.split()
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == workloads.golden(argv)


def test_verify_all_matches_golden(capsys):
    # all 81 check names, in order, with their statuses and the tally
    code, out = run(capsys, "verify-all")
    assert code == 0
    assert out.encode() == workloads.golden(["verify-all"])


def test_verify_all_names_a_moved_label_as_c7_fails(capsys, monkeypatch):
    """Row 1 of both real tables with the images of columns 0 and 3 exchanged
    moves a label: every check still runs and prints, 11 of C7's FAIL, exit 1."""
    real_table = octonions.real_clifford_table

    def moved_label(n):
        rows = list(real_table(n))
        perm = list(rows[1].perm)
        perm[0], perm[3] = perm[3], perm[0]
        rows[1] = Monomial(perm, rows[1].phase)
        return rows

    monkeypatch.setattr(octonions, "real_clifford_table", moved_label)
    octonions._product_picks.cache_clear()  # octonion_mul's picks are read off the unit table once
    try:
        code, out = run(capsys, "verify-all")
    finally:
        octonions._product_picks.cache_clear()
    lines, golden = out.splitlines(), workloads.golden(["verify-all"]).decode().splitlines()
    assert code == 1 and lines[-1] == "70 passed, 11 failed"
    assert [line[7:] for line in lines[:-1]] == [line[7:] for line in golden[:-1]]  # the 81 names
    failed = [line[7:] for line in lines if line.startswith("[FAIL] ")]
    assert len(failed) == 11 and all(name.startswith("C7 ") for name in failed)


@pytest.mark.parametrize("value", ["1", "abc", "40"])
def test_output_does_not_depend_on_the_environment(src_env, value):
    # values that once set the oracle and dense caps: below, malformed and above them
    def spinbits(env, *argv):
        proc = subprocess.run([sys.executable, "-m", "spinbits.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    unset = {k: v for k, v in src_env.items() if k != "SPINBITS_MAX_N"}
    env = dict(unset, SPINBITS_MAX_N=value)
    assert spinbits(env, "verify-all") == (0, workloads.golden(["verify-all"]), b"")
    argv = ("rep", "matrix", "--n", "40", "--word", "e1e2", "--space", "full")
    code, out, err = spinbits(env, *argv)
    assert (code, out, err) == spinbits(unset, *argv)
    assert code == 2 and err.startswith(b"error: --n 40 is above 21") and b"Traceback" not in err


def test_verify_all_runs_the_oracles_up_to_their_cap(src_env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spinbits.cli", "verify-all", "--max-n", str(MAX_ORACLE_N)],
        capture_output=True, text=True, env=src_env, timeout=60,
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert "[PASS] C1 bit-flip kernel equals tensor oracle for n <= 24" in lines
    assert "[PASS] C10 binary structure maps equal the tensor definitions for n <= 24" in lines


def test_verify_all_above_the_oracle_cap_builds_nothing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_all", lambda **kwargs: pytest.fail("verify_all ran"))
    assert exit_code(["verify-all", "--max-n", str(MAX_ORACLE_N + 1)]) == 2
    assert "argument --max-n: 25 is not between 2 and 24" in capsys.readouterr().err


def test_tracer_targets_resolve():
    missing = []
    for name, (modname, path) in load_perfbench("tracer").TARGETS.items():
        obj = importlib.import_module(modname)
        try:
            for attr in path.split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("command", [
    "fields --sphere 31 --split a,b",
    "triality g2 --matrix 1,x,0,0,0,0,0,0,0,0,0,0,0,0",
    "triality g2 --matrix",
    "spinor mul --n -2 --p 1 --index 0",
    "verify-all --max-n 25",
    "octonion check --samples -3",
    "rep matrix --n 40 --word e1e2",
    "fields --sphere 65535",
    "fields --sphere 2047 --emit matrices",
    "rep matrix --n 1000000 --word e1e2 --space vector",
    "spinor mul --n 100000000000000000000 --p 1 --index 0",
    "triality g2 --matrix 1e99999999999,0,0,0,0,0,0,0,0,0,0,0,0,0",
    "fields --sphere 23 --split=-1,4",
    "spinor mul --n=-- --p 5 --index 11",
    "triality s3 --eigen omega --generators",
    "triality center --matrix 1,0,0,0,0,0,0,0,0,0,0,0,0,0",
    "forms phi --check-square",
    "triality g2 --check-order",
    "triality sigma --generators",
    "rep matrix --n 1 --word e1e1 --space real-plus",
    "triality sigma --eigen omega --check-order",
    "triality g2 --generators --matrix 1,0,0,0,0,0,0,0,0,0,0,0,0,0",
    "forms omega --check-square --latex",
])
def test_bad_input_is_a_usage_error(capsys, command):
    assert exit_code(command.split()) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_conflicting_flags_are_named_under_the_leaf_usage(capsys):
    assert exit_code("forms omega --check-square --latex".split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spinbits forms omega [-h] [--check-square | --latex]\n")
    assert "error: argument --latex: not allowed with argument --check-square" in err


def test_a_stage_without_a_real_frame_is_named(capsys):
    assert main("rep matrix --n 1 --word e1e1 --space real-plus".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stage 1 has no real frame; the real frames start at stage 2\n"


def test_an_odd_word_with_no_real_form_to_move_to_is_named(capsys):
    assert main("rep matrix --n 9 --word e1 --space real-plus".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: odd words need plus/minus forms on both sides\n"


def exit_code(argv):
    """main's exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def subcommands(parser):
    """The (name, parser) pairs of ``parser``'s subcommands; none for a leaf."""
    return [pair for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for pair in action.choices.items()]


def options(parser):
    """The options of ``parser`` but --help, by option string."""
    return {action.option_strings[-1]: action for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)}


# a valid value for each option that takes one and has no choices
OPTION_VALUES = {"--matrix": ",".join(["1"] + ["0"] * 13), "--samples": "5", "--seed": "3"}


def stray_flags():
    """(command, flag) for each flag that a sibling leaf declares and this leaf does not."""
    cases = []
    for command, group in subcommands(build_parser()):
        leaves = {name: options(leaf) for name, leaf in subcommands(group)}
        declared = {flag: action for own in leaves.values() for flag, action in own.items()}
        for name, own in leaves.items():
            for flag in sorted(declared.keys() - own.keys()):
                action = declared[flag]
                value = ([] if action.nargs == 0 else
                         [action.choices[0] if action.choices else OPTION_VALUES[flag]])
                cases.append((" ".join([command, name, flag, *value]), flag))
    return cases


@pytest.mark.parametrize("command, flag", list(dict.fromkeys([
    ("triality s3 --eigen omega --generators", "--eigen"),
    ("triality center --matrix 1,0,0,0,0,0,0,0,0,0,0,0,0,0", "--matrix"),
    ("forms phi --check-square", "--check-square"),
    ("triality tau --generators", "--generators"),
    ("octonion table --samples 5 --seed 3", "--samples"),
    *stray_flags(),
])))
def test_a_flag_for_another_positional_is_named(capsys, command, flag):
    assert exit_code(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: unrecognized arguments: {flag}" in captured.err
    assert "Traceback" not in captured.err


def help_paths(parser, path=()):
    """The argv prefix of every command and every leaf under ``parser``."""
    yield path
    for name, child in subcommands(parser):
        yield from help_paths(child, path + (name,))


@pytest.mark.parametrize("path", list(help_paths(build_parser())),
                         ids=lambda path: " ".join(("spinbits",) + path))
def test_help_exits_0_for_every_command_and_leaf(capsys, path):
    assert exit_code([*path, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: {' '.join(('spinbits',) + path)}")
    assert captured.err == ""


def test_a_closed_pipe_ends_quietly(src_env):
    # 328 kB of output fill the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinbits.cli", "fields", "--sphere", "2047", "--emit", "coords"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env,
    )
    assert proc.stdout.readline().startswith(b"(")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    with proc.stderr:
        assert proc.stderr.read() == b""


# -- fuzz: bad values for every numeric or word flag --------------------------

# no digit in the alphabet, so no draw parses as an int or spells a valid
# choice, generator word or eigenvalue; argparse before Python 3.12 reads
# "--flag=--" as an empty list, so "--" is always among the draws
non_numeric = st.one_of(st.just("--"), st.text(st.sampled_from("abcxyz,./+-_ "), min_size=1))
bad_word = st.text(st.sampled_from("abcxyz,./+-_ "))  # empty included
empty = st.just("")


def below(bound):
    return st.integers(max_value=bound - 1).map(str)


def above(bound):
    return st.integers(min_value=bound + 1, max_value=10**40).map(str)


def bad_int(low, high=None):
    """Bad values of an int flag that must lie in [low, high]."""
    options = [below(low), empty, non_numeric]
    if high is not None:
        options.append(above(high))
    return st.one_of(options)


seed = st.one_of(empty, non_numeric)  # every int is a valid seed
pair = st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))

# (command with "{}" where the bad value goes, strategy of bad values);
# --samples and --seed take any large value, so they get no huge draw
FUZZ = {
    "spinor --n": ("spinor mul --n={} --p 5 --index 11", bad_int(1, MAX_SPINOR_N)),
    "spinor --p": ("spinor mul --n 8 --p={} --index 11", bad_int(1, 8)),
    "spinor --index": ("spinor mul --n 8 --p 5 --index={}", bad_int(0, 15)),
    "spinor --format": ("spinor mul --n 8 --p 5 --index 11 --format={}", bad_word),
    "rep --n": ("rep matrix --n={} --word e1e2 --space full", bad_int(1, 21)),
    "rep --n vector": ("rep matrix --n={} --word e1e2 --space vector", bad_int(1, MAX_DENSE_N)),
    "rep --word": ("rep matrix --n 6 --word={} --space full", st.one_of(
        non_numeric, st.sampled_from(["e0", "e", "1e", "e1x"]),
        st.integers(7, 10**40).map(lambda k: f"e{k}"))),
    "rep --word chiral": ("rep matrix --n 6 --word={} --space plus",
                          st.sampled_from(["e1", "e1e2e3", "e6"])),
    "rep --space": ("rep matrix --n 6 --word e1e2 --space={}", bad_word),
    "rep --format": ("rep matrix --n 6 --word e1e2 --format={}", bad_word),
    "triality what": ("triality {}", bad_word),
    "triality --eigen": ("triality sigma --eigen={}", st.one_of(
        bad_word, st.integers().filter(lambda k: k not in (1, -1)).map(str))),
    "triality --matrix": ("triality g2 --matrix={}", st.one_of(
        empty, non_numeric,
        st.lists(st.integers(-9, 9).map(str), min_size=1, max_size=30)
        .filter(lambda xs: len(xs) != 14).map(",".join),
        st.integers(1, 10**12).map(lambda e: ",".join([f"1e{e}"] + ["0"] * 13)))),
    "triality --format": ("triality s3 --format={}", bad_word),
    "octonion what": ("octonion {}", bad_word),
    "octonion --samples": ("octonion check --samples={} --seed 3", bad_int(0)),
    "octonion --seed": ("octonion check --samples 2 --seed={}", seed),
    "octonion --format": ("octonion table --format={}", bad_word),
    "forms what": ("forms {}", bad_word),
    "fields --sphere": ("fields --sphere={}", bad_int(1, MAX_SPHERE)),
    "fields --sphere matrices": ("fields --sphere={} --emit matrices",
                                 st.integers(MAX_DENSE_N, MAX_SPHERE).map(str)),
    "fields --samples": ("fields --sphere 15 --verify --samples={}", bad_int(0)),
    "fields --seed": ("fields --sphere 15 --verify --samples 2 --seed={}", seed),
    "fields --split": ("fields --sphere 23 --split={}", st.one_of(
        empty, non_numeric,  # 3 copies of the 8-dimensional module fill N = 24
        pair.filter(lambda p: p not in {(3, 0), (2, 1), (1, 2), (0, 3)}).map("{0[0]},{0[1]}".format))),
    "fields --emit": ("fields --sphere 15 --emit={}", bad_word),
    "fields --format": ("fields --sphere 15 --format={}", bad_word),
    "verify-all --seed": ("verify-all --samples 0 --max-n 4 --seed={}", seed),
    "verify-all --samples": ("verify-all --max-n 4 --samples={}", bad_int(0)),
    "verify-all --max-n": ("verify-all --samples 0 --max-n={}", bad_int(2, MAX_ORACLE_N)),
    "verify-all --format": ("verify-all --samples 0 --max-n 4 --format={}", bad_word),
}


@pytest.mark.parametrize("case", sorted(FUZZ))
def test_fuzzed_bad_flag_is_a_usage_error(case):
    template, values = FUZZ[case]

    @given(values)
    @settings(max_examples=8, deadline=None)
    def check(value):
        argv = [t.format(value) if "{}" in t else t for t in template.split()]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = exit_code(argv)
        assert code == 2, argv
        assert "Traceback" not in err.getvalue()
        assert time.perf_counter() - start < 5.0, argv

    check()


@pytest.mark.parametrize("command", [
    "fields --sphere 15 --samples 5 --seed 9",
    "fields --sphere 15 --seed 9",
    "fields --sphere 15 --emit matrices --samples 0",
])
def test_fields_rejects_samples_and_seed_without_verify(capsys, command):
    assert exit_code(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples and --seed apply only with --verify" in captured.err


def test_fields_verify_keeps_its_default_samples_and_seed(capsys):
    code, out = run(capsys, "fields", "--sphere", "15", "--verify")
    assert code == 0 and "exact Gram frames at 20 random points" in out
    assert main("fields --sphere 15 --verify --samples 20 --seed 1".split()) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("command, leaf, stray", [
    ("triality s3 --eigen omega", "triality s3", "--eigen omega"),
    ("octonion table --samples 5 --seed 3", "octonion table", "--samples 5 --seed 3"),
    ("forms phi --check-square", "forms phi", "--check-square"),
    ("fields --sphere 15 --eigen omega", "fields", "--eigen omega"),
    ("verify-all --samples 0 --max-n 4 extra", "verify-all", "extra"),
])
def test_a_stray_argument_is_reported_by_its_leaf(capsys, command, leaf, stray):
    assert exit_code(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"usage: spinbits {leaf} ")
    assert f"spinbits {leaf}: error: unrecognized arguments: {stray}\n" in captured.err
