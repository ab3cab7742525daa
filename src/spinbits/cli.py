"""Command-line interface: every subsystem behind one binary.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from .clifford import clifford_apply
from .fields import (
    build_field_system,
    emit_coordinates,
    gram_is_scaled_identity,
    random_point,
    structure_failure,
)
from .forms import g2_three_form, omega_square_is_504_vol, spin7_four_form
from .matrices import (
    MAX_ORACLE_N,
    Matrix,
    kappa_matrix,
    kappa_pm_matrix,
    lambda_matrix,
    real_rep_matrix,
)
from .octonions import algebra_checks, cells, octonion_table, quaternion_table
from .scalars import ONE, Scalar
from .spinors import Spinor
from .triality import (
    build_outer,
    center_images,
    eigenspace,
    g2_action_matrix,
    g2_generators,
    g2_structure,
    omega_eigenvalue,
    s3_relations,
    to_coeffs,
)
from .verify import Report, verify_all


# Fixed caps on the flags whose cost grows without bound; a larger value
# exits 2 before anything is built.  S^16383 (N = 16384) builds in about
# 2 s; a basic spinor index is an int below 2^(n/2), which prints (at most
# 4300 digits, Python's default) only for n/2 <= 14284.  No dense output has
# more than MAX_DENSE_N rows: the N x N field matrices and the n x n vector
# matrix (about 10 s at 300 MiB for N, n = 1024), and the spinor-space
# matrices of dimension up to 2^(n/2), so n <= 21 there (under 1 s).
MAX_SPHERE = 16383
MAX_DENSE_N = 1024
MAX_SPINOR_N = 1 << 14


class UsageError(Exception):
    pass


def parse_word(text: str) -> List[int]:
    if not re.fullmatch(r"(e\d+)*", text):
        raise UsageError(f"cannot parse generator word {text!r}")
    return [int(m) for m in re.findall(r"e(\d+)", text)]


# argparse ``type=`` callables: a bad value is a usage error (exit 2)


def _int_range(low: int, high: Optional[int] = None):
    def parse(text: str) -> int:
        n = int(text)
        if n < low or (high is not None and n > high):
            bound = f"between {low} and {high}" if high is not None else f"at least {low}"
            raise argparse.ArgumentTypeError(f"{n} is not {bound}")
        return n

    parse.__name__ = "int"  # argparse names the type in its message
    return parse


def _split_pair(text: str) -> Tuple[int, int]:
    try:
        m1, m2 = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--split needs two integers m1,m2, not {text!r}")
    if m1 < 0 or m2 < 0:
        raise argparse.ArgumentTypeError(f"--split needs m1, m2 >= 0, not {text!r}")
    return m1, m2


def _g2_coefficients(text: str) -> List[Fraction]:
    # Fraction("1e99999999999") would build a 10^11-digit integer
    if "e" in text.lower():
        raise argparse.ArgumentTypeError(f"coefficients take no exponent: {text!r}")
    try:
        alphas = [Fraction(t) for t in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse coefficients {text!r}")
    if len(alphas) != 14:
        raise argparse.ArgumentTypeError("need 14 comma-separated coefficients")
    return alphas


def _to_jsonable(x):
    if hasattr(x, "to_json"):
        return x.to_json()
    raise TypeError(f"not JSON encodable: {x!r}")


def _emit(fmt: str, value, text: Optional[str] = None, latex: Optional[str] = None) -> int:
    """Print a subcommand's result in ``fmt`` and return its exit code.

    json encodes ``value``; latex prints ``value.latex()``, else ``latex``,
    else the text form; text is ``text``, else ``repr(value)``.  A Report
    prints one line per check and a tally, and exits 1 on a failure.
    """
    if fmt == "json":
        import json

        print(json.dumps(value, default=_to_jsonable))
    elif isinstance(value, Report):
        for c in value.checks:
            print(f"[{c.status.upper():4}] {c.name}")
        print(f"{value.pass_count} passed, {value.fail_count} failed")
    elif fmt == "latex" and hasattr(value, "latex"):
        print(value.latex())
    elif fmt == "latex" and latex is not None:
        print(latex)
    else:
        print(repr(value) if text is None else text)
    return value.exit_code() if isinstance(value, Report) else 0


def _signed_rows(table) -> str:
    return "\n".join(" ".join(f"{'-' if s < 0 else '+'}e{i}" for (s, i) in row) for row in table)


def cmd_spinor(args) -> int:
    n, p, a = args.n, args.p, args.index
    k = n // 2
    if not 0 <= a < (1 << k):
        raise UsageError(f"index {a} out of range for n={n}")
    if not 1 <= p <= n:
        raise UsageError(f"generator {p} out of range for n={n}")
    return _emit(args.format, clifford_apply(n, p, Spinor.basis(k, a)))


def cmd_rep(args) -> int:
    word = parse_word(args.word)
    n = args.n
    space = args.space
    # every space but the vector one has dimension up to 2^(n/2); compare
    # exponents, as --n may be far too large to shift by
    if space != "vector" and n // 2 >= MAX_DENSE_N.bit_length():
        raise UsageError(
            f"--n {n} is above {2 * MAX_DENSE_N.bit_length() - 1} for the dense "
            f"{space} space (dimension up to 2^{n // 2}, above {MAX_DENSE_N}); "
            f"--space vector allows n <= {MAX_DENSE_N}"
        )
    if n > MAX_DENSE_N:
        raise UsageError(f"--n {n} is above {MAX_DENSE_N} for the n x n vector matrix")
    try:
        if space == "full":
            M = kappa_matrix(n, word).to_matrix()
        elif space in ("plus", "minus"):
            M = kappa_pm_matrix(n, word, 1 if space == "plus" else -1).to_matrix()
        elif space in ("real-plus", "real-minus"):
            source = "plus" if space == "real-plus" else "minus"
            if n % 8 in (1, 2) and space == "real-plus":
                source = "full"  # single real form at these stages
            M = real_rep_matrix(n, word, source)
        else:
            M = lambda_matrix(n, word)
    except ValueError as e:
        raise UsageError(str(e))
    return _emit(args.format, M)


# the choices of ``triality sigma/tau --eigen``, each with a builder of its value
_EIGENVALUES = {
    "1": lambda: ONE,
    "-1": lambda: -ONE,
    "omega": omega_eigenvalue,
    "omega-bar": lambda: omega_eigenvalue(True),
}


def cmd_outer(args) -> int:
    outer = build_outer(args.what)
    if args.check_order:
        order = 3 if args.what == "sigma" else 2
        ok = reduce(Matrix.__mul__, [outer] * order) == Matrix.identity(28)
        return _emit(args.format, Report([(f"{args.what}* has order {order}", ok)]))
    if args.eigen is not None:
        basis = eigenspace(outer, _EIGENVALUES[args.eigen]())
        payload = {
            "eigenvalue": args.eigen,
            "dimension": basis.rows,
            "basis": [
                {f"{i}{j}": c for (i, j), c in to_coeffs(row).items()} for row in basis.data
            ],
        }
        return _emit(args.format, payload, text=f"dimension {basis.rows}")
    return _emit(args.format, outer)


def cmd_g2(args) -> int:
    if args.generators:
        payload = [
            {f"{i}{j}": Scalar.rational(c) for (i, j), c in g.items()} for g in g2_generators()
        ]
        return _emit(args.format, payload, text="\n".join(str(p) for p in payload))
    if args.matrix is not None:
        return _emit(args.format, g2_action_matrix(args.matrix))
    return _emit(args.format, Report(g2_structure()))


def cmd_s3(args) -> int:
    return _emit(args.format, Report(s3_relations()))


def cmd_center(args) -> int:
    rows = [
        (which, key, elem)
        for which in ("sigma", "tau")
        for key, elem in center_images(which).items()
    ]
    payload = [{"map": w, "argument": k, "image": repr(e)} for (w, k, e) in rows]
    return _emit(args.format, payload, text="\n".join(f"{w}({k}) = {e}" for w, k, e in rows))


def cmd_octonion_table(args) -> int:
    table = list(map(cells, octonion_table()))
    body = " \\\\\n".join(
        " & ".join(("-" if s < 0 else "") + f"\\hat e_{{{i}}}" for (s, i) in row)
        for row in table
    )
    latex = "\\begin{array}{%s}\n%s\n\\end{array}" % ("c" * 8, body)
    return _emit(args.format, table, text=_signed_rows(table), latex=latex)


def cmd_octonion_check(args) -> int:
    return _emit(args.format, Report(algebra_checks(args.samples, args.seed)))


def cmd_quaternions(args) -> int:
    table = list(map(cells, quaternion_table()))
    return _emit(args.format, table, text=_signed_rows(table))


def cmd_omega(args) -> int:
    if args.check_square:
        return _emit("text", Report([("omega wedge omega = 504 vol", omega_square_is_504_vol())]))
    return _emit("latex" if args.latex else "text", spin7_four_form())


def cmd_phi(args) -> int:
    return _emit("latex" if args.latex else "text", g2_three_form())


def cmd_fields(args) -> int:
    N = args.sphere + 1
    if not args.verify and (args.samples is not None or args.seed is not None):
        raise UsageError("--samples and --seed apply only with --verify")
    if args.emit == "matrices" and not args.verify and N > MAX_DENSE_N:
        raise UsageError(f"--emit matrices prints N x N matrices; N = {N} is above {MAX_DENSE_N}")
    try:
        system = build_field_system(N, split=args.split)
    except ValueError as e:
        raise UsageError(str(e))
    if args.verify:
        import random as _random

        rng = _random.Random(1 if args.seed is None else args.seed)
        samples = 20 if args.samples is None else args.samples
        ok = structure_failure(system) is None
        gram = all(gram_is_scaled_identity(system, random_point(N, rng)) for _ in range(samples))
        return _emit(args.format, Report([
            (f"structure equations for {system.field_count()} fields on S^{N-1}", ok),
            (f"exact Gram frames at {samples} random points", gram),
        ]))
    if args.emit == "matrices":
        payload = [J.to_int_rows() for J in system.J]
        text = "\n".join(
            f"J_{m}:\n" + "\n".join("  " + " ".join(f"{x:2d}" for x in row) for row in rows)
            for m, rows in enumerate(payload, start=1)
        )
        return _emit(args.format, {"sphere": N - 1, "stage": system.r, "matrices": payload},
                     text=text)
    rows = emit_coordinates(system)
    name = "v_{{{}}}" if args.format == "latex" else "v{}"
    tuples = ["(" + ", ".join("-" * (v < 0) + name.format(abs(v)) for v in row) + ")" for row in rows]
    latex = "\n".join(f"V_{{{m}}} = {t}" for m, t in enumerate(tuples, start=1))
    return _emit(args.format, {"sphere": N - 1, "stage": system.r, "fields": rows},
                 text="\n".join(tuples), latex=latex)


def cmd_verify_all(args) -> int:
    return _emit(args.format, verify_all(seed=args.seed, samples=args.samples, max_n=args.max_n))


def _leaf(sub, name: str, func, help: str, fmt: Optional[str] = "text") -> argparse.ArgumentParser:
    """A subcommand of ``sub`` run by ``func``; it takes ``--format``
    (default ``fmt``) unless ``fmt`` is None, and reports the arguments it
    does not recognize."""
    leaf = sub.add_parser(name, help=help)
    if fmt is not None:
        leaf.add_argument("--format", choices=("text", "json", "latex"), default=fmt)
    leaf.set_defaults(func=func, leaf=leaf)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spinbits",
        description="exact spinor algebra over binary-coded bases",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spinor", help="generator action on basic spinors")
    spsub = sp.add_subparsers(dest="what", required=True)
    mul = _leaf(spsub, "mul", cmd_spinor, "image of u_index under e_p", fmt="json")
    mul.add_argument("--n", type=_int_range(1, MAX_SPINOR_N), required=True)
    mul.add_argument("--p", type=int, required=True)
    mul.add_argument("--index", type=int, required=True)

    rep = sub.add_parser("rep", help="representation matrices")
    repsub = rep.add_subparsers(dest="what", required=True)
    mat = _leaf(repsub, "matrix", cmd_rep, "the matrix of a generator word on one space")
    mat.add_argument("--n", type=_int_range(1), required=True)
    mat.add_argument("--word", type=str, required=True, help="e.g. e1e2")
    mat.add_argument(
        "--space",
        choices=("full", "plus", "minus", "real-plus", "real-minus", "vector"),
        default="full",
    )

    tri = sub.add_parser("triality", help="outer automorphisms and g2")
    trisub = tri.add_subparsers(dest="what", required=True)
    for name in ("sigma", "tau"):
        outer = _leaf(trisub, name, cmd_outer, f"the 28x28 matrix of {name}*")
        pick = outer.add_mutually_exclusive_group()
        pick.add_argument("--check-order", action="store_true")
        pick.add_argument("--eigen", choices=tuple(_EIGENVALUES))
    g2 = _leaf(trisub, "g2", cmd_g2, "the fixed algebra g2 of sigma*")
    pick = g2.add_mutually_exclusive_group()
    pick.add_argument("--matrix", type=_g2_coefficients, default=None,
                      help="14 comma-separated coefficients")
    pick.add_argument("--generators", action="store_true")
    _leaf(trisub, "s3", cmd_s3, "the S3 relations of sigma* and tau*")
    _leaf(trisub, "center", cmd_center, "the center under the group-level lifts")

    octo = sub.add_parser("octonion", help="division-algebra tables")
    octsub = octo.add_subparsers(dest="what", required=True)
    _leaf(octsub, "table", cmd_octonion_table, "the octonion multiplication table")
    check = _leaf(octsub, "check", cmd_octonion_check, "algebra laws on random octonions")
    check.add_argument("--samples", type=_int_range(0), default=100)
    check.add_argument("--seed", type=int, default=1)
    _leaf(octsub, "quaternions", cmd_quaternions, "the quaternion multiplication table")

    fo = sub.add_parser("forms", help="invariant exterior forms")
    fosub = fo.add_subparsers(dest="what", required=True)
    omega = _leaf(fosub, "omega", cmd_omega, "the invariant 4-form", fmt=None)
    pick = omega.add_mutually_exclusive_group()
    pick.add_argument("--check-square", action="store_true")
    pick.add_argument("--latex", action="store_true")
    phi = _leaf(fosub, "phi", cmd_phi, "the g2-invariant 3-form", fmt=None)
    phi.add_argument("--latex", action="store_true")

    fl = _leaf(sub, "fields", cmd_fields, "tangent vector fields on spheres")
    fl.add_argument("--sphere", type=_int_range(1, MAX_SPHERE), required=True,
                    help=f"M for S^M, at most {MAX_SPHERE}")
    fl.add_argument("--emit", choices=("coords", "matrices"), default="coords")
    fl.add_argument("--verify", action="store_true")
    fl.add_argument("--samples", type=_int_range(0))  # 20 with --verify
    fl.add_argument("--seed", type=int)  # 1 with --verify
    fl.add_argument("--split", type=_split_pair, default=None, help="m1,m2")

    va = _leaf(sub, "verify-all", cmd_verify_all, "run the full certificate suite", fmt=None)
    va.add_argument("--seed", type=int, default=1)
    va.add_argument("--samples", type=_int_range(0), default=100)
    va.add_argument("--max-n", type=_int_range(2, MAX_ORACLE_N), default=12)
    va.add_argument("--format", choices=("text", "json"), default="text")

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    # argparse before Python 3.12 parses "--flag=--" to an empty list
    if any(value == [] for value in vars(args).values()):
        parser.error("'--' is not a value")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (``| head``): send what is left to devnull,
        # so that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
