"""Command-line interface: every subsystem behind one binary.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .clifford import clifford_apply
from .fields import (
    build_field_system,
    emit_coordinates,
    gram_is_scaled_identity,
    random_point,
    structure_failure,
)
from .forms import g2_three_form, omega_square, spin7_four_form
from .matrices import (
    Matrix,
    kappa_matrix,
    kappa_pm_matrix,
    lambda_matrix,
    max_oracle_dim,
    real_rep_matrix,
)
from .octonions import algebra_checks, octonion_table, quaternion_table
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
)
from .verify import Report, verify_all


# Fixed caps on the flags whose cost grows without bound; a larger value
# exits 2 before anything is built.  S^16383 (N = 16384) builds in about
# 2 s; the N x N field matrices and the n x n vector matrix print in about
# 10 s at 300 MiB for N, n = 1024; a basic spinor index is an int below
# 2^(n/2).
MAX_SPHERE = 16383
MAX_DENSE_N = 1024
MAX_SPINOR_N = 1 << 16


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
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"not JSON encodable: {x!r}")


def _emit(fmt: str, value, text: Optional[str] = None, latex: Optional[str] = None) -> int:
    """Print a subcommand's result in ``fmt`` and return its exit code.

    json encodes ``value``; latex prints ``value.latex()``, else ``latex``,
    else the text form; text is ``text``, else ``repr(value)``.  A Report
    prints one line per check and a tally, and exits 1 on a failure.
    """
    if fmt == "json":
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
    # every space but the vector one is dense of dimension up to 2^(n/2)
    if space != "vector" and n > max_oracle_dim():
        raise UsageError(
            f"--n {n} is above SPINBITS_MAX_N = {max_oracle_dim()} for the dense "
            f"{space} space (dimension up to 2^{n // 2}); --space vector allows "
            f"n <= {MAX_DENSE_N}"
        )
    if n > MAX_DENSE_N:
        raise UsageError(f"--n {n} is above {MAX_DENSE_N} for the n x n vector matrix")
    try:
        if space == "full":
            M = kappa_matrix(n, word)
        elif space in ("plus", "minus"):
            M = kappa_pm_matrix(n, word, 1 if space == "plus" else -1)
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


def _parse_eigenvalue(text: str) -> Scalar:
    table = {
        "1": ONE,
        "-1": -ONE,
        "omega": omega_eigenvalue(),
        "omega-bar": omega_eigenvalue(True),
    }
    if text not in table:
        raise UsageError("eigenvalue must be one of: 1, -1, omega, omega-bar")
    return table[text]


# flags of `triality` and `forms` that apply to some positionals only
_ONLY_FOR = {
    "check_order": ("sigma", "tau"),
    "eigen": ("sigma", "tau"),
    "matrix": ("g2",),
    "generators": ("g2",),
    "check_square": ("omega",),
}


def _reject_stray_flags(args):
    for flag, whats in _ONLY_FOR.items():
        if getattr(args, flag, None) not in (None, False) and args.what not in whats:
            raise UsageError(f"--{flag.replace('_', '-')} does not apply to {args.what} "
                             f"(only to {', '.join(whats)})")


def cmd_triality(args) -> int:
    _reject_stray_flags(args)
    fmt = args.format
    if args.what in ("sigma", "tau"):
        outer = build_outer(args.what)
        if args.check_order:
            order = 3 if args.what == "sigma" else 2
            ok = outer.power(order).matrix == Matrix.identity(28)
            return _emit(fmt, Report([(f"{args.what}* has order {order}", ok)]))
        if args.eigen is not None:
            dim, basis = eigenspace(outer, _parse_eigenvalue(args.eigen))
            payload = {
                "eigenvalue": args.eigen,
                "dimension": dim,
                "basis": [
                    {f"{i}{j}": c for (i, j), c in vec.items()} for vec in basis
                ],
            }
            return _emit(fmt, payload, text=f"dimension {dim}")
        return _emit(fmt, outer.matrix)

    if args.what == "g2":
        if args.generators:
            payload = [
                {f"{i}{j}": c for (i, j), c in g.items()} for g in g2_generators()
            ]
            return _emit(fmt, payload, text="\n".join(str(p) for p in payload))
        if args.matrix is not None:
            return _emit(fmt, g2_action_matrix(args.matrix))
        return _emit(fmt, Report(g2_structure()["checks"]))

    if args.what == "s3":
        return _emit(fmt, Report(s3_relations()))

    rows = [
        (which, key, elem)
        for which in ("sigma", "tau")
        for key, elem in center_images(which).items()
    ]
    payload = [{"map": w, "argument": k, "image": repr(e)} for (w, k, e) in rows]
    return _emit(fmt, payload, text="\n".join(f"{w}({k}) = {e}" for w, k, e in rows))


def cmd_octonion(args) -> int:
    if args.what == "check":
        return _emit(args.format, Report(algebra_checks(args.samples, args.seed)))
    if args.what == "quaternions":
        table = quaternion_table()
        return _emit(args.format, table, text=_signed_rows(table))
    table = octonion_table()
    body = " \\\\\n".join(
        " & ".join(("-" if s < 0 else "") + f"\\hat e_{{{i}}}" for (s, i) in row)
        for row in table
    )
    latex = "\\begin{array}{%s}\n%s\n\\end{array}" % ("c" * 8, body)
    return _emit(args.format, table, text=_signed_rows(table), latex=latex)


def cmd_forms(args) -> int:
    _reject_stray_flags(args)
    if args.check_square:
        sq = omega_square()
        vol = sq.coefficient((1, 2, 3, 4, 5, 6, 7, 8))
        ok = len(sq.terms) == 1 and vol == 504
        return _emit("text", Report([("omega wedge omega = 504 vol", ok)]))
    form = spin7_four_form() if args.what == "omega" else g2_three_form()
    return _emit("latex" if args.latex else "text", form)


def cmd_fields(args) -> int:
    N = args.sphere + 1
    if args.emit == "matrices" and not args.verify and N > MAX_DENSE_N:
        raise UsageError(f"--emit matrices prints N x N matrices; N = {N} is above {MAX_DENSE_N}")
    try:
        system = build_field_system(N, split=args.split)
    except ValueError as e:
        raise UsageError(str(e))
    if args.verify:
        import random as _random

        rng = _random.Random(args.seed)
        ok = structure_failure(system) is None
        gram = all(
            gram_is_scaled_identity(system, random_point(N, rng))
            for _ in range(args.samples)
        )
        return _emit(args.format, Report([
            (f"structure equations for {system.field_count()} fields on S^{N-1}", ok),
            (f"exact Gram frames at {args.samples} random points", gram),
        ]))
    if args.emit == "matrices":
        payload = [J.to_int_rows() for J in system.J]
        text = "\n".join(
            f"J_{m}:\n" + "\n".join("  " + " ".join(f"{x:2d}" for x in row) for row in rows)
            for m, rows in enumerate(payload, start=1)
        )
        return _emit(args.format, {"sphere": N - 1, "stage": system.r, "matrices": payload},
                     text=text)
    out = emit_coordinates(N, fmt=args.format, split=args.split)
    return _emit(args.format, out, text=out)


def cmd_verify_all(args) -> int:
    return _emit(args.format, verify_all(seed=args.seed, samples=args.samples, max_n=args.max_n))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spinbits",
        description="exact spinor algebra over binary-coded bases",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spinor", help="generator action on basic spinors")
    spsub = sp.add_subparsers(dest="what", required=True)
    mul = spsub.add_parser("mul", help="image of u_index under e_p")
    mul.add_argument("--n", type=_int_range(1, MAX_SPINOR_N), required=True)
    mul.add_argument("--p", type=int, required=True)
    mul.add_argument("--index", type=int, required=True)
    mul.add_argument("--format", choices=("text", "json", "latex"), default="json")
    mul.set_defaults(func=cmd_spinor)

    rep = sub.add_parser("rep", help="representation matrices")
    repsub = rep.add_subparsers(dest="what", required=True)
    mat = repsub.add_parser("matrix")
    mat.add_argument("--n", type=_int_range(1), required=True)
    mat.add_argument("--word", type=str, required=True, help="e.g. e1e2")
    mat.add_argument(
        "--space",
        choices=("full", "plus", "minus", "real-plus", "real-minus", "vector"),
        default="full",
    )
    mat.add_argument("--format", choices=("text", "json", "latex"), default="text")
    mat.set_defaults(func=cmd_rep)

    tri = sub.add_parser("triality", help="outer automorphisms and g2")
    tri.add_argument("what", choices=("sigma", "tau", "g2", "s3", "center"))
    tri.add_argument("--matrix", type=_g2_coefficients, default=None,
                     help="for g2: 14 comma-separated coefficients")
    tri.add_argument("--check-order", action="store_true")
    tri.add_argument("--eigen", type=str, default=None,
                     help="1, -1, omega, omega-bar")
    tri.add_argument("--generators", action="store_true")
    tri.add_argument("--format", choices=("text", "json", "latex"), default="text")
    tri.set_defaults(func=cmd_triality)

    octo = sub.add_parser("octonion", help="division-algebra tables")
    octo.add_argument("what", choices=("table", "check", "quaternions"))
    octo.add_argument("--samples", type=_int_range(0), default=100)
    octo.add_argument("--seed", type=int, default=1)
    octo.add_argument("--format", choices=("text", "json", "latex"), default="text")
    octo.set_defaults(func=cmd_octonion)

    fo = sub.add_parser("forms", help="invariant exterior forms")
    fo.add_argument("what", choices=("omega", "phi"))
    fo.add_argument("--check-square", action="store_true")
    fo.add_argument("--latex", action="store_true")
    fo.set_defaults(func=cmd_forms)

    fl = sub.add_parser("fields", help="tangent vector fields on spheres")
    fl.add_argument("--sphere", type=_int_range(1, MAX_SPHERE), required=True,
                    help=f"M for S^M, at most {MAX_SPHERE}")
    fl.add_argument("--emit", choices=("coords", "matrices"), default="coords")
    fl.add_argument("--verify", action="store_true")
    fl.add_argument("--samples", type=_int_range(0), default=20)
    fl.add_argument("--seed", type=int, default=1)
    fl.add_argument("--split", type=_split_pair, default=None, help="m1,m2")
    fl.add_argument("--format", choices=("text", "json", "latex"), default="text")
    fl.set_defaults(func=cmd_fields)

    va = sub.add_parser("verify-all", help="run the full certificate suite")
    va.add_argument("--seed", type=int, default=1)
    va.add_argument("--samples", type=_int_range(0), default=100)
    va.add_argument("--max-n", type=_int_range(2, max_oracle_dim()),
                    default=max_oracle_dim())
    va.add_argument("--format", choices=("text", "json"), default="text")
    va.set_defaults(func=cmd_verify_all)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 parses "--flag=--" to an empty list
    if any(value == [] for value in vars(args).values()):
        parser.error("'--' is not a value")
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
