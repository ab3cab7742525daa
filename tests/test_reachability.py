"""Every function under ``src/spinbits`` is entered by some command.

A fresh interpreter installs ``sys.setprofile`` before ``import
spinbits.cli``, so a function that runs only at import time counts too,
and then runs ``spinbits.cli.main`` on a fixed corpus:

- the commands recorded in ``cli_formats.json`` (its keys);
- ``verify-all --format json`` at its defaults;
- ``triality sigma|tau --eigen`` at each of 1, -1, omega and omega-bar.

Every ``def`` that ``ast`` finds under ``src/spinbits`` is keyed by
``file:line`` (the line of its first decorator, as the code object
counts it).  The ones the corpus never entered must be exactly the
names in ``ALLOWED``, each with its reason: a new function that no
command reaches fails, and so does an allowed one that becomes reached.

Print the never-entered set of the current tree with

    PYTHONPATH=src python tests/test_reachability.py

and, with ``--lines``, the statements the corpus never executes instead:
a ``sys.settrace`` line trace of the same corpus, listing every statement
under ``src/spinbits`` but ``raise`` and docstrings whose lines it never
reached.  That list is not a gate: most of it is failure branches.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinbits"
RECORDING = Path(__file__).resolve().parent / "cli_formats.json"

CORPUS = [
    *json.loads(RECORDING.read_text()),
    "verify-all --format json",
    *(f"triality {w} --eigen={e}" for w in ("sigma", "tau") for e in ("1", "-1", "omega", "omega-bar")),
]

# "file:qualified name" -> why no command enters it
ALLOWED = {
    f"{path}:{cls}.__hash__": f"{cls} defines __eq__, and equal values must hash equal"
    for path, cls in (
        ("scalars.py", "Scalar"),
        ("scalars.py", "Combination"),
        ("matrices.py", "Monomial"),
        ("octonions.py", "Octonion"),
    )
}

# Runs in the fresh interpreter: the corpus comes on stdin, and the code
# objects entered go to stdout as "filename:first line" keys; with the
# argument "lines", the package lines executed go there as "filename:line".
TRACE = r"""
import contextlib, io, json, sys
seen, lines = set(), sys.argv[1:] == ["lines"]
if lines:
    def line(frame, event, arg, add=seen.add):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return line
    def call(frame, event, arg):
        return line if "spinbits" in frame.f_code.co_filename else None
    sys.settrace(call)
else:
    def hook(frame, event, arg, add=seen.add):
        add(frame.f_code)
    sys.setprofile(hook)
import spinbits.cli
for command in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            spinbits.cli.main(command.split())
        except SystemExit:
            pass
sys.setprofile(None)
sys.settrace(None)
keys = seen if lines else {(c.co_filename, c.co_firstlineno) for c in seen}
print(json.dumps(sorted(f"{f}:{n}" for f, n in keys)))
"""


def defined_functions():
    """{"file:line": "file:qualified name"} for every def under the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[f"{path.name}:{line}"] = f"{path.name}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def entered_keys(*mode):
    """The "file:line" keys of the package's code objects that the corpus entered,
    or with mode "lines", of the package lines it executed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, *mode], input=json.dumps(CORPUS), capture_output=True, text=True, env=env,
        cwd=ROOT,
    )
    if proc.returncode:
        raise AssertionError(f"the traced corpus stopped:\n{proc.stderr}")
    keys = set()
    for key in json.loads(proc.stdout):
        filename, line = key.rsplit(":", 1)
        path = Path(filename).resolve()
        if path.parent == PACKAGE:
            keys.add(f"{path.name}:{line}")
    return keys


def never_entered():
    """{"file:line": "file:qualified name"} of the defs that no corpus command entered."""
    entered = entered_keys()
    return {key: name for key, name in defined_functions().items() if key not in entered}


def statements():
    """{"file:line": (the lines that execute it, its first source line)} for each
    statement under the package but ``raise`` and docstrings: a compound
    statement executes on its header's lines, and a decorated def's start at
    its first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
                continue
            if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            out[f"{path.name}:{first}"] = (range(first, max(first, last) + 1), lines[first - 1].strip())
    return out


def never_executed():
    """{"file:line": source line} of the statements no corpus command executed."""
    executed = entered_keys("lines")
    return {
        key: text for key, (span, text) in statements().items()
        if not any(f"{key.split(':')[0]}:{n}" in executed for n in span)
    }


def in_file_order(defs):
    """The (key, name) pairs of {"file:line": name}, by file and then by line."""
    return sorted(defs.items(), key=lambda item: (item[0].split(":")[0], int(item[0].split(":")[1])))


def report(missed):
    """The gate's message: each unexpected never-entered def and each stale allowlist entry."""
    unexpected = [f"{key} {name.split(':', 1)[1]}" for key, name in in_file_order(missed) if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(missed.values()))
    lines = []
    if unexpected:
        lines.append("entered by no command (delete, or give a command that needs it):")
        lines += [f"  {x}" for x in unexpected]
    if stale:
        lines.append("allowed but now entered, or gone (drop from ALLOWED):")
        lines += [f"  {x}" for x in stale]
    return "\n".join(lines)


def test_the_corpus_has_every_recorded_command():
    assert len(CORPUS) == len(set(CORPUS)) == len(json.loads(RECORDING.read_text())) + 9


def test_the_def_finder_keys_a_decorated_function_by_its_first_decorator():
    import spinbits.matrices as matrices

    found = defined_functions()
    for fn in (matrices.real_block.__wrapped__, matrices.Matrix.identity, matrices.Matrix.data.fget):
        code = fn.__code__
        assert found[f"matrices.py:{code.co_firstlineno}"] == f"matrices.py:{fn.__qualname__}"


def test_the_report_names_each_unexpected_def_and_each_stale_entry():
    stale = next(iter(ALLOWED))
    missed = {key: name for key, name in defined_functions().items() if name in ALLOWED and name != stale}
    missed["clifford.py:7"] = "clifford.py:CliffordElem.blade"
    assert report(missed).splitlines() == [
        "entered by no command (delete, or give a command that needs it):",
        "  clifford.py:7 CliffordElem.blade",
        "allowed but now entered, or gone (drop from ALLOWED):",
        f"  {stale}",
    ]
    assert report({key: name for key, name in defined_functions().items() if name in ALLOWED}) == ""


def test_the_statement_finder_skips_raises_and_docstrings_and_starts_at_a_decorator():
    import spinbits.matrices as matrices

    found = statements()
    assert not any(text.startswith(("raise ", '"""')) for _, text in found.values())
    line = matrices.real_block.__wrapped__.__code__.co_firstlineno
    span, text = found[f"matrices.py:{line}"]
    assert text == "@lru_cache(maxsize=None)" and list(span) == [line, line + 1]


def test_every_function_is_entered_by_some_command():
    message = report(never_entered())
    assert not message, message


if __name__ == "__main__" and sys.argv[1:] == ["--lines"]:
    missed = never_executed()
    for key, text in in_file_order(missed):
        print(f"{key} {text}")
    print(f"{len(missed)} statements never executed", file=sys.stderr)
elif __name__ == "__main__":
    missed = never_entered()
    for key, name in in_file_order(missed):
        tag = "  (allowed)" if name in ALLOWED else ""
        print(f"{key} {name.split(':', 1)[1]}{tag}")
    print(f"{len(missed)} never entered, {sum(name in ALLOWED for name in missed.values())} allowed", file=sys.stderr)
