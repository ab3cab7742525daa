"""Run one spinbits CLI command with a span around each layer's public functions.

    python3 perfbench/tracer.py OUT.json RUN_ID <spinbits arguments...>

The command's stdout and exit code are those of the ``spinbits`` console
script.  Spans are recorded from here, outside the package: every wrapped
function is rebound in each ``spinbits.*`` module that holds it (so
``from .fields import build_field_system`` in ``verify`` and ``cli`` is
traced too) and on its class for methods.  A span is (name, start, end,
id, parent id, run id); a span's self time is its duration minus the
time of its child spans.  Counts and times are kept for every call; the
span records themselves are kept for the first ``KEEP_SPANS`` calls of
each name, so the hottest leaves (a million ``Scalar`` products) cost no
memory.  Everything is written to OUT.json when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path) of the function the span wraps
TARGETS = {
    "scalars.mul": ("spinbits.scalars", "Scalar.__mul__"),
    "scalars.add": ("spinbits.scalars", "Scalar.__add__"),
    "scalars.inverse": ("spinbits.scalars", "Scalar.inverse"),
    "clifford.generator_action": ("spinbits.clifford", "generator_action"),
    "clifford.clifford_apply": ("spinbits.clifford", "clifford_apply"),
    "clifford.word_apply": ("spinbits.clifford", "word_apply"),
    "spinors.real_structure": ("spinbits.spinors", "real_structure"),
    "spinors.hermitian": ("spinbits.spinors", "hermitian"),
    "matrices.rank": ("spinbits.matrices", "Matrix.rank"),
    "matrices.nullspace": ("spinbits.matrices", "Matrix.nullspace"),
    "matrices.matmul": ("spinbits.matrices", "Matrix.__mul__"),
    "matrices.tensor_oracle": ("spinbits.matrices", "tensor_oracle"),
    "matrices.frame_expand": ("spinbits.matrices", "RealBasisFrame.expand"),
    "triality.kappa_real_matrix": ("spinbits.triality", "kappa_real_matrix"),
    "triality.span_contains": ("spinbits.triality", "span_contains"),
    "triality.build_outer": ("spinbits.triality", "build_outer"),
    "triality.eigenspace": ("spinbits.triality", "eigenspace"),
    "triality.g2_structure": ("spinbits.triality", "g2_structure"),
    "forms.wedge": ("spinbits.forms", "wedge"),
    "octonions.octonion_mul": ("spinbits.octonions", "octonion_mul"),
    "fields.build_field_system": ("spinbits.fields", "build_field_system"),
    "fields.gram": ("spinbits.fields", "gram_is_scaled_identity"),
    "fields.emit_coordinates": ("spinbits.fields", "emit_coordinates"),
    "verify.C1": ("spinbits.verify", "check_kernel_oracle"),
    "verify.C2": ("spinbits.verify", "check_golden_matrices"),
    "verify.C3": ("spinbits.verify", "check_triality"),
    "verify.C4": ("spinbits.verify", "check_g2"),
    "verify.C5": ("spinbits.verify", "check_center"),
    "verify.C6": ("spinbits.verify", "check_forms"),
    "verify.C7": ("spinbits.verify", "check_octonions"),
    "verify.C8": ("spinbits.verify", "check_fields"),
    "verify.C9": ("spinbits.verify", "check_delta_iso"),
    "verify.C10": ("spinbits.verify", "check_structure_maps"),
}

KEEP_SPANS = 1000


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[list] = []  # [span id, child seconds] of each open span
        self.next_id = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans: list[tuple] = []
        self.kappa_inputs: set = set()
        self.mul_rational = 0

    def wrap(self, name: str, fn, observe=None):
        stack, calls, total_s, self_s, spans = (
            self.stack, self.calls, self.total_s, self.self_s, self.spans)

        def span(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if calls[name] <= KEEP_SPANS:
                    spans.append((name, t0, t1, sid, parent[0] if parent else None))

        return functools.update_wrapper(span, fn)

    def dump(self, path: str, frame_cache) -> None:
        info = frame_cache.cache_info()
        payload = {
            "run_id": self.run_id,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "kappa_distinct": len(self.kappa_inputs),
            "mul_rational": self.mul_rational,
            "frame_cache": [info.hits, info.misses],
            "span_fields": ["name", "start", "end", "id", "parent", "run_id"],
            "spans": [list(s) + [self.run_id] for s in self.spans],
        }
        with open(path, "w") as f:
            json.dump(payload, f)


def install(tracer: Tracer):
    """Wrap every target and rebind it wherever a spinbits module holds it.

    Returns ``real_basis_frame``, whose ``cache_info`` gives the frame
    cache's hit ratio.
    """
    import spinbits.cli  # noqa: F401  (loads every module that binds a target)
    from spinbits.matrices import real_basis_frame as frame_cache
    from spinbits.scalars import Scalar

    def is_rational(x):
        return not isinstance(x, Scalar) or Scalar.is_rational(x)

    def observe_mul(a, b):
        if is_rational(a) and is_rational(b):
            tracer.mul_rational += 1

    def observe_kappa(word, sign):
        tracer.kappa_inputs.add((tuple(word), sign))

    observers = {"scalars.mul": observe_mul, "triality.kappa_real_matrix": observe_kappa}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "spinbits" or n.startswith("spinbits."))]
    for name, (modname, path) in TARGETS.items():
        module = importlib.import_module(modname)
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        orig = vars(owner)[attr]
        wrapped = tracer.wrap(name, orig, observers.get(name))
        holders = [owner] if owner_path else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapped)
    return frame_cache


def main() -> int:
    out, run_id, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    frame_cache = install(tracer)
    from spinbits.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        tracer.dump(out, frame_cache)


if __name__ == "__main__":
    sys.exit(main())
