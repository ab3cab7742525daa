"""The benchmark's traced run, checked in the tier-1 suite.

``perfbench/run.py --trace 1`` wraps named functions of ``spinbits`` (the
targets of ``perfbench/tracer.py``) and reports ``correct: false`` when a
per-layer metric that ``perfbench/predictions.json`` lists as used by a
workload has a zero count.  Deleting or renaming a traced function, or
routing a workload around it, would only show there.  These tests run each
workload's commands once under the same tracer and fail on the same
condition.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PREDICTIONS = json.loads((PERFBENCH / "predictions.json").read_text())
_spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# run.py reads these per-layer metrics off the launch timings, not off spans
TIMING_ONLY = ("cli.", "trace.", "raw.", "speed.")
FRAME_CACHE_METRIC = "matrices.real_basis_frame_hit_ratio"

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer, workloads

recorder = tracer.Tracer("contract")
frame_cache = tracer.install(recorder)
from spinbits.cli import main

codes = []
for argv in workloads.commands(sys.argv[2], 1):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
recorder.dump(sys.argv[3], frame_cache)
print(json.dumps(codes))
"""


def traced_run(workload, out):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PERFBENCH), workload, str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(out.read_text())


def span_of(metric, spans):
    """The tracer span whose call count a per-layer metric rests on, or None."""
    matches = [s for s in spans if metric.startswith(s + "_")]
    return max(matches, key=len) if matches else None


@pytest.mark.parametrize("workload", sorted(PREDICTIONS["workloads"]))
def test_every_predicted_layer_runs_under_the_tracer(tmp_path, workload):
    codes, dump = traced_run(workload, tmp_path / "trace.json")
    assert codes == [0] * len(codes) and codes

    hits, misses = dump["frame_cache"]
    assert hits + misses >= 1, "the real-frame cache was never looked up"
    zero = []
    for metric, info in PREDICTIONS["per_layer"].items():
        if workload not in info["uses"] or metric == FRAME_CACHE_METRIC:
            continue
        span = span_of(metric, tracer.TARGETS)
        if span is None:
            assert metric.startswith(TIMING_ONLY), f"{metric} names no traced span"
        elif not dump["calls"].get(span):
            zero.append(metric)
    assert zero == [], f"zero count on {workload}, which predictions.json says uses them"
