"""Cold-process benchmark for spinbits.

    python3 perfbench/run.py --workload {certify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each repetition of a workload
launches its commands one at a time, each in a fresh interpreter, because
the package memoizes builders inside a process and users run every
command cold.  Repetitions continue while the next one is expected to end
within ``--seconds``; there is always at least one.  Every command's
stdout is compared byte for byte with ``perfbench/golden``; a mismatch or
a nonzero exit is a failed operation and makes the run exit 1.

While it measures, ``perfbench/speed.py`` probes the machine's speed in
one extra process on the same CPU, and every reported time is scaled by
``speed.scale`` of the window it was measured in: the time at the probe's
reference speed.  The shared machines this runs on change speed by up to
2x between seconds and minutes, which no number of repetitions averages
out; the unscaled times are kept in the run record and in the ``raw.*``
per-layer metrics.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same untraced repetitions, then one more with
every command under ``perfbench/tracer.py``, and reports the per-layer
metrics; the traced stdout is checked against the golden files too, and
every per-layer metric that ``perfbench/predictions.json`` says the
workload uses must have a nonzero count.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (machine,
probe samples, every sample) is written to ``.perfbench/runs/``, and the
traced spans to ``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from workloads import (  # noqa: E402
    ENTRY, HERE, IMPORT_ONLY, WHY, child_env, commands, golden, launch, peak_child_rss_mb,
)

SETUP_LAUNCHES = (10, 10)  # before and after the repetitions
HARD_LIMIT_S = 170.0
CLI_GROUPS = ("spinor", "rep", "triality", "octonion", "forms", "fields")
OUT_DIR = Path(".perfbench")


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without leaving it."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Probe:
    """The speed probe as a context: started on entry, stopped and waited for on exit."""

    def __enter__(self):
        self.samples: list[list[float]] = []
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speed.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdout.readline()  # "ready": started and warm
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate(timeout=10)
            if self.proc.returncode == 0:
                self.samples = json.loads(out)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return False

    def scale(self, lo: float, hi: float, typical=statistics.fmean) -> float:
        return speed.scale(self.samples, lo, hi, typical)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """The launches of one benchmark run and their checks."""

    def __init__(self, seed: int, deadline: float):
        self.env = child_env(seed)
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def launch(self, prefix, args, expect: bytes | None):
        """One launch is one operation: it fails on a nonzero exit or unexpected stdout."""
        res = launch(prefix, args, self.env, max(1.0, self.deadline - perf_counter()))
        self.attempted += 1
        label = " ".join(args) or " ".join(prefix)
        if res.code != 0:
            tail = res.err.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"exit {res.code}: {label} {tail}")
        elif expect is None:
            self.failures.append(f"no golden output for: {label}")
        elif res.out != expect:
            self.failures.append(f"stdout differs from golden: {label}")
        return res

    def command(self, argv, tracer_args=()):
        prefix = [str(HERE / "tracer.py"), *tracer_args] if tracer_args else ENTRY
        return self.launch(prefix, argv, golden(argv))


def untraced_reps(run: Run, workload: str, seed: int, seconds: float):
    reps = []  # (raw wall, raw cpu, [Result])
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        results = [run.command(argv) for argv in commands(workload, seed)]
        wall = perf_counter() - r0
        reps.append((wall, sum(r.cpu for r in results), results))
        if perf_counter() - t0 + wall > seconds or run.failures:
            return reps


def traced_rep(run: Run, workload: str, seed: int):
    """The traced launches and their span dumps."""
    trace_dir = OUT_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    dumps, results = [], []
    for i, argv in enumerate(commands(workload, seed)):
        run_id = f"{workload}-s{seed}-{i:02d}"
        path = trace_dir / f"{run_id}.json"
        path.unlink(missing_ok=True)
        results.append(run.command(argv, (str(path), run_id)))
        if results[-1].code == 0:
            dumps.append(json.loads(path.read_text()))
    return results, dumps


class Scaled:
    """The run's times scaled to the probe's reference speed, window by window."""

    def __init__(self, probe: Probe, setup, reps):
        # A set-up launch is too short for a window of its own, so each
        # block of set-up launches is one window; in it the probe competes
        # with process starts, not with one busy child, and the median
        # probe time, not the mean, followed their speed.
        self.setup = []
        for block in (setup[:SETUP_LAUNCHES[0]], setup[SETUP_LAUNCHES[0]:]):
            f = probe.scale(block[0].start, block[-1].end, statistics.median)
            self.setup += [r.wall * f for r in block]
        self.factors = [probe.scale(results[0].start, results[-1].end) for _, _, results in reps]
        self.wall = [w * f for (w, _, _), f in zip(reps, self.factors)]
        self.cpu = [c * f for (_, c, _), f in zip(reps, self.factors)]
        self.commands = [(r.argv, r.wall * probe.scale(r.start, r.end) * 1e3)
                         for _, _, results in reps for r in results]

    def latencies_ms(self) -> list[float]:
        return [ms for _, ms in self.commands]


def end_to_end(scaled: Scaled) -> dict:
    return {
        "setup_s": statistics.median(scaled.setup),
        "wall_s": statistics.median(scaled.wall),
        "cpu_s": statistics.median(scaled.cpu),
        "peak_rss_mb": peak_child_rss_mb(),
        "cmd_geomean_ms": statistics.geometric_mean(scaled.latencies_ms()),
    }


def per_layer(names, dumps, scaled: Scaled, measured: dict, traced_wall: float, traced_factor: float,
              ) -> tuple[dict, dict]:
    """Per-layer values, and the count behind each (0 means never exercised).

    ``measured`` holds values taken as they are: the unscaled times and the
    probe's median.
    """
    calls, total, self_s = {}, {}, {}
    for d in dumps:
        for table, src in ((calls, d["calls"]), (total, d["total_s"]), (self_s, d["self_s"])):
            for k, v in src.items():
                table[k] = table.get(k, 0) + (v if table is calls else v * traced_factor)
    hits = sum(d["frame_cache"][0] for d in dumps)
    lookups = hits + sum(d["frame_cache"][1] for d in dumps)
    by_group = {g: [] for g in CLI_GROUPS}
    for argv, ms in scaled.commands:
        if argv[0] in by_group:
            by_group[argv[0]].append(ms)
    latencies = scaled.latencies_ms()

    def share(num, den):
        return (num / den if den else 0.0), den

    special = {
        "scalars.mul_rational_share": share(sum(d["mul_rational"] for d in dumps),
                                            calls.get("scalars.mul", 0)),
        "triality.kappa_real_matrix_distinct_ratio": share(sum(d["kappa_distinct"] for d in dumps),
                                                           calls.get("triality.kappa_real_matrix", 0)),
        "matrices.real_basis_frame_hit_ratio": share(hits, lookups),
        "trace.overhead_ratio": (traced_wall * traced_factor / statistics.median(scaled.wall), 1),
        "cli.cmd_p50_ms": (statistics.median(latencies), 1),
        "cli.cmd_p95_ms": (percentile(latencies, 95), 1),
    }
    for k, v in measured.items():
        special[k] = (v, 1)
    for g, samples in by_group.items():
        special[f"cli.{g}_ms"] = (statistics.mean(samples) if samples else 0.0), len(samples)
    for i in range(1, 11):
        span = f"verify.C{i}"
        special[f"{span}_s"] = total.get(span, 0.0), calls.get(span, 0)

    values, counts = {}, {}
    for name in names:
        if name in special:
            value, count = special[name]
        elif name.endswith("_calls"):
            value = count = calls.get(name[:-6], 0)
        elif name.endswith("_self_s"):
            value, count = self_s.get(name[:-7], 0.0), calls.get(name[:-7], 0)
        elif name.endswith("_us"):
            value, count = share(total.get(name[:-3], 0.0) * 1e6, calls.get(name[:-3], 0))
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
        values[name] = value
        counts[name] = count
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/spinbits/cli.py").is_file():
        print("error: run from the root of a spinbits checkout (src/spinbits missing)", file=sys.stderr)
        return 2

    bench = json.loads(Path("BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    # This process, every child and the probe share one CPU, so the probe
    # times the CPU the child runs on (see perfbench/speed.py).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = perf_counter()
    run = Run(args.seed, start + HARD_LIMIT_S)
    machine = {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "git_commit": git_commit(),
        "hash_seed": args.seed,
        "loadavg_start": os.getloadavg(),
    }
    run.launch(IMPORT_ONLY, [], b"")  # compiles bytecode; not timed
    traced = []
    with Probe() as probe:
        setup = [run.launch(IMPORT_ONLY, [], b"") for _ in range(SETUP_LAUNCHES[0])]
        reps = untraced_reps(run, args.workload, args.seed, args.seconds)
        setup += [run.launch(IMPORT_ONLY, [], b"") for _ in range(SETUP_LAUNCHES[1])]
        if args.trace and not run.failures:
            traced, dumps = traced_rep(run, args.workload, args.seed)
    if not probe.samples:
        print("error: the speed probe failed", file=sys.stderr)
        return 1
    scaled = Scaled(probe, setup, reps)
    probe_ms = [d * 1e3 for _, d in probe.samples]
    raw = {"setup_s": statistics.median(r.wall for r in setup),
           "wall_s": statistics.median(w for w, _, _ in reps),
           "cpu_s": statistics.median(c for _, c, _ in reps)}
    values, section, missing = end_to_end(scaled), "end_to_end", []
    if traced:
        section = "per_layer"
        traced_factor = probe.scale(traced[0].start, traced[-1].end)
        measured = {f"raw.{k}": v for k, v in raw.items()}
        measured["speed.probe_ms"] = statistics.median(probe_ms)
        values, counts = per_layer([m["name"] for m in bench[section]], dumps, scaled, measured,
                                   traced[-1].end - traced[0].start, traced_factor)
        uses = json.loads((HERE / "predictions.json").read_text())["per_layer"]
        missing = [m for m in values if args.workload in uses[m]["uses"] and not counts[m]]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in bench[section]}
    machine["probe_ms"] = {"samples": len(probe_ms), "median": statistics.median(probe_ms),
                           "min": min(probe_ms), "max": max(probe_ms), "reference": speed.REF_S * 1e3}
    machine["loadavg_end"] = os.getloadavg()

    correct = not run.failures and not missing
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine,
        "probe_samples": probe.samples,
        "setup_s": [r.wall for r in setup],
        "setup_s_scaled": scaled.setup,
        "reps": [{"wall_s": w, "cpu_s": c, "scale": f,
                  "commands": [{"argv": r.argv, "start": r.start, "wall_s": r.wall, "cpu_s": r.cpu,
                                "exit": r.code}
                               for r in results]}
                 for (w, c, results), f in zip(reps, scaled.factors)],
        "failures": run.failures,
        "unexercised": missing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "total_s": perf_counter() - start,
    }
    runs_dir = OUT_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}: {WHY[args.workload]}")
    print(f"# python {machine['python']}, nproc {machine['nproc']}, commit {machine['git_commit']}, "
          f"hash seed {args.seed}, load {machine['loadavg_start'][0]:.2f}")
    lat = scaled.latencies_ms()
    print(f"# speed probe: {len(probe_ms)} samples, median {machine['probe_ms']['median']:.3f} ms, "
          f"range {min(probe_ms):.3f}-{max(probe_ms):.3f} ms (reference {speed.REF_S * 1e3:g} ms); "
          f"unscaled setup_s {raw['setup_s']:.4f}, wall_s {raw['wall_s']:.4f}, cpu_s {raw['cpu_s']:.4f}")
    print(f"# {len(reps)} repetitions, {run.attempted} launches, {len(run.failures)} failed, "
          f"fail_ratio {len(run.failures) / run.attempted:.4f}")
    print(f"# {len(lat)} command latencies: p50 {statistics.median(lat):.1f} ms, "
          f"p95 {percentile(lat, 95):.1f} ms")
    for msg in run.failures:
        print(f"# FAIL {msg}")
    for m in missing:
        print(f"# FAIL {m}: zero count on a workload predicted to use it")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Terminated: unwind, so that the running child is killed and the probe stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
