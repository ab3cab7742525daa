"""Repeat the benchmark over seeds and summarize its run-to-run spread.

    python3 perfbench/repeat.py [--seeds 1-10] [--workloads certify,cli] [--out FILE --label NAME [--against LABEL]]
    python3 perfbench/repeat.py --determinism SEED [--out FILE --label NAME]

The first form runs ``run.py --trace 0`` once per (seed, workload),
rotating the workload order from one seed to the next so that machine
drift is spread over every workload.  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json, and records the range of the runs' median speed-probe
times (the machine's drift while the set ran).

The second form runs ``run.py --trace 1`` twice per workload with the
same seed and checks that every count and count ratio is identical.

``--out FILE --label NAME`` stores the results under NAME in a JSON
file (the committed baseline is ``perfbench/baseline.json``); with
``--against OTHER`` each end-to-end median is also compared with that of
the set stored under OTHER, which it may exceed by at most its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "ratio")


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not result["correct"]:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    record = json.loads(Path(f".perfbench/runs/{workload}-s{seed}-trace{trace}.json").read_text())
    result["machine"] = record["machine"]
    return result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spreads(seeds, workloads) -> dict:
    runs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            runs[w].append(bench(w, seed, 0))
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[w][-1]["metrics"].items()), file=sys.stderr)
    out = {}
    for w, results in runs.items():
        out[w] = {}
        for m in BENCH["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[w][m["name"]] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / med, "bound": m["bound"]}
    probe = [r["machine"]["probe_ms"]["median"] for rs in runs.values() for r in rs]
    return {"seeds": seeds, "workloads": out, "machine": runs[workloads[0]][0]["machine"],
            "probe_median_ms": {"min": min(probe), "median": statistics.median(probe),
                                "max": max(probe)}}


def determinism(seed: int, workloads) -> dict:
    out = {}
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for w in workloads:
        a, b = bench(w, seed, 1), bench(w, seed, 1)
        exact = {k: v["value"] for k, v in a["metrics"].items()
                 if units[k] in EXACT_UNITS and k != "trace.overhead_ratio"}
        differing = [k for k in exact if b["metrics"][k]["value"] != exact[k]]
        out[w] = {"seed": seed, "identical": not differing, "differing": differing,
                  "values": {k: v["value"] for k, v in a["metrics"].items()}}
        print(f"{w}: {len(exact)} counts and ratios compared, differing: {differing}", file=sys.stderr)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--determinism", type=int, default=None, metavar="SEED")
    ap.add_argument("--out", default=None)
    ap.add_argument("--label", default="untraced")
    ap.add_argument("--against", default=None, metavar="LABEL")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    path = Path(args.out) if args.out else None
    doc = json.loads(path.read_text()) if path and path.is_file() else {}

    if args.determinism is not None:
        result = determinism(args.determinism, workloads)
    else:
        result = spreads(seed_range(args.seeds), workloads)
        for w, metrics in result["workloads"].items():
            for name, s in metrics.items():
                flag = "ok" if s["spread"] < s["bound"] / 3 else ("WIDE" if s["spread"] < s["bound"] else "OVER")
                line = (f"{w:8} {name:14} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                        f"spread {s['spread']:.3f}  bound {s['bound']}  {flag}")
                if args.against:
                    before = doc[args.against]["workloads"][w][name]["median"]
                    s["change_vs_" + args.against] = change = s["median"] / before - 1
                    line += f"  vs {args.against} {change:+.3f} {'ok' if change <= s['bound'] else 'WORSE'}"
                print(line)
    if path:
        doc[args.label] = result
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
