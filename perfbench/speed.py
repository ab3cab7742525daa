"""The machine's speed while the benchmark runs, from a concurrent probe.

The benchmark runs on shared virtual machines whose speed changes by up
to 2x from one second to the next and drifts between minutes, and the
program's times follow it.  While ``run.py`` measures, this probe runs
next to the one child being timed, on the same CPU (``run.py`` pins
itself, and so every process it starts, to one CPU): probed from the
other CPU, the two CPUs' speeds were seen to drift apart.  Every
``PERIOD_S`` it times a small fixed piece of pure-Python exact arithmetic,
in the style of the program (``Fraction`` pairs kept in dicts, as
``spinbits.scalars`` keeps them, and a Fraction row elimination, as
``spinbits.matrices`` does) but built from the standard library alone, so
that no change to the program can change it.

``run.py`` scales every time it measures by ``REF_S`` over the mean probe
time of that time's window: the time the same work would take at the
speed at which one probe takes ``REF_S`` seconds.  The mean, not the
median, because a probe time counts everything that slows the child over
the window, the moments the host takes the CPU away included.

    python3 perfbench/speed.py

prints a line "ready", probes until its standard input closes, then
prints one JSON list of ``[start, seconds]`` pairs (``time.perf_counter``,
which on Linux is the system-wide monotonic clock, so the starts compare
with the caller's).
"""

from __future__ import annotations

import json
import select
import statistics
import sys
from fractions import Fraction
from time import perf_counter

# About the probe's time on the machine the baseline was measured on
# (shared 2-vCPU Intel Xeon VM, Python 3.11), so that scaled times read
# close to that machine's seconds.
REF_S = 0.0035
PERIOD_S = 0.05
PAD_S = 0.5  # a window also takes the probes this close to it

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)
_ONE = Fraction(1)
# sqrt(a) * sqrt(b) = f * sqrt(r), for the radicals 1 and 2
_RADMUL = {(1, 1): (1, 1), (1, 2): (1, 2), (2, 1): (1, 2), (2, 2): (2, 1)}
_ROWS = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6)] for i in range(6)]


def _mul(x: dict, y: dict) -> dict:
    out = {}
    for ra, (a, b) in x.items():
        for rb, (c, d) in y.items():
            f, r = _RADMUL[ra, rb]
            re, im = out.get(r, (_ZERO, _ZERO))
            out[r] = (re + f * (a * c - b * d), im + f * (a * d + b * c))
    return {r: v for r, v in out.items() if v[0] or v[1]}


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        inv = 1 / p[col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [u - f * v for u, v in zip(rows[i], p)]
        rank += 1
    return rank


def kernel() -> None:
    """Fixed work: 96 products by exp(i pi/4) in Q(i, sqrt2), and a 6x6 rank."""
    w = {2: (_HALF, _HALF)}  # (1 + i) / sqrt2
    x = {1: (_ONE, _ZERO)}
    for _ in range(96):
        x = _mul(x, w)
    if x != {1: (_ONE, _ZERO)} or _rank(_ROWS) != 6:  # exp(i pi/4) ** 96 = 1
        raise AssertionError("the speed probe computed a wrong value")


def probe() -> list[list[float]]:
    """Say "ready", then time the kernel every PERIOD_S until standard input closes."""
    kernel()  # warm-up
    print("ready", flush=True)
    samples = []
    while True:
        t0 = perf_counter()
        kernel()
        samples.append([t0, perf_counter() - t0])
        if select.select([sys.stdin], [], [], PERIOD_S)[0] and not sys.stdin.buffer.read1(4096):
            return samples


def scale(samples: list[list[float]], lo: float, hi: float, typical=statistics.fmean) -> float:
    """``REF_S`` over the ``typical`` (by default the mean) probe time in [lo - PAD_S, hi + PAD_S]."""
    inside = [d for t, d in samples if lo - PAD_S <= t and t + d <= hi + PAD_S]
    if not inside:
        raise ValueError(f"no speed probe sample within {PAD_S} s of [{lo}, {hi}]")
    return REF_S / typical(inside)


if __name__ == "__main__":
    json.dump(probe(), sys.stdout)
    sys.stdout.write("\n")
