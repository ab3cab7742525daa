"""Workload definitions and the cold-process command launcher.

Every command runs in a fresh interpreter, one at a time, exactly as the
``spinbits`` console script would run it, against the sources under
``src/`` of the current directory.  The benchmark seed becomes the
children's pinned ``PYTHONHASHSEED`` and the ``--seed`` of ``verify-all``;
the printed output does not depend on either, so one golden file per
command checks every seed.
"""

from __future__ import annotations

import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

# Interpreter arguments: what the ``spinbits`` console script runs, and set-up alone.
ENTRY = ["-c", "import sys; from spinbits.cli import main; sys.exit(main())"]
IMPORT_ONLY = ["-c", "import spinbits.cli"]

# The 17 commands of the README's CLI section, in README order.
CLI_COMMANDS = [
    "spinor mul --n 8 --p 5 --index 11",
    "rep matrix --n 6 --word e1e2 --space full",
    "rep matrix --n 8 --word e2e3 --space real-plus",
    "triality sigma --check-order",
    "triality sigma --eigen omega --format json",
    "triality g2 --generators",
    "triality g2 --matrix 1,0,0,0,0,0,0,0,0,0,0,0,0,0",
    "triality s3",
    "triality center",
    "octonion table",
    "octonion check --samples 200 --seed 5",
    "octonion quaternions",
    "forms omega --check-square",
    "forms phi --latex",
    "fields --sphere 31 --emit coords",
    "fields --sphere 15 --verify --samples 20",
    "fields --sphere 23 --split 2,1 --emit matrices",
]

WHY = {
    "certify": "verify-all at README defaults (samples 100, max_n 12): the product, 81 exact checks; "
               "triality/matrices elimination and fields Gram checks dominate",
    "cli": "the 17 README CLI commands, each once per pass in README order: interpreter start, "
           "import and first-use builders dominate",
}


def key_of(argv: list[str]) -> str:
    """Golden file stem for a command, its ``--seed`` value left out."""
    parts, skip = [], False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--seed" and argv[0] == "verify-all":
            skip = True
            continue
        parts.append(re.sub(r"[^A-Za-z0-9]+", "_", a).strip("_"))
    return "-".join(p for p in parts if p)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The commands of one repetition of a workload, in run order."""
    if workload == "certify":
        return [["verify-all", "--seed", str(seed)]]
    if workload == "cli":
        return [c.split() for c in CLI_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SPINBITS_MAX_N", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = str(seed)
    return env


class Result(NamedTuple):
    """One finished child: exit code, output bytes, start stamp, wall and CPU seconds."""

    argv: list[str]
    code: int
    out: bytes
    err: bytes
    start: float
    wall: float
    cpu: float

    @property
    def end(self) -> float:
        return self.start + self.wall


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_child_rss_mb() -> float:
    """Largest max-RSS of any child waited for so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def launch(prefix: list[str], args: list[str], env: dict, timeout: float) -> Result:
    """Run ``python *prefix *args`` to completion; never leaves it running.

    ``start`` is a ``time.perf_counter`` stamp, comparable with the speed
    probe's.
    """
    argv = [sys.executable, *prefix, *args]
    c0 = _cpu_children()
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
        except BaseException:  # interrupted: stop the child before leaving
            p.kill()
            raise
        wall = time.perf_counter() - t0
    return Result(args, p.returncode, out, err, t0, wall, _cpu_children() - c0)


def golden(argv: list[str]) -> bytes | None:
    path = GOLDEN / f"{key_of(argv)}.out"
    return path.read_bytes() if path.is_file() else None
