"""Every subcommand in every --format, against outputs recorded in
``cli_formats.json``.

The recording holds the exit code and stdout of each command below as
the CLI printed them before its output paths were folded into one
emitter.  Regenerate it (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_formats.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from spinbits.cli import main

RECORDING = Path(__file__).resolve().parent / "cli_formats.json"

FORMATS = ("text", "json", "latex")
G2_MATRIX = "--matrix 1/2,0,-3,0,0,0,0,0,0,0,0,2/3,0,1"

COMMANDS = [
    *(f"spinor mul --n 8 --p 5 --index 11 --format {f}" for f in FORMATS),
    *(f"rep matrix --n 6 --word e1e2 --space full --format {f}" for f in FORMATS),
    *(f"rep matrix --n 8 --word e2e3 --space {s} --format text"
      for s in ("plus", "minus", "real-plus", "real-minus", "vector")),
    # odd words move between the real forms, and have none to move to at n = 9
    "rep matrix --n 8 --word e1 --space real-plus",
    "rep matrix --n 8 --word e1e2e3 --space real-minus",
    "rep matrix --n 9 --word e1 --space real-plus",
    *(f"triality {w} --format {f}" for w in ("sigma", "tau") for f in FORMATS),
    *(f"triality {w} --check-order --format {f}" for w in ("sigma", "tau") for f in FORMATS),
    *(f"triality sigma --eigen {e} --format {f}" for e in ("omega", "omega-bar") for f in FORMATS),
    *(f"triality tau --eigen=-1 --format {f}" for f in FORMATS),
    *(f"triality g2 --format {f}" for f in FORMATS),
    *(f"triality g2 --generators --format {f}" for f in FORMATS),
    *(f"triality g2 {G2_MATRIX} --format {f}" for f in FORMATS),
    *(f"triality {w} --format {f}" for w in ("s3", "center") for f in FORMATS),
    *(f"octonion {w} --format {f}" for w in ("table", "quaternions") for f in FORMATS),
    *(f"octonion check --samples 5 --seed 2 --format {f}" for f in FORMATS),
    "forms omega",
    "forms omega --latex",
    "forms omega --check-square",
    "forms phi",
    "forms phi --latex",
    *(f"fields --sphere 15 --format {f}" for f in FORMATS),
    *(f"fields --sphere 23 --split 2,1 --emit matrices --format {f}" for f in FORMATS),
    *(f"fields --sphere 15 --verify --samples 3 --format {f}" for f in FORMATS),
    # |z|^2 <= 16 * 81 fits the Gram check's 2-byte digits at N = 16; at N = 2048
    # the points' |z|^2 exceed 2^15, so the digits take 4 bytes
    *(f"fields --sphere 2047 --verify --samples 3 --format {f}" for f in FORMATS),
    "fields --sphere 2 --format text",
    "fields --sphere 2 --emit matrices --format text",
    *(f"verify-all --samples 0 --max-n 4 --format {f}" for f in ("text", "json")),
]

# Outputs that changed with the fold, each mapped to the recorded command
# whose output it now equals: --format latex of a value with no LaTeX form
# prints its text form (these printed a Python repr), and a sphere with no
# fields prints one empty line for its matrices, as for its coordinates
CHANGED = {
    **{f"triality {w} --format latex": f"triality {w} --format text"
       for w in ("sigma --eigen omega", "sigma --eigen omega-bar", "tau --eigen=-1",
                 "g2 --generators")},
    "fields --sphere 2 --emit matrices --format text": "fields --sphere 2 --format text",
}


def run(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return {"code": code, "stdout": out.getvalue()}


@functools.lru_cache(maxsize=None)
def recorded():
    return json.loads(RECORDING.read_text())


def expected(command):
    return recorded()[CHANGED.get(command, command)]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_matches_recording(command):
    assert run(command) == expected(command)


if __name__ == "__main__":
    RECORDING.write_text(json.dumps({c: run(c) for c in COMMANDS}, indent=1) + "\n")
