"""Write perfbench/golden/: the stdout of every command the workloads run.

    python3 perfbench/make_golden.py

Run from the root of a checkout whose outputs are the reference.  Each
command runs cold under PYTHONHASHSEED 1, 2 and 3 (``verify-all`` also
with ``--seed`` 1, 2 and 3); the script refuses to write a
golden file unless every run exits 0 with byte-identical stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ENTRY, GOLDEN, WHY, child_env, commands, key_of, launch  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    if not Path("src/spinbits/cli.py").is_file():
        print("error: run from the root of a spinbits checkout", file=sys.stderr)
        return 2
    outputs: dict[str, set] = {}
    for workload in WHY:
        for seed in SEEDS:
            env = child_env(seed)
            for argv in commands(workload, seed):
                res = launch(ENTRY, argv, env, timeout=600)
                if res.code != 0:
                    print(f"error: exit {res.code}: {' '.join(argv)}", file=sys.stderr)
                    return 1
                outputs.setdefault(key_of(argv), set()).add(res.out)
                print(f"{res.wall:8.3f} s  seed {seed}  {' '.join(argv)}", file=sys.stderr)
    unstable = [k for k, outs in outputs.items() if len(outs) != 1]
    if unstable:
        print(f"error: output depends on the seed: {unstable}", file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for key, (out,) in outputs.items():
        (GOLDEN / f"{key}.out").write_bytes(out)
    print(f"wrote {len(outputs)} golden files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
