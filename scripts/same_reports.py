#!/usr/bin/env python3
"""Whether two checkouts print the same ``spin7lab verify`` reports.

Runs ``python -m spin7lab.harness.cli verify --seed N`` for N = 0..39 in
this checkout and in PARENT_DIR, each with ``PYTHONPATH`` set to that
tree's ``src/``, and compares the two outputs and exit codes byte for
byte.  Prints the first seed whose reports differ and exits 1, or prints
that all seeds agree and exits 0.  It takes no flags:

    python3 scripts/same_reports.py PARENT_DIR
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SEEDS = range(40)


def report(tree: pathlib.Path, seed: int) -> tuple[int, bytes]:
    """(exit code, stdout) of the default verify report of one seed, run
    on the package under tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "spin7lab.harness.cli", "verify", "--seed",
         str(seed)], env=env, capture_output=True)
    return done.returncode, done.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/same_reports.py PARENT_DIR",
              file=sys.stderr)
        return 2
    parent, child = pathlib.Path(argv[0]).resolve(), HERE.parent
    for seed in SEEDS:
        if report(parent, seed) != report(child, seed):
            print(f"seed {seed}: the reports differ")
            return 1
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}: the reports are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
