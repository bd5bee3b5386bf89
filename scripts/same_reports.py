#!/usr/bin/env python3
"""Whether two checkouts print the same ``spin7lab`` reports and exports.

Runs ``python -m spin7lab.harness.cli verify --seed N`` for N = 0..39, then
the three exports of EXPORTS (Ω, Φ and one rank-one perturbation of Ω), in
this checkout and in PARENT_DIR, each with ``PYTHONPATH`` set to that
tree's ``src/``, and compares the two outputs and exit codes byte for
byte.  Prints the first seed or export whose outputs differ and exits 1,
or prints that all of them agree and exits 0.  It takes no flags:

    python3 scripts/same_reports.py PARENT_DIR
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SEEDS = range(40)
EXPORTS = (("--form", "omega"), ("--form", "phi"),
           ("--form", "rank-one", "--v", "0,0,0,0,0,0,1,0",
            "--w", "0,0,0,0,0,0,0,1", "--t", "5/7"))


def output(tree: pathlib.Path, *args: str) -> tuple[int, bytes]:
    """(exit code, stdout) of one command line of the package under
    tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "spin7lab.harness.cli", *args], env=env,
        capture_output=True)
    return done.returncode, done.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/same_reports.py PARENT_DIR",
              file=sys.stderr)
        return 2
    parent, child = pathlib.Path(argv[0]).resolve(), HERE.parent
    for seed in SEEDS:
        args = ("verify", "--seed", str(seed))
        if output(parent, *args) != output(child, *args):
            print(f"seed {seed}: the reports differ")
            return 1
    for export in EXPORTS:
        if output(parent, "export", *export) != output(child, "export",
                                                      *export):
            print(f"export {' '.join(export)}: the outputs differ")
            return 1
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1} and {len(EXPORTS)} exports:"
          " the outputs are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
