#!/usr/bin/env python3
"""Dump the named forms to canonical JSON files.

Writes omega.json (the Cayley 4-form), phi.json (the cohomogeneity-one
4-form in chamber variables), and rank_one.json (a sample perturbed
Cayley form Ω + t·v♭∧(w⌟Ω)) into the chosen directory.
"""

import argparse
import pathlib
import sys

from spin7lab.harness.cli import export_form


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="exported", help="target directory")
    parser.add_argument("--t", default="5/7", help="rank-one scale (rational)")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    export_form("omega", str(outdir / "omega.json"))
    export_form("phi", str(outdir / "phi.json"))
    export_form("rank-one", str(outdir / "rank_one.json"),
                v="0,0,0,0,0,0,1,0", w="0,0,0,0,0,0,0,1", t=args.t)
    for name in ("omega.json", "phi.json", "rank_one.json"):
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
