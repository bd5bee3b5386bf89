#!/usr/bin/env python3
"""Print the nilpotent-orbit classification table.

One row per Jordan type (all 22 partitions of 8): the dimension of the
kernel of ω ↦ ρ(A)²ω on Λ⁴, the verdict, and — for excluded types — the
certificate pair on which the contraction cube vanishes identically over
that kernel.
"""

import argparse
import sys

from spin7lab.classify import classification_report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timings", action="store_true",
                        help="show per-diagram wall clock")
    args = parser.parse_args(argv)

    report = classification_report()
    header = f"{'jordan type':<22}{'dim K':>6}  {'verdict':<12}{'certificate pair':<20}"
    if args.timings:
        header += f"{'ms':>8}"
    print(header)
    print("-" * len(header))
    for cert, millis in report.rows:
        pair = ""
        if cert.pair is not None:
            pair = ", ".join(lv.label or "?" for lv in cert.pair)
        row = (f"{str(cert.diagram):<22}{cert.dim_kernel:>6}  "
               f"{cert.verdict:<12}{pair:<20}")
        if args.timings:
            row += f"{millis:>8}"
        print(row)
    admissible = ", ".join(str(d) for d in report.admissible)
    print(f"\nadmissible: {admissible}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
