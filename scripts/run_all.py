#!/usr/bin/env python3
"""Run every verification suite and print the human-readable table.

Equivalent to `spin7lab verify --format text`; kept as a script so the
checks can be run straight from a checkout without installing the
console entry point.
"""

import sys

from spin7lab.harness.cli import main

if __name__ == "__main__":
    sys.exit(main(["verify", "--format", "text", *sys.argv[1:]]))
