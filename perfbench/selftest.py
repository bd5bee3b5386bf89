"""Self-test of the benchmark's own checks: injected faults must be counted.

    python3 perfbench/selftest.py

* a cold ``verify`` whose suites run on a Lie frame with a wrong structure
  constant must yield failed checks, not a crash;
* chamber-sweep samples on the same frame must fail;
* a report that differs from its reference by one byte must fail, and the
  reference itself must pass;
* the cold-cache guard must refuse an interpreter whose artifacts are built.

Prints one JSON line and exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import sys

import child
import reports
import run
import sweeps


def _ratio(items) -> float:
    return sum(not ok for _, ok in items) / len(items)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    _, verify_items = run.verify_sample(0, "--fault")
    errors: list[str] = []
    ctx = sweeps.setup("chamber-sweep", frame=sweeps.corrupted_frame())
    chamber_items = [(row[0], row[1]) for index in range(3)
                     for row in sweeps.run_checks("chamber-sweep", sweeps.draw_or_none(
                         "chamber-sweep", ctx, 0, index, errors), errors)]
    good = (reports.REFERENCE_DIR / "verify-seed0.json").read_bytes()
    bad = good.replace(b'"stabilizer_dim": 21', b'"stabilizer_dim": 22')
    try:
        child._require_cold()   # this process has built the chamber artifacts
        guard = False
    except SystemExit:
        guard = True
    result = {
        "verify_fault_failed_ratio": _ratio(verify_items),
        "chamber_fault_failed_ratio": _ratio(chamber_items),
        "corrupted_report_failed_ratio": _ratio(reports.check_report(bad, 0, 0)),
        "reference_report_failed_ratio": _ratio(reports.check_report(good, 0, 0)),
        "cold_cache_guard": guard,
    }
    ok = (result["verify_fault_failed_ratio"] > 0
          and result["chamber_fault_failed_ratio"] > 0
          and result["corrupted_report_failed_ratio"] > 0
          and result["reference_report_failed_ratio"] == 0
          and guard and bad != good)
    print(json.dumps(dict(result, ok=ok), sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
