"""Command-line entry point: `spin7lab verify` and `spin7lab export`.

The JSON report is the source of truth and is byte-identical across runs
with the same (suites, seed): check durations are zeroed in JSON unless
--timings is passed (the text table always shows real timings).  Exit
codes: 0 all checks passed, 1 at least one failed, 2 usage or internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .checks import SUITE_NAMES, CheckResult, run_all_suites

__all__ = ["RunConfig", "run", "export_form", "main"]


@dataclass(frozen=True)
class RunConfig:
    suites: tuple[str, ...] = SUITE_NAMES
    seed: int = 0
    output: str | None = None          # None = standard output
    format: str = "json"               # "json" | "text"
    include_timings: bool = False      # real durations in JSON (not reproducible)

    def __post_init__(self):
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suite: {', '.join(unknown)}")
        if self.format not in ("json", "text"):
            raise ValueError(f"unknown format: {self.format}")


def _report(config: RunConfig, results: dict[str, list[CheckResult]]) -> dict:
    checks = []
    for suite, rows in results.items():
        for r in rows:
            rec = r.to_record(zero_timings=not config.include_timings)
            rec["suite"] = suite
            checks.append(rec)
    total = len(checks)
    passed = sum(1 for c in checks if c["passed"])
    report = {
        "seed": config.seed,
        "suites": list(results.keys()),
        "summary": {"total": total, "passed": passed,
                    "failed": total - passed},
        "checks": checks,
    }
    # hoist the headline quantities when their suites ran
    for rec in checks:
        if rec["name"] == "orbit-dimensions":
            report["stabilizer_dim"] = rec["detail"].get("stabilizer_dim")
            report["image_dim"] = rec["detail"].get("image_dim")
        if rec["name"] == "admissible-set":
            report["admissible_diagrams"] = rec["detail"].get(
                "admissible_diagrams")
    return report


def _text_table(results: dict[str, list[CheckResult]]) -> str:
    lines = [f"{'suite':<16}{'check':<30}{'result':<8}{'ms':>6}"]
    lines.append("-" * 60)
    for suite, rows in results.items():
        for r in rows:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{suite:<16}{r.name:<30}{status:<8}"
                         f"{r.duration_millis:>6}")
    total = sum(len(rows) for rows in results.values())
    passed = sum(r.passed for rows in results.values() for r in rows)
    lines.append("-" * 60)
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def run(config: RunConfig) -> int:
    """Execute the configured suites; 0 all passed, 1 any failure."""
    results = run_all_suites(config.suites, seed=config.seed)
    if config.format == "json":
        payload = json.dumps(_report(config, results), indent=2,
                             sort_keys=True) + "\n"
    else:
        payload = _text_table(results)
    _emit(payload, config.output)
    all_passed = all(r.passed for rows in results.values() for r in rows)
    return 0 if all_passed else 1


def _parse_vector(text: str):
    from ..exterior.forms import Vector
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 8:
        raise ValueError("vectors take exactly 8 comma-separated rationals")
    return Vector(parts)


def export_form(form: str, path: str, v: str | None = None,
                w: str | None = None, t: str = "1") -> dict:
    """Serialize one of the named forms to canonical JSON at `path`."""
    if form == "omega":
        from ..cayley import build_omega
        record = build_omega().omega.to_record()
    elif form == "phi":
        from ..invariant.bryant_salamon import build_bryant_salamon
        record = build_bryant_salamon().phi.to_record()
    elif form == "rank-one":
        from ..cayley import perturb_rank_one
        if v is None or w is None:
            raise ValueError("rank-one export needs --v and --w")
        record = perturb_rank_one(_parse_vector(v), _parse_vector(w), t).to_record()
    else:
        raise ValueError(f"unknown form: {form}")
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    _emit(payload, path)
    return record


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin7lab",
        description="exact verification of linear Spin(7) perturbations")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", action="append", choices=SUITE_NAMES,
                        help="suite to run (repeatable; default: all)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property checks")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--out", default=None, help="output path (default: stdout)")
    verify.add_argument("--timings", action="store_true",
                        help="include real durations in JSON (breaks "
                             "byte-reproducibility)")

    export = sub.add_parser("export", help="serialize a named form to JSON")
    export.add_argument("--form", required=True,
                        choices=("omega", "phi", "rank-one"))
    export.add_argument("--v", default=None,
                        help="8 comma-separated rationals (rank-one only)")
    export.add_argument("--w", default=None,
                        help="8 comma-separated rationals (rank-one only)")
    export.add_argument("--t", default="1", help="rational scale, e.g. 5/7")
    export.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            config = RunConfig(
                suites=tuple(args.suite) if args.suite else SUITE_NAMES,
                seed=args.seed, output=args.out, format=args.format,
                include_timings=args.timings)
            return run(config)
        export_form(args.form, args.out, v=args.v, w=args.w, t=args.t)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
