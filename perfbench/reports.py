"""Checks a ``spin7lab verify`` JSON report against the stored references.

``references/verify-seed<n>.json`` are default reports of the unmodified
library for a few fixed seeds.  For a seed with a reference the report must
match it byte for byte.  For every seed:

* each check in the report passed, and all 29 are present;
* every record that is the same in all references (projector ranks, orbit
  dimensions 21/42, the certificate table, ...) is equal to the reference;
* the headline fields (summary, suites, stabilizer and image dimensions,
  admissible diagrams) equal the reference, and the seed is the one asked.

The result is a list of (item, passed) pairs; a mismatch is counted, never
raised.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
HEADLINE = ("summary", "suites", "stabilizer_dim", "image_dim",
            "admissible_diagrams")


@lru_cache(maxsize=1)
def _references() -> dict[int, bytes]:
    return {int(p.stem.removeprefix("verify-seed")): p.read_bytes()
            for p in sorted(REFERENCE_DIR.glob("verify-seed*.json"))}


@lru_cache(maxsize=1)
def _seed_independent() -> tuple[dict, dict]:
    """(headline, {(suite, name): record}) shared by every reference."""
    reports = [json.loads(raw) for raw in _references().values()]
    first = reports[0]
    records = {}
    for rec in first["checks"]:
        key = (rec["suite"], rec["name"])
        if all(rec in other["checks"] for other in reports[1:]):
            records[key] = rec
    return {k: first.get(k) for k in HEADLINE}, records


def reference(seed: int) -> bytes:
    return _references()[seed]


def check_report(raw: bytes, seed: int, exit_code: int) -> list[tuple[str, bool]]:
    items = [("exit-code", exit_code == 0)]
    reference = _references().get(seed)
    if reference is not None:
        items.append(("byte-identical", raw == reference))
    headline, records = _seed_independent()
    try:
        report = json.loads(raw)
        checks = {(r["suite"], r["name"]): r for r in report["checks"]}
    except (ValueError, KeyError, TypeError):
        report, checks = {}, {}
    items.append(("check-count", len(checks) == headline["summary"]["total"]))
    for key in sorted(checks):
        items.append((f"passed:{key[1]}", checks[key].get("passed") is True))
    for key, rec in sorted(records.items()):
        items.append((f"record:{key[1]}", checks.get(key) == rec))
    items.append(("headline", all(report.get(k) == v for k, v in headline.items())
                  and report.get("seed") == seed))
    return items
