"""The three warm sweeps: seeded samples of exact identities.

``cayley-sweep`` draws a rank-one nilpotent A, a 4-form ω and an
independent pair (u, v) and checks, over ℚ:

* p₁(ρ(A)Ω) = 0 and p₂₇(ρ(A)Ω) = 0;
* ρ(A)²ω = 0;
* Λ⁴exp(tA)* Ω = Ω + t ρ(A)Ω for t ∈ {1, −3, 5/7};
* (u⌟v⌟Ω)³ ≠ 0.

``chamber-sweep`` draws an even invariant field Y and a rational chamber
point and checks d(Φ + dt∧Y⌟Φ) = 0, the closure mechanism, the orbit
witness and the framed rank-one criterion at the point.

``classify-sweep`` runs the classifier on all 22 Jordan types: each
certificate (verdict, kernel dimension, pair) must equal the row of the
reference report.  Four seeded representatives, conjugated by seeded
unimodular matrices, must come back with their own Jordan types.
"""

from __future__ import annotations

import json
import random
import time
import traceback

import reports

CAYLEY_CHECKS = ("projection-1-27", "rho-square-zero", "exponential-pullback",
                 "contraction-cube")
CHAMBER_CHECKS = ("perturbed-closedness", "closure-mechanism",
                  "orbit-witness", "pointwise-rank-one")
JORDAN_SAMPLES = 4
CLASSIFY_CHECKS = ("certificate",) * 22 + ("jordan-type",) * JORDAN_SAMPLES
CHECKS = {"cayley-sweep": CAYLEY_CHECKS, "chamber-sweep": CHAMBER_CHECKS,
          "classify-sweep": CLASSIFY_CHECKS}


def setup(workload: str, frame=None) -> dict:
    """Import the library and build the artifacts a sweep reuses."""
    from spin7lab import cayley
    if workload == "cayley-sweep":
        return {"omega": cayley.build_omega().omega,
                "projectors": cayley.projectors()}
    if workload == "classify-sweep":
        return {"certificates": reference_certificates()}
    from spin7lab.invariant.bryant_salamon import build_bryant_salamon
    from spin7lab.invariant.liealg import build_lie_frame
    cayley.build_omega()  # the pointwise check reuses Ω
    return {"frame": frame or build_lie_frame(), "bs": build_bryant_salamon()}


def reference_certificates() -> dict[tuple[int, ...], dict]:
    """The 22-row certificate table of the reference verify report."""
    report = json.loads(reports.reference(0))
    details = {rec["name"]: rec["detail"] for rec in report["checks"]}
    table = {tuple(row["diagram"]): row
             for row in details["exclusion-certificates"]["certificates"]}
    for parts in details["admissible-set"]["admissible_diagrams"]:
        table[tuple(parts)] = {"diagram": parts, "dim_kernel": 70,
                               "verdict": "admissible", "pair": None}
    return table


def corrupted_frame():
    """The connection frame with [A4, A5] = 3 A6, a wrong structure constant."""
    from spin7lab.exterior.scalars import FieldScalar
    from spin7lab.invariant.liealg import build_lie_frame
    frame = build_lie_frame()
    mutated = [[list(row) for row in plane] for plane in frame.structure]
    mutated[3][4][5] = FieldScalar(3)
    return frame.with_structure(tuple(tuple(tuple(r) for r in p)
                                      for p in mutated))


def _cayley_checks(ctx: dict, rng: random.Random):
    from spin7lab.cayley import pair_contraction_cube
    from spin7lab.exterior.endo import exp_nilpotent, pullback, rho
    from spin7lab.exterior.scalars import FieldScalar
    from spin7lab.sampling import (random_form, random_independent_pair,
                                   random_rank_one_nilpotent)
    omega, ps = ctx["omega"], ctx["projectors"]
    a = random_rank_one_nilpotent(rng)
    form = random_form(rng, 4)
    u, v = random_independent_pair(rng)

    def projection():
        delta = rho(a, omega)
        return not ps.p1(delta) and not ps.p27(delta)

    def exponential_pullback():
        delta = rho(a, omega)
        return all(pullback(exp_nilpotent(t * a), omega) == omega + t * delta
                   for t in (FieldScalar(1), FieldScalar(-3), FieldScalar("5/7")))

    return [("projection-1-27", projection),
            ("rho-square-zero", lambda: not rho(a, rho(a, form))),
            ("exponential-pullback", exponential_pullback),
            ("contraction-cube", lambda: bool(pair_contraction_cube(u, v, omega)))]


def _chamber_checks(ctx: dict, rng: random.Random):
    from spin7lab.exterior.scalars import Q
    from spin7lab.invariant.bryant_salamon import (
        InvariantField, closure_mechanism_holds, orbit_witness_holds,
        perturbed_form, pointwise_rank_one_check)
    from spin7lab.invariant.chamber import maurer_cartan_d
    from spin7lab.sampling import random_even_scalar
    frame, bs = ctx["frame"], ctx["bs"]
    field = InvariantField.of(*(random_even_scalar(rng) for _ in range(3)))
    s0 = Q(rng.randrange(1, 30), rng.randrange(1, 30))

    def pointwise():
        rec = pointwise_rank_one_check(field, s0)
        return rec["in_orbit"] and (rec.get("trivial") or
                                    rec.get("jordan_type") == [2, 1, 1, 1, 1, 1, 1])

    return [("perturbed-closedness",
             lambda: not maurer_cartan_d(perturbed_form(field, bs), frame)),
            ("closure-mechanism", lambda: closure_mechanism_holds(field, bs, frame)),
            ("orbit-witness", lambda: orbit_witness_holds(field, bs)),
            ("pointwise-rank-one", pointwise)]


def _classify_checks(ctx: dict, rng: random.Random):
    from spin7lab.classify import (enumerate_diagrams, find_certificate,
                                   jordan_type_of, representative)
    from spin7lab.sampling import random_unimodular
    diagrams = enumerate_diagrams()
    checks = [("certificate", lambda d=d, e=ctx["certificates"][d.parts]:
               find_certificate(d).to_record() == e) for d in diagrams]
    for d in rng.sample(diagrams, JORDAN_SAMPLES):
        g, g_inv = random_unimodular(rng)
        checks.append(("jordan-type", lambda d=d, m=g @ representative(d).matrix @ g_inv:
                       jordan_type_of(m) == d))
    return checks


_DRAW = {"cayley-sweep": _cayley_checks, "chamber-sweep": _chamber_checks,
         "classify-sweep": _classify_checks}


def draw(workload: str, ctx: dict, seed: int, index: int):
    """The checks of sample ``index``, as (name, thunk) pairs.  Its inputs
    come from a generator of its own, so a run's samples depend only on the
    seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
    return _DRAW[workload](ctx, rng)


def _uncalibrated() -> tuple[float, float]:
    return 0.0, 0.0


def run_checks(workload: str, checks, errors: list[str],
               calibrate=_uncalibrated):
    """Time each check: [(check, passed, wall s, CPU s, calibration wall s,
    calibration CPU s)].  ``calibrate()`` returns (wall, CPU) seconds and
    runs before and after every check.  ``checks`` None (drawing raised)
    fails every check.  An exception fails its check instead of stopping
    the sweep."""
    if checks is None:
        return [(name, False, 0.0, 0.0, 0.0, 0.0) for name in CHECKS[workload]]
    out = []
    for name, check in checks:
        before = calibrate()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            passed = bool(check())
        except Exception:  # a broken library must be counted, not crash the sweep
            errors.append(traceback.format_exc(limit=3))
            passed = False
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        after = calibrate()
        out.append((name, passed, wall, cpu, before[0] + after[0],
                    before[1] + after[1]))
    return out


def draw_or_none(workload: str, ctx: dict, seed: int, index: int,
                 errors: list[str]):
    """``draw``, or None with the error recorded when drawing raises."""
    try:
        return draw(workload, ctx, seed, index)
    except Exception:  # counted as failed checks by run_checks
        errors.append(traceback.format_exc(limit=3))
        return None
