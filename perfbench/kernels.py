"""Scalar microkernels on operands taken from the workloads.

* rational: coefficients of ρ(A)Ω for seeded rank-one nilpotents A, and the
  nonzero entries of the classifier matrices of ω ↦ ρ(A)²ω for two Jordan
  representatives;
* surd: the nonzero structure constants of the Killing-orthonormal sp(2)
  frame, where the √2, √3, √6 constants of the library live;
* chamber: the coefficients of the Bryant–Salamon form Φ and of seeded even
  invariant-field coefficients Y.

Each kernel times one operation over a fixed seeded list of operands,
repeats the pass and reports the median in nanoseconds per operation.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

_REPEATS = 7


def _field_bits(x) -> int:
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
               for q in x.quadruple())


def _chamber_bits(x) -> int:
    return max((_field_bits(c) for c in x.terms.values()), default=0)


def operands(seed: int) -> dict:
    from spin7lab.cayley import build_omega
    from spin7lab.classify import enumerate_diagrams, representative
    from spin7lab.exterior.endo import rho
    from spin7lab.exterior.forms import basis_blades
    from spin7lab.invariant.bryant_salamon import build_bryant_salamon
    from spin7lab.invariant.liealg import build_orthonormal_frame
    from spin7lab.sampling import random_even_scalar, random_rank_one_nilpotent

    rng = random.Random(f"perfbench:kernels:{seed}")
    omega = build_omega().omega
    rational = []
    for _ in range(4):
        rational.extend(c for _, c in rho(random_rank_one_nilpotent(rng),
                                          omega).mask_items())
    for diagram in rng.sample(enumerate_diagrams()[:-2], 2):
        a = representative(diagram).matrix
        for b in basis_blades(4):
            rational.extend(c for _, c in rho(a, rho(a, b)).mask_items())
    surd = [c for plane in build_orthonormal_frame().structure
            for row in plane for c in row if c and not c.is_rational()]
    chamber = list(build_bryant_salamon().phi.terms.values())
    chamber += [random_even_scalar(rng) for _ in range(16)]
    chamber = [c for c in chamber if c]
    return {"rational": rational, "surd": surd, "chamber": chamber}


def _time_per_op(fn, items) -> float:
    passes = []
    for _ in range(_REPEATS):
        start = perf_counter_ns()
        fn(items)
        passes.append((perf_counter_ns() - start) / len(items))
    return statistics.median(passes)


def _mul_all(pairs):
    for a, b in pairs:
        a * b


def _add_all(pairs):
    for a, b in pairs:
        a + b


def _inverse_all(xs):
    for x in xs:
        x.inverse()


def _derivative_all(xs):
    for x in xs:
        x.derivative()


def run(seed: int) -> tuple[dict, dict, list[tuple[str, bool]]]:
    """(metrics, operand bit lengths, correctness checks) for the kernels."""
    from spin7lab.exterior.scalars import ONE
    pools = operands(seed)
    rng = random.Random(f"perfbench:kernel-pairs:{seed}")

    def pairs(pool, n):
        return [(rng.choice(pool), rng.choice(pool)) for _ in range(n)]

    rational_pairs = pairs(pools["rational"], 512)
    surd_pairs = pairs(pools["surd"], 256)
    chamber_pairs = pairs(pools["chamber"], 48)
    chamber_single = [rng.choice(pools["chamber"]) for _ in range(48)]
    metrics = {
        "scalars.mul_rational_ns": _time_per_op(_mul_all, rational_pairs),
        "scalars.mul_surd_ns": _time_per_op(_mul_all, surd_pairs),
        "scalars.add_ns": _time_per_op(_add_all, rational_pairs),
        "scalars.inverse_ns": _time_per_op(_inverse_all, pools["surd"]),
        "scalars.chamber_mul_ns": _time_per_op(_mul_all, chamber_pairs),
        "scalars.chamber_derivative_ns": _time_per_op(_derivative_all,
                                                      chamber_single),
    }
    bits = {}
    for name, pool in pools.items():
        sizes = [(_chamber_bits if name == "chamber" else _field_bits)(x)
                 for x in pool]
        bits[name] = {"operands": len(pool), "max_bits": max(sizes),
                      "mean_bits": statistics.fmean(sizes)}
    checks = [("surd-inverse", all(x * x.inverse() == ONE for x in pools["surd"])),
              ("surd-operands", len(pools["surd"]) > 0)]
    return metrics, bits, checks
