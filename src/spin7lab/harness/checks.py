"""Named verification checks grouped into the five runnable suites.

``SUITES`` is the one table of them: each suite name maps to its (check
name, check function) pairs in report order.  Every check is called as
``check(run, rng)``, where ``run`` holds what the checks of one suite run
share (the Lie frame and the classification report, each built on first
read) and ``rng`` is a ``Random`` seeded with "<run seed>:<check name>",
so identical (suites, seed) runs produce identical reports.  A failing
check never raises — it returns a CheckResult carrying a serialized
witness of the failure (the offending form, pair, or residual), which is
what makes fault-injection tests observable rather than crashy.  A check
that raises fails with the error and the place in this package where it
was raised.
"""

from __future__ import annotations

import functools
import os
import time
from itertools import combinations
from random import Random

from .._record import Record
from ..cayley import (build_omega, image_dimension, pair_contraction_cube,
                      projectors, skew_perturbation, sl8_basis, so8_basis,
                      stabilizer_algebra)
from ..classify import (ClassificationReport, classification_report,
                        enumerate_diagrams, jordan_type_of)
from ..exterior.endo import exp_nilpotent, pullback, rho
from ..exterior.forms import FormOperator, basis_blades, hodge_star, inner
from ..exterior.scalars import Q
from ..invariant.bryant_salamon import (InvariantField, build_bryant_salamon,
                                        build_metric, closure_mechanism_sides,
                                        lemma_invariant_forms,
                                        metric_lie_derivative,
                                        orbit_witness_sides, perturbed_form,
                                        pointwise_rank_one_check,
                                        proposition_display)
from ..invariant.chamber import (S, ChamberForm, ChamberScalar,
                                 lie_derivative, maurer_cartan_d)
from ..invariant.liealg import (N_GENERATORS, SP1_PLUS, LieFrame,
                                ORTHONORMAL_SQUARED_SCALES, build_integer_frame,
                                build_lie_frame, generator_coords,
                                killing_matrix, normalizer)
from ..sampling import (random_even_scalar, random_form,
                        random_independent_pair, random_rank_one_nilpotent)

__all__ = ["CheckResult", "SUITES", "SUITE_NAMES", "run_suite",
           "run_all_suites"]

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The displayed value of (e7 <| e8 <| Omega)^3 in the source text; the lab
# recomputes the cube from scratch and reports both, asserting only that
# the computed value is nonzero (which is all the degeneracy argument uses).
QUOTED_CUBE_DISPLAY = "6e^{354867}"


class CheckResult(Record):
    name: str
    passed: bool
    detail: dict = None  # None: a new empty dict
    duration_millis: int = 0
    __hash__ = None  # equal by value, but it holds a dict

    def __post_init__(self):
        if self.detail is None:
            self.__dict__["detail"] = {}

    def to_record(self, *, zero_timings: bool = False) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail,
                "duration_millis": 0 if zero_timings else self.duration_millis}


class _Run:
    """What the checks of one suite run share: the Lie frame (from the
    module hook ``build_lie_frame``) and the classification report, each
    built by the first check that reads it; a build that raises is not
    kept, so each check that reads it reports its own error."""

    @functools.cached_property
    def frame(self) -> LieFrame:
        return build_lie_frame()

    @functools.cached_property
    def report(self) -> ClassificationReport:
        return classification_report()


def _raised_at(exc: Exception) -> str:
    """'<path in the package>:<line> in <function>' of the innermost frame
    of the traceback that lies in the spin7lab package."""
    import traceback  # only a raising check needs it
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if os.path.abspath(f.filename).startswith(_PACKAGE_DIR + os.sep)]
    frame = frames[-1]  # never empty: _timed's own frame is in the package
    path = os.path.relpath(os.path.abspath(frame.filename), _PACKAGE_DIR)
    return f"{path.replace(os.sep, '/')}:{frame.lineno} in {frame.name}"


def _timed(name: str, check, run: _Run, seed: int) -> CheckResult:
    started = time.perf_counter()
    try:
        passed, detail = check(run, Random(f"{seed}:{name}"))
    except Exception as exc:  # a check failure must never crash the run
        passed, detail = False, {"error": f"{type(exc).__name__}: {exc}",
                                 "where": _raised_at(exc)}
    millis = int((time.perf_counter() - started) * 1000)
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       duration_millis=millis)


# --------------------------------------------------------------------------
# basics

def _check_cayley_normalization(run: _Run, rng: Random) -> tuple[bool, dict]:
    omega = build_omega().omega
    starred = hodge_star(omega)
    norm = inner(omega, omega)
    ok = starred == omega and norm == 14
    detail = {"self_dual": starred == omega, "norm": str(norm)}
    if not ok:
        detail["witness"] = (starred - omega).to_record()
    return ok, detail


def _check_orbit_dimensions(run: _Run, rng: Random) -> tuple[bool, dict]:
    stab = len(stabilizer_algebra())
    image_sl8 = image_dimension(sl8_basis())
    image_so8 = image_dimension(so8_basis())
    ok = stab == 21 and image_sl8 == 42 and image_so8 == 7
    detail = {"stabilizer_dim": stab, "image_dim": image_sl8,
              "skew_image_dim": image_so8}
    if not ok:
        detail["witness"] = {"expected": [21, 42, 7]}
    return ok, detail


def _check_contraction_nondegeneracy(run: _Run, rng: Random) -> tuple[bool, dict]:
    omega = build_omega().omega
    for i in range(25):
        u, v = random_independent_pair(rng)
        cube = pair_contraction_cube(u, v, omega)
        if not cube:
            return False, {"samples": i,
                           "witness": {"u": [str(c) for c in u.components()],
                                       "v": [str(c) for c in v.components()]}}
    return True, {"samples": 25, "all_nonzero": True}


def _check_cube_display(run: _Run, rng: Random) -> tuple[bool, dict]:
    omega = build_omega().omega
    cube = pair_contraction_cube(*basis_blades(1)[6:], omega)
    detail = {
        "computed": {f"e^{''.join(map(str, idx))}": str(c)
                     for idx, c in cube.terms()},
        "quoted_display": QUOTED_CUBE_DISPLAY,
        "computed_nonzero": bool(cube),
    }
    if not cube:
        detail["witness"] = cube.to_record()
    return bool(cube), detail


# --------------------------------------------------------------------------
# decomposition

def _check_projector_ranks(run: _Run, rng: Random) -> tuple[bool, dict]:
    ranks = projectors().ranks()
    ok = ranks == (1, 7, 27, 35)
    detail = {"ranks": list(ranks)}
    if not ok:
        detail["witness"] = {"expected": [1, 7, 27, 35]}
    return ok, detail


def _check_resolution_of_identity(run: _Run, rng: Random) -> tuple[bool, dict]:
    ps = projectors()
    ok = ps.is_resolution()
    # a resolution of the identity is idempotent (is_resolution's proof)
    idem = {name: ok or op.is_idempotent()
            for name, op in zip(("p1", "p7", "p27", "p35"), ps.all())}
    detail = {"idempotent": idem, "sums_to_identity": ok}
    if not ok:
        residual = (ps.p1 + ps.p7 + ps.p27 + ps.p35
                    - FormOperator.identity(4))
        detail["witness"] = {
            "not_idempotent": [name for name, i in idem.items() if not i],
            "sum_minus_identity_rank": residual.rank()}
    return ok and all(idem.values()), detail


def _check_star_split(run: _Run, rng: Random) -> tuple[bool, dict]:
    ps = projectors()
    detail = {}
    ok = True
    for _ in range(10):
        form = random_form(rng, 4)
        for name, op, sign in (("p1", ps.p1, 1), ("p7", ps.p7, 1),
                               ("p27", ps.p27, 1), ("p35", ps.p35, -1)):
            part = op(form)
            expect = sign * part
            if hodge_star(part) != expect:
                ok = False
                detail["witness"] = {"component": name,
                                     "form": form.to_record()}
                break
        if not ok:
            break
    detail["samples"] = 10
    detail["eigenvalues"] = {"p1": 1, "p7": 1, "p27": 1, "p35": -1}
    return ok, detail


def _check_rank_one_membership(run: _Run, rng: Random) -> tuple[bool, dict]:
    ps = projectors()
    omega = build_omega().omega
    for i in range(15):
        a = random_rank_one_nilpotent(rng)
        delta = rho(a, omega)
        if ps.p1(delta) or ps.p27(delta):
            return False, {"samples": i,
                           "witness": {"endo": a.to_record(),
                                       "delta": delta.to_record()}}
    return True, {"samples": 15, "pure_7_35": True}


def _check_skew_ansatz(run: _Run, rng: Random) -> tuple[bool, dict]:
    ps = projectors()
    for i in range(15):
        u, v = random_independent_pair(rng)
        delta = skew_perturbation(u, v)
        residual = delta - ps.p7(delta)
        if residual:
            return False, {"samples": i,
                           "witness": {"residual": residual.to_record()}}
    return True, {"samples": 15, "pure_7": True}


# --------------------------------------------------------------------------
# classify

def _check_diagram_enumeration(run: _Run, rng: Random) -> tuple[bool, dict]:
    diagrams = enumerate_diagrams()
    ok = len(diagrams) == 22 and len(set(diagrams)) == 22
    detail = {"count": len(diagrams), "first": list(diagrams[0].parts),
              "last": list(diagrams[-1].parts)}
    if not ok:
        detail["witness"] = {"expected_count": 22, "repeated": sorted(
            list(d.parts) for d in set(diagrams) if diagrams.count(d) > 1)}
    return ok, detail


def _check_admissible_set(run: _Run, rng: Random) -> tuple[bool, dict]:
    admissible = [list(d.parts) for d in run.report.admissible]
    expected = [[2, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 1]]
    ok = sorted(admissible, reverse=True) == sorted(expected, reverse=True)
    detail = {"admissible_diagrams": admissible}
    if not ok:
        detail["witness"] = {"expected": expected}
    return ok, detail


def _check_exclusion_certificates(run: _Run, rng: Random) -> tuple[bool, dict]:
    rows = []
    ok = True
    for cert, _ms in run.report.rows:
        if cert.verdict == "admissible":
            continue
        entry = cert.to_record()
        rows.append(entry)
        if cert.verdict != "excluded" or cert.pair is None:
            ok = False
            entry["witness"] = "missing cubic-vanishing certificate"
    return ok and len(rows) == 20, {"excluded_count": len(rows),
                                    "certificates": rows}


def _check_chain_dual_certificates(run: _Run, rng: Random) -> tuple[bool, dict]:
    """The four length-capped chain diagrams certify via pairs of w-duals."""
    chains = {(3, 2, 2, 1), (2, 2, 2, 2), (2, 2, 2, 1, 1),
              (2, 2, 1, 1, 1, 1)}
    found, bad = {}, {}
    for cert, _ms in run.report.rows:
        if cert.diagram.parts not in chains:
            continue
        labels = [label for _, label in cert.pair or ()]
        found[str(cert.diagram)] = labels
        if not (len(labels) == 2 and all(l.startswith("w") for l in labels)):
            bad[str(cert.diagram)] = labels
    ok = not bad and len(found) == 4
    detail = {"pairs": found}
    if not ok:
        seen = {cert.diagram.parts for cert, _ms in run.report.rows}
        detail["witness"] = {"not_w_dual_pairs": bad,
                             "missing": sorted(map(list, chains - seen))}
    return ok, detail


def _check_signature_replay(run: _Run, rng: Random) -> tuple[bool, dict]:
    ok = True
    witness = None
    for _ in range(20):
        a = random_rank_one_nilpotent(rng)
        jt = jordan_type_of(a)
        if jt.parts != (2, 1, 1, 1, 1, 1, 1):
            ok = False
            witness = {"endo": a.to_record(), "jordan_type": list(jt.parts)}
            break
    detail = {"samples": 20, "jordan_type": [2, 1, 1, 1, 1, 1, 1]}
    if witness:
        detail["witness"] = witness
    return ok, detail


# --------------------------------------------------------------------------
# bryant-salamon

def _check_lie_frame_consistency(run: _Run, rng: Random) -> tuple[bool, dict]:
    frame = run.frame
    basis = [generator_coords(i) for i in range(N_GENERATORS)]
    for i, j, k in combinations(range(N_GENERATORS), 3):
        t1 = frame.bracket_coords(basis[i], frame.bracket_coords(basis[j], basis[k]))
        t2 = frame.bracket_coords(basis[j], frame.bracket_coords(basis[k], basis[i]))
        t3 = frame.bracket_coords(basis[k], frame.bracket_coords(basis[i], basis[j]))
        total = [a + b + c for a, b, c in zip(t1, t2, t3)]
        if any(total):
            return False, {"witness": {"triple": [i, j, k],
                                       "jacobiator": [str(x) for x in total]}}
    # d^2 = 0 on every coframe generator is the dual statement
    for slot in range(11):
        dd = maurer_cartan_d(maurer_cartan_d(ChamberForm.generator(slot), frame), frame)
        if dd:
            return False, {"witness": {"slot": slot,
                                       "d_squared": dd.to_record()}}
    return True, {"jacobi": True, "d_squared_zero": True}


def _check_sp1_normalizer(run: _Run, rng: Random) -> tuple[bool, dict]:
    h = [generator_coords(i) for i in SP1_PLUS]
    basis = normalizer(run.frame, h)
    dim = len(basis)
    # the normalizer must be spanned by the six diagonal generators
    spans_diag = all(all(not x for x in row[6:]) for row in basis)
    ok = dim == 6 and spans_diag
    detail = {"dimension": dim, "inside_diagonal_block": spans_diag}
    if not ok:
        detail["witness"] = [[str(x) for x in row] for row in basis]
    return ok, detail


def _check_orthonormal_killing(run: _Run, rng: Random) -> tuple[bool, dict]:
    # B(r_i e_i, r_j e_j) = r_i r_j B(e_i, e_j), on the integer frame over Q
    km = killing_matrix(build_integer_frame())
    squares = ORTHONORMAL_SQUARED_SCALES
    ok = all(km[i][j] * squares[i] == (-1 if i == j else 0)
             for i in range(N_GENERATORS) for j in range(N_GENERATORS))
    detail = {"killing_is_minus_identity": ok}
    if not ok:
        detail["witness"] = {
            "integer_killing": [[str(x) for x in row] for row in km],
            "squared_scales": [str(q) for q in squares]}
    return ok, detail


def _check_display_transcription(run: _Run, rng: Random) -> tuple[bool, dict]:
    bs = build_bryant_salamon()
    display = proposition_display()
    ok = bs.phi == display
    detail = {"terms": len(bs.phi.mask_items()),
              "spot_ds_A456": str(bs.phi.coefficient(0, 4, 5, 6)),
              "spot_X1234": str(bs.phi.coefficient(7, 8, 9, 10))}
    if not ok:
        detail["witness"] = (bs.phi - display).to_record()
    return ok, detail


def _check_phi_closedness(run: _Run, rng: Random) -> tuple[bool, dict]:
    bs = build_bryant_salamon()
    residual = maurer_cartan_d(bs.phi, run.frame)
    ok = not residual
    detail = {"d_phi_zero": ok}
    if not ok:
        detail["witness"] = residual.to_record()
    return ok, detail


def _check_invariant_forms_lemma(run: _Run, rng: Random) -> tuple[bool, dict]:
    first, second = lemma_invariant_forms()
    for slot in (4, 5, 6):
        for label, form in (("mixed", first), ("fiber", second)):
            lied = lie_derivative(slot, form, run.frame)
            if lied:
                return False, {"witness": {"generator_slot": slot,
                                           "form": label,
                                           "lie_derivative": lied.to_record()}}
    return True, {"annihilating_generators": [4, 5, 6]}


def _check_killing_fields(run: _Run, rng: Random) -> tuple[bool, dict]:
    metric = build_metric()
    for slot in (4, 5, 6):
        lg = metric_lie_derivative(slot, metric, run.frame)
        if lg:
            return False, {"witness": {"generator_slot": slot,
                                       "residual": lg.to_record()}}
    return True, {"killing_generators": [4, 5, 6]}


def _check_metric_positivity(run: _Run, rng: Random) -> tuple[bool, dict]:
    metric = build_metric()
    diag = metric.is_diagonal()
    pos = metric.has_positive_coefficients()
    detail = {"diagonal": diag, "positive_coefficients": pos}
    if not (diag and pos):
        detail["witness"] = metric.to_record()
    return diag and pos, detail


# --------------------------------------------------------------------------
# perturb

def _check_rank_one_square_zero(run: _Run, rng: Random) -> tuple[bool, dict]:
    for i in range(20):
        a = random_rank_one_nilpotent(rng)
        omega4 = random_form(rng, 4)
        if rho(a, rho(a, omega4)):
            return False, {"samples": i, "witness": {"endo": a.to_record()}}
    return True, {"samples": 20, "rho_squared_zero": True}


def _check_exponential_pullback(run: _Run, rng: Random) -> tuple[bool, dict]:
    omega = build_omega().omega
    ts = (1, -3, Q(5, 7))
    for i in range(8):
        a = random_rank_one_nilpotent(rng)
        delta = rho(a, omega)
        for t in ts:
            lhs = pullback(exp_nilpotent(t * a), omega)
            rhs = omega + t * delta
            if lhs != rhs:
                return False, {"witness": {"endo": a.to_record(),
                                           "t": str(t),
                                           "difference": (lhs - rhs).to_record()}}
    return True, {"samples": 8, "t_values": ["1", "-3", "5/7"]}


def _check_perturbed_closedness(run: _Run, rng: Random) -> tuple[bool, dict]:
    bs = build_bryant_salamon()
    t = ChamberScalar.monomial(1, 2, 0)
    named = [(ChamberScalar.of(1), ChamberScalar.of(0), ChamberScalar.of(0)),
             (t * t, t ** 4 + 1, 3 * t)]
    triples = named + [tuple(random_even_scalar(rng) for _ in range(3))
                       for _ in range(5)]
    for i, triple in enumerate(triples):
        form = perturbed_form(InvariantField.of(*triple), bs)
        residual = maurer_cartan_d(form, run.frame)
        if residual:
            return False, {"witness": {
                "triple": [str(c) for c in triple],
                "residual": residual.to_record()}}
    return True, {"triples": len(triples), "all_closed": True}


def _check_evenness_guard(run: _Run, rng: Random) -> tuple[bool, dict]:
    try:
        perturbed_form(InvariantField.of(S, 0, 0), build_bryant_salamon())
    except ValueError as exc:
        return True, {"rejected": True, "message": str(exc)}
    return False, {"witness": "odd coefficient accepted"}


def _check_closure_mechanism(run: _Run, rng: Random) -> tuple[bool, dict]:
    triple = tuple(random_even_scalar(rng) for _ in range(3))
    return _sides_agree(triple, closure_mechanism_sides(
        InvariantField.of(*triple), build_bryant_salamon(), run.frame))


def _check_orbit_witness(run: _Run, rng: Random) -> tuple[bool, dict]:
    triple = tuple(random_even_scalar(rng) for _ in range(3))
    return _sides_agree(triple, orbit_witness_sides(
        InvariantField.of(*triple), build_bryant_salamon()))


def _sides_agree(triple, sides) -> tuple[bool, dict]:
    """Whether the two sides of an identity are equal, with lhs − rhs as
    the witness when they are not."""
    lhs, rhs = sides
    ok = lhs == rhs
    detail = {"triple": [str(c) for c in triple]}
    if not ok:
        detail["witness"] = (lhs - rhs).to_record()
    return ok, detail


def _check_pointwise_samples(run: _Run, rng: Random) -> tuple[bool, dict]:
    t = ChamberScalar.monomial(1, 2, 0)
    field_ = InvariantField.of(t, 1, t * t)
    records = []
    failed = []
    for _ in range(5):
        s0 = Q(rng.randrange(1, 30), rng.randrange(1, 30))
        rec = pointwise_rank_one_check(field_, s0)
        records.append(rec)
        if not rec["in_orbit"] or (not rec.get("trivial") and rec.get(
                "jordan_type") != [2, 1, 1, 1, 1, 1, 1]):
            failed.append(rec)
    detail = {"samples": records}
    if failed:
        detail["witness"] = failed[0]
    return not failed, detail


# --------------------------------------------------------------------------
# suite assembly

SUITES = {
    "basics": (
        ("cayley-normalization", _check_cayley_normalization),
        ("orbit-dimensions", _check_orbit_dimensions),
        ("contraction-nondegeneracy", _check_contraction_nondegeneracy),
        ("cube-display-discrepancy", _check_cube_display),
    ),
    "decomposition": (
        ("projector-ranks", _check_projector_ranks),
        ("resolution-of-identity", _check_resolution_of_identity),
        ("star-eigenvalue-split", _check_star_split),
        ("rank-one-module-membership", _check_rank_one_membership),
        ("skew-ansatz-type", _check_skew_ansatz),
    ),
    "classify": (
        ("diagram-enumeration", _check_diagram_enumeration),
        ("admissible-set", _check_admissible_set),
        ("exclusion-certificates", _check_exclusion_certificates),
        ("chain-dual-certificates", _check_chain_dual_certificates),
        ("signature-replay", _check_signature_replay),
    ),
    "bryant-salamon": (
        ("lie-frame-consistency", _check_lie_frame_consistency),
        ("sp1-normalizer", _check_sp1_normalizer),
        ("orthonormal-killing", _check_orthonormal_killing),
        ("display-transcription", _check_display_transcription),
        ("phi-closedness", _check_phi_closedness),
        ("invariant-forms-lemma", _check_invariant_forms_lemma),
        ("killing-fields", _check_killing_fields),
        ("metric-positivity", _check_metric_positivity),
    ),
    "perturb": (
        ("rank-one-square-zero", _check_rank_one_square_zero),
        ("exponential-pullback", _check_exponential_pullback),
        ("perturbed-closedness", _check_perturbed_closedness),
        ("evenness-guard", _check_evenness_guard),
        ("closure-mechanism", _check_closure_mechanism),
        ("orbit-witness", _check_orbit_witness),
        ("pointwise-samples", _check_pointwise_samples),
    ),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    run = _Run()
    return [_timed(check_name, check, run, seed)
            for check_name, check in SUITES[name]]


def run_all_suites(suites: tuple[str, ...],
                   seed: int = 0) -> dict[str, list[CheckResult]]:
    """Run the requested suites in canonical order."""
    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite: {', '.join(unknown)}")
    ordered = [s for s in SUITE_NAMES if s in suites]
    return {name: run_suite(name, seed=seed) for name in ordered}
