"""The verification harness: suites, the CLI, serialization, fault injection.

The JSON report must be byte-identical across runs with the same suites and
seed, a deliberately corrupted frame must surface as failing checks with
witnesses (never as a crash), and the exit codes must follow the contract
0 = green, 1 = red, 2 = usage error.
"""

import io
import json
import contextlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spin7lab.cayley import (CayleyStructure, DecompositionProjectors,
                             build_omega, perturb_rank_one, projectors)
from spin7lab.classify import (Certificate, ClassificationReport,
                               YoungDiagram, classification_report,
                               enumerate_diagrams)
from spin7lab.exterior.endo import Endo
from spin7lab.exterior import scalars
from spin7lab.exterior.forms import FormOperator, KForm, basis_blades
from spin7lab.harness import checks
from spin7lab.harness.checks import (SUITE_NAMES, CheckResult, run_all_suites,
                                     run_suite)
from spin7lab.harness.cli import RunConfig, export_form, main, run
from spin7lab.invariant.bryant_salamon import (InvariantMetric,
                                               build_bryant_salamon,
                                               build_metric)
from spin7lab.invariant.chamber import ChamberForm
from spin7lab.invariant.liealg import build_lie_frame, generator_coords

from _oracles import count_calls, count_function_calls, mutated_frame


GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# -- suites ------------------------------------------------------------------

def test_suite_names_are_canonical():
    assert SUITE_NAMES == ("basics", "decomposition", "classify",
                           "bryant-salamon", "perturb")


def test_every_suite_passes():
    """For seeds 0, 1 and 2, a fresh default run passes every check and
    reproduces the golden report byte for byte."""
    for seed in (0, 1, 2):
        code, out = run_cli(["verify", "--seed", str(seed)])
        assert code == 0, seed
        golden = GOLDEN / f"verify-seed{seed}.json"
        assert out.encode("utf-8") == golden.read_bytes(), seed


def test_no_run_builds_a_surd(monkeypatch):
    """Every run is rational: for seeds 0, 1 and 2, with each cached
    artifact built afresh, the five suites make no FieldScalar with a surd
    part by the arithmetic's ``scalars._canonical``, and none at all by its
    constructor: every literal of the checks is an int or a Q."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spin7lab"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    canonical = count_function_calls(monkeypatch, scalars._canonical)
    constructed = []
    init = scalars.FieldScalar.__init__

    def recorded(self, *args):
        init(self, *args)
        constructed.append(self)

    monkeypatch.setattr(scalars.FieldScalar, "__init__", recorded)
    for seed in (0, 1, 2):
        results = run_all_suites(SUITE_NAMES, seed=seed)
        assert all(r.passed for rs in results.values() for r in rs), seed
    monkeypatch.undo()
    assert canonical and constructed == []
    assert [args for args in canonical if any(args[1:4])] == []


def test_chamber_suites_pass_on_seeds_outside_the_goldens():
    for seed in (3, 4, 5):
        code, out = run_cli(["verify", "--suite", "perturb",
                             "--suite", "bryant-salamon", "--seed", str(seed)])
        report = json.loads(out)
        assert code == 0, seed
        assert report["suites"] == ["bryant-salamon", "perturb"]
        assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_classifier_suites_pass_on_seeds_outside_the_goldens():
    for seed in (3, 4, 5):
        code, out = run_cli(["verify", "--suite", "basics", "--suite",
                             "decomposition", "--suite", "classify",
                             "--seed", str(seed)])
        report = json.loads(out)
        assert code == 0, seed
        assert report["suites"] == ["basics", "decomposition", "classify"]
        assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nonsense")
    with pytest.raises(ValueError, match="unknown suite: nonsense"):
        run_all_suites(("basics", "nonsense"))


def test_run_all_suites_preserves_canonical_order():
    results = run_all_suites(("perturb", "basics"), seed=0)
    assert list(results.keys()) == ["basics", "perturb"]


def test_check_results_are_seed_stable():
    a = [r.to_record(zero_timings=True) for r in run_suite("basics", seed=5)]
    b = [r.to_record(zero_timings=True) for r in run_suite("basics", seed=5)]
    assert a == b


def test_every_check_function_is_in_the_table_once():
    """Each _check_* function of the module runs under exactly one name of
    one suite, and no check name repeats across suites."""
    defined = {fn for name, fn in vars(checks).items()
               if name.startswith("_check_") and inspect.isfunction(fn)}
    listed = [fn for plan in checks.SUITES.values() for _, fn in plan]
    names = [name for plan in checks.SUITES.values() for name, _ in plan]
    assert sorted(map(id, listed)) == sorted(map(id, defined))
    assert len(names) == len(set(names)) == len(listed)


# -- fault injection ------------------------------------------------------------

def corrupted_frame():
    return mutated_frame({(3, 4, 5): 3})  # [A4, A5] = 3 A6 is wrong


def test_corrupted_frame_fails_with_witnesses(monkeypatch):
    monkeypatch.setattr(checks, "build_lie_frame", lambda: corrupted_frame())
    results = run_suite("bryant-salamon", seed=0)
    failed = [r for r in results if not r.passed]
    assert failed
    for r in failed:
        assert "witness" in r.detail, r.name
    # closedness of the 4-form is among the broken checks
    assert any(r.name == "phi-closedness" for r in failed)


def test_corrupted_frame_fails_perturbation_suite(monkeypatch):
    monkeypatch.setattr(checks, "build_lie_frame", lambda: corrupted_frame())
    results = run_suite("perturb", seed=0)
    assert any(not r.passed for r in results)


def _failing_frame_build():
    raise RuntimeError("no frame")


def test_suites_that_read_no_frame_build_none(monkeypatch):
    monkeypatch.setattr(checks, "build_lie_frame", _failing_frame_build)
    code, out = run_cli(["verify", "--suite", "basics", "--suite",
                         "decomposition", "--suite", "classify"])
    report = json.loads(out)
    assert code == 0
    assert len(report["checks"]) == 14
    assert all(c["passed"] for c in report["checks"])


def test_failed_frame_build_fails_each_check_that_reads_it(monkeypatch):
    monkeypatch.setattr(checks, "build_lie_frame", _failing_frame_build)
    code, out = run_cli(["verify", "--suite", "perturb"])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["perturbed-closedness",
                                           "closure-mechanism"]
    for c in failed:
        assert c["detail"]["error"] == "RuntimeError: no frame"
        assert c["detail"]["where"].startswith("harness/checks.py:")
        assert c["detail"]["where"].endswith(" in frame")


def _failed_witness(suite, name):
    """The JSON round trip of a check's witness; the check must fail
    without raising, and every check of its suite is reported."""
    results = run_suite(suite, seed=0)
    assert [r.name for r in results] == [n for n, _ in checks.SUITES[suite]]
    result = next(r for r in results if r.name == name)
    assert result.passed is False
    assert "error" not in result.detail
    return json.loads(json.dumps(result.detail["witness"]))


def _chain_pair_of_v_duals():
    """The classification report with the (2,2,2,2) certificate's first
    dual relabeled as a v-dual."""
    rows = []
    for cert, ms in classification_report().rows:
        if cert.diagram.parts == (2, 2, 2, 2):
            (u, _), v = cert.pair
            cert = Certificate(cert.diagram, cert.verdict, cert.dim_kernel,
                               ((u, "v2"), v))
        rows.append((cert, ms))
    return ClassificationReport(tuple(rows))


def _phi_with_one_more_blade():
    return build_bryant_salamon().phi + ChamberForm.blade(0, 1, 2, 3)


def _p1_replaced_by_p7():
    ps = projectors()
    return DecompositionProjectors(ps.p7, ps.p7, ps.p27, ps.p35)


def _first_diagram_twice():
    diagrams = enumerate_diagrams()
    return diagrams + diagrams[:1]


_NO_CUBE = {"pair_contraction_cube": lambda u, v, omega: KForm(6)}
_RHO_IS_IDENTITY = {"rho": lambda a, form: form}
_FAULTS = [  # (suite, check, {checks hook: fake})
    ("basics", "orbit-dimensions", {"stabilizer_algebra": lambda: []}),
    ("basics", "contraction-nondegeneracy", _NO_CUBE),
    ("basics", "cube-display-discrepancy", _NO_CUBE),
    ("decomposition", "projector-ranks", {"projectors": _p1_replaced_by_p7}),
    ("decomposition", "resolution-of-identity",
     {"projectors": _p1_replaced_by_p7}),
    ("decomposition", "rank-one-module-membership", _RHO_IS_IDENTITY),
    ("classify", "diagram-enumeration",
     {"enumerate_diagrams": _first_diagram_twice}),
    ("classify", "chain-dual-certificates",
     {"classification_report": _chain_pair_of_v_duals}),
    ("classify", "signature-replay",
     {"jordan_type_of": lambda a: YoungDiagram((2, 2, 1, 1, 1, 1))}),
    ("bryant-salamon", "lie-frame-consistency",  # Jacobi holds, d² ≠ 0
     {"maurer_cartan_d": lambda form, frame: ChamberForm.generator(0)}),
    ("bryant-salamon", "sp1-normalizer",
     {"normalizer": lambda frame, h: [generator_coords(i) for i in range(7)]}),
    ("bryant-salamon", "display-transcription",
     {"proposition_display": _phi_with_one_more_blade}),
    ("perturb", "rank-one-square-zero", _RHO_IS_IDENTITY),
    ("perturb", "exponential-pullback", _RHO_IS_IDENTITY),
    ("perturb", "evenness-guard",
     {"perturbed_form": lambda field, bs: bs.phi}),
    ("perturb", "pointwise-samples",  # both: out of the orbit, wrong type
     {"pointwise_rank_one_check": lambda field, s0: {
         "in_orbit": False, "trivial": False, "jordan_type": [2, 2, 1, 1]}}),
]


@pytest.mark.parametrize("suite, name, hooks", _FAULTS,
                         ids=[fault[1] for fault in _FAULTS])
def test_each_failure_branch_returns_a_serializable_witness(
        monkeypatch, suite, name, hooks):
    for hook, fake in hooks.items():
        monkeypatch.setattr(checks, hook, fake)
    assert _failed_witness(suite, name)


def test_closure_mechanism_failure_carries_the_difference_as_witness(
        monkeypatch):
    c = build_lie_frame().structure[0][7][8]
    frame = mutated_frame({(0, 7, 8): 3 * c})  # [A1, X2] off along X3
    monkeypatch.setattr(checks, "build_lie_frame", lambda: frame)
    witness = _failed_witness("perturb", "closure-mechanism")
    # both sides are dt∧(…), so every blade of lhs − rhs starts with ds
    assert witness["degree"] == 5 and witness["terms"]
    assert all(t["names"][0] == "ds" and len(t["names"]) == 5
               for t in witness["terms"])


def test_orbit_witness_failure_names_the_flipped_blade(monkeypatch):
    import spin7lab.invariant.bryant_salamon as bsm
    original = bsm.blade_pullback
    flipped = []

    def one_sign_flipped(form, images):
        out = original(form, images)
        mask, coeff = min(out.mask_items())
        flipped.append(mask)
        return ChamberForm(out.degree, {**dict(out.mask_items()),
                                        mask: -coeff})

    monkeypatch.setattr(bsm, "blade_pullback", one_sign_flipped)
    witness = _failed_witness("perturb", "orbit-witness")
    assert [sum(1 << k for k in t["slots"]) for t in witness["terms"]] \
        == flipped
    assert all(t["names"] for t in witness["terms"])


def _fails_verify(suite):
    """`spin7lab verify --suite <suite>` exits with 1."""
    code, _ = run_cli(["verify", "--suite", suite])
    assert code == 1


def test_flipped_omega_fails_the_basics_suite(monkeypatch):
    cayley = build_omega()
    mask, coeff = min(cayley.omega.mask_items())
    flipped = KForm(4, {**dict(cayley.omega.mask_items()), mask: -coeff})
    bad = CayleyStructure(flipped, cayley.alpha2, cayley.re_beta)
    monkeypatch.setattr(checks, "build_omega", lambda: bad)
    witness = _failed_witness("basics", "cayley-normalization")
    # *Ω − Ω: the flipped blade and its complement, each off by ±2c
    assert witness["degree"] == 4 and len(witness["terms"]) == 2
    _fails_verify("basics")


def test_a_wrong_integer_frame_fails_the_orthonormal_killing_check(monkeypatch):
    # the connection frame's Killing matrix is -diag(12, 6), not -diag(12, 24)
    monkeypatch.setattr(checks, "build_integer_frame", build_lie_frame)
    witness = _failed_witness("bryant-salamon", "orthonormal-killing")
    assert witness["squared_scales"] == ["1/12"] * 6 + ["1/24"] * 4
    assert [row[i] for i, row in enumerate(witness["integer_killing"])] == \
        ["-12"] * 6 + ["-6"] * 4
    _fails_verify("bryant-salamon")


def test_swapped_projectors_fail_the_decomposition_suite(monkeypatch):
    ps = projectors()
    bad = DecompositionProjectors(ps.p1, ps.p35, ps.p27, ps.p7)
    monkeypatch.setattr(checks, "projectors", lambda: bad)
    witness = _failed_witness("decomposition", "star-eigenvalue-split")
    assert witness["component"] == "p7" and witness["form"]["degree"] == 4
    _fails_verify("decomposition")


def test_excluded_rank_one_row_fails_the_classify_suite(monkeypatch):
    report = classification_report()
    rows = tuple((Certificate(cert.diagram, "excluded", cert.dim_kernel,
                              cert.pair), ms)
                 if cert.diagram.parts == (2, 1, 1, 1, 1, 1, 1)
                 else (cert, ms) for cert, ms in report.rows)
    bad = ClassificationReport(rows)
    monkeypatch.setattr(checks, "classification_report", lambda: bad)
    witness = _failed_witness("classify", "admissible-set")
    assert witness == {"expected": [[2, 1, 1, 1, 1, 1, 1],
                                    [1, 1, 1, 1, 1, 1, 1, 1]]}
    _fails_verify("classify")


def test_killing_failure_carries_the_metric_residual_as_witness(monkeypatch):
    monkeypatch.setattr(checks, "build_lie_frame", lambda: corrupted_frame())
    witness = _failed_witness("bryant-salamon", "killing-fields")
    assert witness["generator_slot"] in (4, 5, 6)
    entries = witness["residual"]["entries"]
    assert entries and all(len(e["names"]) == 2 and e["coefficient"]["terms"]
                           for e in entries)


def test_metric_positivity_failure_carries_the_metric_as_witness(monkeypatch):
    good = build_metric()
    bad = InvariantMetric({**good.entries, (0, 0): -good.get(0, 0)})
    monkeypatch.setattr(checks, "build_metric", lambda: bad)
    witness = _failed_witness("bryant-salamon", "metric-positivity")
    assert witness == json.loads(json.dumps(bad.to_record()))
    assert witness["entries"][0]["names"] == ["ds", "ds"]


_BAD_UNIT = "ValueError: unit indices (9, 1) out of range 1..8"


def _unit_raise_line() -> int:
    """The line of ``Endo.unit`` that rejects an index outside 1..8."""
    lines, first = inspect.getsourcelines(Endo.unit)
    return first + next(i for i, line in enumerate(lines)
                        if "out of range" in line)


def test_raising_check_says_where(monkeypatch):
    # every decomposition check builds the projectors; make that raise
    monkeypatch.setattr(checks, "projectors", lambda: Endo.unit(9, 1))
    results = run_suite("decomposition", seed=0)
    assert results and not any(r.passed for r in results)
    for r in results:
        assert r.detail["error"] == _BAD_UNIT
        assert r.detail["where"] == \
            f"exterior/endo.py:{_unit_raise_line()} in unit"


def _resolution_check(monkeypatch) -> CheckResult:
    """The decomposition suite cut down to its resolution-of-identity check."""
    only = tuple(entry for entry in checks.SUITES["decomposition"]
                 if entry[0] == "resolution-of-identity")
    monkeypatch.setitem(checks.SUITES, "decomposition", only)
    [result] = run_suite("decomposition", seed=0)
    return result


def test_passing_resolution_check_composes_the_cross_products_only(
        monkeypatch):
    projectors()                        # built before the products are counted
    calls = count_calls(monkeypatch, "__matmul__", cls=FormOperator)
    result = _resolution_check(monkeypatch)
    # idempotence follows from the sum and the 12 cross products; no squares
    assert calls == {"__matmul__": 12}
    assert result.passed and result.detail == {
        "idempotent": dict.fromkeys(("p1", "p7", "p27", "p35"), True),
        "sums_to_identity": True}


def test_failed_resolution_check_squares_each_projector(monkeypatch):
    ps = projectors()
    doubled = DecompositionProjectors(2 * ps.p1, ps.p7, ps.p27, ps.p35)
    monkeypatch.setattr(checks, "projectors", lambda: doubled)
    calls = count_calls(monkeypatch, "__matmul__", cls=FormOperator)
    result = _resolution_check(monkeypatch)
    # the sum fails before any cross product; then each projector is squared
    assert calls == {"__matmul__": 4}
    witness = result.detail.pop("witness")
    assert not result.passed and result.detail == {
        "idempotent": {"p1": False, "p7": True, "p27": True, "p35": True},
        "sums_to_identity": False}
    # Σp − I is the doubled p1 − p1 = p1, of rank 1
    assert witness == {"not_idempotent": ["p1"],
                       "sum_minus_identity_rank": 1}


_REPORT_CHECKS = ("admissible-set", "exclusion-certificates",
                  "chain-dual-certificates")


def _count_reports(monkeypatch, build):
    calls = [0]

    def counted(**kwargs):
        calls[0] += 1
        return build(**kwargs)

    monkeypatch.setattr(checks, "classification_report", counted)
    return calls


def test_classify_suite_builds_its_report_once(monkeypatch):
    from spin7lab.classify import classification_report
    calls = _count_reports(monkeypatch, classification_report)
    results = run_suite("classify", seed=0)
    assert all(r.passed for r in results)
    assert calls == [1]


def test_failed_report_build_fails_each_check_where_raised(monkeypatch):
    calls = _count_reports(monkeypatch, lambda **_: Endo.unit(9, 1))
    results = {r.name: r for r in run_suite("classify", seed=0)}
    for name in _REPORT_CHECKS:
        assert not results[name].passed
        assert results[name].detail == {
            "error": _BAD_UNIT,
            "where": f"exterior/endo.py:{_unit_raise_line()} in unit"}
    assert calls == [len(_REPORT_CHECKS)]  # a failed build is not reused


# -- the import path ------------------------------------------------------------

def test_importing_the_cli_loads_none_of_the_heavy_stdlib_modules():
    # a fresh interpreter without ``site``, so nothing but the import runs
    heavy = ("argparse", "dataclasses", "inspect", "traceback")
    src = Path(checks.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, spin7lab.harness.cli\n"
            f"print(sorted(set(sys.modules) & set({heavy!r})))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


# -- RunConfig and run() -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(suites=("basics", "bogus"))
    with pytest.raises(ValueError):
        RunConfig(format="yaml")


def test_run_writes_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    config = RunConfig(suites=("basics",), output=str(out))
    assert run(config) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert report["stabilizer_dim"] == 21
    assert report["image_dim"] == 42


# -- CLI ---------------------------------------------------------------------------

def test_cli_verify_json_is_deterministic():
    code1, out1 = run_cli(["verify", "--suite", "basics",
                           "--suite", "perturb", "--seed", "7"])
    code2, out2 = run_cli(["verify", "--suite", "perturb",
                           "--suite", "basics", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2  # canonical order, zeroed timings, sorted keys


def test_cli_report_shape():
    code, out = run_cli(["verify", "--suite", "classify"])
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 0
    assert report["suites"] == ["classify"]
    assert report["admissible_diagrams"] == [[2, 1, 1, 1, 1, 1, 1],
                                             [1, 1, 1, 1, 1, 1, 1, 1]]
    assert report["summary"]["total"] == len(report["checks"])
    assert all(c["duration_millis"] == 0 for c in report["checks"])


def test_cli_timings_flag_restores_durations():
    code, out = run_cli(["verify", "--suite", "basics", "--timings"])
    assert code == 0
    report = json.loads(out)
    assert any(c["duration_millis"] > 0 for c in report["checks"])


def test_cli_text_format():
    code, out = run_cli(["verify", "--suite", "basics", "--format", "text"])
    assert code == 0
    assert "checks passed" in out
    assert "cayley-normalization" in out


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_cli_reports_failure_exit_code(monkeypatch):
    import spin7lab.harness.cli as cli

    def fake_run_all(suites, seed=0):
        return {"basics": [CheckResult(name="doomed", passed=False,
                                       detail={"witness": "x"},
                                       duration_millis=1)]}

    monkeypatch.setattr(cli, "run_all_suites", fake_run_all)
    code, out = run_cli(["verify", "--suite", "basics"])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["failed"] == 1


def test_cli_reports_an_internal_error_with_exit_code_2(monkeypatch, capsys):
    # a witness that json.dumps refuses is a bug of the program, not a
    # failed check: exit 2 and the traceback on stderr
    import spin7lab.harness.cli as cli

    def fake_run_all(suites, seed=0):
        return {"basics": [CheckResult(name="broken", passed=False,
                                       detail={"witness": {1, 2}},
                                       duration_millis=1)]}

    monkeypatch.setattr(cli, "run_all_suites", fake_run_all)
    code, _ = run_cli(["verify", "--suite", "basics"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError" in err


# -- export ---------------------------------------------------------------------------

def test_export_omega_round_trip(tmp_path):
    path = tmp_path / "omega.json"
    code, _ = run_cli(["export", "--form", "omega", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == build_omega().omega.to_record()


def test_export_phi_round_trip(tmp_path):
    path = tmp_path / "phi.json"
    code, _ = run_cli(["export", "--form", "phi", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == \
        build_bryant_salamon().phi.to_record()


def test_export_rank_one_round_trip(tmp_path):
    path = tmp_path / "rank_one.json"
    code, _ = run_cli(["export", "--form", "rank-one",
                       "--v", "0,0,0,0,0,0,1,0", "--w", "0,0,0,0,0,0,0,1",
                       "--t", "5/7", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == perturb_rank_one(
        *basis_blades(1)[6:], "5/7").to_record()


def test_export_rank_one_validates_orthogonality(tmp_path):
    path = tmp_path / "bad.json"
    code, _ = run_cli(["export", "--form", "rank-one",
                       "--v", "1,0,0,0,0,0,0,0", "--w", "1,0,0,0,0,0,0,0",
                       "--out", str(path)])
    assert code == 2
    assert not path.exists()


def test_export_rank_one_requires_vectors():
    code, _ = run_cli(["export", "--form", "rank-one"])
    assert code == 2


def test_export_vector_parsing():
    code, _ = run_cli(["export", "--form", "rank-one",
                       "--v", "1,2,3", "--w", "0,0,0,0,0,0,0,1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--v", "1/0,0,0,0,0,0,1,0", "--w", "0,0,0,0,0,0,0,1"],
    ["--v", "0,0,0,0,0,0,1,0", "--w", "0,0,0,0,0,0,0,1", "--t", "1/0"],
])
def test_export_rejects_a_zero_denominator_as_a_usage_error(argv, capsys):
    # exit 1 means a failed check; a malformed rational is a usage error
    code, _ = run_cli(["export", "--form", "rank-one", *argv])
    assert code == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


def test_export_function_returns_record(tmp_path):
    path = tmp_path / "omega2.json"
    record = export_form("omega", str(path))
    assert record["degree"] == 4
    assert len(record["terms"]) == 14
