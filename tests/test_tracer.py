"""The benchmark's layer tracer still installs on the library.

perfbench/tracer.py wraps library classes, methods and module functions by
name from the outside.  This test loads it (without editing it), installs
it, runs one KForm wedge, one ChamberForm wedge, one chamber-ring product
and one Maurer-Cartan d, and checks that the spans and scalar counters it
reports saw them and that uninstalling puts every original object back.
The suite names that perfbench/tracer.py and perfbench/run.py copy, and
the modules, classes, counted methods and hooked functions the tracer
wraps by name, are read from their source with ``ast``, without importing
them; the wrapped names are then looked up in a fresh interpreter that has
imported ``spin7lab.harness.cli``, as the benchmark's child does.  The
benchmark's self-test must print ``"ok": true``, its scalar kernels
must pass their checks and the set-up child of every workload must start
cold and exit 0, so that a change the benchmark cannot run on fails here.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import spin7lab.harness.cli  # noqa: F401  (loads every module the tracer wraps)
import spin7lab.harness.checks as checks
import spin7lab.invariant.chamber as chamber
from spin7lab.exterior.forms import KForm
from spin7lab.exterior.scalars import FieldScalar
from spin7lab.invariant.chamber import S, W, ChamberForm
from spin7lab.invariant.liealg import build_lie_frame

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tracer_module) -> dict:
    """Every attribute the tracer may patch: the spin7lab modules and the
    traced and counted classes, keyed by (owner id, name)."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "spin7lab" or name.startswith("spin7lab.")]
    targets = [t for ts in tracer_module.LAYERS.values() for t in ts]
    targets += [(modname, clsname)
                for modname, clsname, _ in tracer_module.COUNTED]
    owners += [getattr(sys.modules[modname], clsname)
               for modname, clsname in targets if clsname]
    return {(id(owner), name): obj
            for owner in owners for name, obj in list(vars(owner).items())}


def test_tracer_installs_counts_and_restores():
    tracer_module = _load_perfbench("tracer")
    # the fault-injection child rebinds this global of the checks module
    assert "build_lie_frame" in vars(checks)
    before = _attributes(tracer_module)
    frame = build_lie_frame()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # an inverse and a product, for the two FieldScalar counters
        third = FieldScalar(1) * FieldScalar(3).inverse()
        KForm.from_terms(1, [((1,), third)]) ^ KForm.from_terms(1, [((2,), 1)])
        kform_wedges = tracer.calls.get("forms.wedge", 0)
        ChamberForm.generator(1).wedge(ChamberForm.generator(2))
        chamber_wedges = tracer.calls.get("forms.wedge", 0) - kform_wedges
        S * W                                         # a chamber product
        chamber.maurer_cartan_d(ChamberForm.generator(6), frame)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert kform_wedges == 1 and chamber_wedges == 1
    # d sums its terms itself: no engine wedge is spanned inside it
    assert summary["calls"]["forms.wedge"] == 2
    assert summary["calls"]["forms.maurer_cartan_d"] == 1
    for counter in ("scalars.field_mul_calls", "scalars.field_inverse_calls",
                    "scalars.chamber_mul_calls"):
        assert summary["counts"][counter] > 0, counter
    after = _attributes(tracer_module)
    assert all(after.get(key) is obj for key, obj in before.items())


def _module_value(path: Path, name: str) -> ast.expr:
    """The value node of the top-level assignment ``name = ...``."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _module_constant(path: Path, name: str):
    """The literal value of the top-level assignment ``name = ...``."""
    return ast.literal_eval(_module_value(path, name))


# Run in a fresh interpreter: argv[1] is the JSON of the tracer's targets;
# prints, per requirement, the targets that miss it.
_LOOKUP = """
import json, sys, types
import spin7lab.harness.cli
layers, counted, hooks = json.loads(sys.argv[1])
targets = [t for ts in layers.values() for t in ts]
def public_functions(modname):
    return {name for name, obj in vars(sys.modules[modname]).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == modname}
traced = set().union(*(public_functions(m) for m, cls in targets
                       if cls is None and m in sys.modules))
print(json.dumps({
    "modules": [m for m, _ in targets if m not in sys.modules],
    "classes": [[m, cls] for m, cls in targets if cls and not
                isinstance(getattr(sys.modules.get(m), cls, None), type)],
    "counted": [[m, cls, meth] for m, cls, meth in counted
                if meth not in vars(getattr(sys.modules[m], cls, object))],
    "hooks": [name for name in hooks if name not in traced]}))
"""


def test_tracer_targets_exist_after_importing_the_cli():
    layers = _module_constant(TRACER_PATH, "LAYERS")
    counted = list(_module_constant(TRACER_PATH, "COUNTED"))
    hooks = [ast.literal_eval(key)
             for key in _module_value(TRACER_PATH, "_HOOKS").keys]
    assert hooks and counted and layers
    src = Path(spin7lab.harness.cli.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", _LOOKUP, json.dumps([layers, counted, hooks])],
        capture_output=True, text=True, env=env, check=True)
    missing = json.loads(proc.stdout)
    assert missing["modules"] == [], "LAYERS modules not loaded"
    assert missing["classes"] == [], "LAYERS classes not in their modules"
    assert missing["counted"] == [], "COUNTED methods not in their classes"
    assert missing["hooks"] == [], "_HOOKS keys not traced public functions"


def test_the_benchmark_selftest_and_kernels_run_on_the_library():
    # beyond the tracer's names, the self-test reads the --fault verify path
    # and LieFrame.with_structure, and the kernels read surd FieldScalar
    # products, inverse and quadruple, build_orthonormal_frame and
    # ChamberScalar.derivative
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert json.loads(proc.stdout)["ok"] is True, proc.stderr
    _, _, kernel_checks = _load_perfbench("kernels").run(0)
    assert kernel_checks == [("surd-inverse", True), ("surd-operands", True)]


def test_perfbench_setup_children_start_cold():
    # every set-up child refuses an interpreter in which importing
    # spin7lab.harness.cli already filled a library cache, and then
    # counts as a failed run: a cache that a module-level table fills at
    # import would fail every benchmark run while the self-test, which
    # only checks that a warm interpreter is refused, still passes
    workloads = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in workloads["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "setup", workload],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (workload, proc.stderr)


def test_perfbench_suite_names_are_the_harness_suites():
    for script in ("tracer.py", "run.py"):
        assert _module_constant(PERFBENCH / script, "SUITES") == \
            checks.SUITE_NAMES, script
