"""The benchmark's layer tracer still installs on the library.

perfbench/tracer.py wraps library classes, methods and module functions by
name from the outside.  This test loads it (without editing it), installs
it, runs one KForm wedge, one ChamberForm wedge, one chamber-ring product
and one Maurer-Cartan d, and checks that the spans and scalar counters it
reports saw them and that uninstalling puts every original object back.
The suite names that perfbench/tracer.py and perfbench/run.py copy are
read from their source with ``ast``, without importing them.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import spin7lab.harness.cli  # noqa: F401  (loads every module the tracer wraps)
import spin7lab.harness.checks as checks
import spin7lab.invariant.chamber as chamber
from spin7lab.exterior.forms import KForm
from spin7lab.exterior.scalars import FieldScalar
from spin7lab.invariant.chamber import S, W, ChamberForm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
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
    tracer_module = _load_tracer()
    # the fault-injection child rebinds this global of the checks module
    assert "build_lie_frame" in vars(checks)
    before = _attributes(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        third = FieldScalar(1) / FieldScalar(3)       # an inverse and a product
        KForm.blade(1, coeff=third) ^ KForm.blade(2)
        kform_wedges = tracer.calls.get("forms.wedge", 0)
        ChamberForm.generator(1).wedge(ChamberForm.generator(2))
        chamber_wedges = tracer.calls.get("forms.wedge", 0) - kform_wedges
        S * W                                         # a chamber product
        chamber.maurer_cartan_d(ChamberForm.generator(6))
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


def _module_constant(path: Path, name: str):
    """The literal value of the top-level assignment ``name = ...``."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_perfbench_suite_names_are_the_harness_suites():
    for script in ("tracer.py", "run.py"):
        assert _module_constant(PERFBENCH / script, "SUITES") == \
            checks.SUITE_NAMES, script
