"""The command-line scripts in ``scripts/``, run in-process through ``main``.

The classification table must print the frozen rows of
``test_classify.py``; the form export must write the three named forms,
each reading back to the form it was made from.
"""

import importlib.util
import json
import pathlib

from spin7lab.cayley import build_omega, perturb_rank_one
from spin7lab.exterior.forms import KForm, Vector
from spin7lab.invariant.bryant_salamon import build_bryant_salamon
from spin7lab.invariant.chamber import ChamberForm

from test_classify import ADMISSIBLE, CERTIFICATE_PAIRS, KERNEL_DIMS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classification_table_prints_the_frozen_rows(capsys):
    assert load_script("classification_table").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {}
    for line in lines[2:24]:
        diagram, dim, verdict, *pair = line.split()
        parts = tuple(int(p) for p in diagram.strip("()").split(","))
        rows[parts] = (int(dim), verdict,
                       tuple(label.rstrip(",") for label in pair) or None)
    assert list(rows) == list(KERNEL_DIMS)
    for parts, (dim, verdict, pair) in rows.items():
        assert dim == KERNEL_DIMS[parts]
        if parts in ADMISSIBLE:
            assert (verdict, pair) == ("admissible", None)
        else:
            assert (verdict, pair) == ("excluded", CERTIFICATE_PAIRS[parts])
    assert lines[25] == "admissible: (2,1,1,1,1,1,1), (1,1,1,1,1,1,1,1)"
    assert lines[26] == "rank-one signature clean over 25 samples: True"


def test_export_forms_writes_the_three_named_forms(tmp_path, capsys):
    assert load_script("export_forms").main(["--outdir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["omega.json", "phi.json", "rank_one.json"]
    assert capsys.readouterr().out.count("wrote ") == 3

    def read(name):
        return json.loads((tmp_path / name).read_text())

    assert KForm.from_record(read("omega.json")) == build_omega().omega
    assert ChamberForm.from_record(read("phi.json")) == \
        build_bryant_salamon().phi
    assert KForm.from_record(read("rank_one.json")) == \
        perturb_rank_one(Vector.basis(7), Vector.basis(8), "5/7")
