"""The command-line scripts in ``scripts/``, run in-process through ``main``.

The classification table must print the frozen rows of
``test_classify.py``; the form export must write the three named forms,
each the record of the form it was made from; the reachability tracer
must tell a reached line from an unreached one, and its totals line ends in
the physical line count of the package; the report comparison must name the
first seed on which two trees' verify reports differ, or else the first
export whose outputs differ.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from spin7lab.cayley import build_omega, perturb_rank_one
from spin7lab.exterior.forms import basis_blades
from spin7lab.invariant.bryant_salamon import build_bryant_salamon

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


def test_export_forms_writes_the_three_named_forms(tmp_path, capsys):
    assert load_script("export_forms").main(["--outdir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["omega.json", "phi.json", "rank_one.json"]
    assert capsys.readouterr().out.count("wrote ") == 3

    def read(name):
        return json.loads((tmp_path / name).read_text())

    assert read("omega.json") == build_omega().omega.to_record()
    assert read("phi.json") == build_bryant_salamon().phi.to_record()
    assert read("rank_one.json") == perturb_rank_one(
        *basis_blades(1)[6:], "5/7").to_record()


def test_reachability_tracer_sees_the_omega_export(tmp_path):
    import spin7lab.harness.cli as cli
    reach = load_script("reachability")
    lines = pathlib.Path(cli.__file__).read_text().splitlines()

    def line_of(text):
        return 1 + next(i for i, line in enumerate(lines) if text in line)

    hits = reach.trace(lambda: cli.main(
        ["export", "--form", "omega", "--out", str(tmp_path / "omega.json")]))
    reached = hits[cli.__file__]
    assert line_of("record = build_omega().omega.to_record()") in reached
    assert line_of("record = build_bryant_salamon().phi.to_record()") \
        not in reached
    functions = reach.executable(pathlib.Path(cli.__file__))
    assert line_of("record = build_omega().omega.to_record()") in \
        functions["export_form"]


def test_reachability_loads_without_pythonpath(tmp_path):
    # the script puts the checkout's src/ on sys.path itself
    import spin7lab
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    loader = ("import importlib.util, sys\n"
              "spec = importlib.util.spec_from_file_location('r', sys.argv[1])\n"
              "module = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(module)\n"
              "print(module.PACKAGE)")
    out = subprocess.run([sys.executable, "-c", loader,
                          str(SCRIPTS / "reachability.py")],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == str(pathlib.Path(spin7lab.__file__).resolve().parent)


def test_reachability_totals_end_in_the_physical_line_count():
    import spin7lab
    reach = load_script("reachability")
    package = pathlib.Path(spin7lab.__file__).parent
    physical = sum(len(path.read_text().splitlines())
                   for path in package.rglob("*.py"))
    assert physical > 0
    assert reach.totals(2367, 225).split("\t") == \
        ["total", "2367", "225", str(physical)]


def test_same_reports_names_the_first_seed_whose_reports_differ(tmp_path,
                                                                capsys):
    same = load_script("same_reports")
    same.SEEDS = range(1)
    assert same.main([]) == 2
    assert same.main([str(SCRIPTS.parent)]) == 0
    assert capsys.readouterr().out == \
        "seeds 0-0 and 3 exports: the outputs are identical\n"
    harness = tmp_path / "src" / "spin7lab" / "harness"
    harness.mkdir(parents=True)
    for package in (harness.parent, harness):
        (package / "__init__.py").write_text("")
    (harness / "cli.py").write_text("print('another report')\n")
    assert same.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == "seed 0: the reports differ\n"
    # a tree that replays this tree's verify report and Ω export, but
    # prints another Φ
    replayed = {args: same.output(SCRIPTS.parent, *args) for args in
                [("verify", "--seed", "0"), ("export", "--form", "omega")]}
    (harness / "cli.py").write_text(
        "import sys\n"
        f"code, out = {replayed!r}.get(tuple(sys.argv[1:]), (0, b'phi'))\n"
        "sys.stdout.buffer.write(out)\n"
        "sys.exit(code)\n")
    assert same.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == "export --form phi: the outputs differ\n"
