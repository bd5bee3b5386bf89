#!/usr/bin/env python3
"""Which lines of the spin7lab package its runs reach.

Traces, with the stdlib ``sys.settrace`` line tracer, the runs that cover
what the package is for: ``spin7lab verify`` on seeds 0 to 3, ``verify
--format text --timings``, the three form exports, the three other scripts
in this directory and five samples of each perfbench sweep.  Then prints,
per function of each module (comprehensions and lambdas count with the
function around them, class and module bodies as ``<class>`` and
``<module>``), its executable and unreached line counts and the unreached
lines, and the totals line: executable lines, unreached lines and the
physical line count of the package's source files, newline by newline as
``find src -name '*.py' | xargs cat | wc -l`` counts them.  A line is
executable when the compiled module has bytecode on it.  It traces the
package under the checkout's ``src/``, and takes no flags:

    python3 scripts/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib
import runpy
import sys
import tempfile
import types
from collections import defaultdict

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
PACKAGE = pathlib.Path(
    importlib.util.find_spec("spin7lab").submodule_search_locations[0])
SWEEPS = ("cayley-sweep", "chamber-sweep", "classify-sweep")
SWEEP_SAMPLES = 5


def trace(run) -> dict[str, set[int]]:
    """The lines of files under the package directory that run() reaches,
    per file name."""
    root = str(PACKAGE)
    hits: defaultdict[str, set[int]] = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def executable(path: pathlib.Path) -> dict[str, set[int]]:
    """Function qualname -> the lines with bytecode of its own, for every
    function of the module; a def line belongs to the enclosing body."""
    out: dict[str, set[int]] = {}

    def walk(code: types.CodeType, name: str) -> None:
        if code.co_name in ("<module>", "<lambda>", "<genexpr>", "<listcomp>",
                            "<dictcomp>", "<setcomp>"):
            key = name
        elif code.co_flags & 0x0002:  # CO_NEWLOCALS: a function
            key = code.co_qualname
        else:
            key = f"{code.co_qualname} <class>"
        lines = {n for _, _, n in code.co_lines() if n}
        if code.co_name != "<module>":
            lines.discard(code.co_firstlineno)
        out.setdefault(key, set()).update(lines)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, key)

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return out


def _quiet(function, *args):
    """Call function(*args) with its standard output dropped; a script's
    SystemExit ends the call."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return function(*args)
        except SystemExit:
            return None


def _script(name: str, *argv: str) -> None:
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(HERE / name), run_name="__main__")
    finally:
        sys.argv = saved


def _sweeps() -> None:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import sweeps
    for workload in SWEEPS:
        ctx = sweeps.setup(workload)
        for index in range(SWEEP_SAMPLES):
            for _name, check in sweeps.draw(workload, ctx, 0, index):
                check()


def runs(outdir: str) -> None:
    """Every run listed in the module docstring, in one process."""
    from spin7lab.harness.cli import main
    for seed in range(4):
        _quiet(main, ["verify", "--seed", str(seed)])
    _quiet(main, ["verify", "--format", "text", "--timings"])
    for form in ("omega", "phi"):
        _quiet(main, ["export", "--form", form,
                      "--out", f"{outdir}/{form}.json"])
    _quiet(main, ["export", "--form", "rank-one", "--v", "0,0,0,0,0,0,1,0",
                  "--w", "0,0,0,0,0,0,0,1", "--t", "5/7",
                  "--out", f"{outdir}/rank_one.json"])
    _quiet(_script, "run_all.py")
    _quiet(_script, "classification_table.py")
    _quiet(_script, "export_forms.py", "--outdir", outdir)
    _quiet(_sweeps)


def _spans(lines) -> str:
    """Sorted line numbers as comma-separated runs, e.g. 3-5,9."""
    out: list[list[int]] = []
    for n in sorted(lines):
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def totals(total: int, unreached: int) -> str:
    """The tab-separated totals line, ending in the physical line count."""
    physical = sum(path.read_bytes().count(b"\n")
                   for path in PACKAGE.rglob("*.py"))
    return f"total\t{total}\t{unreached}\t{physical}"


def main() -> int:
    with tempfile.TemporaryDirectory() as outdir:
        hits = trace(lambda: runs(outdir))
    total = unreached_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        reached = hits.get(str(path), set())
        name = path.relative_to(PACKAGE.parent)
        for function, lines in executable(path).items():
            unreached = lines - reached
            total += len(lines)
            unreached_total += len(unreached)
            print(f"{name}:{function}\t{len(lines)}\t{len(unreached)}\t"
                  f"{_spans(unreached)}")
    print(totals(total, unreached_total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
