"""Fresh-interpreter entry points started by ``run.py``, one at a time.

    child.py setup <workload>            import and build a sweep's artifacts
    child.py verify <seed> [--trace PATH] [--fault]
                                         ``spin7lab verify --seed <seed>``

Before doing anything, every child checks that the library's process-wide
``lru_cache`` artifacts are still empty, so neither a timed set-up nor a
cold verify runs in an interpreter that already built them.  ``--trace`` installs the layer tracer
and writes its summary to PATH when the run ends; ``--fault`` runs the
suites on a Lie frame with a wrong structure constant.
"""

from __future__ import annotations

import json
import os
import sys


def _caches():
    return [(f"{modname}.{name}", obj)
            for modname, mod in sorted(sys.modules.items())
            if modname.startswith("spin7lab")
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == modname]


def _require_cold() -> None:
    warm = [name for name, fn in _caches() if fn.cache_info().currsize]
    if warm:
        raise SystemExit(f"cached artifacts already built: {', '.join(warm)}")


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import spin7lab.harness.cli as cli
    _require_cold()
    mode = argv[0]
    if mode == "setup":
        import sweeps
        sweeps.setup(argv[1])
        return 0
    if mode != "verify":
        raise SystemExit(f"unknown mode: {mode}")
    seed = argv[1]
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if "--fault" in argv:
        import sweeps
        import spin7lab.harness.checks as checks
        bad = sweeps.corrupted_frame()
        checks.build_lie_frame = lambda: bad
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(["verify", "--seed", seed])
    finally:
        if tracer is not None:
            tracer.uninstall()
            summary = tracer.summary()
            summary["artifacts_built"] = sorted(
                name for name, fn in _caches() if fn.cache_info().currsize)
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
