"""spin7lab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload is one warm, single-threaded process that checks
seeded exact identities (see ``sweeps.py``) and starts at most one child
process at a time:

* ``cayley-sweep``: Cayley-form identities on rank-one nilpotents;
* ``chamber-sweep``: chamber-calculus identities on the Bryant–Salamon form;
* ``classify-sweep``: the 22-type classifier against the reference table.

With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` a traced run reports the per-layer metrics, and on
``classify-sweep`` it also traces one cold ``spin7lab verify`` whose report
is checked against ``references/``.  The last line of standard output is
the result object; the line before it records the environment and run
diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import kernels
import reports
import sweeps
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 6
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 160
SWEEP_ROUNDS = 5
CALIBRATION_STEPS = 2000
CALIBRATION_REF_S = 0.0083  # both halves' best time together, on a 2-vCPU Xeon
TRACED_SAMPLES = {"cayley-sweep": 6, "chamber-sweep": 16, "classify-sweep": 1}
SUITES = ("basics", "decomposition", "classify", "bryant-salamon", "perturb")


# -- statistics -------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples
    beyond it; with fewer than eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def latency_metrics(walls: list[float], cpus: list[float]) -> dict:
    return {"sample_ms_p50": statistics.median(walls) * 1e3,
            "samples_per_s": len(walls) / sum(walls),
            "cpu_s": statistics.median(cpus)}


# -- environment --------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    from spin7lab.exterior.scalars import Q
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "q_backend": f"{Q.__module__}.{Q.__name__}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


# -- child processes ----------------------------------------------------------

def run_child(args: list[str], env: dict | None = None) -> tuple[float, int, bytes]:
    """Run ``child.py`` with ``args``: (wall seconds, exit code, stdout).  A
    child that outlives ``CHILD_TIMEOUT_S`` is killed and counts as failed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
                              timeout=CHILD_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, b""
    return time.perf_counter() - start, code, out


def setup_seconds(args: list[str], measure, diag: dict) -> tuple[float, int, object]:
    """Median set-up time of cold processes at reference speed, how many
    failed, and the result of ``measure()``.

    Half of the set-ups run before ``measure`` and half after, so the median
    spans the run; each is scaled, like a sample, by the calibration loop
    timed around it (see ``_sweep_rounds``)."""
    def probe() -> tuple[float, float, int]:
        before = calibrate()
        wall, code, _ = run_child(args)
        after = calibrate()
        return wall, wall * CALIBRATION_REF_S / (before[0] + after[0]), code

    runs = [probe() for _ in range(SETUP_REPEATS // 2)]
    result = measure()
    runs += [probe() for _ in range(SETUP_REPEATS - len(runs))]
    diag["raw_setup_s"] = statistics.median(raw for raw, _, _ in runs)
    return (statistics.median(scaled for _, scaled, _ in runs),
            sum(code != 0 for _, _, code in runs), result)


# -- cold verify (traced runs of classify-sweep) -----------------------------------

def verify_sample(seed: int, *extra: str, env: dict | None = None):
    """A fresh interpreter runs ``spin7lab verify --seed <seed>``; its report
    is checked against the references."""
    wall, code, out = run_child(["verify", str(seed), *extra], env=env)
    return wall, reports.check_report(out, seed, code)


def traced_cold_verify(seed: int, checks: list, diag: dict) -> dict:
    """Trace summary of one cold ``verify``.  Counts repeat exactly for a
    seed because the child runs with a fixed hash seed."""
    trace_path = OUT / f"trace-verify-{seed}.json"
    trace_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    wall, items = verify_sample(seed, "--trace", str(trace_path), env=env)
    checks.extend(items)
    checks.append(("trace-written", trace_path.is_file()))
    if not trace_path.is_file():
        return Tracer().summary()
    summary = json.loads(trace_path.read_text(encoding="utf-8"))
    diag.update(traced_verify_s=wall,
                artifacts_built=summary.pop("artifacts_built"),
                verify_trace_file=str(trace_path.relative_to(ROOT)))
    return summary


# -- sweeps ---------------------------------------------------------------------

def timed_sweep(workload: str, seed: int, seconds: float):
    checks: list[tuple[str, bool]] = []
    errors: list[str] = []
    diag: dict = {"errors": errors}
    ctx = sweeps.setup(workload)
    setup_s, setup_failed, (walls, cpus) = setup_seconds(
        ["setup", workload],
        lambda: _sweep_rounds(workload, ctx, seed, seconds, checks, errors, diag),
        diag)
    checks.append(("setup", setup_failed == 0))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup_s, **latency_metrics(walls, cpus),
               "peak_rss_mb": peak}
    return metrics, checks, diag


def traced_sweep(workload: str, seed: int):
    import spin7lab.harness.cli  # noqa: F401  (loads every traced module)
    checks: list[tuple[str, bool]] = []
    errors: list[str] = []
    tracer = Tracer()
    tracer.install()
    ctx = sweeps.setup(workload)
    tracer.uninstall()
    metrics, bits, kernel_checks = kernels.run(seed)
    checks.extend(kernel_checks)
    n = TRACED_SAMPLES[workload]
    plain_s = _timed_samples(workload, ctx, seed, n, checks, errors)
    tracer.install()
    traced_s = _timed_samples(workload, ctx, seed, n, checks, errors)
    tracer.uninstall()
    diag = {"errors": errors, "operand_bits": bits, "traced_samples": n,
            "untraced_s": plain_s, "traced_s": traced_s}
    summary = tracer.summary()
    if workload == "classify-sweep":
        summary = merge_summaries(summary, traced_cold_verify(seed, checks, diag))
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    trace_path.write_text(json.dumps(summary), encoding="utf-8")
    diag["trace_file"] = str(trace_path.relative_to(ROOT))
    metrics.update(layer_metrics(summary))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return metrics, checks, diag


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop of stdlib ``Fraction`` arithmetic,
    the operations the library spends most of its time in."""
    x = Fraction(3, 7)
    c0, w0 = time.process_time(), time.perf_counter()
    for i in range(CALIBRATION_STEPS // 2):
        x * Fraction(i % 97 + 1, 13) + Fraction(5, i % 11 + 1)
    return time.perf_counter() - w0, time.process_time() - c0


def _sweep_rounds(workload, ctx, seed, seconds, checks, errors, diag):
    """Per-sample wall and CPU seconds at reference speed.

    The first round draws the samples that fit in its share of ``seconds``;
    later rounds replay them, ``SWEEP_ROUNDS`` rounds in all.  The machine
    this runs on is shared, and other tenants slow it down by up to 2x for
    a minute at a time.  So every check is timed between the two halves of
    a calibration loop and divided by their time; a sample's time is the
    sum over its checks of the median of that ratio over the rounds, times
    ``CALIBRATION_REF_S``: the time the sample takes when the calibration
    runs at reference speed.
    """
    drawn: list = []
    ratios: list[list[list[tuple[float, float]]]] = []  # sample, round, check
    raw: list[float] = []

    def replay(index: int) -> None:
        rows = sweeps.run_checks(workload, drawn[index], errors, calibrate)
        checks.extend((name, passed) for name, passed, *_ in rows)
        raw.append(sum(row[2] for row in rows))
        ratios[index].append([(wall / cal_wall, cpu / cal_cpu)
                              for _, _, wall, cpu, cal_wall, cal_cpu in rows
                              if cal_wall and cal_cpu])

    started = time.perf_counter()
    while True:
        drawn.append(sweeps.draw_or_none(workload, ctx, seed, len(drawn), errors))
        ratios.append([])
        replay(len(drawn) - 1)
        elapsed = time.perf_counter() - started
        if elapsed * (len(drawn) + 1) / len(drawn) > seconds / SWEEP_ROUNDS:
            break
    for _ in range(SWEEP_ROUNDS - 1):
        for index in range(len(drawn)):
            replay(index)
    walls, cpus = [], []
    for rounds in ratios:
        per_check = list(zip(*rounds))   # check -> its ratio in every round
        walls.append(CALIBRATION_REF_S * sum(
            statistics.median(w for w, _ in r) for r in per_check))
        cpus.append(CALIBRATION_REF_S * sum(
            statistics.median(c for _, c in r) for r in per_check))
    value, percentile = tail(walls)
    diag.update(samples=len(walls), rounds=SWEEP_ROUNDS,
                sample_ms_tail=value * 1e3, tail_percentile=percentile,
                raw_sample_ms_p50=statistics.median(raw) * 1e3)
    return walls, cpus


def _timed_samples(workload, ctx, seed, n, checks, errors) -> float:
    start = time.perf_counter()
    for index in range(n):
        drawn = sweeps.draw_or_none(workload, ctx, seed, index, errors)
        rows = sweeps.run_checks(workload, drawn, errors)
        checks.extend((name, passed) for name, passed, *_ in rows)
    return time.perf_counter() - start


# -- per-layer metrics ------------------------------------------------------------

def merge_summaries(a: dict, b: dict) -> dict:
    """Sum two trace summaries, as if one tracer had seen both runs."""
    out = {}
    for key in ("calls", "total_s", "layer_busy_s", "layer_self_s", "counts"):
        out[key] = {k: a[key].get(k, 0) + b[key].get(k, 0)
                    for k in sorted(set(a[key]) | set(b[key]))}
    out["kernel_diagrams"] = sorted(set(map(tuple, a["kernel_diagrams"]))
                                    | set(map(tuple, b["kernel_diagrams"])))
    out["coarse_spans"] = a["coarse_spans"] + b["coarse_spans"]
    return out


def layer_metrics(summary: dict) -> dict:
    total = summary["total_s"]
    calls = summary["calls"]
    busy, self_s = summary["layer_busy_s"], summary["layer_self_s"]
    counts = summary["counts"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(name):
        return calls.get(name, 0)

    kernel_calls = c("classify.kernel_space")
    out = {
        "scalars.field_mul_calls": counts["scalars.field_mul_calls"],
        "scalars.field_inverse_calls": counts["scalars.field_inverse_calls"],
        "scalars.chamber_mul_calls": counts["scalars.chamber_mul_calls"],
        "forms.rho_s": t("forms.rho"),
        "forms.rho_calls": c("forms.rho"),
        "forms.pullback_s": t("forms.pullback"),
        "forms.wedge_s": t("forms.wedge", "forms.ChamberForm.wedge"),
        "forms.contract_s": t("forms.contract", "forms.contract_generator"),
        "forms.maurer_cartan_d_s": t("forms.maurer_cartan_d"),
        "forms.maurer_cartan_d_calls": c("forms.maurer_cartan_d"),
        "forms.busy_s": busy["forms"],
        "forms.self_s": self_s["forms"],
        "linalg.busy_s": busy["linalg"],
        "linalg.calls": c("linalg.echelon"),
        "linalg.cells": counts["linalg.cells"],
        "linalg.self_s": self_s["linalg"],
        "cayley.projectors_s": t("cayley.projectors"),
        "cayley.stabilizer_s": t("cayley.stabilizer_algebra"),
        "cayley.image_dimension_s": t("cayley.image_dimension"),
        "cayley.self_s": self_s["cayley"],
        "classify.report_calls": c("classify.classification_report"),
        "classify.kernel_space_calls": kernel_calls,
        "classify.kernel_reuse": (len(summary["kernel_diagrams"]) / kernel_calls
                                  if kernel_calls else 0.0),
        "classify.kernel_space_s": t("classify.kernel_space"),
        "classify.certificate_s": t("classify.cubic_vanishes_on_subspace"),
        "classify.self_s": self_s["classify"],
        "invariant.killing_matrix_s": t("invariant.killing_matrix"),
        "invariant.normalizer_s": t("invariant.normalizer"),
        "invariant.pointwise_check_s": t("invariant.pointwise_rank_one_check"),
        "invariant.self_s": self_s["invariant"],
    }
    for suite in SUITES:
        out[f"harness.suite_s.{suite}"] = t(f"harness.suite.{suite}")
    out["harness.self_s"] = self_s["harness"]
    return out


# -- entry point -------------------------------------------------------------------

WORKLOADS = ("cayley-sweep", "chamber-sweep", "classify-sweep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spin7lab" / "__init__.py").is_file():
        print(f"error: no spin7lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    if args.trace:
        metrics, checks, diag = traced_sweep(args.workload, args.seed)
    else:
        metrics, checks, diag = timed_sweep(args.workload, args.seed, args.seconds)
    if set(metrics) != set(units):
        raise SystemExit(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    failed = [name for name, ok in checks if not ok]
    diag["failed_checks"] = sorted(set(failed))
    diag["failed_ratio"] = len(failed) / len(checks)
    print(json.dumps({"env": environment(args.workload, args.seed),
                      "diagnostics": diag}, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


def _declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
