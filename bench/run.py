"""Benchmark of nilkaehler: one workload, timed, with every output checked.

Run from the root of a checkout:

    python3 bench/run.py --workload validate --seed 1 --seconds 45 --trace 0

Workloads are defined in ``workloads.py``.  A run measures the set-up
(median of fresh interpreters that import the package and load all 13
catalog entries), then repeats passes over the workload's seeded inputs
for ``--seconds``: at least one pass, and another while one more fits.

The end-to-end timings are scaled to a fixed machine speed (``speed.py``):
a shared host's speed drifts within minutes, and so would every timing.
Each pass runs with a calibration kernel timed every 50 ms beside it; the
pass's wall seconds, less the kernel's, are scaled by the reference kernel
time over the mean kernel time of that pass.  Each set-up interpreter
times the kernel right after loading.  The unscaled figures are printed on
standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count operations over all passes; ``correct`` is false when
any verdict contradicts the known answer.  Failed operations are listed
on standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of ``tracing.py`` instead: half the time runs untraced
passes and half traced ones, so the tracing overhead is measured in the
same run.  These are unscaled wall seconds, with no kernel running beside
the passes, whose samples would land inside the spans.  Spans are written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 5
SETUP_KERNEL_SAMPLES = 20
SETUP_CODE = f"""\
import time
start = time.perf_counter()
from nilkaehler import catalog
for name in catalog.NAMES:
    catalog.get(name)
setup_s = time.perf_counter() - start
import speed
print(setup_s, speed.calibrate({SETUP_KERNEL_SAMPLES}))
"""
CHILD_TIMEOUT_S = 60


def measure_setup() -> float:
    """Median scaled seconds for a fresh interpreter to import and load the
    catalog."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH, env.get("PYTHONPATH", "")])
    raw, times = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        setup_s, kernel_s = map(float, done.stdout.split())
        raw.append(setup_s)
        times.append(speed.scaled(setup_s, kernel_s))
    print("setup wall s: " + " ".join(f"{t:.4f}" for t in raw), file=sys.stderr)
    return statistics.median(times)


def run_passes(workload, seconds: float, sampled: bool = False):
    """At least one pass, and more while the median pass still fits in
    ``seconds``.  Returns the wall seconds of each pass, the mean kernel
    seconds sampled during each pass (with ``sampled``; the time the samples
    took is not in the pass's seconds), and the outcomes and counters of all
    passes."""
    times, kernel_s, outcomes, stats = [], [], [], []
    deadline = perf_counter() + seconds
    while not times or perf_counter() + statistics.median(times) <= deadline:
        sampler = speed.Sampler()
        start = perf_counter()
        with sampler if sampled else contextlib.nullcontext():
            out, extra = workload.run()
        times.append(perf_counter() - start - sampler.spent)
        if sampled:
            kernel_s.append(sampler.kernel_s())
        outcomes.extend(out)
        stats.append(extra)
    return times, kernel_s, outcomes, stats


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, setup_s: float):
    times, kernel_s, outcomes, _ = run_passes(workload, seconds, sampled=True)
    scaled = [speed.scaled(t, k) for t, k in zip(times, kernel_s, strict=True)]
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "pass_s": _metric(statistics.median(scaled), "s"),
        "ok_ratio": _metric(1.0 - failed / len(outcomes), "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"passes: {len(times)}\n  wall s: " + " ".join(f"{t:.4f}" for t in times)
          + "\n  kernel ms: " + " ".join(f"{1e3 * k:.4f}" for k in kernel_s)
          + "\n  scaled s: " + " ".join(f"{t:.4f}" for t in scaled), file=sys.stderr)
    return outcomes, metrics


def traced(workload, seconds: float, name: str, seed: int, cold_s: float):
    import tracing

    untraced_times, _, outcomes, _ = run_passes(workload, seconds / 2)
    tracer = tracing.Tracer().install()
    origin = perf_counter()
    try:
        times, _, traced_outcomes, stats = run_passes(workload, seconds / 2)
    finally:
        tracer.uninstall()
    outcomes += traced_outcomes
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{name}-{seed}.json"), origin)
    return outcomes, layer_metrics(tracer, times, untraced_times, stats, cold_s)


def cold_load_s() -> float:
    """Traced seconds in ``catalog.get`` while the catalog loads cold."""
    import tracing
    from nilkaehler import catalog

    tracer = tracing.Tracer().install()
    try:
        for name in catalog.NAMES:
            catalog.get(name)
    finally:
        tracer.uninstall()
    return tracer.table().get("catalog.get", {}).get("s", 0.0)


LAYER_FUNCTIONS = {
    "linalg.invert": ("calls", "s"),
    "linalg.rref": ("calls", "s"),
    "linalg.nullspace": ("s",),
    "linalg.in_row_span": ("calls", "s"),
    "linalg.det": ("s",),
    "linalg.mat_mul": ("s",),
    "geometry.associated_metric": ("self_s",),
    "geometry.christoffel": ("self_s",),
    "geometry.curvature": ("self_s",),
    "geometry.lower_curvature": ("self_s",),
    "geometry.ricci": ("self_s",),
    "geometry.curvature_norm": ("self_s",),
    "geometry.signature": ("s",),
    "geometry.type246_structure_check": ("s",),
    "tensors.nijenhuis": ("s",),
    "tensors.compat_residual": ("s",),
    "tensors.almost_complex_residual": ("s",),
    "tensors.is_closed": ("s",),
    "liealg.jacobi_check": ("s",),
    "solver.verify_family": ("s",),
    "solver.compat_nullspace": ("s",),
    "solver.newton_search": ("calls", "s"),
    "solver.residual_sup_norms": ("calls", "s"),
    "catalog.validate_entry": ("s",),
}


def layer_metrics(tracer, times, untraced_times, stats, cold_s: float) -> dict:
    """Per-layer figures, per traced pass (counts and seconds alike).

    ``cold_s`` is ``catalog.get`` time while the catalog loaded cold."""
    passes = len(times)
    table = tracer.table()
    m: dict[str, dict] = {}
    for fn, fields in LAYER_FUNCTIONS.items():
        row = table.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in fields:
            unit = "count" if field == "calls" else "s"
            m[f"{fn}.{field}"] = _metric(row[field] / passes, unit)
    sc = tracer.scalar
    ops = sc["const_ops"] + sc["param_ops"]
    m["scalar.ops"] = _metric(ops / passes, "count")
    m["scalar.self_s"] = _metric((sc["const_s"] + sc["param_s"]) / passes, "s")
    m["scalar.const_ops"] = _metric(sc["const_ops"] / passes, "count")
    m["scalar.const_op_us"] = _metric(1e6 * sc["const_s"] / max(sc["const_ops"], 1), "us")
    m["scalar.param_ops"] = _metric(sc["param_ops"] / passes, "count")
    m["scalar.param_op_us"] = _metric(1e6 * sc["param_s"] / max(sc["param_ops"], 1), "us")
    m["scalar.peak_terms"] = _metric(sc["peak_terms"], "count")
    m["scalar.slowest_op_s"] = _metric(sc["slowest_op_s"], "s")
    for label, (calls, seconds) in tracer.numpy.items():
        m[f"{label}.calls"] = _metric(calls / passes, "count")
        m[f"{label}.s"] = _metric(seconds / passes, "s")
    m["solver.starts"] = _metric(sum(s.get("solver.starts", 0) for s in stats) / passes,
                                 "count")
    ratios = [s["solver.converged_ratio"] for s in stats if "solver.converged_ratio" in s]
    m["solver.converged_ratio"] = _metric(statistics.mean(ratios) if ratios else 0.0,
                                          "ratio")
    wall = sum(times)
    traced_pass = statistics.median(times)
    untraced_pass = statistics.median(untraced_times)
    m["catalog.get.s"] = _metric(cold_s, "s")
    m["trace.traced_pass_s"] = _metric(traced_pass, "s")
    m["trace.untraced_pass_s"] = _metric(untraced_pass, "s")
    m["trace.overhead_s"] = _metric(traced_pass - untraced_pass, "s")
    m["trace.unaccounted_share"] = _metric(1.0 - tracer.accounted_s(table) / wall, "ratio")
    return m


def environment() -> dict:
    """What moves the numbers besides the code."""
    import importlib.util
    import platform

    import numpy
    import sympy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def report(outcomes) -> None:
    """Environment, fail ratio and every failed operation, on stderr."""
    failed = Counter(o.name + (f" [{o.detail}]" if o.detail else "")
                     for o in outcomes if not o.ok)
    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    print(f"fail_ratio: {sum(failed.values()) / len(outcomes):.6f}"
          f" ({sum(failed.values())}/{len(outcomes)})", file=sys.stderr)
    for text, count in sorted(failed.items()):
        print(f"FAILED x{count}: {text}", file=sys.stderr)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "nilkaehler", "catalog.py")):
        print(f"error: no nilkaehler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        cold_s = cold_load_s()
        workload = WORKLOADS[args.workload](args.seed)
        outcomes, metrics = traced(workload, args.seconds, args.workload, args.seed,
                                   cold_s)
    else:
        setup_s = measure_setup()
        workload = WORKLOADS[args.workload](args.seed)
        outcomes, metrics = end_to_end(workload, args.seconds, setup_s)
    report(outcomes)
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
