"""End-to-end benchmark of the ovalfront command line.

Run from the repository root:

    python3 perfbench/run.py --workload plane-verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each operation calls ``ovalfront.cli.main([...])`` in this process on spec
files generated from the seed, and its outputs are checked against the
benchmark's own computations.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the program's layers in spans and prints per-layer
metrics instead.  ``--workload all`` runs every workload untraced and then
traced, and reports the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("plane-verify", "curved-verify", "semicircle", "plane-export")
# Set-up runs this many times; setup_s reports the median.
SETUP_REPEATS = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def prepare_environment() -> None:
    """Scrub OVALFRONT_* (the CLI reads defaults from them on every call)
    and pin BLAS to one thread; must run before NumPy is imported."""
    for key in [k for k in os.environ if k.startswith("OVALFRONT_")]:
        del os.environ[key]
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ovalfront from this checkout's ``src``; returns (package, seconds)."""
    if not (SRC / "ovalfront" / "cli.py").is_file():
        raise SystemExit(f"error: no ovalfront sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ovalfront
    import ovalfront.cli  # noqa: F401  (pulls in every layer module)

    elapsed = time.perf_counter() - t0
    if Path(ovalfront.__file__).resolve().parent != (SRC / "ovalfront").resolve():
        raise SystemExit(f"error: imported ovalfront from {ovalfront.__file__}, not {SRC}")
    return ovalfront, elapsed


def environment_record(ovalfront) -> dict:
    import numpy
    import scipy

    return {
        "kernel_backend": ovalfront.kernel_backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_op(ovalfront, workload, case, label: str) -> tuple[float, bool]:
    """Run one case; returns (seconds inside the CLI, outputs correct)."""
    for out in case.outs:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        # looked up on every call so that a traced run goes through the span
        codes = [ovalfront.cli.main(argv) for argv in case.argvs]
    except Exception:  # an operation that raises is a failed operation
        elapsed = time.perf_counter() - t0
        print(f"{label} {case.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - t0
    try:
        workload.check(case, codes)
    except Exception as exc:  # a failed or crashing check fails the operation
        print(f"{label} {case.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False
    return elapsed, True


def run_workload(ovalfront, name: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> dict:
    from tracing import PER_LAYER, Tracer, metric_unit
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    BENCH_OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH_OUT))
    spec_dir, out_dir = workdir / "specs", workdir / "out"
    tracer = Tracer().install() if trace else None
    try:
        warm_ok = True
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(spec_dir, ignore_errors=True)
            spec_dir.mkdir()
            cases = workload.generate(seed, spec_dir, out_dir)
            warm_ok &= run_op(ovalfront, workload, cases[0], f"{name} warm-up")[1]
            setup_times.append(time.perf_counter() - t0)

        op_times = []
        failed = 0
        t_start = time.perf_counter()
        while not op_times or time.perf_counter() - t_start < seconds:
            for case in cases:  # whole rounds only
                if tracer is not None:
                    tracer.current_op = len(op_times)
                elapsed, ok = run_op(ovalfront, workload, case, name)
                if tracer is not None:
                    tracer.current_op = -1
                op_times.append(elapsed)
                failed += not ok
        wall_s = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(op_times)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment_record(ovalfront),
        "correct": bool(warm_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "ops_per_round": len(cases),
        "timed_wall_s": wall_s,
        "op_ms_p50": 1e3 * statistics.median(op_times),
        "op_ms_mean": 1e3 * statistics.fmean(op_times),
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": attempted / sum(op_times),
            "op_ms_p50": 1e3 * statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["units"] = END_TO_END_UNITS
    else:
        result["metrics"] = tracer.per_layer(attempted)
        result["units"] = {m: metric_unit(m) for m in PER_LAYER}
        result["spans"] = len(tracer.start)
        tracer.save(BENCH_OUT / f"spans-{name}.npz")
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (BENCH_OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def summary_line(result: dict) -> str:
    metrics = {m: {"value": v, "unit": result["units"][m]} for m, v in result["metrics"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_table(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"op_ms_p50={result['op_ms_p50']:.3f}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    for metric, value in result["metrics"].items():
        print(f"{metric:32s} {value:14.6g} {result['units'][metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    ovalfront, import_s = import_program()

    if args.workload != "all":
        result = run_workload(ovalfront, args.workload, args.seed, args.seconds,
                              bool(args.trace), import_s)
        print_table(result)
        print(summary_line(result))
        return 0

    everything = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        plain = run_workload(ovalfront, name, args.seed, args.seconds, False, import_s)
        traced = run_workload(ovalfront, name, args.seed, args.seconds, True, import_s)
        for result in (plain, traced):
            print_table(result)
            everything["correct"] &= result["correct"]
            everything["attempted"] += result["attempted"]
            everything["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                everything["metrics"][f"{name}/{metric}"] = {
                    "value": value, "unit": result["units"][metric]}
        overhead = traced["op_ms_p50"] / plain["op_ms_p50"] - 1.0
        print(f"# {name} tracing overhead on op_ms_p50: {100 * overhead:+.1f}%")
    print(json.dumps(everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())
