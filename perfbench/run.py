"""giftnn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Sets the workload up several times
(timing each set-up), then runs it closed-loop, one command or call at a time
in this process, for about S seconds, and gates every iteration. With
``--trace 1`` every other iteration runs with the layer tracer installed and the
per-layer metrics are reported instead of the end-to-end ones. The last line of
standard output is one JSON object with the keys correct, attempted, failed and
metrics. See README.md for the workloads and metrics.
"""

import os
import sys

# The BLAS thread count is held fixed for every run; it must be set before
# numpy loads, here and in the import probe that set-up times.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_REPEATS = 3
# Three samples give a median that one noisy iteration cannot move, and a
# second result body to compare with the first.
MIN_ITERATIONS = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_PROBE = "import giftnn.cli, giftnn.theory"

# name -> unit; printed by a --trace 0 run. Times are CPU seconds: see README.md.
END_TO_END = {
    "cpu_s": "s",
    "work_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def high_percentile(values):
    """(p, value) for the highest listed percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p * n / 100 - 1e-9))  # nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def describe(values):
    p, v = high_percentile(values)
    return {"median": statistics.median(values), "percentile": p, "percentile_value": v, "n": len(values)}


def environment(cli):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "code_hash": cli.code_hash(),
    }


def cpu_seconds():
    """User plus system CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_setups(workload_cls, seed, work_root):
    """Sets the workload up SETUP_REPEATS times.

    Each set-up is a fresh interpreter importing the package, plus the
    workload's in-process set-up (config, datasets, checkpoint training).
    Returns the last instance and per set-up (CPU seconds, wall seconds).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for rep in range(SETUP_REPEATS):
        work_dir = work_root / f"setup{rep}"
        work_dir.mkdir(parents=True)
        t0, c0 = time.perf_counter(), cpu_seconds()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, check=True, timeout=120)
        workload = workload_cls(seed, str(work_dir))
        workload.setup()
        times.append((cpu_seconds() - c0, time.perf_counter() - t0))
    return workload, times


def measure(workload, seconds, tracer, tracing):
    """Closed loop until the next iteration would end past `seconds` (at least MIN_ITERATIONS).

    With a tracer, odd iterations run traced and even ones untraced.
    """
    from workloads import Outcome

    iterations = []
    ref_digest, ref_counts = None, None
    t_begin = time.perf_counter()
    while True:
        i = len(iterations)
        traced = tracer is not None and i % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.iteration = i
                stack.enter_context(tracer.install())
                stack.enter_context(tracer.span(tracing.ROOT))
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                result, error = workload.run(), None
            except Exception:  # an iteration that raises is a failed operation; keep measuring
                result, error = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if error is None:
            try:
                outcome = workload.check(result)
            except Exception:  # unreadable or missing outputs fail the gate
                error = traceback.format_exc()
        if error is not None:
            outcome = Outcome(0, "", [error])
        if outcome.digest:
            if ref_digest is None:
                ref_digest = outcome.digest
            elif outcome.digest != ref_digest:
                outcome.problems.append("result bodies differ from the first iteration's")
        record = {"wall_s": wall, "cpu_s": cpu, "work": outcome.work, "traced": traced,
                  "digest_sha256": outcome.digest, "problems": outcome.problems}
        if traced:
            record["layers"] = tracing.iteration_metrics(tracer.iteration_summary(i), workload.arch)
            counts = {k: v for k, v in record["layers"].items() if tracing.PER_LAYER[k][1] == "count"}
            if ref_counts is None:
                ref_counts = counts
            elif counts != ref_counts:
                outcome.problems.append("traced counts differ from the first traced iteration's")
        iterations.append(record)
        walls = [it["wall_s"] for it in iterations]
        if len(iterations) >= MIN_ITERATIONS and (
                time.perf_counter() - t_begin + statistics.median(walls) > seconds):
            return iterations


def timing_stats(iterations, setup_times):
    """Median, high percentile and sample count of every timing of the untraced
    iterations; the wall ones are information only."""
    timed = [it for it in iterations if not it["traced"]]

    def column(key, per_work=False):
        return [it["work"] / it[key] if per_work else it[key] for it in timed]

    return {
        "cpu_s": describe(column("cpu_s")),
        "work_per_cpu_s": describe(column("cpu_s", per_work=True)),
        "setup_s": describe([cpu for cpu, _ in setup_times]),
        "wall_s": describe(column("wall_s")),
        "work_per_wall_s": describe(column("wall_s", per_work=True)),
        "setup_wall_s": describe([wall for _, wall in setup_times]),
    }


def end_to_end(stats):
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END.items()
               if name in stats}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": END_TO_END["peak_rss_mb"]}
    return metrics


def per_layer(iterations, tracing):
    traced = [it for it in iterations if it["traced"]]
    untraced = [it for it in iterations if not it["traced"]]
    merged = tracing.merge_iterations([it["layers"] for it in traced])
    merged["trace.traced_cpu_s"] = statistics.median(it["cpu_s"] for it in traced)
    merged["trace.untraced_cpu_s"] = statistics.median(it["cpu_s"] for it in untraced)
    merged["trace.overhead_s"] = merged["trace.traced_cpu_s"] - merged["trace.untraced_cpu_s"]
    return {name: {"value": merged[name], "unit": unit} for name, (unit, _, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "giftnn" / "__init__.py").is_file():
        print(f"perfbench: no giftnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from giftnn import cli
    import tracer as tracing
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choices: {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = RUNS_DIR / tag
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        try:
            workload, setup_times = timed_setups(workload_cls, args.seed, work_root)
        except (SetupError, subprocess.SubprocessError) as e:
            print(f"perfbench: set-up failed: {e}", file=sys.stderr)
            return 1
        tracer = tracing.Tracer() if args.trace else None
        t0 = time.perf_counter()
        iterations = measure(workload, args.seconds, tracer, tracing)
        stats = timing_stats(iterations, setup_times)
        metrics = per_layer(iterations, tracing) if args.trace else end_to_end(stats)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failed = sum(1 for it in iterations if it["problems"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "work_unit": workload.unit, "work_rate_name": workload.rate_name,
        "config": workload.config, "environment": environment(cli),
        "setup_s": setup_times, "stats": stats, "metrics": metrics, "iterations": iterations,
        "attempted": len(iterations), "failed": failed, "failed_frac": failed / len(iterations),
    }
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / f"{tag}.json", "w") as f:
        json.dump(report, f, indent=1)
    if tracer is not None:
        with open(RUNS_DIR / f"{tag}.spans.json", "w") as f:
            json.dump(tracer.dump(t0), f)

    print(f"perfbench {tag}: {len(iterations)} iterations, {failed} failed "
          f"(failed_frac {failed / len(iterations):g}); report in {RUNS_DIR / (tag + '.json')}")
    for it in iterations:
        for problem in it["problems"]:
            print(f"  gate: {problem}")
    for name, s in stats.items():
        unit = "1/s" if name.startswith("work_per") else "s"
        alias = f" ({workload.rate_name}: {workload.unit} per second)" if name.startswith("work_per") else ""
        hi = f", p{s['percentile']:g} {s['percentile_value']:.6g}" if s["percentile"] else ""
        print(f"  {name}{alias}: median {s['median']:.6g} {unit}{hi} (n={s['n']})")
    for name, m in metrics.items():
        if name not in stats:
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(iterations), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
