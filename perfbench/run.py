"""posecast benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another

Inputs are generated from the seed and written under ``.perfbench/``
before any measuring process starts. Each measurement then runs in a
fresh worker process (see ``worker.py``):

* ``--trace 0``: three workers measure for S/3 seconds each and run the
  correctness checks; their op times are pooled, ``setup_s`` is the
  median of their set-ups and their ``mpjpe`` must match exactly.
  Prints every end-to-end metric.
* ``--trace 1``: two traced workers and one untraced worker, each for
  S/3 seconds. The traced ones must agree on every exact counter and on
  ``mpjpe``. Prints every per-layer metric, tracing overhead included.

Metric names and units come from ``BENCHMARK.json``. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0
MAIN_WORKERS = 3
EXACT_SETUP = ("graphs.operator_bytes", "graphs.operator_nnz", "graphs.operator_size")


def pin_threads():
    """Cap BLAS and OpenMP threads at the usable core count; return it."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    return nproc


def environment(nproc):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


class Workers:
    """Starts worker processes one at a time within the run's time limit."""

    def __init__(self, name, seed, tiny, work_dir):
        self.base = {"workload": name, "seed": seed, "tiny": tiny,
                     "dir": str(work_dir), "src": str(SRC)}
        self.dir = work_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def run(self, seconds, min_ops, trace=False, checks=False):
        """Returns the worker's result dict, with ``setup_s`` added, or None."""
        self.count += 1
        job_path = self.dir / f"job{self.count}.json"
        result_path = self.dir / f"result{self.count}.json"
        job_path.write_text(json.dumps(dict(self.base, seconds=seconds, min_ops=min_ops,
                                            trace=trace, checks=checks)))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                stdout=sys.stderr, timeout=max(self.deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            print(f"worker {self.count} exceeded the run's time limit", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"worker {self.count} exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - start if result["ready"] else None
        return result


def windows_per_s(result):
    return result["windows_per_op"] * len(result["op_s"]) / sum(result["op_s"])


def worker_checks(results):
    """Every worker ended cleanly, passed its own checks and got one mpjpe."""
    if not all(r and r["setup_s"] and not r["failed"] for r in results):
        return {"workers_completed": False}
    checks = {"workers_completed": True,
              "mpjpe_repeats": len({r["mpjpe"] for r in results}) == 1}
    checks.update({k: all(r["checks"][k] for r in results) for k in results[0]["checks"]})
    return checks


def measure(workers, w, seconds):
    """Untraced: the end-to-end metrics and the checks they rest on.

    The S seconds are split over MAIN_WORKERS fresh processes whose op
    times are pooled. Each worker sets up on its own and recomputes the
    ``mpjpe`` prefix, so one run yields several set-up samples and the
    workers replay one another.
    """
    results = [workers.run(seconds / MAIN_WORKERS, w["mpjpe_ops"] - 1, checks=True)
               for _ in range(MAIN_WORKERS)]
    checks = worker_checks(results)
    if not checks["workers_completed"]:
        return results, checks, {}, {}
    ops = sorted(op for r in results for op in r["op_s"])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "windows_per_s": w["batch"] * len(ops) / sum(ops),
        "op_ms_p50": 1000.0 * statistics.median(ops),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "mpjpe": results[0]["mpjpe"],
    }
    extra = {"timed_ops": len(ops), "setup_samples_s": [r["setup_s"] for r in results]}
    # p90 has ten samples beyond it only from 100 ops on.
    if len(ops) >= 100:
        extra["op_ms_p90"] = 1000.0 * statistics.quantiles(ops, n=10)[-1]
    return results, checks, metrics, extra


def trace(workers, w, seconds):
    """Traced: the per-layer metrics, with exact counters checked."""
    min_ops = max(w["mpjpe_ops"] - 1, 2)
    a = workers.run(seconds / 3, min_ops, trace=True, checks=True)
    b = workers.run(seconds / 3, min_ops, trace=True, checks=True)
    u = workers.run(seconds / 3, min_ops, checks=True)
    results = [a, b, u]
    checks = worker_checks(results)
    if not checks["workers_completed"]:
        return results, checks, {}, {}
    ta, tb = a["trace"], b["trace"]
    exact = ta["per_op"][0]
    checks["exact_counts_repeat_across_ops"] = all(
        op == exact for op in ta["per_op"] + tb["per_op"])
    checks["exact_setup_counts_repeat"] = all(
        ta["setup"].get(k) == tb["setup"].get(k) for k in EXACT_SETUP
    ) and a["setup"].get("data.load_bytes") == b["setup"].get("data.load_bytes")

    def mean(get):
        return (get(a) + get(b)) / 2.0

    metrics = {k: mean(lambda r: r["trace"]["times"][k]) for k in ta["times"]}
    metrics.update(exact)
    for k in ("data.load_sequences_s", "data.make_windows_s", "model.load_checkpoint_s"):
        metrics[k] = mean(lambda r: r["setup"].get(k, 0.0))
    metrics["data.load_bytes"] = a["setup"]["data.load_bytes"]
    metrics["graphs.build_s"] = mean(lambda r: r["trace"]["setup"].get("graphs.build_s", 0.0))
    metrics["graphs.operator_bytes"] = ta["setup"].get("graphs.operator_bytes", 0)
    size = ta["setup"].get("graphs.operator_size", 0)
    metrics["graphs.operator_nnz_frac"] = ta["setup"].get("graphs.operator_nnz", 0) / size if size else 0.0
    fwd_f, bwd_f = exact["autodiff.matmul.fwd_flop"], exact["autodiff.matmul.bwd_flop"]
    dead = exact["autodiff.matmul.bwd_dead_flop"]
    metrics["autodiff.matmul.bwd_useful_frac"] = 1.0 - dead / bwd_f if bwd_f else 1.0
    matmul_s = metrics["autodiff.matmul.fwd_s"] + metrics["autodiff.matmul.bwd_s"]
    metrics["autodiff.matmul.gflops"] = (fwd_f + bwd_f) / matmul_s / 1e9 if matmul_s else 0.0
    traced, untraced = mean(windows_per_s), windows_per_s(u)
    metrics["trace.traced_windows_per_s"] = traced
    metrics["trace.untraced_windows_per_s"] = untraced
    metrics["trace.overhead_frac"] = 1.0 - traced / untraced
    return results, checks, metrics, {"traced_ops": ta["ops"] + tb["ops"]}


def run_workload(name, seed, seconds, traced, tiny, declared, env):
    import workloads

    w = workloads.spec(name, tiny)
    work_dir = WORK / name / f"seed-{seed}{'-trace' if traced else ''}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workloads.generate(w, seed, work_dir)
    workers = Workers(name, seed, tiny, work_dir)
    results, checks, values, extra = (trace if traced else measure)(workers, w, seconds)
    attempted = sum(r["attempted"] for r in results if r) + len(checks)
    failed = sum(r["failed"] for r in results if r) + sum(not ok for ok in checks.values())
    correct = failed == 0 and all(checks.values())
    metrics = {}
    if correct:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if not traced:
        extra["failed_frac"] = failed / attempted
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
              "env": env, "checks": checks, "extra": extra, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (work_dir / "record.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None):
    if not (SRC / "posecast" / "__init__.py").is_file():
        print(f"posecast sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    benchmark = json.loads(spec_path.read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload; default: all, one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, to check the harness itself quickly")
    args = parser.parse_args(argv)

    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    env = environment(nproc)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny,
                            declared, env)
               for name in ([args.workload] if args.workload else names)]

    print("env " + json.dumps(env))
    for rec in records:
        failing = [k for k, ok in rec["checks"].items() if not ok]
        print(f"{rec['workload']} seed={rec['seed']} correct={rec['correct']} "
              f"attempted={rec['attempted']} failed={rec['failed']}"
              + (f" failing={failing}" if failing else "")
              + "".join(f" {k}={v}" for k, v in rec["extra"].items()))
        for key, m in rec["metrics"].items():
            print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    if args.workload:
        rec = records[0]
        summary = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
