"""One measuring process: set up, warm up, run timed ops, check, report.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

``run.py`` writes the job (workload, seed, seconds, minimum op count,
whether to trace and whether to run the correctness checks) and starts
each worker as a fresh process, so imports, data loading and model
building are paid again in every worker and ``ru_maxrss`` is the
workload's own.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback


def main(job_path, result_path):
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    from tracer import Tracer
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    import workloads

    w = workloads.spec(job["workload"], job["tiny"])
    clock = workloads.Clock(job["seconds"], job["min_ops"], tracer)
    run = workloads.Run(w, job["seed"], job["dir"], clock, tracer)
    model, errored = None, False
    try:
        model = run.execute()
    except Exception:
        traceback.print_exc()
        errored = True
        run.failed_ops += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    if job["checks"] and model is not None:
        run.run_checks(model)
    result = {
        "ready": clock.ready,
        "op_s": clock.op_s,
        "windows_per_op": w["batch"],
        "mpjpe": run.mpjpe,
        "attempted": len(clock.op_s) + (clock.ready is not None) + errored,
        "failed": run.failed_ops,
        "checks": run.checks,
        "setup": run.setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:3])
