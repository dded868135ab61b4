"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` for one second untraced and
twice traced, and checks that each run is correct and that its last line
names every metric in ``BENCHMARK.json`` with the declared unit and a
finite number. The exact counters (units ``count``, ``flop`` and ``B``)
must agree between the two traced runs. Finally it copies only
``BENCHMARK.json`` and ``perfbench/`` into an empty directory and checks
that ``run.py`` fails there without printing a result. Exit code 0 when
everything passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "flop", "B")


def run(run_py, workload, trace):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)


def check_result(proc, declared):
    """Problems with one run's exit code and result line; [] when fine."""
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no JSON result line (exit code {proc.returncode})"], None
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, declared {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']} value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems, metrics


def check_workload(benchmark, name):
    problems, _ = check_result(run(HERE / "run.py", name, 0), benchmark["end_to_end"])
    traced = []
    for _ in range(2):
        found, metrics = check_result(run(HERE / "run.py", name, 1), benchmark["per_layer"])
        problems += found
        traced.append(metrics or {})
    for m in benchmark["per_layer"]:
        if m["unit"] in EXACT_UNITS:
            first, second = (t.get(m["name"], {}).get("value") for t in traced)
            if first != second:
                problems.append(f"exact counter {m['name']} differs: {first} vs {second}")
    return problems


def check_bare_directory(workload):
    """Without the program's sources the benchmark must fail, printing no result."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp) / HERE.name / "run.py", workload, 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    names = [w["name"] for w in benchmark["workloads"]]
    for name in names:
        problems = check_workload(benchmark, name)
        failures += len(problems)
        print(f"{name}: " + ("ok" if not problems else "; ".join(problems)))
    problems = check_bare_directory(names[0])
    failures += len(problems)
    print("bare directory: " + ("ok" if not problems else "; ".join(problems)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
