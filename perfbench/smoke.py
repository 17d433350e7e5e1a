"""Tiny-scale smoke test of the benchmark: every workload, traced and untraced.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/smoke.py

Each run must exit 0, end with a correct result, and report every metric
that ``BENCHMARK.json`` declares for its mode.  A copy of the
benchmark without the program next to it must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["--seed", "0", "--seconds", "0.5", "--scale", "0.02"]


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace), *RUN],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {metric["name"] for metric in config["end_to_end"]},
        1: {metric["name"] for metric in config["per_layer"]},
    }
    problems = []
    for workload in [entry["name"] for entry in config["workloads"]]:
        for trace in (0, 1):
            completed = run_benchmark(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            found = len(problems)
            if completed.returncode != 0:
                problems.append(f"{label}: exit {completed.returncode}\n{completed.stderr}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: incorrect result {result}")
            missing = declared[trace] - set(result["metrics"])
            if missing:
                problems.append(f"{label}: declared metrics not reported: {sorted(missing)}")
            if len(problems) == found:
                print(f"ok   {label}: {result['attempted']} trials")
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        completed = run_benchmark(Path(bare), "e9-campaign", 0)
        if completed.returncode == 0 or completed.stdout.strip():
            problems.append("a checkout without src/ did not fail cleanly")
        else:
            print(f"ok   without src/: exit {completed.returncode}")
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
