"""Whole-trial throughput benchmark for the simulator (see README.md).

Run from the root of a checkout::

    python3 perfbench/run.py --workload e9-campaign --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when a result was printed.  It is 2 when the
program under ``src/`` cannot be imported, and non-zero without a
result whenever the benchmark itself fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from clock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Run single-threaded and quiet.  The BLAS and OpenMP settings only
#: take effect when set before numpy is imported, so they are applied
#: before anything from ``src/`` loads.  Every other ``REPRO_*`` variable
#: is removed, which leaves ``REPRO_TRACE`` unset.
SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "REPRO_TELEMETRY_QUIET": "1",
}

#: Fresh interpreters timed per run for ``setup_s``, after one discarded
#: warm-up.
SETUP_PROBES = 3


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for a mode."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = config["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def configure_environment() -> None:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(SETTINGS)
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="accepted and ignored: every workload runs a fixed amount of "
        "work, so two commits always measure the same trials",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink campaigns and population sizes (smoke tests only)",
    )
    return parser.parse_args(argv)


def measure_setup(args: argparse.Namespace, workdir: Path) -> float:
    """Median CPU seconds from interpreter start to the first engine build."""
    samples = []
    for probe in range(SETUP_PROBES + 1):
        probe_dir = workdir / f"setup-{probe}"
        probe_dir.mkdir()
        completed = subprocess.run(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--scale",
                repr(args.scale),
                "--workdir",
                str(probe_dir),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
            check=True,
        )
        if probe:
            samples.append(float(completed.stdout.split()[-1]))
    return statistics.median(samples)


def run_untraced(args, workload, workdir: Path):
    setup_s = measure_setup(args, workdir)
    workload.prepare(args.seed, args.scale, str(workdir))
    with HostClock() as clock:
        result = workload.trial_phase(clock)
    workload.check(result)
    attempted = len(result.records)
    metrics = {
        "steps_per_s": result.steps_per_s,
        "setup_s": setup_s,
        "ok_frac": (attempted - len(result.failures)) / attempted,
    }
    return result, metrics


def untraced_steps_per_s(args) -> float:
    """``steps_per_s`` of an untraced run of the same workload and seed."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            repr(args.seconds),
            "--trace",
            "0",
            "--scale",
            repr(args.scale),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
        check=True,
    )
    last = completed.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["steps_per_s"]["value"]


def run_traced(args, workload, workdir: Path):
    from layers import LayerTracer, layer_metrics, stage_seconds, trial_metrics

    baseline = untraced_steps_per_s(args)
    events = workdir / "events.jsonl"
    os.environ["REPRO_TELEMETRY_EVENTS"] = str(events)
    with HostClock() as clock:
        tracer = LayerTracer(clock)
        tracer.install()
        try:
            window0 = clock.scaled()
            workload.prepare(args.seed, args.scale, str(workdir))
            result = workload.trial_phase(clock)
            window = clock.scaled() - window0
        finally:
            tracer.uninstall()
            del os.environ["REPRO_TELEMETRY_EVENTS"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check(result)
    metrics = layer_metrics(
        tracer, window, stage_seconds(str(events)), workload.spec_count
    )
    metrics.update(trial_metrics(result.records))
    metrics["run.wall_s"] = result.wall_s
    metrics["run.wait_s"] = result.wall_s - result.thread_cpu_s
    metrics["run.peak_rss_mb"] = peak_rss_mb
    metrics["host.slowdown"] = clock.slowdown()
    metrics["trace.overhead_ratio"] = baseline / result.steps_per_s
    return result, metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    configure_environment()
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: no program to benchmark at {source}", file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; use one of: {known}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        result, metrics = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        print(
            f"error: metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}",
            file=sys.stderr,
        )
        return 1
    settings = " ".join(f"{key}={value}" for key, value in SETTINGS.items())
    print(f"settings: {settings} REPRO_TRACE=<unset> jobs=1 trace={args.trace}")
    for index, reason in sorted(result.failures.items()):
        spec = result.records[index].spec
        print(f"FAILED {spec.protocol} n={spec.n} seed={spec.seed}: {reason}")
    for name, unit in declared.items():
        print(f"{name:40s} {metrics[name]:>18.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": len(result.records),
                "failed": len(result.failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
