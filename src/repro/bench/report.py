"""Machine-readable engine benchmark harness.

Writes ``BENCH_engine.json`` at the repository root, the durable,
diffable record of the performance trajectory (CI uploads it as a
workflow artifact on every run; see ``.github/workflows/ci.yml``).
Every report carries all of these sections under the one schema
:data:`SCHEMA`:

* ``results``/``summary``: steps/sec and transition-cache statistics
  for every engine over a grid of protocols and population sizes, on
  both transition paths (kernel and cached) where a protocol compiles
  a kernel;
* ``trials``: campaign-level trials/sec of the packed ensemble engine
  against serial solo runs and the multiprocessing pool;
* ``kernel``: compiled-kernel vs cached-delta transition resolution on
  the PLL n=1024 cell;
* ``telemetry``, ``faults``, ``schedulers``: the cost of the telemetry
  instruments (and of span tracing), of the fault-injector driver, and
  of weighted-schedule thinning, each timed against a plain run of the
  same PLL n=10^6 superbatch cell (:func:`measure_overhead_cell`).

Usage::

    repro bench                  # full grid
    repro bench --quick          # CI scale
    repro bench --quick --check  # CI: fail unless every gate passes
    repro bench --out other.json

``--check`` runs every gate at its module-constant threshold (exit 1
on any failure): batch >= :data:`MIN_BATCH_RATIO` x multiset and
superbatch >= :data:`MIN_SUPERBATCH_RATIO` x batch on the largest PLL
cell; ensemble >= :data:`MIN_TRIALS_RATIO` x serial on the trials cell;
kernel >= :data:`MIN_KERNEL_RATIO` x cached on both cold-pairs rows;
the ceilings in :data:`OVERHEAD_GATES`; and, on full-grid records, the
crossovers :func:`derive_crossovers` measures must equal ``auto``'s
constants in :mod:`repro.orchestration.spec`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from repro.engine.cache import TransitionCache
from repro.engine.interner import StateInterner
from repro.engine.kernel import compiled_kernel_for
from repro.engine.kernel.cache import KernelTransitionCache
from repro.engine.kernel.compiled import CompiledKernel
from repro.engine.superbatch import SuperBatchSimulator
from repro.errors import ConvergenceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.orchestration.pool import build_simulator, run_specs
from repro.orchestration.registry import build_protocol
from repro.orchestration.spec import (
    BATCH_ENGINE_MIN_N,
    ENGINES,
    SUPERBATCH_ENGINE_MIN_N,
    trial_specs,
)
from repro.schedulers.weighted import WeightedSuperBatchSimulator
from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV
from repro.telemetry.trace import TRACE_ENV

REPO_ROOT = Path(__file__).resolve().parent.parent.parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_engine.json"

#: (protocol registry name, population sizes) measured per engine.  The
#: large-``n`` PLL cells (10^7, 10^8) are where the count-level
#: super-batch engine earns its keep; see :data:`AGENT_MAX_N` for which
#: engines run there.
FULL_GRID = (
    ("pll", (1024, 65536, 1_000_000, 10_000_000, 100_000_000)),
    ("angluin", (1024, 65536)),
)
QUICK_GRID = (
    # The larger quick cell sits at 2^18 so the batch-vs-multiset gate
    # still grades batch inside its own regime: the kernel-backed
    # multiset engine pushed the crossover well past the old 2^14.
    ("pll", (1024, 262144)),
    ("angluin", (1024,)),
)
FULL_STEPS = 100_000
QUICK_STEPS = 20_000

#: Largest population the agent engine is measured at: its per-agent
#: state arrays make setup alone scale with ``n``, which at 10^7+ only
#: burns grid minutes documenting a regime ``auto`` never assigns it.
#: The count-vector engines (multiset, batch, superbatch) have
#: ``n``-independent setup and run the full grid.
AGENT_MAX_N = 2_000_000

#: The headline comparison: the protocol every engine is graded on.
CHECK_PROTOCOL = "pll"

#: The campaign-shaped cell the trials-per-second section measures: deep
#: enough in trials to exercise lane packing, small-to-mid in ``n`` —
#: exactly the regime campaigns spend most of their trials in (and where
#: BENCH_engine.json shows the within-trial batch engine losing to the
#: per-interaction engines).
TRIALS_PROTOCOL = "pll"
TRIALS_N = 4096
TRIALS_COUNT = 64
#: Worker processes for the pool baseline: a realistic `--jobs` choice
#: (capped at 4 so a 128-core machine doesn't skew the record), floored
#: at 2 so the baseline actually exercises the multiprocessing pool it
#: is named for rather than the serial fast path.
TRIALS_POOL_JOBS = max(2, min(4, os.cpu_count() or 1))

#: The cell the compiled-kernel comparison is graded on: the exact
#: regime ISSUE 4 names — PLL's ``41 m`` count-up timers reach ~275
#: states at n=1024, which used to drop the dense mirror and make every
#: cold pair a Python ``delta`` call.
KERNEL_PROTOCOL = "pll"
KERNEL_N = 1024
#: Campaign-shaped trials per engine for the end-to-end comparison.
KERNEL_TRIALS = 8

#: The overhead cell the telemetry, faults and schedulers sections all
#: time: the superbatch engine on production-scale PLL, the hottest
#: per-block loop those layers ride on (agent/multiset pay a masked
#: per-step poll instead; DESIGN.md Section 8).  Full stabilization at
#: n=10^6 takes ~14 s per run, far too slow to repeat, so the cell runs
#: a fixed step budget; every section's runs execute the same steps
#: (asserted), so their timings are the same work to the interaction.
OVERHEAD_PROTOCOL = "pll"
OVERHEAD_N = 1_000_000
OVERHEAD_STEPS = 2_000_000
OVERHEAD_STEPS_QUICK = 800_000

#: The schedulers section's weight map: every symbol weighs 1.0, so
#: every acceptance probability is exactly 1.0 and no proposal is
#: rejected.  The graded ratio bounds the thinning machinery itself.
SCHEDULERS_WEIGHTS = {"L": 1.0}

#: The schema every report carries.
SCHEMA = "repro-bench-engine/9"

#: Floors of the speedup gates ``--check`` enforces.
MIN_BATCH_RATIO = 1.0
MIN_SUPERBATCH_RATIO = 1.0
MIN_TRIALS_RATIO = 1.0
MIN_KERNEL_RATIO = 1.0

#: Ceilings of the overhead gates ``--check`` enforces, as
#: (section, graded run, max ratio over the section's baseline run).
#: Tracing is opt-in diagnostics (emitting the capped span stream costs
#: ~1.4x on this cell), so its gate only catches runaway regressions.
OVERHEAD_GATES = (
    ("telemetry", "on", 1.02),
    ("telemetry", "trace", 2.0),
    ("faults", "faulted", 1.05),
    ("schedulers", "weighted", 1.10),
)

#: How decisively superbatch must beat every other engine before its
#: regime extends down to a measured size.  Engine resolution feeds
#: spec content hashes, so the boundary must not ride on run-to-run
#: noise: near the batch/superbatch crossover the two engines measure
#: within a few percent of each other.
SUPERBATCH_WIN_MARGIN = 1.1

#: Engines the batch crossover grades batch against: the per-interaction
#: engines it was built to replace.  Superbatch is excluded there (it
#: wins the far end of the grid, which would otherwise erase the batch
#: regime) and gets its own outright-fastest rule.
PER_INTERACTION_ENGINES = ("agent", "multiset")


def measure_trials_cell(
    protocol_name: str | None = None,
    n: int | None = None,
    trials: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
    include_agent: bool = True,
) -> dict:
    """Trials-per-second for one campaign cell, per execution strategy.

    Up to four rows: the cell's multiset specs run solo serially (the
    like-for-like baseline the ensemble is graded against — same Markov
    chain, byte-identical per-seed outcomes, both single-process), the
    multiprocessing pool running the same solo specs (context: what
    ``--jobs`` buys), the pool running the historical agent engine
    (context only: a different chain — skipped in quick/CI runs where
    it just burns minutes), and the ensemble engine packing the
    multiset specs into lanes over one shared transition cache.  The cell itself is never
    reduced in quick mode: the CI gate is defined on the 64-trial PLL
    cell at n=4096.

    (Until schema v3 the gate compared single-process ensemble against
    the multi-process pool; the kernel-backed multiset engine sped the
    solo baseline up ~5x, so that cross-process comparison stopped
    separating execution *strategy* from worker count.)
    """
    # Late-bound defaults so tests (and callers) can retarget the module
    # constants without re-plumbing every call site.
    if protocol_name is None:
        protocol_name = TRIALS_PROTOCOL
    if n is None:
        n = TRIALS_N
    if trials is None:
        trials = TRIALS_COUNT
    if jobs is None:
        jobs = TRIALS_POOL_JOBS
    rows = []

    def measure(mode: str, engine: str, run) -> dict:
        start = time.perf_counter()
        outcomes = run()
        elapsed = time.perf_counter() - start
        row = {
            "mode": mode,
            "engine": engine,
            "protocol": protocol_name,
            "n": n,
            "trials": trials,
            "jobs": jobs if mode == "pool" else 1,
            "seconds": elapsed,
            "trials_per_sec": trials / elapsed,
            "total_steps": sum(outcome.steps for outcome in outcomes),
        }
        rows.append(row)
        return row

    multiset_specs = trial_specs(
        protocol_name, n, trials, base_seed=seed, engine="multiset"
    )
    agent_specs = trial_specs(
        protocol_name, n, trials, base_seed=seed, engine="agent"
    )
    print(
        f"  measuring serial    {protocol_name} n={n} x{trials} trials "
        f"(multiset, jobs=1) ...",
        flush=True,
    )
    serial_row = measure(
        "serial",
        "multiset",
        lambda: run_specs(multiset_specs, jobs=1, ensemble_lanes=0).outcomes,
    )
    print(
        f"  measuring pool      {protocol_name} n={n} x{trials} trials "
        f"(multiset, jobs={jobs}) ...",
        flush=True,
    )
    measure(
        "pool",
        "multiset",
        lambda: run_specs(multiset_specs, jobs=jobs, ensemble_lanes=0).outcomes,
    )
    if include_agent:
        print(
            f"  measuring pool      {protocol_name} n={n} x{trials} trials "
            f"(agent, jobs={jobs}) ...",
            flush=True,
        )
        measure(
            "pool",
            "agent",
            lambda: run_specs(
                agent_specs, jobs=jobs, ensemble_lanes=0
            ).outcomes,
        )
    print(
        f"  measuring ensemble  {protocol_name} n={n} x{trials} trials ...",
        flush=True,
    )
    ensemble_row = measure(
        "ensemble",
        "multiset",
        lambda: run_specs(multiset_specs, jobs=1, ensemble_lanes=2).outcomes,
    )
    baseline = next(
        row for row in rows if row["mode"] == "pool" and row["engine"] == "multiset"
    )
    return {
        "cell": {"protocol": protocol_name, "n": n, "trials": trials},
        "results": rows,
        "ensemble_vs_pool": ensemble_row["trials_per_sec"]
        / baseline["trials_per_sec"],
        "ensemble_vs_serial": ensemble_row["trials_per_sec"]
        / serial_row["trials_per_sec"],
    }


def measure_engine(
    engine: str,
    protocol_name: str,
    n: int,
    steps: int,
    seed: int = 0,
    use_kernel: bool | None = None,
) -> dict:
    """Time ``steps`` interactions of one engine on one workload.

    ``use_kernel`` forces the transition-resolution path; ``None`` takes
    the default (the compiled kernel for protocols that ship one).  The
    row's ``transitions`` field records which path actually ran.
    """
    protocol = build_protocol(protocol_name, n)
    kernelized = compiled_kernel_for(protocol) is not None
    if use_kernel is None:
        use_kernel = kernelized
    sim = build_simulator(
        protocol, n, seed=seed, engine=engine, use_kernel=use_kernel
    )
    start = time.perf_counter()
    executed = sim.run(steps)
    elapsed = time.perf_counter() - start
    if executed != steps:
        raise RuntimeError(
            f"{engine} executed {executed} of {steps} steps on "
            f"{protocol_name} n={n}"
        )
    stats = sim.cache.stats
    return {
        "engine": engine,
        "protocol": protocol_name,
        "n": n,
        "steps": steps,
        "transitions": "kernel" if use_kernel else "cached",
        "seconds": elapsed,
        "steps_per_sec": steps / elapsed,
        "distinct_states": sim.distinct_states_seen(),
        "cache": {
            "entries": len(sim.cache),
            "hits": stats.hits,
            "misses": stats.misses,
            "bypasses": stats.bypasses,
            "hit_rate": stats.hit_rate,
        },
    }


# ----------------------------------------------------------------------
# the compiled-kernel comparison cell
# ----------------------------------------------------------------------


def _fresh_cache(protocol_name: str, n: int, states, use_kernel: bool):
    """A cold cache of the requested path, interner pre-seeded in order.

    The kernel path gets a private :class:`CompiledKernel` (bypassing
    the shared registry) so the measurement includes its fills — a true
    cold-vs-cold comparison.
    """
    protocol = build_protocol(protocol_name, n)
    interner = StateInterner()
    if use_kernel:
        kernel = CompiledKernel(protocol, protocol.compile_kernel())
        cache = KernelTransitionCache(protocol, interner, kernel=kernel)
    else:
        cache = TransitionCache(protocol, interner)
    for state in states:
        interner.intern(state)
    return cache


def _measure_cold_pairs(
    engine: str, protocol_name: str, n: int, seed: int
) -> dict:
    """Kernel vs cached-delta resolving the trial's full cold pair space.

    A PLL trial at ``n = 1024`` keeps cycling its ``41 m`` count-up
    timers through fresh state pairs, so over a campaign the engines
    end up resolving essentially *every* ordered pair of reached states
    — each one a cold Python ``delta`` call on the cached path.  This
    row measures exactly that layer: discover the reached states with
    one fixed-length run (long enough for the timers to cycle well past
    stabilization), then resolve all ``S^2`` ordered pairs through a
    cold cache of each path, issued in the engine's request shape —
    scalar ``apply`` calls for the multiset engine, block-sized
    ``apply_block`` arrays (the engine's own ``~1.5 sqrt(n)`` pair
    blocks) for the batch engine.
    """
    protocol = build_protocol(protocol_name, n)
    sim = build_simulator(protocol, n, seed=seed, engine=engine)
    sim.run(60_000)
    states = sim.interner.states()
    count = len(states)
    ids = np.arange(count, dtype=np.int64)
    pre0 = np.repeat(ids, count)
    pre1 = np.tile(ids, count)

    def replay(use_kernel: bool) -> float:
        cache = _fresh_cache(protocol_name, n, states, use_kernel)
        start = time.perf_counter()
        if engine == "batch":
            block = max(64, round(1.5 * (n ** 0.5)))
            apply_block = cache.apply_block
            for lo in range(0, pre0.shape[0], block):
                apply_block(pre0[lo : lo + block], pre1[lo : lo + block])
        else:
            apply = cache.apply
            for initiator_id, responder_id in zip(
                pre0.tolist(), pre1.tolist()
            ):
                apply(initiator_id, responder_id)
        return time.perf_counter() - start

    cached_seconds = replay(False)
    kernel_seconds = replay(True)
    return {
        "engine": engine,
        "mode": "cold-pairs",
        "protocol": protocol_name,
        "n": n,
        "distinct_states": count,
        "pairs": count * count,
        "cached_seconds": cached_seconds,
        "kernel_seconds": kernel_seconds,
        "kernel_vs_cached": cached_seconds / kernel_seconds,
    }


def _measure_trials(
    engine: str, protocol_name: str, n: int, trials: int, seed: int
) -> dict:
    """Kernel vs cached-delta, end to end, campaign-shaped.

    Fresh simulator per trial, run to stabilization — how campaigns
    actually consume engines.  Trajectories are identical on both paths
    (same chain), so this is a pure execution-path comparison.
    """

    def run(use_kernel: bool) -> float:
        start = time.perf_counter()
        for trial in range(trials):
            protocol = build_protocol(protocol_name, n)
            sim = build_simulator(
                protocol,
                n,
                seed=seed + trial,
                engine=engine,
                use_kernel=use_kernel,
            )
            sim.run_until_stabilized()
        return time.perf_counter() - start

    cached_seconds = run(False)
    kernel_seconds = run(True)
    return {
        "engine": engine,
        "mode": "trials",
        "protocol": protocol_name,
        "n": n,
        "trials": trials,
        "cached_seconds": cached_seconds,
        "kernel_seconds": kernel_seconds,
        "cached_trials_per_sec": trials / cached_seconds,
        "kernel_trials_per_sec": trials / kernel_seconds,
        "kernel_vs_cached": cached_seconds / kernel_seconds,
    }


def measure_kernel_cell(
    protocol_name: str | None = None,
    n: int | None = None,
    trials: int | None = None,
    seed: int = 0,
) -> dict:
    """The compiled-kernel comparison on the graded PLL n=1024 cell.

    Two rows per engine (multiset and batch):

    * ``cold-pairs`` — the transition-resolution layer in isolation:
      the trial's full reached-pair space through a cold cache of each
      path, in the engine's request shape (the ``--check-kernel``
      gate; this is where "no Python delta on the hot path" cashes out);
    * ``trials`` — end-to-end campaign-shaped throughput on the same
      cell (context: for the batch engine, per-block sampling machinery
      bounds the end-to-end gain at small ``n`` even with transitions
      free — see DESIGN.md Section 5).
    """
    if protocol_name is None:
        protocol_name = KERNEL_PROTOCOL
    if n is None:
        n = KERNEL_N
    if trials is None:
        trials = KERNEL_TRIALS
    rows = []
    for engine in ("multiset", "batch"):
        print(
            f"  measuring kernel    {protocol_name} n={n} "
            f"({engine} cold pairs) ...",
            flush=True,
        )
        rows.append(_measure_cold_pairs(engine, protocol_name, n, seed))
        print(
            f"  measuring kernel    {protocol_name} n={n} "
            f"({engine} x{trials} trials) ...",
            flush=True,
        )
        rows.append(_measure_trials(engine, protocol_name, n, trials, seed))
    return {
        "cell": {"protocol": protocol_name, "n": n},
        "results": rows,
    }


@contextmanager
def _environ(overrides: dict[str, str | None]):
    """Set (or, for ``None``, unset) environment variables for a block."""
    before = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in before.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _timed(sim, drive: Callable[[], object]) -> tuple[float, int]:
    """CPU seconds of one budgeted run, and the steps it executed."""
    start = time.process_time()
    try:
        drive()
    except ConvergenceError:
        pass  # budget exhausted: the measured workload, not a failure
    return time.process_time() - start, sim.steps


def _telemetry_runs(protocol_name: str, n: int, steps: int, seed: int):
    """Telemetry off (baseline), on, and on with span tracing.

    Builds the simulator directly (``build_simulator`` deliberately does
    not plumb the ctor override; the bench pins the switch per run
    regardless of the ambient ``REPRO_TELEMETRY``) and runs the
    monotone-leader loop, the only path that creates heartbeats.  The
    ``trace`` run also turns on span tracing and the stage profile,
    with the event sink pointed at ``os.devnull`` (tracing needs
    somewhere to write; the null device isolates serialization cost
    from disk latency).  Phase probes are always on, so ``trace``
    bounds the *additional* cost of the full diagnostic tier.
    """

    def run_once(telemetry: bool, trace: bool = False) -> tuple[float, int]:
        env = (
            {TELEMETRY_ENV: "1", TRACE_ENV: "1", EVENTS_ENV: os.devnull}
            if trace
            else {}
        )
        with _environ(env):
            protocol = build_protocol(protocol_name, n)
            sim = SuperBatchSimulator(protocol, n, seed=seed, telemetry=telemetry)
            return _timed(sim, lambda: sim.run_until_stabilized(max_steps=steps))

    runs = {
        "off": lambda: run_once(False),
        "on": lambda: run_once(True),
        "trace": lambda: run_once(True, trace=True),
    }
    return runs, {}


def _fault_runs(protocol_name: str, n: int, steps: int, seed: int):
    """A clean ``plan=None`` run (baseline) and an injector-driven one.

    The injector's one-event plan corrupts a *single* agent mid-budget:
    the closest thing to a no-op plan the validator admits, so the
    graded ratio bounds the segment-driving machinery (an extra
    ``run_until_stabilized`` re-entry plus one count-vector rewrite)
    every faulted campaign trial pays, not fault work.
    """
    plan = FaultPlan.create(
        [{"kind": "corrupt", "at_step": steps // 2, "count": 1}]
    )

    def run_once(faulted: bool) -> tuple[float, int]:
        sim = SuperBatchSimulator(build_protocol(protocol_name, n), n, seed=seed)
        if faulted:
            injector = FaultInjector(plan, n, seed)
            return _timed(sim, lambda: injector.drive(sim, max_steps=steps))
        return _timed(sim, lambda: sim.run_until_stabilized(max_steps=steps))

    runs = {
        "clean": lambda: run_once(False),
        "faulted": lambda: run_once(True),
    }
    return runs, {"plan": plan.canonical()}


def _scheduler_runs(protocol_name: str, n: int, steps: int, seed: int):
    """A uniform run (baseline) and a neutrally weighted thinned one.

    :class:`~repro.schedulers.weighted.WeightedSuperBatchSimulator` with
    :data:`SCHEDULERS_WEIGHTS` accepts every proposal, so the graded
    ratio bounds the thinning machinery (per-run acceptance vectors,
    Binomial draws, weight-table upkeep) every weighted campaign cell
    pays on top of the proposals its real weight map rejects.
    """

    def run_once(weighted: bool) -> tuple[float, int]:
        protocol = build_protocol(protocol_name, n)
        if weighted:
            sim = WeightedSuperBatchSimulator(
                protocol, n, SCHEDULERS_WEIGHTS, seed=seed
            )
        else:
            sim = SuperBatchSimulator(protocol, n, seed=seed)
        return _timed(sim, lambda: sim.run_until_stabilized(max_steps=steps))

    runs = {
        "uniform": lambda: run_once(False),
        "weighted": lambda: run_once(True),
    }
    return runs, {"weights": dict(SCHEDULERS_WEIGHTS)}


#: Overhead sections: the builder of each one's runs (baseline first)
#: and its count of timed pairs.  The gates grade the cleanest pair, and
#: nine telemetry pairs give the minimum a real chance of landing in a
#: quiet scheduling window even on busy hosts.
OVERHEAD_SECTIONS = {
    "telemetry": (_telemetry_runs, 9),
    "faults": (_fault_runs, 7),
    "schedulers": (_scheduler_runs, 7),
}


def measure_overhead_cell(section: str, seed: int = 0, quick: bool = False) -> dict:
    """Baseline-vs-variant timings of the overhead cell for one section.

    Methodology, chosen for a *ceiling* gate on hosts whose timing noise
    can exceed the 2% effect being bounded:

    * adjacent timed pairs, order reversed every other pair, so slow
      host drift (thermal, frequency, co-tenants) hits both sides of a
      pair alike instead of taxing whichever runs second;
    * CPU time (:func:`time.process_time`), not wall-clock: preemption
      by other processes is host noise, not the measured cost;
    * each variant's graded ``<variant>_overhead_ratio`` is the
      **minimum** of its per-pair ratios over the baseline.  Timing
      noise only ever adds time, so the cleanest pair is the tightest
      available bound on the true overhead, while a real regression
      inflates every pair, the minimum included.  All per-pair ratios
      land in the report.

    Every run must execute the same steps (asserted).  The stderr
    heartbeat echo and the JSONL event file are silenced for the timed
    region: the gates grade the default sink configuration's cost, not
    I/O latency.
    """
    build_runs, repeats = OVERHEAD_SECTIONS[section]
    protocol_name, n = OVERHEAD_PROTOCOL, OVERHEAD_N
    steps = OVERHEAD_STEPS_QUICK if quick else OVERHEAD_STEPS
    runs, extra = build_runs(protocol_name, n, steps, seed)
    names = list(runs)
    times: dict[str, list[float]] = {name: [] for name in names}
    budgets: set[int] = set()
    with _environ({QUIET_ENV: "1", EVENTS_ENV: None, TRACE_ENV: None}):
        for repeat in range(repeats):
            print(
                f"  measuring {section:10s} {protocol_name} n={n} "
                f"(superbatch, {steps:,} step budget, "
                f"pair {repeat + 1}/{repeats}) ...",
                flush=True,
            )
            for name in names if repeat % 2 == 0 else reversed(names):
                seconds, executed = runs[name]()
                times[name].append(seconds)
                budgets.add(executed)
    if len(budgets) != 1:
        raise RuntimeError(
            f"{section} runs executed different budgets {sorted(budgets)} "
            f"({protocol_name} n={n} seed={seed})"
        )
    (executed,) = budgets
    baseline = names[0]
    result = {
        "cell": {
            "protocol": protocol_name,
            "n": n,
            "engine": "superbatch",
            "max_steps": steps,
        },
        "seed": seed,
        "repeats": repeats,
        "steps": executed,
        "timer": "process_time",
        "runs": names,
        **extra,
    }
    for name in names:
        best = min(times[name])
        result[f"{name}_seconds"] = best
        result[f"{name}_steps_per_sec"] = executed / best
    for name in names[1:]:
        ratios = [
            variant / base for variant, base in zip(times[name], times[baseline])
        ]
        result[f"{name}_pair_ratios"] = ratios
        result[f"{name}_overhead_ratio"] = min(ratios)
    return result


def generate_report(quick: bool = False, seed: int = 0) -> dict:
    """Run every section and return the report dict.

    The engine grid measures every kernel-compiled cell on both
    transition paths (two rows, kernel and cached, per engine and cell);
    then come the trials-per-second cell, the compiled-kernel cell and
    the three overhead sections.
    """
    grid = QUICK_GRID if quick else FULL_GRID
    steps = QUICK_STEPS if quick else FULL_STEPS
    results = []
    for protocol_name, ns in grid:
        kernelized = (
            compiled_kernel_for(build_protocol(protocol_name, 2)) is not None
        )
        modes = (False, True) if kernelized else (None,)
        for n in ns:
            for engine in ENGINES:
                if engine == "agent" and n > AGENT_MAX_N:
                    continue
                for use_kernel in modes:
                    path = (
                        "default"
                        if use_kernel is None
                        else ("kernel" if use_kernel else "cached")
                    )
                    print(
                        f"  measuring {engine:9s} {protocol_name:9s} "
                        f"n={n} ({path}) ...",
                        flush=True,
                    )
                    results.append(
                        measure_engine(
                            engine,
                            protocol_name,
                            n,
                            steps,
                            seed=seed,
                            use_kernel=use_kernel,
                        )
                    )
    report = {
        "schema": SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        "steps_per_cell": steps,
        "seed": seed,
        "results": results,
        "summary": summarize(results),
        "trials": measure_trials_cell(seed=seed, include_agent=not quick),
        "kernel": measure_kernel_cell(seed=seed),
    }
    for section in OVERHEAD_SECTIONS:
        report[section] = measure_overhead_cell(section, seed=seed, quick=quick)
    return report


def _default_rows(results: list[dict]) -> list[dict]:
    """One row per (protocol, n, engine): the default execution path.

    The kernel row wins when both paths were measured: that is what
    ``auto``/default construction runs.
    """
    chosen: dict[tuple[str, int, str], dict] = {}
    for row in results:
        key = (row["protocol"], row["n"], row["engine"])
        current = chosen.get(key)
        if current is None or row.get("transitions") == "kernel":
            chosen[key] = row
    return list(chosen.values())


def summarize(results: list[dict]) -> dict:
    """Cross-engine ratios per (protocol, n), keyed for easy diffing.

    Engine entries report the default-path (kernel where available)
    rates; cells measured on both paths additionally get a
    ``kernel_vs_cached`` sub-mapping per engine.
    """
    by_cell: dict[tuple[str, int], dict[str, float]] = {}
    for row in _default_rows(results):
        cell = by_cell.setdefault((row["protocol"], row["n"]), {})
        cell[row["engine"]] = row["steps_per_sec"]
    paths: dict[tuple[str, int], dict[str, dict[str, float]]] = {}
    for row in results:
        transitions = row.get("transitions")
        if transitions is None:
            continue
        cell = paths.setdefault((row["protocol"], row["n"]), {})
        cell.setdefault(row["engine"], {})[transitions] = row["steps_per_sec"]
    summary = {}
    for (protocol_name, n), cell in sorted(by_cell.items()):
        entry = dict(cell)
        if "batch" in cell and "multiset" in cell:
            entry["batch_vs_multiset"] = cell["batch"] / cell["multiset"]
        if "batch" in cell and "agent" in cell:
            entry["batch_vs_agent"] = cell["batch"] / cell["agent"]
        if "superbatch" in cell and "batch" in cell:
            entry["superbatch_vs_batch"] = cell["superbatch"] / cell["batch"]
        ratios = {
            engine: modes["kernel"] / modes["cached"]
            for engine, modes in paths.get((protocol_name, n), {}).items()
            if "kernel" in modes and "cached" in modes
        }
        if ratios:
            entry["kernel_vs_cached"] = ratios
        summary[f"{protocol_name}/n={n}"] = entry
    return summary


def check_engine_ratio(
    report: dict, faster: str, slower: str, min_ratio: float
) -> str | None:
    """Error message when ``faster`` misses ``min_ratio`` x ``slower``.

    Graded on :data:`CHECK_PROTOCOL` at the largest measured ``n`` whose
    summary carries both engines: the regime the faster engine exists
    for (the largest quick-mode PLL cell in CI, 10^8 on the full grid).
    """
    key = f"{faster}_vs_{slower}"
    cells = [
        (int(cell.split("n=")[1]), float(entry[key]))
        for cell, entry in report.get("summary", {}).items()
        if cell.startswith(f"{CHECK_PROTOCOL}/n=") and key in entry
    ]
    if not cells:
        return f"summary lacks a {key} ratio to check"
    largest, ratio = max(cells)
    verdict = (
        f"{faster} is {ratio:.2f}x {slower} on {CHECK_PROTOCOL} at "
        f"n={largest}"
    )
    if ratio < min_ratio:
        return f"{verdict}; required >= {min_ratio:.2f}x"
    print(f"check ok: {verdict} (required >= {min_ratio:.2f}x)")
    return None


def check_ensemble_speedup(report: dict, min_ratio: float) -> str | None:
    """Error message when ensemble misses ``min_ratio`` x the serial
    solo baseline (same chain, same single process: a pure
    execution-strategy comparison), else None."""
    trials = report.get("trials")
    if not trials:
        return "report has no trials section to check"
    ratio = trials.get("ensemble_vs_serial")
    if ratio is None:
        return "trials section lacks an ensemble_vs_serial ratio"
    cell = trials.get("cell", {})
    verdict = (
        f"ensemble is {ratio:.2f}x the serial solo baseline on "
        f"{cell.get('protocol', '?')} n={cell.get('n', '?')} "
        f"x{cell.get('trials', '?')} trials"
    )
    if ratio < min_ratio:
        return f"{verdict}; required >= {min_ratio:.2f}x"
    print(f"check ok: {verdict} (required >= {min_ratio:.2f}x)")
    return None


def check_kernel_speedup(report: dict, min_ratio: float) -> str | None:
    """Error message when a kernel cold-pairs row misses ``min_ratio``.

    Graded on the ``cold-pairs`` rows of the kernel cell, the
    transition-resolution layer the kernels replace, for both the
    multiset and batch engines.
    """
    section = report.get("kernel")
    if not section:
        return "report has no kernel section to check"
    cell = section.get("cell", {})
    label = f"{cell.get('protocol', '?')} n={cell.get('n', '?')}"
    graded = {
        row["engine"]: row
        for row in section.get("results", ())
        if row.get("mode") == "cold-pairs"
    }
    for engine in ("multiset", "batch"):
        row = graded.get(engine)
        if row is None:
            return f"kernel section lacks a {engine} cold-pairs row"
        ratio = row.get("kernel_vs_cached")
        if ratio is None:
            return f"{engine} cold-pairs row lacks a kernel_vs_cached ratio"
        if ratio < min_ratio:
            return (
                f"kernel path is {ratio:.2f}x the cached-delta path on the "
                f"{engine} cold pairs ({label}); required >= {min_ratio:.2f}x"
            )
    ratios = ", ".join(
        f"{engine} {graded[engine]['kernel_vs_cached']:.2f}x"
        for engine in ("multiset", "batch")
    )
    print(
        f"check ok: kernel vs cached-delta on {label} cold pairs: {ratios} "
        f"(required >= {min_ratio:.2f}x)"
    )
    return None


def check_overhead(
    report: dict, section: str, variant: str, max_ratio: float
) -> str | None:
    """Error message when ``variant`` exceeds ``max_ratio`` x the
    section's baseline run on the overhead cell, else None.

    A ceiling gate: the measured layer is supposed to cost (almost)
    nothing, so the graded run must stay within ``max_ratio`` of the
    plain one.
    """
    measured = report.get(section)
    if not measured:
        return f"report has no {section} section to check"
    ratio = measured.get(f"{variant}_overhead_ratio")
    if ratio is None:
        return f"{section} section lacks a {variant}_overhead_ratio"
    cell = measured.get("cell", {})
    verdict = (
        f"{section} {variant} run is {ratio:.3f}x the "
        f"{measured['runs'][0]} run on "
        f"{cell.get('protocol', '?')} n={cell.get('n', '?')} "
        f"({cell.get('engine', '?')}, {measured.get('steps', '?')} steps)"
    )
    if ratio > max_ratio:
        return f"{verdict}; required <= {max_ratio:.2f}x"
    print(f"check ok: {verdict} (required <= {max_ratio:.2f}x)")
    return None


def _pll_rates_by_n(report: dict) -> dict[int, dict[str, float]]:
    """Per-``n`` default-path steps/sec per engine over the PLL grid
    rows (:func:`_default_rows`); malformed rows are skipped."""
    rows = []
    for row in report.get("results", ()):
        try:
            if row["protocol"] == CHECK_PROTOCOL and isinstance(row["engine"], str):
                rows.append(
                    {
                        **row,
                        "n": int(row["n"]),
                        "steps_per_sec": float(row["steps_per_sec"]),
                    }
                )
        except (KeyError, TypeError, ValueError):
            continue
    by_n: dict[int, dict[str, float]] = {}
    for row in _default_rows(rows):
        by_n.setdefault(row["n"], {})[row["engine"]] = row["steps_per_sec"]
    return by_n


def _smallest_winning_n(by_n, wins) -> int | None:
    """Smallest ``n`` from which ``wins(rates)`` holds at every larger
    measured ``n`` too, or None when it fails at the largest."""
    crossover = None
    for n in sorted(by_n, reverse=True):
        if not wins(by_n[n]):
            break  # a loss here: wins above no longer extend down
        crossover = n
    return crossover


def derive_crossovers(report: dict) -> tuple[int | None, int | None]:
    """The (batch, superbatch) crossovers a full-grid record measures.

    * batch: the smallest PLL ``n`` from which batch out-runs both
      per-interaction engines, there and at every larger measured ``n``;
    * superbatch: the smallest PLL ``n`` from which superbatch beats
      every other engine by :data:`SUPERBATCH_WIN_MARGIN`, there and at
      every larger measured ``n``.

    ``None`` where the record never shows the engine winning.  Quick
    records derive nothing: their reduced grid is too coarse and too
    noisy to place a boundary.
    """
    if report.get("quick"):
        return None, None
    by_n = _pll_rates_by_n(report)

    def batch_wins(rates: dict[str, float]) -> bool:
        others = [rates[e] for e in PER_INTERACTION_ENGINES if e in rates]
        return "batch" in rates and bool(others) and rates["batch"] > max(others)

    def superbatch_wins(rates: dict[str, float]) -> bool:
        others = [rate for e, rate in rates.items() if e != "superbatch"]
        return (
            "superbatch" in rates
            and bool(others)
            and rates["superbatch"] > SUPERBATCH_WIN_MARGIN * max(others)
        )

    return (
        _smallest_winning_n(by_n, batch_wins),
        _smallest_winning_n(by_n, superbatch_wins),
    )


def check_crossovers(report: dict) -> str | None:
    """Error message when a full-grid record's crossovers disagree with
    ``auto``'s constants in :mod:`repro.orchestration.spec`, else None.

    Quick records pass with a note: they derive no crossovers.
    """
    if report.get("quick"):
        print("check skipped: crossovers are graded on full-grid records only")
        return None
    expected = (BATCH_ENGINE_MIN_N, SUPERBATCH_ENGINE_MIN_N)
    derived = derive_crossovers(report)
    if derived != expected:
        return (
            f"the record derives (batch, superbatch) crossovers {derived}, "
            f"but auto uses {expected}; update the constants in "
            "repro.orchestration.spec or re-measure"
        )
    print(f"check ok: the record derives auto's crossovers {expected}")
    return None


def run_checks(report: dict) -> list[str]:
    """Every gate at its module threshold; the failure messages."""
    errors = [
        check_engine_ratio(report, "batch", "multiset", MIN_BATCH_RATIO),
        check_engine_ratio(report, "superbatch", "batch", MIN_SUPERBATCH_RATIO),
        check_ensemble_speedup(report, MIN_TRIALS_RATIO),
        check_kernel_speedup(report, MIN_KERNEL_RATIO),
    ]
    errors += [
        check_overhead(report, section, variant, max_ratio)
        for section, variant, max_ratio in OVERHEAD_GATES
    ]
    errors.append(check_crossovers(report))
    return [error for error in errors if error is not None]


def print_summary(report: dict) -> None:
    """Human-readable digest of a report on stdout."""
    for key, entry in report["summary"].items():
        ratio = entry.get("batch_vs_multiset")
        suffix = f"  (batch/multiset {ratio:.2f}x)" if ratio else ""
        super_ratio = entry.get("superbatch_vs_batch")
        if super_ratio:
            suffix += f"  (superbatch/batch {super_ratio:.2f}x)"
        rates = ", ".join(
            f"{engine} {entry[engine]:,.0f}/s"
            for engine in ("agent", "multiset", "batch", "superbatch")
            if engine in entry
        )
        print(f"  {key:18s} {rates}{suffix}")
        kernel_ratios = entry.get("kernel_vs_cached")
        if kernel_ratios:
            rendered = ", ".join(
                f"{engine} {value:.2f}x"
                for engine, value in sorted(kernel_ratios.items())
            )
            print(f"  {'':18s} kernel/cached: {rendered}")
    trials = report["trials"]
    cell = trials["cell"]
    print(f"  trials cell {cell['protocol']}/n={cell['n']} x{cell['trials']}:")
    for row in trials["results"]:
        print(
            f"    {row['mode']:9s} ({row['engine']:9s} jobs={row['jobs']}) "
            f"{row['trials_per_sec']:8.2f} trials/s  "
            f"({row['seconds']:.1f}s)"
        )
    print(f"    ensemble/serial {trials['ensemble_vs_serial']:.2f}x")
    cell = report["kernel"]["cell"]
    print(f"  kernel cell {cell['protocol']}/n={cell['n']}:")
    for row in report["kernel"]["results"]:
        print(
            f"    {row['engine']:9s} {row['mode']:7s} "
            f"kernel/cached {row['kernel_vs_cached']:6.2f}x  "
            f"({row['cached_seconds']:.2f}s -> "
            f"{row['kernel_seconds']:.2f}s)"
        )
    for section in OVERHEAD_SECTIONS:
        measured = report[section]
        cell = measured["cell"]
        print(
            f"  {section} cell {cell['protocol']}/n={cell['n']} "
            f"({cell['engine']}, {measured['steps']:,} steps):"
        )
        names = measured["runs"]
        rates = "  ".join(
            f"{name} {measured[f'{name}_steps_per_sec']:,.0f} steps/s"
            for name in names
        )
        ratios = "  ".join(
            f"{name} {measured[f'{name}_overhead_ratio']:.3f}x"
            for name in names[1:]
        )
        print(f"    {rates}  overhead: {ratios}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced grid for CI smoke runs",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) unless every gate passes at its fixed threshold",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = generate_report(quick=args.quick, seed=args.seed)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    print_summary(report)
    failures = run_checks(report) if args.check else []
    for error in failures:
        print(f"check FAILED: {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
