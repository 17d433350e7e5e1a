"""E12 — ablations of PLL's design choices, plus engine throughput.

Three design questions DESIGN.md calls out, made measurable:

* **What does each module buy?**  Compare the ``full``, ``no-tournament``
  and ``backup-only`` variants: removing Tournament leaves constant-
  probability ties to the ``O(log^2 n)`` BackUp; removing QuickElimination
  too makes every run pay the full BackUp schedule.
* **How rough may the size knowledge be?**  The paper allows any
  ``m = Theta(log n)`` with ``m >= log2 n``; over-estimating ``m`` slows
  the timers proportionally (time scales with ``cmax = 41 m``).
* **What do the engines cost?**  Steps/second of the agent-based and
  multiset engines on the same workload.
"""

from __future__ import annotations

import time

from repro.analysis.stats import summarize
from repro.core.params import PLLParameters
from repro.core.pll import PLLProtocol
from repro.engine.simulator import AgentSimulator
from repro.experiments.hooks import EpochEntryTracker
from repro.experiments.runner import stabilization_trials
from repro.experiments.spec import ExperimentResult, ExperimentSpec, register, scaled
from repro.orchestration.pool import build_simulator

SPEC = ExperimentSpec(
    id="E12",
    title="Module, parameter, and engine ablations",
    paper_artifact="design choices (Sections 3.1-3.2)",
    paper_claim=(
        "QuickElimination + Tournament reduce expected time from O(log^2 n) "
        "to O(log n); any m = Theta(log n), m >= lg n works"
    ),
    bench="benchmarks/bench_ablations.py",
)

#: Module-ablation grid, shared with the E12 campaign builder (the
#: campaign covers only this stabilization-trial section; the m-slack and
#: engine-throughput sections are bespoke measurements).
MODULE_NS = (64, 256)
MODULE_VARIANTS = ("full", "no-tournament", "backup-only")
MODULE_TRIALS = 8


@register(SPEC)
def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    trials = scaled([MODULE_TRIALS], scale)[0]
    headers = ["ablation", "setting", "n", "mean time (parallel)", "note"]
    rows = []

    # Module ablations.  The --trials override reaches this declarative
    # section only, so report its actual count separately from the
    # bespoke sections below.
    module_trials = trials
    for n in MODULE_NS:
        for variant in MODULE_VARIANTS:
            outcomes = stabilization_trials(
                "pll",
                n,
                trials,
                base_seed=seed,
                params={"variant": variant},
            )
            module_trials = len(outcomes)
            mean = summarize([o.parallel_time for o in outcomes]).mean
            rows.append(
                {
                    "ablation": "modules",
                    "setting": variant,
                    "n": n,
                    "mean time (parallel)": mean,
                    "note": "",
                }
            )

    # Size-knowledge slack.  Stabilization time only feels m on the slow
    # path (runs that must wait for Tournament/BackUp epochs), so the
    # clean observable is the first epoch advance — one full timer period,
    # deterministic-ish at cmax/2 = 20.5 m parallel time.
    n = 128
    for slack in (1.0, 2.0, 4.0):
        params = PLLParameters.for_population(n, slack=slack)
        first_ticks = []
        for trial in range(trials):
            sim = AgentSimulator(PLLProtocol(params), n, seed=seed + trial)
            tracker = EpochEntryTracker()
            sim.add_hook(tracker)
            sim.run(
                60 * params.m * n,
                until=lambda s, t=tracker: t.reached(2),
                check_every=16,
            )
            if tracker.reached(2):
                first_ticks.append(tracker.first_step[2] / n)
        mean_tick = summarize(first_ticks).mean
        rows.append(
            {
                "ablation": "m slack",
                "setting": f"m = {params.m} ({slack}x lg n)",
                "n": n,
                "mean time (parallel)": mean_tick,
                "note": f"first epoch advance; 20.5 m = {20.5 * params.m:.0f}",
            }
        )

    # Engine throughput, on the engine each name builds for trials (for
    # PLL, "multiset" is the sorted-slot kernel engine).
    n = 1024
    budget = scaled([200000], scale)[0]
    for engine_name in ("agent", "multiset"):
        sim = build_simulator(
            PLLProtocol.for_population(n), n, seed=seed, engine=engine_name
        )
        started = time.perf_counter()
        sim.run(budget)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "ablation": "engine throughput",
                "setting": engine_name,
                "n": n,
                "mean time (parallel)": budget / elapsed,
                "note": "steps per second (higher is better)",
            }
        )
    notes = [
        f"{module_trials} trials per module row, {trials} per m-slack row",
        "module rows: expect full < no-tournament < backup-only in time",
    ]
    return ExperimentResult(
        spec=SPEC, headers=headers, rows=rows, notes=notes, scale=scale, seed=seed
    )
