"""Per-layer timing for the traced run, measured from outside the program.

:class:`LayerTracer` replaces public functions and methods of each
layer with wrappers that keep a stack of open spans.  A span's *self*
CPU time is its CPU time minus that of the spans opened inside it, so
the self times of all layers plus the unattributed remainder add up to
the CPU time of the traced window.  Nothing under ``src/`` changes, and
the wrappers are removed again before the correctness checks run.

Trial durations stored by the program (``TrialOutcome.duration``,
``RunReport.executed_duration``) are never used: packed ensemble lanes
each store the elapsed time of their whole chunk, so those figures
overlap and their sum can exceed the run's wall time many times over.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

from repro.engine.batch import BatchSimulator
from repro.engine.ensemble import EnsembleSimulator
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.multiset import MultisetSimulator
from repro.engine.simulator import AgentSimulator
from repro.engine.superbatch import SuperBatchSimulator
from repro.experiments import campaigns
from repro.faults.injector import FaultInjector
from repro.orchestration import pool
from repro.orchestration import runner as runner_mod
from repro.orchestration import spec as spec_mod
from repro.orchestration import store as store_mod
from repro.schedulers.weighted import WeightedMultisetSimulator
from repro.telemetry.probe import PhaseSeries
from repro.telemetry.profile import load_profile_records

#: Engine label per simulator class, most specific class first.
ENGINE_LABELS = (
    (KernelMultisetSimulator, "kernel_multiset"),
    (WeightedMultisetSimulator, "weighted_multiset"),
    (MultisetSimulator, "multiset"),
    (EnsembleSimulator, "ensemble"),
    (AgentSimulator, "agent"),
    (SuperBatchSimulator, "superbatch"),
    (BatchSimulator, "batch"),
)

ENGINES = tuple(label for _cls, label in ENGINE_LABELS)

#: Stage names of the program's own block-level profiles
#: (``repro.telemetry.profile``), read back through its event file.
STAGES = ("sample", "apply", "detect", "commit", "kernel_fill", "sweep", "retire")


def engine_label(sim) -> str:
    for cls, label in ENGINE_LABELS:
        if isinstance(sim, cls):
            return label
    return type(sim).__name__


def _engine_steps(sim) -> int:
    committed = getattr(sim, "committed_steps", None)
    return committed if committed is not None else sim.steps


class LayerTracer:
    """Self CPU time, inclusive wall time, calls and counts per layer."""

    def __init__(self, clock) -> None:
        #: A running ``clock.HostClock``: spans read its scaled CPU time.
        self.clock = clock
        self.self_cpu: dict[str, float] = defaultdict(float)
        self.wall: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Engine counter summaries, one per solo trial or ensemble chunk.
        self.summaries: list[dict] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._engine_depth = 0
        self._last_sim = None

    def wrap(self, owner, name: str, layer, before=None, after=None) -> None:
        """Replace ``owner.name`` with a span-recording wrapper.

        ``layer`` is a label or a function of the call's arguments.
        ``before(args)`` runs before the span opens and returns a token;
        ``after(label, args, result, failed, token)`` runs after it
        closes, and its CPU time is charged to no layer.
        """
        original = owner.__dict__[name]
        tracer = self
        stack = self._stack
        cpu_now = self.clock.scaled

        def wrapper(*args, **kwargs):
            label = layer(args) if callable(layer) else layer
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            failed = True
            result = None
            wall0 = perf_counter()
            cpu0 = cpu_now()
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                cpu = cpu_now() - cpu0
                tracer.wall[label] += perf_counter() - wall0
                stack.pop()
                tracer.self_cpu[label] += cpu - frame[0]
                if after is not None:
                    hook0 = cpu_now()
                    after(label, args, result, failed, token)
                    cpu += cpu_now() - hook0
                if stack:
                    stack[-1][0] += cpu

        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        count = self.counts
        self.wrap(campaigns, "campaign_for", "spec.build")
        self.wrap(spec_mod, "trial_specs", "spec.build")
        self.wrap(spec_mod.TrialSpec, "content_hash", "spec.hash")
        self.wrap(pool, "run_specs", "pool")
        self.wrap(pool, "execute_trial", "pool", after=self._after_trial)

        def rows_written(_label, args, _result, _failed, _token):
            count["store.rows_written"] += len(args[1])

        def rows_read(_label, _args, result, _failed, _token):
            count["store.rows_read"] += len(result or ())

        store = store_mod.TrialStore
        self.wrap(store, "__init__", "store.write")
        self.wrap(store, "put_many", "store.write", after=rows_written)
        self.wrap(store, "record_failure", "store.write")
        self.wrap(store, "clear_failures", "store.write")
        self.wrap(store, "get_many", "store.read", after=rows_read)
        self.wrap(store, "failures", "store.read")
        self.wrap(runner_mod.CampaignRunner, "report", "store.report")

        def built(_label, _args, result, _failed, _token):
            count["engine.builds"] += 1
            self._last_sim = result

        def packed(_label, _args, _result, _failed, _token):
            count["engine.builds"] += 1

        self.wrap(pool, "build_simulator", "engine.build", after=built)
        self.wrap(EnsembleSimulator, "__init__", "engine.build", after=packed)
        for cls, _label in ENGINE_LABELS:
            for name in ("run", "run_until_stabilized"):
                if name in cls.__dict__:
                    self.wrap(
                        cls,
                        name,
                        lambda args: "engine." + engine_label(args[0]),
                        before=self._before_engine,
                        after=self._after_engine,
                    )
        self.wrap(FaultInjector, "drive", "faults.drive")
        self.wrap(pool, "trial_telemetry_json", "telemetry.summary")
        for name in ("poll", "finish", "to_json"):
            self.wrap(PhaseSeries, name, "telemetry.phases")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _before_engine(self, args):
        outer = self._engine_depth == 0
        self._engine_depth += 1
        return outer, _engine_steps(args[0])

    def _after_engine(self, label, args, _result, _failed, token) -> None:
        self._engine_depth -= 1
        outer, start = token
        if not outer:
            return
        sim = args[0]
        self.counts[label + ".steps"] += _engine_steps(sim) - start
        if isinstance(sim, EnsembleSimulator):
            self.counts["pool.trials"] += len(sim.seeds)
            self.summaries.append(sim.telemetry_summary())

    def _after_trial(self, _label, _args, result, failed, _token) -> None:
        self.counts["pool.trials"] += 1
        if not failed and result.telemetry is not None:
            self.summaries.append(json.loads(result.telemetry))
        elif failed and self._last_sim is not None:
            self.summaries.append(self._last_sim.telemetry_summary())
        self._last_sim = None


def stage_seconds(events_path: str) -> dict[str, float]:
    """Per-stage totals from the program's ``profile`` events."""
    try:
        records = load_profile_records(events_path)
    except FileNotFoundError:
        records = []
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        for stage in record["stages"]:
            totals[stage["stage"]] += stage["seconds"]
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(summaries: list[dict]) -> dict[str, float]:
    """Cache and block-sampler counters summed over engine summaries."""
    hits = misses = lookups = 0
    batch = {"blocks": 0, "block_steps": 0, "collision_steps": 0}
    superbatch = {
        "blocks": 0,
        "residual_pairs": 0,
        "bisection_iters": 0,
        "bisection_calls": 0,
    }
    for summary in summaries:
        cache = summary.get("cache") or {}
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        lookups += cache.get("hits", 0) + cache.get("misses", 0)
        lookups += cache.get("bypasses", 0)
        stats = summary.get("stats") or {}
        target = {"batch": batch, "superbatch": superbatch}.get(summary.get("engine"))
        if target is not None:
            for key in target:
                target[key] += stats.get(key, 0)
    return {
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.misses": misses,
        "batch.collision_frac": _ratio(
            batch["collision_steps"],
            batch["block_steps"] + batch["collision_steps"],
        ),
        "batch.blocks": batch["blocks"],
        "superbatch.blocks": superbatch["blocks"],
        "superbatch.residual_pairs_per_block": _ratio(
            superbatch["residual_pairs"], superbatch["blocks"]
        ),
        "superbatch.bisection_iters_per_call": _ratio(
            superbatch["bisection_iters"], superbatch["bisection_calls"]
        ),
    }


def trial_metrics(records) -> dict[str, float]:
    """Outcome statistics: censoring, PLL's slow mode, parallel time."""
    finished = [record for record in records if record.outcome is not None]
    slow = 0
    for record in finished:
        spec = record.spec
        if spec.protocol == "pll" and not spec.params:
            if record.outcome.parallel_time > 2 * math.log2(spec.n):
                slow += 1
    times = [record.outcome.parallel_time for record in finished]
    return {
        "trials.censored": sum(
            record.censored_steps is not None for record in records
        ),
        "trials.slow": slow,
        "trials.parallel_time_p50": statistics.median(times) if times else 0.0,
        "trials.distinct_states_max": max(
            (record.outcome.distinct_states for record in finished), default=0
        ),
    }


def layer_metrics(
    tracer: LayerTracer, window_cpu: float, stages: dict, spec_count: int
) -> dict:
    """Every per-layer CPU, wall and count metric of one traced window."""
    cpu, count = tracer.self_cpu, tracer.counts
    metrics = {
        "spec.build_cpu_s": cpu["spec.build"],
        "spec.hash_cpu_s": cpu["spec.hash"],
        "spec.count": spec_count,
        "pool.self_cpu_s": cpu["pool"],
        "pool.trials": count["pool.trials"],
        "store.write_cpu_s": cpu["store.write"],
        "store.write_wall_s": tracer.wall["store.write"],
        "store.rows_written": count["store.rows_written"],
        "store.read_cpu_s": cpu["store.read"],
        "store.rows_read": count["store.rows_read"],
        "store.report_cpu_s": cpu["store.report"],
        "engine.build_cpu_s": cpu["engine.build"],
        "engine.builds": count["engine.builds"],
    }
    for engine in ENGINES:
        metrics[f"engine.{engine}.run_cpu_s"] = cpu["engine." + engine]
        metrics[f"engine.{engine}.steps"] = count[f"engine.{engine}.steps"]
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = stages.get(stage, 0.0)
    metrics.update(counter_metrics(tracer.summaries))
    metrics["faults.drive_cpu_s"] = cpu["faults.drive"]
    metrics["telemetry.summary_cpu_s"] = cpu["telemetry.summary"]
    metrics["telemetry.phases_cpu_s"] = cpu["telemetry.phases"]
    metrics["trace.cpu_s"] = window_cpu
    metrics["trace.unattributed_cpu_s"] = window_cpu - sum(cpu.values())
    return metrics
