"""Seeded multi-trial measurement helpers shared by all experiments.

Every trial gets its own derived seed (``base_seed + trial``), so any
single data point in EXPERIMENTS.md can be reproduced in isolation.

Trials route through :mod:`repro.orchestration`: when the protocol is
named declaratively (a registry name string, optionally with ``params``),
the batch becomes content-hashed :class:`TrialSpec`\\ s that the active
:class:`~repro.orchestration.context.ExecutionContext` may parallelize
across cores (``--jobs``) and cache in a persistent store (``--store``).
The default context runs serially in-process — byte-identical to the
historical loop — and passing a plain protocol factory callable always
takes that serial path (callables neither hash nor pickle).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.engine.protocol import Protocol
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan, resolve_engine
from repro.schedulers.spec import SchedulerSpec, resolve_schedule_engine
from repro.orchestration.context import current_context
from repro.orchestration.pool import build_simulator, measure_trial, run_specs
from repro.orchestration.spec import (
    AUTO_ENGINE,
    TrialOutcome,
    default_engine,
    trial_specs,
)

__all__ = ["TrialOutcome", "stabilization_trials", "make_simulator"]


def make_simulator(
    protocol: Protocol,
    n: int,
    seed: int,
    engine: str = "agent",
):
    """Build the requested engine (``"agent"``, ``"multiset"``,
    ``"superbatch"``, or ``"auto"`` to pick by population size)."""
    return build_simulator(protocol, n, seed=seed, engine=engine)


def stabilization_trials(
    protocol: Callable[[], Protocol] | str,
    n: int,
    trials: int,
    base_seed: int = 0,
    engine: str = AUTO_ENGINE,
    max_steps: int | None = None,
    params: Mapping[str, object] | None = None,
    fault_plan=None,
    scheduler=None,
) -> list[TrialOutcome]:
    """Measure stabilization over ``trials`` independent runs.

    ``protocol`` is either a registry name (``"pll"``, ``"angluin"``, ...;
    see :mod:`repro.orchestration.registry`) with optional ``params``, or
    a zero-argument factory callable.  Named protocols honor the active
    execution context (worker pool, trial store, ``--engine``/``--trials``
    overrides); factory callables always run serially in-process.

    The default engine is ``"auto"``: per data point, sweeps from the
    measured crossover up route through the count-level super-batch
    engine, and everything below it resolves to the multiset chain
    (:func:`~repro.orchestration.spec.default_engine` — deliberately a
    function of ``n`` alone, so hashes never depend on campaign depth).
    Multi-trial named cells then pack into ensemble lanes
    inside the pool; factory callables cannot be packed (they run one
    simulator at a time) and execute their multiset trials solo.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`, an event
    list, or ``None``) schedules mid-run faults; each outcome then
    carries the serialized per-fault recovery record in ``.faults``.
    Exchangeable plans keep the size-resolved engine; non-exchangeable
    ones degrade ``auto`` to the per-agent engine (see
    :func:`~repro.faults.plan.resolve_engine`).

    ``scheduler`` (a :class:`~repro.schedulers.spec.SchedulerSpec`, a
    mapping, or ``None``) selects the interaction schedule; outcomes
    then carry the serialized scheduler record in ``.scheduler``.
    Exchangeable families (``weighted``) likewise keep the
    size-resolved engine via the reweighted samplers; graph-restricted
    families degrade ``auto`` to the per-agent engine (see
    :func:`~repro.schedulers.spec.resolve_schedule_engine`).
    """
    if trials < 1:
        raise ExperimentError(f"trials must be positive, got {trials}")
    if isinstance(protocol, str):
        context = current_context()
        if context.engine is not None:
            engine = context.engine
        if context.trials is not None:
            trials = context.trials
        specs = trial_specs(
            protocol,
            n,
            trials,
            base_seed=base_seed,
            engine=engine,
            params=params,
            max_steps=max_steps,
            fault_plan=fault_plan,
            scheduler=scheduler,
        )
        return run_specs(
            specs,
            jobs=context.jobs,
            store=context.store,
            progress=context.progress,
        ).outcomes
    if params is not None:
        raise ExperimentError(
            "params only apply to registry-named protocols; bind them into "
            "the factory instead"
        )
    plan = FaultPlan.coerce(fault_plan)
    sched = SchedulerSpec.coerce(scheduler)
    if engine == AUTO_ENGINE:
        engine = resolve_engine(plan, resolve_schedule_engine(sched, default_engine(n)))
    return [
        measure_trial(
            protocol(),
            n,
            base_seed + trial,
            engine=engine,
            max_steps=max_steps,
            fault_plan=plan,
            scheduler=sched,
        )
        for trial in range(trials)
    ]


def parallel_times(outcomes: Sequence[TrialOutcome]) -> list[float]:
    """Extract the parallel-time column from trial outcomes."""
    return [outcome.parallel_time for outcome in outcomes]
