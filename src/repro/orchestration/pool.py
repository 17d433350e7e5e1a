"""Trial execution: serial fast path and a multiprocessing worker farm.

:func:`run_specs` is the one entry point.  It consults the optional
:class:`~repro.orchestration.store.TrialStore` first, executes only the
missing trials — serially for ``jobs=1`` (bit-identical to the historical
in-process loop, so determinism guarantees are untouched) or across a
``multiprocessing`` pool for ``jobs>1`` — and persists every fresh outcome
as it arrives, so an interrupt (Ctrl-C, crash, OOM-kill) loses at most the
in-flight trials and a re-run resumes where it stopped.

Each trial re-derives everything from its :class:`TrialSpec` inside the
worker (protocol instance, engine, RNG from the spec's own seed), so
results are independent of worker count and scheduling order: ``jobs=4``
produces byte-identical per-seed outcomes to ``jobs=1``.

Campaign-fabric robustness (opt-in per call): a per-trial wall-clock
``trial_timeout``, bounded ``retries`` with exponential backoff, and
``on_failure="quarantine"`` — record repeatedly-failing specs in the
store's failure ledger and *complete the campaign around them* instead
of aborting it.  The default (``on_failure="raise"``, no retries) is
byte-for-byte the historical behavior.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

from repro.engine.batch import BatchSimulator
from repro.engine.ensemble import EnsembleSimulator
from repro.engine.kernel import compiled_kernel_for, kernels_enabled
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.multiset import MultisetSimulator
from repro.engine.protocol import Protocol
from repro.engine.simulator import AgentSimulator
from repro.engine.superbatch import SuperBatchSimulator
from repro.errors import ConvergenceError, ExperimentError, TrialTimeoutError
from repro.faults.checkpoint import TrialCheckpointer, make_checkpointer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.orchestration.spec import (
    AUTO_ENGINE,
    ENGINES,
    ENSEMBLE_ENGINE,
    ENSEMBLE_MIN_TRIALS,
    TrialOutcome,
    TrialSpec,
    check_population,
    default_engine,
)
from repro.orchestration.store import TrialStore
from repro.schedulers.graphs import graph_scheduler_for
from repro.schedulers.spec import SchedulerSpec, scheduler_json
from repro.schedulers.weighted import (
    StateWeightedScheduler,
    WeightedBatchSimulator,
    WeightedMultisetSimulator,
    WeightedSuperBatchSimulator,
)
from repro.telemetry.core import trial_telemetry_json
from repro.telemetry.trace import make_tracer

__all__ = [
    "RunReport",
    "build_simulator",
    "execute_trial",
    "measure_trial",
    "run_specs",
]

#: Progress callback: ``progress(done, total, outcome)`` after every trial
#: (cached trials are reported up front as a single batch with outcome
#: ``None``).
ProgressCallback = Callable[[int, int, TrialOutcome | None], None]

Simulator = (
    AgentSimulator
    | MultisetSimulator
    | KernelMultisetSimulator
    | BatchSimulator
    | SuperBatchSimulator
)

_ENGINE_FACTORIES: dict[str, Callable[..., Simulator]] = {
    "agent": AgentSimulator,
    "multiset": MultisetSimulator,
    "batch": BatchSimulator,
    "superbatch": SuperBatchSimulator,
}
if set(_ENGINE_FACTORIES) != set(ENGINES):  # pragma: no cover
    raise AssertionError("engine factories out of sync with spec.ENGINES")


def build_simulator(
    protocol: Protocol,
    n: int,
    seed: int,
    engine: str = "agent",
    use_kernel: bool | None = None,
    scheduler: SchedulerSpec | None = None,
) -> Simulator:
    """Build the requested engine (one of :data:`~repro.orchestration.spec.ENGINES`).

    ``engine="auto"`` picks per population size via
    :func:`~repro.orchestration.spec.default_engine`;
    ``engine="ensemble"`` builds ``"multiset"``, as
    :func:`~repro.orchestration.spec.trial_specs` resolves it: one lane
    is a solo multiset run, and multi-lane packing lives in
    :func:`run_specs`, which needs whole spec batches to vectorize over.

    ``use_kernel`` selects the transition-resolution path (see
    :mod:`repro.engine.kernel`): ``None`` auto-selects the compiled
    kernel for protocols that ship one — which for ``"multiset"`` also
    swaps in the kernel-backed sorted-slot engine, the same chain with
    byte-identical trajectories — while ``True``/``False`` force one
    path (benchmarks and equivalence tests).  The choice never touches
    spec identity: trial hashes name the engine, not the path.

    ``scheduler`` selects the interaction schedule
    (:class:`~repro.schedulers.spec.SchedulerSpec`).  ``None`` and an
    explicit ``uniform`` spec take the exact pre-scheduler path — same
    construction, same draws, bit-identical trajectories.  A
    ``weighted`` spec routes count-level engines to their thinning
    realizations (:mod:`repro.schedulers.weighted`; ``multiset`` thins
    in the sorted-slot engine when it would run uniform) and the agent
    engine to a thinning :class:`StateWeightedScheduler`; graph
    families attach a :class:`~repro.schedulers.graphs.GraphScheduler`
    to the agent engine (the only engine with agent identity — the
    degradation ladder in :func:`~repro.orchestration.spec.trial_specs`
    routes such specs here).

    Populations at or above
    :data:`~repro.orchestration.spec.MAX_POPULATION` raise
    :class:`~repro.errors.ExperimentError` before any engine is built.
    """
    check_population(n)
    if engine == AUTO_ENGINE:
        engine = default_engine(n)
    elif engine == ENSEMBLE_ENGINE:
        engine = "multiset"
    if scheduler is not None and scheduler.family != "uniform":
        return _build_scheduled_simulator(
            protocol, n, seed, engine, scheduler, use_kernel
        )
    if engine == "multiset" and _kernelize(protocol, use_kernel):
        return KernelMultisetSimulator(protocol, n, seed=seed)
    try:
        factory = _ENGINE_FACTORIES[engine]
    except KeyError:
        raise ExperimentError(
            f"unknown engine {engine!r}; use one of: "
            f"{', '.join(ENGINES)}, {ENSEMBLE_ENGINE}, {AUTO_ENGINE}"
        ) from None
    return factory(protocol, n, seed=seed, use_kernel=use_kernel)


def _kernelize(protocol: Protocol, use_kernel: bool | None) -> bool:
    """Whether ``multiset`` runs on the sorted-slot kernel engine."""
    if use_kernel is None:
        return kernels_enabled() and compiled_kernel_for(protocol) is not None
    return use_kernel


def _build_scheduled_simulator(
    protocol: Protocol,
    n: int,
    seed: int,
    engine: str,
    scheduler: SchedulerSpec,
    use_kernel: bool | None,
) -> Simulator:
    """Engine construction for non-uniform schedules.

    The weighted family has a sound implementation on every engine
    (thinning — see :mod:`repro.schedulers.weighted`); graph families
    exist only on the per-agent engine, which the spec layer guarantees
    by construction (``TrialSpec.create`` rejects count-level engines
    for them), so anything else arriving here is a programming error.
    """
    scheduler.validate_against(n)
    if scheduler.family == "weighted":
        weights = scheduler.weight_map
        if engine == "multiset":
            # The same split as the uniform schedule: kernel protocols
            # thin inside the sorted-slot engine, kernel-less ones on
            # the Fenwick engine.  Both realize the same chain.
            if _kernelize(protocol, use_kernel):
                return KernelMultisetSimulator(
                    protocol, n, seed=seed, weights=weights
                )
            return WeightedMultisetSimulator(
                protocol, n, weights, seed=seed, use_kernel=use_kernel
            )
        if engine == "batch":
            return WeightedBatchSimulator(
                protocol, n, weights, seed=seed, use_kernel=use_kernel
            )
        if engine == "superbatch":
            return WeightedSuperBatchSimulator(
                protocol, n, weights, seed=seed, use_kernel=use_kernel
            )
        if engine == "agent":
            sim = AgentSimulator(protocol, n, seed=seed, use_kernel=use_kernel)
            sim.set_scheduler(StateWeightedScheduler(sim, weights, seed))
            return sim
        raise ExperimentError(
            f"weighted schedule has no {engine!r} implementation; use one "
            f"of: {', '.join(ENGINES)}"
        )
    if engine != "agent":
        raise ExperimentError(
            f"graph-restricted schedule ({scheduler.family!r}) needs the "
            f"per-agent engine, got {engine!r} — spec validation should "
            "have rejected or degraded this"
        )
    return AgentSimulator(
        protocol,
        n,
        seed=seed,
        scheduler=graph_scheduler_for(scheduler, n, seed),
        use_kernel=use_kernel,
    )


def measure_trial(
    protocol: Protocol,
    n: int,
    seed: int,
    engine: str = "agent",
    max_steps: int | None = None,
    label: str = "",
    fault_plan: FaultPlan | None = None,
    checkpointer: TrialCheckpointer | None = None,
    scheduler: SchedulerSpec | None = None,
) -> TrialOutcome:
    """Run one already-built protocol to stabilization.

    The single implementation of per-trial measurement semantics, shared
    by the declarative :func:`execute_trial` and the factory-callable
    path of :func:`repro.experiments.runner.stabilization_trials`.  A
    budget overrun surfaces as :class:`ConvergenceError` naming the
    offending seed (plus ``label`` for context), so one divergent trial
    never aborts a sweep opaquely.

    With a ``fault_plan`` the run is driven by a
    :class:`~repro.faults.injector.FaultInjector` through the plan's
    fault schedule and the outcome carries the serialized fault record
    (applied events, per-fault recovery times, and the engine the spec
    was degraded from when a non-exchangeable plan forced the per-agent
    engine).  With a ``checkpointer`` the run first restores any on-disk
    snapshot (in-trial resume after a kill), attaches the checkpointer
    to the engine's block loop, and clears the snapshot on success.

    With a ``scheduler`` spec the simulator is built for that schedule
    (see :func:`build_simulator`) and the outcome carries the serialized
    scheduler record, including the engine a graph-restricted spec was
    degraded from when the ladder forced the per-agent engine.
    """
    sim = build_simulator(protocol, n, seed=seed, engine=engine, scheduler=scheduler)
    injector = None
    degraded_from = None
    sched_degraded_from = None
    # Record what `auto` would have picked at this size, so the store
    # row says *why* a production-scale spec ran per-agent — once per
    # identity-needing input, in its own record.
    resolved = default_engine(n)
    degraded = engine == "agent" and resolved != "agent"
    if fault_plan is not None:
        injector = FaultInjector(fault_plan, n, seed)
        if not fault_plan.exchangeable and degraded:
            degraded_from = resolved
    if scheduler is not None and not scheduler.exchangeable and degraded:
        sched_degraded_from = resolved
    if checkpointer is not None:
        checkpointer.injector = injector
        checkpointer.restore(sim, injector)
        if hasattr(sim, "checkpointer"):
            sim.checkpointer = checkpointer
    started = perf_counter()
    try:
        if injector is not None:
            steps = injector.drive(sim, max_steps=max_steps)
        else:
            steps = sim.run_until_stabilized(max_steps=max_steps)
    except ConvergenceError as exc:
        context = f"{label}, " if label else ""
        raise ConvergenceError(
            f"trial with seed {seed} did not stabilize "
            f"({context}n={n}, engine {engine!r}): {exc}",
            steps=exc.steps,
        ) from exc
    duration = perf_counter() - started
    if checkpointer is not None:
        checkpointer.clear()
    return TrialOutcome(
        seed=seed,
        steps=steps,
        parallel_time=sim.parallel_time,
        leader_count=sim.leader_count,
        distinct_states=sim.distinct_states_seen(),
        duration=duration,
        telemetry=trial_telemetry_json(sim),
        phases=getattr(sim, "phases_json", lambda: None)(),
        faults=None if injector is None else injector.to_json(degraded_from),
        scheduler=(
            None
            if scheduler is None
            else scheduler_json(scheduler, sched_degraded_from)
        ),
    )


def execute_trial(spec: TrialSpec) -> TrialOutcome:
    """Run one declaratively specified trial to stabilization.

    A fresh protocol instance per trial keeps per-instance caches (none
    today, but custom protocols may memoize) from leaking across trials.
    """
    return measure_trial(
        spec.build_protocol(),
        spec.n,
        spec.seed,
        engine=spec.engine,
        max_steps=spec.max_steps,
        label=f"protocol {spec.protocol!r}",
        fault_plan=spec.fault_plan,
        checkpointer=make_checkpointer(spec),
        scheduler=spec.scheduler,
    )


@contextmanager
def _trial_timeout(seconds: float | None):
    """Raise :class:`TrialTimeoutError` if the body outlives ``seconds``.

    SIGALRM-based, so it interrupts a trial stuck inside a NumPy call
    too.  A no-op when no timeout is set, off POSIX, or off the main
    thread (``signal.signal`` refuses there) — the timeout is a
    best-effort campaign guard, never a correctness dependency.
    """
    if not seconds or seconds <= 0 or not hasattr(signal, "setitimer"):
        yield
        return

    def _alarm(signum, frame):
        raise TrialTimeoutError(
            f"trial exceeded its {seconds:g}s wall-clock timeout"
        )

    try:
        previous = signal.signal(signal.SIGALRM, _alarm)
    except ValueError:  # not the main thread
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: A captured trial failure: ``(index, kind, message, steps)`` where
#: ``kind`` preserves the exception family across process boundaries so
#: the parent re-raises the matching type in ``on_failure="raise"`` mode.
Failure = tuple[int, str, str, int | None]


def _classify(exc: BaseException) -> str:
    if isinstance(exc, ConvergenceError):
        return "convergence"
    if isinstance(exc, TrialTimeoutError):
        return "timeout"
    return "error"


def _describe_failure(spec: TrialSpec, exc: BaseException) -> str:
    if isinstance(exc, ConvergenceError):
        return str(exc)  # measure_trial already named the seed
    return (
        f"trial with seed {spec.seed} failed (protocol {spec.protocol!r}, "
        f"n={spec.n}, engine {spec.engine!r}): {type(exc).__name__}: {exc}"
    )


def _raise_failure(kind: str, message: str, steps: int | None):
    if kind == "convergence":
        raise ConvergenceError(message, steps=steps)
    if kind == "timeout":
        raise TrialTimeoutError(message)
    raise ExperimentError(message)


def _attempt_solo(
    index: int, spec: TrialSpec, timeout: float | None
) -> tuple[tuple[int, TrialOutcome] | None, Failure | None]:
    """One captured solo execution: an outcome or a failure, never both.

    Catches :class:`Exception` only — ``KeyboardInterrupt`` and friends
    stay abort signals, not retryable trial failures.
    """
    try:
        with _trial_timeout(timeout):
            return (index, execute_trial(spec)), None
    except Exception as exc:
        return None, (
            index,
            _classify(exc),
            _describe_failure(spec, exc),
            getattr(exc, "steps", None),
        )


def _run_ensemble_task(
    chunk: list[tuple[int, TrialSpec]], timeout: float | None
) -> tuple[list[tuple[int, TrialOutcome]], list[Failure]]:
    """One ensemble chunk with per-spec failure isolation.

    A lane failure (budget overrun, timeout) aborts the packed run, but
    lanes are bit-identical to solo multiset runs — so the unretired
    lanes simply re-run solo inside the same task, each under its own
    timeout, and only the genuinely failing seeds come back as
    failures.  The chunk-level timeout scales with the lane count: a
    chunk is ``len(chunk)`` trials run one after another.
    """
    results: list[tuple[int, TrialOutcome]] = []
    failures: list[Failure] = []
    retired: set[int] = set()

    def lane_record(index: int, outcome: TrialOutcome) -> None:
        retired.add(index)
        results.append((index, outcome))

    try:
        chunk_timeout = None if timeout is None else timeout * len(chunk)
        with _trial_timeout(chunk_timeout):
            _run_ensemble_chunk(chunk, lane_record)
    except Exception:
        for index, spec in chunk:
            if index in retired:
                continue
            result, failure = _attempt_solo(index, spec, timeout)
            if result is not None:
                results.append(result)
            if failure is not None:
                failures.append(failure)
    return results, failures


def _execute_task(task):
    """Worker entry point: one solo trial or one ensemble lane chunk.

    ``("trial", index, spec, timeout)`` runs one spec solo;
    ``("ensemble", chunk, timeout)`` advances a same-cell chunk through
    ensemble lanes inside the worker.  Returns ``(outcomes, failures)``:
    index-tagged outcomes for every lane/trial that finished, plus a
    captured :data:`Failure` per trial that did not.  Captured failures
    — rather than raised exceptions — are what let the parent record a
    task's completed work into the store *before* deciding (re-raise,
    retry, or quarantine), so a divergent seed costs a resumed campaign
    only itself and the genuinely in-flight work.
    """
    if task[0] == "trial":
        _kind, index, spec, timeout = task
        result, failure = _attempt_solo(index, spec, timeout)
        return ([result] if result is not None else []), (
            [failure] if failure is not None else []
        )
    _kind, chunk, timeout = task
    return _run_ensemble_task(chunk, timeout)


def _worker_init() -> None:
    # Ctrl-C is the parent's to handle (terminate + resumable store);
    # letting it also hit the workers just spews one KeyboardInterrupt
    # traceback per process over the graceful shutdown message.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass(frozen=True)
class RunReport:
    """Outcomes in spec order, plus how much work the cache saved.

    ``executed_duration`` sums the wall-clock seconds of the freshly
    executed trials (worker-seconds under ``jobs>1``, not elapsed time).

    Under ``on_failure="quarantine"`` the ``outcomes`` slots of failed
    trials hold ``None`` (the default raise mode never returns with
    one); ``failed``/``quarantined``/``retried`` count trials that ended
    the run failed, were recorded as quarantined, and were given at
    least one retry attempt, respectively.
    """

    outcomes: list[TrialOutcome | None]
    executed: int
    cached: int
    executed_duration: float = 0.0
    failed: int = 0
    quarantined: int = 0
    retried: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached + self.failed


def _chunk_size(pending: int, jobs: int, persisting: bool) -> int:
    """Bounded task chunking: amortize IPC without starving stragglers.

    ``imap_unordered`` only hands back a chunk's results once the whole
    chunk finishes, so when outcomes are being persisted each trial is its
    own chunk — an interrupt then loses at most the truly in-flight
    trials, never completed-but-undelivered ones.  Without a store there
    is nothing to lose, and chunking just amortizes IPC.
    """
    if persisting:
        return 1
    return max(1, min(16, pending // (jobs * 4) or 1))


def _ensemble_groups(
    pending: Sequence[tuple[int, TrialSpec]], min_lanes: int
) -> list[list[tuple[int, TrialSpec]]]:
    """Pending multiset trials grouped into packable same-cell batches.

    A group shares everything but the seed — one protocol instance, one
    population size, one budget — which is exactly what
    :class:`EnsembleSimulator` lanes require.  Groups below ``min_lanes``
    stay with the solo path (too few lanes to share the cell's cache).
    """
    grouped: dict[tuple, list[tuple[int, TrialSpec]]] = {}
    for index, spec in pending:
        # Faulted trials never pack: a lane runs straight to its target,
        # so a mid-run count rewrite has no packed equivalent.  Scheduled
        # trials likewise — lanes have no proposal thinning.
        if (
            spec.engine != "multiset"
            or spec.fault_plan is not None
            or spec.scheduler is not None
        ):
            continue
        key = (spec.protocol, spec.params, spec.n, spec.max_steps, spec.detector)
        grouped.setdefault(key, []).append((index, spec))
    return [group for group in grouped.values() if len(group) >= min_lanes]


def _ensemble_chunks(
    group: list[tuple[int, TrialSpec]], jobs: int, min_lanes: int
) -> list[list[tuple[int, TrialSpec]]]:
    """Split one cell's group into per-task lane chunks.

    With ``jobs`` workers a deep cell must not serialize onto one of
    them, so the group splits into ``min(jobs, len(group) // min_lanes)``
    near-equal chunks (at least one).  Chunking never affects results:
    lanes are packing-independent.
    """
    chunk_count = max(1, min(jobs, len(group) // min_lanes))
    per_chunk = -(-len(group) // chunk_count)
    return [
        group[start : start + per_chunk]
        for start in range(0, len(group), per_chunk)
    ]


def _lane_outcome_to_trial(
    lane_outcome, n: int, duration: float = 0.0
) -> TrialOutcome:
    # ``telemetry`` stays None for packed lanes: a lane's counters would
    # depend on which siblings it was packed with (a jobs-dependent
    # runtime choice), and store rows must stay packing-independent.
    # ``phases`` likewise: the packed engine carries no per-lane probe
    # schedule, so only solo runs record a series.
    return TrialOutcome(
        seed=lane_outcome.seed,
        steps=lane_outcome.steps,
        parallel_time=lane_outcome.steps / n,
        leader_count=lane_outcome.leader_count,
        distinct_states=lane_outcome.distinct_states,
        duration=duration,
    )


def _run_ensemble_chunk(
    chunk: list[tuple[int, TrialSpec]],
    record: Callable[[int, TrialOutcome], None],
) -> None:
    """Execute one same-cell chunk through ensemble lanes.

    Outcomes stream into ``record`` as lanes retire, so the store stays
    resumable even if a later lane's ConvergenceError aborts the run.
    Results are byte-identical to executing each spec solo (the lanes are
    the same chain), independent of packing and chunking.
    """
    sample = chunk[0][1]
    n = sample.n
    index_of_lane = [index for index, _spec in chunk]
    simulator = EnsembleSimulator(
        sample.build_protocol(), n, [spec.seed for _index, spec in chunk]
    )
    last_retired = perf_counter()

    def lane_done(lane_outcome) -> None:
        # Time since the previous lane of this chunk finished: lanes run
        # one after another, so this is the lane's own run plus any
        # failed lane before it, and the stored durations sum to the
        # chunk's wall time (never more).
        nonlocal last_retired
        now = perf_counter()
        duration = now - last_retired
        last_retired = now
        record(
            index_of_lane[lane_outcome.index],
            _lane_outcome_to_trial(lane_outcome, n, duration=duration),
        )

    tracer = make_tracer()
    cell_span = (
        nullcontext()
        if tracer is None
        else tracer.span(
            "cell",
            cat="cell",
            protocol=sample.protocol,
            n=n,
            lanes=len(chunk),
        )
    )
    with cell_span:
        simulator.run_until_stabilized(
            max_steps=sample.max_steps, on_lane_done=lane_done
        )


#: First-retry backoff in seconds; each further round doubles it, capped
#: at :data:`RETRY_BACKOFF_CAP`.
RETRY_BACKOFF = 0.5
RETRY_BACKOFF_CAP = 30.0


def run_specs(
    specs: Sequence[TrialSpec],
    jobs: int = 1,
    store: TrialStore | None = None,
    progress: ProgressCallback | None = None,
    ensemble_lanes: int | None = ENSEMBLE_MIN_TRIALS,
    retries: int = 0,
    trial_timeout: float | None = None,
    on_failure: str = "raise",
    retry_backoff: float = RETRY_BACKOFF,
) -> RunReport:
    """Execute ``specs``, reusing ``store`` hits; return outcomes in order.

    ``jobs=1`` runs in-process.  ``jobs>1`` shards the *missing* trials
    over a worker pool; fresh outcomes are persisted to ``store`` as they
    complete, so a ``KeyboardInterrupt`` (re-raised after the pool is torn
    down) leaves a resumable store behind.

    Missing *multiset* trials that share a cell (protocol, params, n,
    budget) are packed ``ensemble_lanes``-or-more at a time into
    :class:`~repro.engine.ensemble.EnsembleSimulator` lanes — an
    optimization that is invisible in results (lanes are bit-identical
    to solo multiset runs; rows land in the same store slots) and saves
    per-trial set-up: a cell's lanes share one interner and transition
    cache.  With ``jobs=1`` the lanes run in-process and persist one by
    one as they finish; with ``jobs>1`` each cell shards into ~``jobs``
    lane chunks that run as pool tasks alongside the unpackable
    remainder, persisting per completed chunk.  Pass
    ``ensemble_lanes=0``/``None`` to force every trial down the solo
    path (benchmarks do, to measure the pool baseline the ensemble is
    compared against).

    Robustness controls: ``trial_timeout`` bounds each trial's
    wall-clock seconds (SIGALRM, POSIX main thread; raises
    :class:`TrialTimeoutError`); ``retries`` re-runs failed trials as
    solo tasks up to that many extra rounds, sleeping an exponentially
    growing ``retry_backoff`` between rounds (transient failures — OOM
    kills, machine hiccups — get a fresh chance, deterministic ones
    fail identically and fall through).  ``on_failure`` decides what
    happens to trials that are still failing after the last round:
    ``"raise"`` (the historical default) records them in the store's
    failure ledger and re-raises the first failure; ``"quarantine"``
    records them as quarantined and *returns*, with ``None`` in the
    failed trials' outcome slots — a campaign completes and reports
    around its poison cells instead of dying on them.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be positive, got {jobs}")
    if on_failure not in ("raise", "quarantine"):
        raise ExperimentError(
            f"on_failure must be 'raise' or 'quarantine', got {on_failure!r}"
        )
    if retries < 0:
        raise ExperimentError(f"retries must be non-negative, got {retries}")
    cached = store.get_many(specs) if store is not None else {}
    results: dict[int, TrialOutcome] = {}
    pending: list[tuple[int, TrialSpec]] = []
    for index, spec in enumerate(specs):
        hit = cached.get(spec.content_hash())
        if hit is None:
            pending.append((index, spec))
        else:
            results[index] = hit
    total = len(specs)
    done = len(results)
    if progress is not None and done:
        progress(done, total, None)

    executed_duration = 0.0

    def record(index: int, outcome: TrialOutcome) -> None:
        nonlocal done, executed_duration
        results[index] = outcome
        executed_duration += outcome.duration
        if store is not None:
            store.put(specs[index], outcome)
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    # Captured-failure mode: failures accumulate instead of aborting the
    # round.  The historical raise-everything path survives untouched
    # for the default arguments (tier-1 determinism tests pin it).
    capture = retries > 0 or on_failure == "quarantine"
    failures: list[Failure] = []

    def run_round(tasks: list) -> None:
        if not tasks:
            return
        if jobs == 1 or len(tasks) <= 1:
            # In-process: ensemble lanes stream straight into ``record``
            # as they retire — the finest persistence granularity.
            for task in tasks:
                if task[0] == "trial":
                    _kind, index, spec, timeout = task
                    if capture:
                        result, failure = _attempt_solo(index, spec, timeout)
                        if result is not None:
                            record(*result)
                        if failure is not None:
                            failures.append(failure)
                    else:
                        with _trial_timeout(timeout):
                            record(index, execute_trial(spec))
                else:
                    _kind, chunk, timeout = task
                    if capture:
                        chunk_results, chunk_failures = _run_ensemble_task(
                            chunk, timeout
                        )
                        for index, outcome in chunk_results:
                            record(index, outcome)
                        failures.extend(chunk_failures)
                    else:
                        _run_ensemble_chunk(chunk, record)
        else:
            # Worker pool: ensemble chunks are pool tasks like any solo
            # trial, so deep cells shard across workers and packed work
            # overlaps the unpackable remainder.
            processes = min(jobs, len(tasks))
            chunksize = _chunk_size(len(tasks), processes, store is not None)
            pool = multiprocessing.Pool(
                processes=processes, initializer=_worker_init
            )
            try:
                for task_results, task_failures in pool.imap_unordered(
                    _execute_task, tasks, chunksize=chunksize
                ):
                    for index, outcome in task_results:
                        record(index, outcome)
                    if task_failures:
                        if not capture:
                            # Completed lanes above are already recorded
                            # (and persisted) before the re-raise.
                            _index, kind, message, steps = task_failures[0]
                            _raise_failure(kind, message, steps)
                        failures.extend(task_failures)
                pool.close()
            except BaseException:
                # Covers worker failures (e.g. ConvergenceError) and
                # Ctrl-C in the parent alike: stop the workers, keep
                # what's persisted.
                pool.terminate()
                raise
            finally:
                pool.join()

    missing = len(pending)
    groups = (
        _ensemble_groups(pending, ensemble_lanes) if ensemble_lanes else []
    )
    packed = {index for group in groups for index, _spec in group}
    solo_pending = [
        (index, spec) for index, spec in pending if index not in packed
    ]
    first_round: list = [
        ("ensemble", chunk, trial_timeout)
        for group in groups
        for chunk in _ensemble_chunks(
            group, jobs if len(pending) > 1 else 1, ensemble_lanes or 1
        )
    ]
    first_round += [
        ("trial", index, spec, trial_timeout) for index, spec in solo_pending
    ]
    run_round(first_round)

    # Retry rounds: still-failing trials re-run solo (no packing — the
    # siblings already succeeded) with exponential backoff in between.
    retried: set[int] = set()
    attempt = 0
    while failures and attempt < retries:
        time.sleep(min(RETRY_BACKOFF_CAP, retry_backoff * (2**attempt)))
        retry_indices = sorted({failure[0] for failure in failures})
        retried.update(retry_indices)
        failures = []
        run_round(
            [
                ("trial", index, specs[index], trial_timeout)
                for index in retry_indices
            ]
        )
        attempt += 1

    if store is not None:
        # Successful trials clear any stale ledger entry (a failure from
        # an earlier run of the same campaign that now succeeded).
        recovered = [
            spec
            for index, spec in pending
            if results.get(index) is not None
        ]
        if recovered and store.failures():
            store.clear_failures(recovered)
        for index, _kind, message, _steps in failures:
            store.record_failure(
                specs[index],
                attempts=attempt + 1,
                error=message,
                quarantined=on_failure == "quarantine",
            )
    if failures and on_failure == "raise":
        _index, kind, message, steps = min(failures)
        _raise_failure(kind, message, steps)

    outcomes = [results.get(index) for index in range(total)]
    return RunReport(
        outcomes=outcomes,
        executed=missing - len(failures),
        cached=total - missing,
        executed_duration=executed_duration,
        failed=len(failures),
        quarantined=len(failures) if on_failure == "quarantine" else 0,
        retried=len(retried),
    )
