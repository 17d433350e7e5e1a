"""Declarative trial and campaign specifications.

A :class:`TrialSpec` names *one* stabilization measurement — protocol (by
registry name plus parameter mapping), population size, engine, seed, step
budget, and detector — without holding any live objects.  That makes it

* **hashable**: :meth:`TrialSpec.content_hash` is a stable SHA-256 over
  the canonical JSON form, used as the primary key of the persistent
  :class:`~repro.orchestration.store.TrialStore`;
* **portable**: specs pickle cheaply into ``multiprocessing`` workers and
  serialize losslessly into SQLite for resume-after-crash.

A :class:`CampaignSpec` is an ordered batch of trial specs (typically a
grid of ``n`` times a trial count), the unit the
:class:`~repro.orchestration.runner.CampaignRunner` executes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.engine.protocol import Protocol
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan, resolve_engine
from repro.orchestration.registry import build_protocol, canonical_params
from repro.schedulers.spec import SchedulerSpec, resolve_schedule_engine

__all__ = [
    "AUTO_ENGINE",
    "ENGINES",
    "ENSEMBLE_ENGINE",
    "ENSEMBLE_MIN_TRIALS",
    "MAX_POPULATION",
    "SUPERBATCH_ENGINE_MIN_N",
    "TrialOutcome",
    "TrialSpec",
    "CampaignSpec",
    "check_engine",
    "check_population",
    "default_engine",
    "trial_specs",
]

#: Bump when the execution semantics behind a hash change incompatibly
#: (e.g. a different default detector), so stale store rows never alias
#: fresh ones.
SPEC_VERSION = 1

#: The only stabilization detector the orchestration layer runs today.
#: Kept in the hash so future detector options invalidate cleanly.
MONOTONE_LEADER = "monotone-leader"

#: The simulation engines a spec may name; the single source of truth for
#: engine-name validation, the pool's dispatch table, and CLI choices.
ENGINES = ("agent", "multiset", "superbatch")

#: Engine names specs no longer accept.  Store rows written under them
#: stay readable; only new specs are refused.
RETIRED_ENGINES = ("batch",)

#: Pseudo-engine accepted by grid builders and the CLI: resolves per
#: (population size, trial count) via :func:`default_engine` before specs
#: are created, so content hashes always name a concrete engine.
AUTO_ENGINE = "auto"

#: User-facing engine name for packed same-cell execution.  It is
#: an *execution strategy*, not a spec identity: lanes of the ensemble
#: engine are bit-identical to solo multiset runs, so specs resolve to
#: ``engine="multiset"`` (sharing store rows with solo multiset trials in
#: both directions) and the pool packs same-cell specs into
#: :class:`~repro.engine.ensemble.EnsembleSimulator` lanes at run time.
ENSEMBLE_ENGINE = "ensemble"

#: Smallest pending same-cell trial group the pool packs into ensemble
#: lanes (below it, too few lanes share the cell's interner and
#: transition cache for packing to pay, and the solo path runs instead).
ENSEMBLE_MIN_TRIALS = 4

#: Population size at which ``auto`` switches from the multiset chain
#: to the count-level super-batch engine: the smallest measured PLL
#: ``n`` from which superbatch beats multiset on whole capped trials by
#: the bench's win margin, there and at every larger measured size.  A
#: code constant, so spec hashes depend only on code; the bench's
#: crossover gate (:func:`repro.bench.report.derive_crossovers`) fails
#: when a full-grid record disagrees with it.
SUPERBATCH_ENGINE_MIN_N = 1 << 18

#: Smallest population no spec or simulator accepts: numpy's
#: ``Generator.hypergeometric`` and ``multivariate_hypergeometric``,
#: which the count-level engines and the fault injector draw from,
#: reject populations of 10^9 or more.
MAX_POPULATION = 1_000_000_000


def check_population(n: int) -> None:
    """Raise :class:`ExperimentError` unless ``n`` is below the numpy limit."""
    if n >= MAX_POPULATION:
        raise ExperimentError(
            f"population n={n} is too large: numpy's hypergeometric "
            f"samplers reject populations >= {MAX_POPULATION:,}"
        )


def check_engine(engine: str) -> None:
    """Raise :class:`ExperimentError` unless ``engine`` is a concrete engine."""
    if engine in ENGINES:
        return
    if engine in RETIRED_ENGINES:
        raise ExperimentError(
            f"engine {engine!r} was retired; use 'multiset' below "
            f"n={SUPERBATCH_ENGINE_MIN_N:,} and 'superbatch' from there "
            "(or 'auto', which picks between them)"
        )
    raise ExperimentError(
        f"unknown engine {engine!r}; use one of: {', '.join(ENGINES)}"
    )


def default_engine(n: int) -> str:
    """Concrete engine the ``auto`` pseudo-engine resolves to at size ``n``.

    Two measured regimes: from :data:`SUPERBATCH_ENGINE_MIN_N` up,
    sweeps route through the count-level super-batch engine; below it
    they name the multiset chain — where multi-trial cells pack into
    ensemble lanes sharing one transition cache at execution time
    (:func:`repro.orchestration.pool.run_specs`), while small groups
    and single-trial points run the solo multiset engine.

    The resolution deliberately depends on ``n`` alone — never on the
    trial count — so a given ``(protocol, params, n, seed)`` data point
    hashes identically regardless of which campaign (or how big a
    campaign) requested it, keeping store rows shared across entry
    points.
    """
    return "superbatch" if n >= SUPERBATCH_ENGINE_MIN_N else "multiset"


@dataclass(frozen=True)
class TrialOutcome:
    """One stabilization measurement.

    ``duration`` (trial wall-clock seconds, measured even with telemetry
    off) and ``telemetry`` (the engine's canonical-JSON counter summary,
    or ``None``) are runtime records, not part of the measurement: they
    are excluded from equality so outcomes compare by what the chain did,
    never by how fast the host ran it.  ``phases`` is the serialized
    protocol phase series (:mod:`repro.telemetry.probe`) — deterministic
    data, but a *derived view* of the trajectory rather than part of the
    stabilization measurement, so it is likewise excluded from equality
    (packed ensemble lanes legitimately store ``None`` for outcomes that
    solo runs store a series for).
    """

    seed: int
    steps: int
    parallel_time: float
    leader_count: int
    distinct_states: int
    duration: float = field(default=0.0, compare=False)
    telemetry: str | None = field(default=None, compare=False)
    phases: str | None = field(default=None, compare=False)
    #: Serialized fault record (:func:`repro.faults.injector.faults_json`)
    #: for faulted trials: applied events with per-fault recovery times
    #: and any recorded engine degradation.  ``None`` for clean trials —
    #: the pre-fault-subsystem store row, byte-identical.  Deterministic
    #: data, but a derived view like ``phases``, so excluded from
    #: equality.
    faults: str | None = field(default=None, compare=False)
    #: Serialized scheduler record
    #: (:func:`repro.schedulers.spec.scheduler_json`) for trials run
    #: under an adversarial schedule: the spec's canonical form plus any
    #: recorded engine degradation.  ``None`` for uniform-scheduler
    #: trials — the pre-scheduler-subsystem store row, byte-identical.
    scheduler: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to (re)run one trial, and nothing else.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs with
    builder-default values dropped, so semantically equal mappings
    compare and hash identically regardless of insertion order or
    explicit defaults (``("pll", {"variant": "full"})`` is ``("pll",
    {})``).  Build instances through :meth:`create`, which normalizes
    and validates.
    """

    protocol: str
    n: int
    seed: int
    engine: str = "agent"
    params: tuple[tuple[str, object], ...] = ()
    max_steps: int | None = None
    detector: str = MONOTONE_LEADER
    #: Optional fault schedule (:class:`~repro.faults.plan.FaultPlan`).
    #: Part of the trial's hashed identity when present; ``None`` adds
    #: nothing to the canonical form, so every clean spec hash is
    #: byte-identical to the pre-fault-subsystem one.
    fault_plan: FaultPlan | None = None
    #: Optional interaction schedule
    #: (:class:`~repro.schedulers.spec.SchedulerSpec`).  Part of the
    #: trial's hashed identity when present, with the same
    #: None-neutrality contract as ``fault_plan``; an explicit
    #: ``uniform`` spec normalizes to ``None`` (it *is* the default
    #: scheduler), so both spellings hash identically.
    scheduler: SchedulerSpec | None = None

    @classmethod
    def create(
        cls,
        protocol: str,
        n: int,
        seed: int,
        engine: str = "agent",
        params: Mapping[str, object] | None = None,
        max_steps: int | None = None,
        detector: str = MONOTONE_LEADER,
        fault_plan: FaultPlan | Sequence | None = None,
        scheduler: SchedulerSpec | Mapping | None = None,
    ) -> "TrialSpec":
        if n < 2:
            raise ExperimentError(f"population needs at least 2 agents, got n={n}")
        check_population(n)
        check_engine(engine)
        if detector != MONOTONE_LEADER:
            raise ExperimentError(
                f"unknown detector {detector!r}; only {MONOTONE_LEADER!r} "
                "is supported"
            )
        if max_steps is not None and max_steps < 1:
            raise ExperimentError(f"max_steps must be positive, got {max_steps}")
        plan = FaultPlan.coerce(fault_plan)
        if plan is not None:
            plan.validate_against(n, max_steps)
            if not plan.exchangeable and engine != "agent":
                raise ExperimentError(
                    f"fault plan needs per-agent identity (targeted agents "
                    f"or a partition) but engine {engine!r} is count-level; "
                    "use engine='agent' or 'auto' (which degrades)"
                )
        sched = SchedulerSpec.coerce(scheduler)
        if sched is not None:
            sched.validate_against(n)
            if sched.family == "uniform":
                # An explicit uniform spec *is* the default scheduler:
                # normalize it away so both spellings hash (and run)
                # identically — the None-neutrality contract.
                sched = None
        if sched is not None:
            if not sched.exchangeable and engine != "agent":
                raise ExperimentError(
                    f"scheduler family {sched.family!r} needs per-agent "
                    f"identity but engine {engine!r} is count-level; use "
                    "engine='agent' or 'auto' (which degrades)"
                )
            if plan is not None and any(
                event.kind == "partition" for event in plan.events
            ):
                raise ExperimentError(
                    "a partition fault heals back to the uniform scheduler "
                    "and would clobber the trial's scheduler spec; use "
                    "churn/corrupt faults with an adversarial schedule"
                )
        normalized = tuple(sorted(canonical_params(protocol, params).items()))
        try:
            json.dumps(dict(normalized))
        except TypeError as exc:
            raise ExperimentError(
                f"trial params must be JSON-serializable: {exc}"
            ) from exc
        return cls(
            protocol=protocol,
            n=n,
            seed=seed,
            engine=engine,
            params=normalized,
            max_steps=max_steps,
            detector=detector,
            fault_plan=plan,
            scheduler=sched,
        )

    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    def canonical(self) -> dict[str, object]:
        """The hashed identity of this trial, as a JSON-ready mapping.

        The ``faults`` key exists only for faulted specs: ``plan=None``
        must keep the serialized form — and therefore the content hash
        and every store row keyed by it — byte-identical to specs
        created before the fault subsystem existed (pinned by
        ``tests/faults/test_hash_neutrality.py``).  The ``scheduler``
        key follows the same contract (pinned by
        ``tests/schedulers/test_hash_neutrality.py``).
        """
        payload: dict[str, object] = {
            "version": SPEC_VERSION,
            "protocol": self.protocol,
            "params": [list(pair) for pair in self.params],
            "n": self.n,
            "seed": self.seed,
            "engine": self.engine,
            "max_steps": self.max_steps,
            "detector": self.detector,
        }
        if self.fault_plan is not None:
            payload["faults"] = self.fault_plan.canonical()
        if self.scheduler is not None:
            payload["scheduler"] = self.scheduler.canonical()
        return payload

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the canonical form."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def build_protocol(self) -> Protocol:
        """Instantiate the protocol this spec names."""
        return build_protocol(self.protocol, self.n, self.params_dict())

    def to_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "TrialSpec":
        data = json.loads(payload)
        return cls.create(
            protocol=data["protocol"],
            n=data["n"],
            seed=data["seed"],
            engine=data["engine"],
            params={key: value for key, value in data["params"]},
            max_steps=data["max_steps"],
            detector=data["detector"],
            fault_plan=data.get("faults"),
            scheduler=data.get("scheduler"),
        )


def trial_specs(
    protocol: str,
    n: int,
    trials: int,
    base_seed: int = 0,
    engine: str = "agent",
    params: Mapping[str, object] | None = None,
    max_steps: int | None = None,
    fault_plan: FaultPlan | Sequence | None = None,
    scheduler: SchedulerSpec | Mapping | None = None,
) -> list[TrialSpec]:
    """Specs for ``trials`` independent runs with sequentially derived seeds.

    Seed derivation (``base_seed + trial``) matches the historical
    :func:`repro.experiments.runner.stabilization_trials` convention, so
    any single data point in EXPERIMENTS.md stays reproducible in
    isolation — and so campaign-store rows are shared between ``repro
    run`` and ``repro campaign run`` for identical grids.

    ``engine="auto"`` resolves here, per ``n``, via
    :func:`default_engine`, so specs (and therefore content hashes)
    always name a concrete engine.  ``engine="ensemble"`` resolves to
    ``"multiset"`` — ensemble lanes are bit-identical to solo multiset
    runs, so the hash (and store row) is the multiset trial's; the pool
    packs same-cell trials into ensemble lanes at execution time.

    A non-exchangeable ``fault_plan`` (targeted agents, partitions)
    needs per-agent identity: on the resolved-engine paths (``auto``,
    ``ensemble``) it deterministically degrades the engine to
    ``"agent"`` via :func:`repro.faults.plan.resolve_engine`, and the
    degradation is recorded per trial in the stored fault record.  An
    explicit count-level engine choice with such a plan is rejected by
    :meth:`TrialSpec.create` instead of silently overridden.

    A ``scheduler`` spec rides the same ladder
    (:func:`repro.schedulers.spec.resolve_schedule_engine`):
    exchangeable families (``uniform``, ``weighted``) keep whatever
    engine the population size would get — the count-level engines run
    them via reweighted block samplers — while graph-restricted
    families need per-agent identity and degrade to ``"agent"``, with
    the degradation recorded per trial in the stored scheduler record.
    """
    if trials < 1:
        raise ExperimentError(f"trials must be positive, got {trials}")
    plan = FaultPlan.coerce(fault_plan)
    sched = SchedulerSpec.coerce(scheduler)
    if engine == AUTO_ENGINE:
        engine = resolve_engine(plan, resolve_schedule_engine(sched, default_engine(n)))
    elif engine == ENSEMBLE_ENGINE:
        engine = resolve_engine(plan, resolve_schedule_engine(sched, "multiset"))
    return [
        TrialSpec.create(
            protocol=protocol,
            n=n,
            seed=base_seed + trial,
            engine=engine,
            params=params,
            max_steps=max_steps,
            fault_plan=plan,
            scheduler=sched,
        )
        for trial in range(trials)
    ]


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered batch of trials executed and aggregated together."""

    name: str
    trials: tuple[TrialSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("a campaign needs a non-empty name")
        if not self.trials:
            raise ExperimentError(f"campaign {self.name!r} has no trials")
        hashes = {spec.content_hash() for spec in self.trials}
        if len(hashes) != len(self.trials):
            raise ExperimentError(
                f"campaign {self.name!r} contains duplicate trial specs"
            )

    def __len__(self) -> int:
        return len(self.trials)

    def content_hash(self) -> str:
        """Order-insensitive digest over the member trial hashes."""
        digest = hashlib.sha256()
        for trial_hash in sorted(spec.content_hash() for spec in self.trials):
            digest.update(trial_hash.encode("ascii"))
        return digest.hexdigest()

    def groups(self) -> list[tuple[tuple[str, tuple, int], list[TrialSpec]]]:
        """Trials grouped by ``(protocol, params, n)`` in first-seen order."""
        grouped: dict[tuple[str, tuple, int], list[TrialSpec]] = {}
        for spec in self.trials:
            grouped.setdefault((spec.protocol, spec.params, spec.n), []).append(
                spec
            )
        return list(grouped.items())

    @classmethod
    def from_grid(
        cls,
        name: str,
        protocol: str,
        ns: Sequence[int] | Iterable[int],
        trials: int,
        base_seed: int = 0,
        engine: str = "agent",
        params: Mapping[str, object] | None = None,
        max_steps: int | None = None,
        fault_plan: FaultPlan | Sequence | None = None,
        scheduler: SchedulerSpec | Mapping | None = None,
    ) -> "CampaignSpec":
        """A ``len(ns) x trials`` grid over one protocol."""
        specs: list[TrialSpec] = []
        for n in ns:
            specs.extend(
                trial_specs(
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
            )
        return cls(name=name, trials=tuple(specs))
