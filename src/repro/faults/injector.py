"""Fault execution: drive any engine through a plan's fault schedule.

The :class:`FaultInjector` owns the faulted-run loop.  It exploits the
one execution property every engine already guarantees — ``run(k)``
executes *exactly* ``k`` interactions and ``run_until_stabilized``
treats ``max_steps`` as an exact budget (raising
:class:`~repro.errors.ConvergenceError` with ``sim.steps`` right at the
boundary) — so fault timing needs no engine-loop surgery: the run is
segmented at each event's ``at_step``, and within a segment the engine's
own exact first-hit stabilization detection keeps recovery times precise
to the interaction on every engine, which is what makes recovery-time
distributions KS-comparable across superbatch, batch and multiset.

Per segment the driver re-arms convergence detection: it runs
``run_until_stabilized`` capped at the next fault step; a stabilization
inside the segment settles the recovery time of every fault still
pending, and the remainder of the segment (stable, so nothing more to
detect) advances with a plain ``run``.  A budget exhaustion in the
*final* segment is the trial's failure — exactly like a clean trial —
and flows into the campaign fabric's retry/quarantine path.

Event application is two-pathed by exchangeability:

* count-level (the multiset and superbatch engines): uniformly-chosen
  victims are a multivariate hypergeometric draw on the count vector,
  and corrupt replacements are uniform over the states present.  No
  agent identities materialize, so superbatch scale survives faulted
  runs.
* per-agent (:class:`~repro.engine.simulator.AgentSimulator`): the same
  distributions realized on identified agents, plus the two
  non-exchangeable events (targeted corruption, partitions via
  :class:`~repro.engine.scheduler.RestrictedScheduler`).

Fault randomness comes from a dedicated per-event stream
(``default_rng([seed, FAULT_STREAM, event_index])``), never the
engine's generator, so the faulted chain deviates from the clean one
only through the configuration change itself.

The injector is checkpointable: :meth:`state_dict`/:meth:`load_state`
round-trip the applied-event records and cursor, and :meth:`drive`
derives everything else from ``sim.steps``, so a killed faulted trial
resumes mid-plan from an engine checkpoint.
"""

from __future__ import annotations

import json
from typing import Counter as CounterType

import numpy as np

from repro.engine.convergence import (
    MonotoneLeaderStabilization,
    default_max_steps,
)
from repro.engine.scheduler import RandomScheduler, RestrictedScheduler
from repro.errors import ConvergenceError, SimulationError
from repro.faults.plan import FAULT_STREAM, FaultEvent, FaultPlan

__all__ = ["FaultInjector", "faults_json"]

FAULTS_VERSION = 1


def _support(counts: CounterType) -> list:
    """The states currently present, in a canonical engine-free order.

    Interned ids are an engine-path artifact (kernel vs cached interning
    order differs), so cross-engine determinism sorts the decoded states
    by their repr — stable for the frozen dataclass/tuple states every
    protocol here uses.
    """
    return sorted((state for state, count in counts.items() if count > 0), key=repr)


class FaultInjector:
    """Drive one simulator through one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan, n: int, seed: int | None) -> None:
        self.plan = plan
        self.n = n
        self.seed = 0 if seed is None else int(seed)
        #: Applied-event records: plain dicts so they pickle into
        #: checkpoints and serialize into the store's ``faults`` column.
        self.records: list[dict] = []
        self._next_event = 0

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "next_event": self._next_event,
            "records": [dict(record) for record in self.records],
        }

    def load_state(self, payload: dict) -> None:
        self._next_event = int(payload["next_event"])
        self.records = [dict(record) for record in payload["records"]]

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------

    def _event_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, FAULT_STREAM, index])

    def _apply_counts(self, sim, event: FaultEvent, rng) -> None:
        """Exchangeable events on the count vector (any count engine)."""
        counts = sim.state_counts()
        support = _support(counts)
        vector = np.array([counts[state] for state in support], dtype=np.int64)
        victims = rng.multivariate_hypergeometric(vector, event.count)
        if event.kind == "corrupt":
            replacements = np.bincount(
                rng.integers(0, len(support), size=event.count),
                minlength=len(support),
            )
        else:  # churn: leavers are replaced by fresh initial-state agents
            initial = sim.protocol.initial_state()
            try:
                initial_slot = support.index(initial)
            except ValueError:
                support.append(initial)
                victims = np.append(victims, 0)
                initial_slot = len(support) - 1
            replacements = np.zeros(len(support), dtype=np.int64)
            replacements[initial_slot] = event.count
        updated = {
            state: int(counts[state]) - int(gone) + int(back)
            for state, gone, back in zip(support, victims, replacements)
        }
        sim.load_counts({s: c for s, c in updated.items() if c})

    def _apply_agents(self, sim, event: FaultEvent, rng) -> None:
        """The same event distributions realized on identified agents."""
        configuration = sim.configuration()
        if event.kind == "partition":
            raise AssertionError("partitions apply via _apply_partition")
        if event.agents is not None:
            victims = list(event.agents)
        else:
            victims = rng.choice(self.n, size=event.count, replace=False).tolist()
        if event.kind == "corrupt":
            support = _support(sim.state_counts())
            picks = rng.integers(0, len(support), size=len(victims))
            for victim, pick in zip(victims, picks):
                configuration[victim] = support[int(pick)]
        else:  # churn
            fresh = sim.protocol.initial_state()
            for victim in victims:
                configuration[victim] = fresh
        sim.load_configuration(configuration)

    def _apply_partition(self, sim, event: FaultEvent, rng) -> None:
        """Restrict interactions to the clique, run it out, then heal."""
        if not hasattr(sim, "set_scheduler"):
            raise SimulationError(
                "partition faults need the per-agent engine (scheduler "
                f"support); got {type(sim).__name__}"
            )
        partition_seed = int(rng.integers(0, 2**63))
        heal_seed = int(rng.integers(0, 2**63))
        sim.set_scheduler(
            RestrictedScheduler(self.n, range(event.count), seed=partition_seed)
        )
        sim.run(event.duration)
        sim.set_scheduler(RandomScheduler(self.n, seed=heal_seed))

    def _apply(self, sim, event: FaultEvent, index: int) -> None:
        rng = self._event_rng(index)
        record = {
            "kind": event.kind,
            "step": int(sim.steps),
            "count": (
                len(event.agents) if event.agents is not None else event.count
            ),
            "exchangeable": event.exchangeable,
        }
        if event.kind == "partition":
            self._apply_partition(sim, event, rng)
            record["duration"] = event.duration
        elif event.exchangeable and not hasattr(sim, "load_configuration"):
            # Count engines; the agent engine realizes every event on
            # its identified agents.
            self._apply_counts(sim, event, rng)
        else:
            self._apply_agents(sim, event, rng)
        # Recovery is armed when the population can start recovering:
        # the heal step for partitions, the fault step otherwise.
        record["armed_step"] = int(sim.steps)
        record["recovery_steps"] = None
        self.records.append(record)

    # ------------------------------------------------------------------
    # the segment driver
    # ------------------------------------------------------------------

    def _settle(self, step: int) -> None:
        """Record recovery times for every fault still pending at a
        stabilization observed at ``step``."""
        for record in self.records:
            if record["recovery_steps"] is None:
                record["recovery_steps"] = step - record["armed_step"]

    def _run_segment(
        self, sim, until_step: int, detector, final: bool
    ) -> None:
        """Advance to exactly ``until_step``, detecting stabilization.

        Re-armed detection runs first; once the segment stabilizes (or
        arrives already stable), pending recoveries settle and the
        stable remainder advances without detection.  A non-final
        budget exhaustion just means the fault fires before recovery —
        the engines' exact budgets leave ``sim.steps == until_step``.
        A final-segment exhaustion propagates as the trial's failure.
        """
        if not detector.check(sim):
            try:
                sim.run_until_stabilized(max_steps=until_step - sim.steps)
            except ConvergenceError:
                if final:
                    raise
                return
        self._settle(sim.steps)
        remaining = until_step - sim.steps
        if remaining > 0 and not final:
            sim.run(remaining)

    def drive(self, sim, max_steps: int | None = None) -> int:
        """Run ``sim`` through the plan; return steps at final stabilization.

        Resumable: everything is derived from ``sim.steps`` and the
        restored cursor, so a checkpoint-restored simulator continues
        mid-plan without replaying applied events.
        """
        n = sim.n
        if max_steps is None:
            max_steps = default_max_steps(n)
        self.plan.validate_against(n, max_steps)
        detector = MonotoneLeaderStabilization()
        events = self.plan.events
        while self._next_event < len(events):
            event = events[self._next_event]
            if sim.steps < event.at_step:
                self._run_segment(sim, event.at_step, detector, final=False)
            self._apply(sim, event, self._next_event)
            self._next_event += 1
        self._run_segment(sim, max_steps, detector, final=True)
        if not detector.check(sim):  # pragma: no cover - defensive
            raise ConvergenceError(
                f"faulted run did not stabilize within {max_steps} steps",
                steps=sim.steps,
            )
        return sim.steps

    # ------------------------------------------------------------------
    # the stored fault record
    # ------------------------------------------------------------------

    def to_json(self, degraded_from: str | None = None) -> str:
        """Canonical JSON for the store's ``faults`` column.

        Deterministic by construction (steps and counts only, no wall
        clock), so store rows stay byte-comparable across runs and
        telemetry switches.
        """
        return faults_json(self.plan, self.records, self.n, degraded_from)


def faults_json(
    plan: FaultPlan,
    records: list[dict],
    n: int,
    degraded_from: str | None = None,
) -> str:
    events = []
    for record in records:
        recovery = record["recovery_steps"]
        event: dict[str, object] = {
            "kind": record["kind"],
            "step": record["step"],
            "count": record["count"],
            "exchangeable": record["exchangeable"],
            "recovery_steps": recovery,
            "recovery_parallel_time": (
                None if recovery is None else recovery / n
            ),
        }
        if "duration" in record:
            event["duration"] = record["duration"]
        events.append(event)
    payload: dict[str, object] = {
        "version": FAULTS_VERSION,
        "plan": plan.canonical(),
        "events": events,
    }
    if degraded_from is not None:
        payload["degraded_from"] = degraded_from
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
