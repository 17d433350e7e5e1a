"""Packed same-cell trials: serial lanes over one shared transition cache.

:class:`EnsembleSimulator` runs ``M`` independent trials ("lanes") of one
protocol at one population size.  Each lane is the **exact** multiset
chain of a solo :class:`~repro.engine.multiset.MultisetSimulator` with
that lane's seed, run on a :class:`~repro.engine.ensemble.lane.SlotLane`:
it consumes the same PCG64 draw stream in the same refill pattern and
maps every scheduler ticket through the same count-ordered inverse CDF,
so per-lane trajectories and stabilization step counts are bit-identical
to solo runs (pinned by ``tests/engine/test_ensemble.py``).

Lanes run one after another.  What the cell shares is set-up: one
:class:`~repro.engine.interner.StateInterner` and one transition cache
(kernel-backed where the protocol compiles), so every lane after the
first resolves its transitions from entries its siblings already
computed.  For kernel protocols lanes run the native sorted-slot loop,
which reads those entries without returning to Python.  A lane is built
only when its turn comes, so a cell holds one lane's slot array and
draw buffers at a time.  Outcomes never depend on packing, lane order
or loop; only wall-clock does.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.convergence import default_max_steps
from repro.engine.ensemble.lane import LaneCell, SlotLane
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.protocol import Protocol
from repro.errors import ConvergenceError, SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.heartbeat import make_heartbeat
from repro.telemetry.profile import StageProfile, emit_profile
from repro.telemetry.trace import make_tracer

__all__ = ["EnsembleSimulator", "LaneOutcome"]

#: Interactions a lane runs between heartbeat polls; ``SlotLane.run``
#: resumes mid-draw-batch, so chunking never changes the chain.
_BEAT_CHUNK = 1 << 16


@dataclass(frozen=True)
class LaneOutcome:
    """One lane's exact stabilization measurement."""

    index: int
    seed: int | None
    steps: int
    leader_count: int
    distinct_states: int


class EnsembleSimulator:
    """Run many same-protocol trials as serial lanes over one shared cache."""

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seeds: Sequence[int | None],
        *,
        cache_entries: int = 1 << 20,
        target: int = 1,
        telemetry: bool | None = None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got n={n}")
        if not seeds:
            raise SimulationError("an ensemble needs at least one lane seed")
        self.protocol = protocol
        self.n = n
        self.seeds = list(seeds)
        self.target = target
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries
        )
        self._telemetry = telemetry
        # Kernel-fill stage profile (gated wall-clock tier; only the
        # Python loop fills).  Packed lanes carry no phase series: solo
        # multiset runs probe instead.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        if hasattr(self.cache, "profile"):
            self.cache.profile = self._profile
        self._cell = LaneCell(protocol, n, self.cache)
        #: Monotone total of interactions run by every lane so far.
        self.committed_steps = 0
        #: Lanes that reached the target within their budget.
        self.retired_lanes = 0

    def _run_lane(self, lane: SlotLane, budget: int, heartbeat) -> None:
        while budget > 0 and lane.lead != self.target:
            ran = lane.run(min(budget, _BEAT_CHUNK), stop_at_target=True)
            self.committed_steps += ran
            budget -= ran
            if heartbeat is not None:
                heartbeat.maybe_beat(self.committed_steps)

    def run_until_stabilized(
        self,
        max_steps: int | None = None,
        on_lane_done: Callable[[LaneOutcome], None] | None = None,
    ) -> list[LaneOutcome]:
        """Run every lane to its exact stabilization step.

        Returns outcomes ordered by lane index; ``on_lane_done`` streams
        each outcome the moment its lane finishes (so callers can persist
        completed trials before the last lane runs).  A lane that
        exhausts ``max_steps`` (default: the solo engines'
        :func:`~repro.engine.convergence.default_max_steps`) raises
        :class:`ConvergenceError` naming its seed — but only after every
        other lane has had its budgeted chance, so an abort costs the
        store only the genuinely divergent lanes.
        """
        if max_steps is None:
            max_steps = default_max_steps(self.n)
        # Aggregate heartbeat over all lanes: progress is the monotone
        # interaction total, the ceiling its worst case (every lane
        # running to its full per-lane budget).
        heartbeat = make_heartbeat(
            "ensemble",
            self.protocol.name,
            self.n,
            None,
            max_steps * len(self.seeds),
            enabled=self._telemetry,
        )
        outcomes: list[LaneOutcome] = []
        # (lane index, seed, steps) per budget-exhausted lane.
        failures: list[tuple[int, int | None, int]] = []
        profile = self._profile
        tracer = make_tracer()
        if tracer is not None:
            profile.tracer = tracer
        ensemble_span = (
            nullcontext()
            if tracer is None
            else tracer.span(
                "ensemble",
                cat="trial",
                engine="ensemble",
                protocol=self.protocol.name,
                n=self.n,
                lanes=len(self.seeds),
            )
        )
        try:
            with ensemble_span:
                for index, seed in enumerate(self.seeds):
                    lane = SlotLane(
                        self.protocol,
                        self.n,
                        seed,
                        cache=self.cache,
                        target=self.target,
                        cell=self._cell,
                    )
                    self._run_lane(lane, max_steps, heartbeat)
                    if lane.lead != self.target:
                        failures.append((index, seed, lane.steps))
                        continue
                    self.retired_lanes += 1
                    outcome = LaneOutcome(
                        index=index,
                        seed=seed,
                        steps=lane.steps,
                        leader_count=lane.lead,
                        distinct_states=lane.distinct_states_seen(),
                    )
                    outcomes.append(outcome)
                    if on_lane_done is not None:
                        on_lane_done(outcome)
        finally:
            profile.tracer = None
        emit_profile(
            profile,
            "ensemble",
            self.protocol.name,
            self.n,
            None,
            self.committed_steps,
        )
        if failures:
            _index, seed, steps = failures[0]
            raise ConvergenceError(
                f"protocol {self.protocol.name!r} (n={self.n}, seed {seed}) "
                f"did not stabilize within its step budget",
                steps=steps,
            )
        return outcomes

    def telemetry_summary(self) -> dict:
        """Ensemble-wide counter summary (aggregate, not per lane).

        Per-lane trial rows never carry this — lane packing and the
        loop (``"native"`` or ``"python"``, which depends on the machine
        having a C compiler) are runtime choices, and store rows must
        stay packing- and machine-independent — so these counters feed
        heartbeats, tests, and ad-hoc profiling only.  ``round_trips``
        counts the native loop's returns to Python: draw refills, pairs
        the cell had never resolved, table growth, and lane ends.
        """
        return {
            "engine": "ensemble",
            "lanes": len(self.seeds),
            "committed_steps": self.committed_steps,
            "retired_lanes": self.retired_lanes,
            "loop": self._cell.loop,
            "round_trips": self._cell.round_trips,
            "cache": cache_summary(self.cache.stats),
        }
