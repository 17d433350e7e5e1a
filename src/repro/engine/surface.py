"""The engine surface every solo engine shares.

:class:`EngineSurface` is the base of the four solo engines
(:class:`~repro.engine.simulator.AgentSimulator`, both multiset engines
and the count-level :class:`~repro.engine.batch.BatchSimulator`).  It
holds the construction every engine repeats (the ``n >= 2`` check, stage
profile, phase series, interner and transition cache) and the
configuration view built on one primitive, ``state_id_counts()``:
``state_counts``, ``count_of``, ``parallel_time``,
``distinct_states_seen``, ``phases_json``, ``describe`` and the
id-indexed output table ``_output_for``.  ``load_counts`` validates and
interns here and hands the engine ``_load_ids(by_id)``.

An engine supplies its chain (``step``, ``_advance``),
``state_id_counts``, ``_load_ids``, ``output_counts`` (and
``leader_count`` when it tracks leaders itself) and
``telemetry_summary``, and binds :func:`run` and
:func:`~repro.engine.convergence.run_until_stabilized` in its own class
body.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping

from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import SimulationError
from repro.telemetry.core import telemetry_enabled
from repro.telemetry.probe import make_phase_series
from repro.telemetry.profile import StageProfile

__all__ = ["EngineSurface", "output_tally", "run"]


class EngineSurface:
    """Configuration view, ``load_counts`` and construction shared by
    the solo engines; see the module docstring for what a subclass adds."""

    #: ``_advance`` runs its whole budget (per-interaction engines) or
    #: returns after one block (the block engine sets this).
    BLOCK_ENGINE = False

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None,
        cache_entries: int,
        use_kernel: bool | None,
        telemetry: bool | None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got n={n}")
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self._telemetry = telemetry
        # Stage profile (gated wall-clock tier) and phase series
        # (deterministic tier, always on): see DESIGN.md Section 9.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        self.phase_series = make_phase_series(protocol, n)
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries, use_kernel=use_kernel
        )
        if hasattr(self.cache, "profile"):
            self.cache.profile = self._profile
        self._output_of_id: list[str] = []

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self.output_counts.get(LEADER, 0)

    @property
    def parallel_time(self) -> float:
        """Steps executed divided by ``n`` (the paper's time unit)."""
        return self.steps / self.n

    def state_counts(self) -> Counter[State]:
        """Multiset of decoded states currently present, in the order of
        ``state_id_counts()``."""
        state_of = self.interner.state_of
        return Counter(
            {state_of(sid): count for sid, count in self.state_id_counts().items()}
        )

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``; 0 for a state never
        interned or not present (detectors probing the cache intern
        states the configuration has never held)."""
        sid = self.interner.id_of(state)
        if sid is None:
            return 0
        return self.state_id_counts().get(sid, 0)

    def load_counts(self, counts: Mapping[State, int]) -> None:
        """Replace the configuration with an explicit state multiset."""
        total = sum(counts.values())
        if total != self.n:
            raise SimulationError(
                f"configuration counts sum to {total}, expected n={self.n}"
            )
        if any(count < 0 for count in counts.values()):
            raise SimulationError("configuration counts must be non-negative")
        intern = self.interner.intern
        by_id: dict[int, int] = {}
        for state, count in counts.items():
            if count:
                sid = intern(state)
                by_id[sid] = by_id.get(sid, 0) + count
        self._load_ids(by_id)

    def distinct_states_seen(self) -> int:
        """Number of distinct states interned so far (Lemma 3 audits)."""
        return len(self.interner)

    def phases_json(self) -> str | None:
        """Serialized phase series for the trial store, or ``None``."""
        series = self.phase_series
        return None if series is None else series.to_json()

    def describe(self) -> str:
        """One-line human-readable summary of the simulation."""
        return (
            f"{self.protocol.name}: n={self.n} steps={self.steps} "
            f"(parallel time {self.parallel_time:.2f}) "
            f"outputs={dict(self.output_counts)}"
        )

    def _output_for(self, sid: int) -> str:
        """Output symbol for a state id, via an id-indexed side table."""
        table = self._output_of_id
        if sid >= len(table):
            interner = self.interner
            output = self.protocol.output
            for missing in range(len(table), len(interner)):
                table.append(output(interner.state_of(missing)))
        return table[sid]


def output_tally(sim) -> Counter[str]:
    """Output tally read off ``state_id_counts()``: ``output_counts`` for
    an engine that keeps no running tally (``property(output_tally)``)."""
    output_for = sim._output_for
    tally: Counter[str] = Counter()
    for sid, count in sim.state_id_counts().items():
        tally[output_for(sid)] += count
    return tally


def run(
    sim,
    max_steps: int,
    until: Callable[[EngineSurface], bool] | None = None,
    check_every: int = 1,
) -> int:
    """Run up to ``max_steps`` further steps; stop early when ``until``
    fires.  Every solo engine binds this as its ``run`` method.

    Returns the steps executed in this call.  ``until`` is polled
    before the first step and then after every ``check_every`` steps
    (and after the last, shorter segment) on the per-interaction
    engines, after every block on the block engine.  A simulator with
    a ``checkpointer`` offers it a save after every ``_advance``.
    """
    if until is not None and until(sim):
        return 0
    advance = sim._advance
    checkpointer = getattr(sim, "checkpointer", None)
    segment = max_steps if until is None or sim.BLOCK_ENGINE else check_every
    executed = 0
    while executed < max_steps:
        executed += advance(min(segment, max_steps - executed), None)
        if checkpointer is not None:
            checkpointer.maybe_save(sim)
        if until is not None and until(sim):
            break
    return executed
