"""Kernel-backed scalar engine for the multiset chain.

:class:`KernelMultisetSimulator` is what ``engine="multiset"`` builds
when the protocol compiles a kernel.  It runs the **exact** chain of
:class:`~repro.engine.multiset.MultisetSimulator` — same PCG64 draw
stream, same refill pattern, same count-ordered inverse-CDF ticket
mapping, same interning order, byte-identical trajectories and
stabilization step counts (pinned by ``tests/engine/test_kernel.py``) —
on the sorted-slot loop of :class:`~repro.engine.ensemble.lane.SlotLane`.

The engine is a :class:`SlotLane` in a
:class:`~repro.engine.ensemble.lane.LaneCell` of its own, over the
engine's :class:`~repro.engine.kernel.cache.KernelTransitionCache`: the
lane's state ids are this engine's interner ids, transitions are filled
on first sight by vectorized kernel row fills (never a Python
``delta``), and leader counting uses the kernel's ``leader`` feature,
so ``output()`` is never called in the loop.  This class adds the full
``MultisetSimulator`` surface — ``step``/``run``/
``run_until_stabilized`` with predicates, ``load_counts``, count and
output accessors, the phase series and the telemetry summary — so it is
a drop-in engine for trials, campaigns and experiments.

Both multiset engines drive stabilization through the shared
:func:`~repro.engine.convergence.run_to_leader_target`, so they poll the
phase series at the same steps and store byte-identical ``phases``.

With ``weights`` (a symbol -> weight map) the lane realizes a
state-weighted schedule by proposal thinning, exactly as
:class:`~repro.schedulers.weighted.WeightedMultisetSimulator` does on
the Fenwick tree: the same draws in the same order, so steps, leader
counts, distinct states and phase series are byte-identical to that
engine's (see :meth:`SlotLane._run_python`).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping

from repro.engine.convergence import run_until_stabilized
from repro.engine.ensemble.lane import SlotLane
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.engine.protocol import Protocol, State
from repro.errors import SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.probe import make_phase_series
from repro.telemetry.profile import StageProfile

__all__ = ["KernelMultisetSimulator"]


class KernelMultisetSimulator:
    """Execute a kernel protocol on the sorted-slot multiset chain."""

    ENGINE_NAME = "multiset"
    BLOCK_ENGINE = False

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        cache_entries: int = 1 << 20,
        batch_size: int = DRAW_BATCH_SIZE,
        telemetry: bool | None = None,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got n={n}")
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self._telemetry = telemetry
        # Stage profile (gated) and phase series (deterministic tier,
        # always on): see DESIGN.md Section 9.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        self.phase_series = make_phase_series(protocol, n)
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries, use_kernel=True
        )
        self.cache.profile = self._profile
        self._lane = SlotLane(
            protocol,
            n,
            seed,
            cache=self.cache,
            weights=weights,
            batch_size=batch_size,
        )

    # ------------------------------------------------------------------
    # configuration access (the MultisetSimulator surface)
    # ------------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Interactions executed so far."""
        return self._lane.steps

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self._lane.lead

    @property
    def parallel_time(self) -> float:
        """Steps executed divided by ``n``."""
        return self.steps / self.n

    @property
    def output_counts(self) -> Counter[str]:
        """Output tally, derived on demand from the slot boundaries."""
        output = self.protocol.output
        state_of = self.interner.state_of
        tally: Counter[str] = Counter()
        for sid, count in self.state_id_counts().items():
            tally[output(state_of(sid))] += count
        return tally

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present (a copy)."""
        counts: Counter[int] = Counter()
        previous = 0
        for sid, boundary in enumerate(self._lane.prefix):
            count = boundary - previous
            previous = boundary
            if count:
                counts[sid] = count
        return counts

    def state_counts(self) -> Counter[State]:
        """Multiset of decoded states currently present."""
        return self._lane.state_counts()

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        prefix = self._lane.prefix
        sid = self.interner.id_of(state)
        if sid is None or sid >= len(prefix):
            # Detectors probing the shared cache can intern states the
            # configuration has never held; their count is simply 0.
            return 0
        previous = prefix[sid - 1] if sid else 0
        return prefix[sid] - previous

    def load_counts(self, counts: dict[State, int]) -> None:
        """Replace the configuration with an explicit state multiset."""
        total = sum(counts.values())
        if total != self.n:
            raise SimulationError(
                f"configuration counts sum to {total}, expected n={self.n}"
            )
        if any(count < 0 for count in counts.values()):
            raise SimulationError("configuration counts must be non-negative")
        by_id: dict[int, int] = {}
        for state, count in counts.items():
            if count == 0:
                continue
            sid = self.interner.intern(state)
            by_id[sid] = by_id.get(sid, 0) + count
        self._lane.load_ids(by_id)

    def distinct_states_seen(self) -> int:
        """Number of distinct states interned so far."""
        return len(self.interner)

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        lane = self._lane
        summary = {
            "engine": "multiset",
            "path": "kernel",
            "steps": lane.steps,
            "null_steps": lane.null_steps,
            "pair_interns": lane.pair_interns,
            "cache": cache_summary(self.cache.stats),
        }
        if lane.cell.weights is not None:
            summary["scheduler"] = "weighted"
        return summary

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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> tuple[int, int, int, int]:
        """Execute one interaction; returns (pre0, pre1, post0, post1) ids."""
        return self._lane.step()

    def _advance(self, max_steps: int, leader_target: int | None) -> int:
        """Up to ``max_steps`` interactions, stopping early at the first
        whose leader count hits ``leader_target``."""
        return self._lane._run_python(max_steps, leader_target)

    def run(
        self,
        max_steps: int,
        until: Callable[["KernelMultisetSimulator"], bool] | None = None,
        check_every: int = 1,
    ) -> int:
        """Run up to ``max_steps`` steps; stop early when ``until`` fires."""
        if until is None:
            return self._advance(max_steps, None)
        if until(self):
            return 0
        executed = 0
        while executed < max_steps:
            executed += self._advance(
                min(check_every, max_steps - executed), None
            )
            if until(self):
                break
        return executed

    #: The shared driver (:func:`repro.engine.convergence.run_until_stabilized`).
    run_until_stabilized = run_until_stabilized
