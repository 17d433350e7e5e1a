"""Count-based (multiset) simulation engine.

Agents in the population protocol model are anonymous, so a configuration
is fully described by the multiset of states — a map ``state -> count``.
:class:`MultisetSimulator` exploits this: it samples the ordered interaction
pair directly from the state counts (first the initiator's state with
probability proportional to its count, then the responder's state from the
remaining ``n - 1`` agents) using a Fenwick tree for ``O(log k)`` inverse-
CDF sampling, where ``k`` is the number of distinct states present.

Per-step cost is therefore independent of ``n``.  This is the engine that
makes the paper's large-``n`` stabilization sweeps (Theorem 1, Table 1)
tractable in pure Python — the known pain point of naive simulators.

The induced process on configurations is exactly the one induced by the
uniformly random scheduler on identified agents; the two engines agree in
distribution (tested statistically in ``tests/engine/test_engines_agree``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from repro.engine.convergence import run_until_stabilized, step_to_leader_target
from repro.engine.fenwick import FenwickTree
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.probe import make_phase_series
from repro.telemetry.profile import StageProfile

__all__ = ["DRAW_BATCH_SIZE", "MultisetSimulator"]

#: Scheduler draws consumed from the generator per refill: first a block
#: of initiator tickets in ``[0, n)``, then responder tickets in
#: ``[0, n-1)``.  The ensemble engine replays exactly this consumption
#: pattern per lane, which is what makes its lanes bit-identical to solo
#: :class:`MultisetSimulator` runs — change it only in lockstep with
#: :mod:`repro.engine.ensemble`.
DRAW_BATCH_SIZE = 16384


class MultisetSimulator:
    """Execute a protocol on the multiset-of-states representation."""

    ENGINE_NAME = "multiset"
    BLOCK_ENGINE = False

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        cache_entries: int = 1 << 20,
        batch_size: int = DRAW_BATCH_SIZE,
        use_kernel: bool | None = None,
        telemetry: bool | None = None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got n={n}")
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self._telemetry = telemetry
        #: Interactions that resolved to a no-op pair.  Counted
        #: unconditionally (one int add on the null branch) so the
        #: stored telemetry summary never depends on the telemetry
        #: switch — see DESIGN.md Section 8.
        self.null_steps = 0
        # Stage profile (gated) and phase series (deterministic tier,
        # always on): see DESIGN.md Section 9.  The scalar engine's only
        # profiled stage is the kernel cache's pair-table fill.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        self.phase_series = make_phase_series(protocol, n)
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries, use_kernel=use_kernel
        )
        if hasattr(self.cache, "profile"):
            self.cache.profile = self._profile
        self.steps = 0
        self._rng = np.random.default_rng(seed)
        self._batch_size = batch_size
        self._first_draws: list[int] = []
        self._second_draws: list[int] = []
        self._cursor = 0
        self._output_of_id: list[str] = []
        self._counts: dict[int, int] = {}
        self._fenwick = FenwickTree()
        initial_id = self.interner.intern(protocol.initial_state())
        self._counts[initial_id] = n
        self._fenwick.add(initial_id, n)
        self.output_counts: Counter[str] = Counter()
        self.output_counts[self._output_for(initial_id)] = n

    # ------------------------------------------------------------------
    # configuration access
    # ------------------------------------------------------------------

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self.output_counts.get(LEADER, 0)

    @property
    def parallel_time(self) -> float:
        """Steps executed divided by ``n``."""
        return self.steps / self.n

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present (a copy)."""
        return Counter(self._counts)

    def state_counts(self) -> Counter[State]:
        """Multiset of decoded states currently present."""
        state_of = self.interner.state_of
        return Counter({state_of(sid): c for sid, c in self._counts.items()})

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        sid = self.interner.id_of(state)
        if sid is None:
            return 0
        return self._counts.get(sid, 0)

    def load_counts(self, counts: dict[State, int]) -> None:
        """Replace the configuration with an explicit state multiset."""
        total = sum(counts.values())
        if total != self.n:
            raise SimulationError(
                f"configuration counts sum to {total}, expected n={self.n}"
            )
        if any(count < 0 for count in counts.values()):
            raise SimulationError("configuration counts must be non-negative")
        for sid, count in list(self._counts.items()):
            self._fenwick.add(sid, -count)
        self._counts = {}
        for state, count in counts.items():
            if count == 0:
                continue
            sid = self.interner.intern(state)
            self._counts[sid] = self._counts.get(sid, 0) + count
            self._fenwick.add(sid, count)
        output_for = self._output_for
        self.output_counts = Counter()
        for sid, count in self._counts.items():
            self.output_counts[output_for(sid)] += count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _output_for(self, sid: int) -> str:
        table = self._output_of_id
        if sid >= len(table):
            interner = self.interner
            output = self.protocol.output
            for missing in range(len(table), len(interner)):
                table.append(output(interner.state_of(missing)))
        return table[sid]

    def _refill_draws(self) -> None:
        size = self._batch_size
        self._first_draws = self._rng.integers(0, self.n, size=size).tolist()
        self._second_draws = self._rng.integers(0, self.n - 1, size=size).tolist()
        self._cursor = 0

    def _propose(self) -> tuple[int, int]:
        """The next ordered (initiator, responder) state pair.

        Leaves the initiator out of the Fenwick tree, as the responder
        draw requires; :meth:`step` settles the counts."""
        cursor = self._cursor
        if cursor >= len(self._first_draws):
            self._refill_draws()
            cursor = 0
        self._cursor = cursor + 1
        fenwick = self._fenwick
        # Initiator's state: weighted by count over all n agents.
        pre0 = fenwick.find(self._first_draws[cursor])
        # Responder's state: weighted over the remaining n - 1 agents.
        fenwick.add(pre0, -1)
        return pre0, fenwick.find(self._second_draws[cursor])

    def step(self) -> tuple[int, int, int, int]:
        """Execute one interaction; returns (pre0, pre1, post0, post1) ids."""
        pre0, pre1 = self._propose()
        fenwick = self._fenwick
        post0, post1 = self.cache.apply(pre0, pre1)
        self.steps += 1
        if post0 == pre0 and post1 == pre1:
            self.null_steps += 1
            fenwick.add(pre0, 1)  # revert the temporary removal
            return pre0, pre1, post0, post1
        fenwick.add(pre1, -1)
        fenwick.add(post0, 1)
        fenwick.add(post1, 1)
        counts = self._counts
        for sid in (pre0, pre1):
            remaining = counts[sid] - 1
            if remaining:
                counts[sid] = remaining
            else:
                del counts[sid]
        counts[post0] = counts.get(post0, 0) + 1
        counts[post1] = counts.get(post1, 0) + 1
        output_counts = self.output_counts
        output_for = self._output_for
        for pre in (pre0, pre1):
            symbol = output_for(pre)
            remaining = output_counts[symbol] - 1
            if remaining:
                output_counts[symbol] = remaining
            else:
                del output_counts[symbol]  # keep the tally zero-free
        output_counts[output_for(post0)] += 1
        output_counts[output_for(post1)] += 1
        return pre0, pre1, post0, post1

    def run(
        self,
        max_steps: int,
        until: Callable[["MultisetSimulator"], bool] | None = None,
        check_every: int = 1,
    ) -> int:
        """Run up to ``max_steps`` steps; stop early when ``until`` fires."""
        executed = 0
        step = self.step
        if until is not None and until(self):
            return 0
        while executed < max_steps:
            step()
            executed += 1
            if until is not None and executed % check_every == 0 and until(self):
                break
        return executed

    #: Stabilization through the shared driver
    #: (:func:`repro.engine.convergence.run_until_stabilized`), advanced
    #: one ``step()`` at a time.
    _advance = step_to_leader_target
    run_until_stabilized = run_until_stabilized

    def distinct_states_seen(self) -> int:
        """Number of distinct states interned so far."""
        return len(self.interner)

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        return {
            "engine": "multiset",
            "path": "fenwick",
            "steps": self.steps,
            "null_steps": self.null_steps,
            "cache": cache_summary(self.cache.stats),
        }

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
