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

import numpy as np

from repro.engine.convergence import run_until_stabilized, step_to_leader_target
from repro.engine.fenwick import FenwickTree
from repro.engine.protocol import Protocol
from repro.engine.surface import EngineSurface, run
from repro.telemetry.core import cache_summary

__all__ = ["DRAW_BATCH_SIZE", "MultisetSimulator"]

#: Scheduler draws consumed from the generator per refill: first a block
#: of initiator tickets in ``[0, n)``, then responder tickets in
#: ``[0, n-1)``.  The ensemble engine replays exactly this consumption
#: pattern per lane, which is what makes its lanes bit-identical to solo
#: :class:`MultisetSimulator` runs — change it only in lockstep with
#: :mod:`repro.engine.ensemble`.
DRAW_BATCH_SIZE = 16384


class MultisetSimulator(EngineSurface):
    """Execute a protocol on the multiset-of-states representation."""

    ENGINE_NAME = "multiset"

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
        super().__init__(protocol, n, seed, cache_entries, use_kernel, telemetry)
        #: Interactions that resolved to a no-op pair.  Counted
        #: unconditionally (one int add on the null branch) so the
        #: stored telemetry summary never depends on the telemetry
        #: switch — see DESIGN.md Section 8.
        self.null_steps = 0
        self.steps = 0
        self._rng = np.random.default_rng(seed)
        self._batch_size = batch_size
        self._first_draws: list[int] = []
        self._second_draws: list[int] = []
        self._cursor = 0
        self._counts: dict[int, int] = {}
        self._fenwick = FenwickTree()
        self.load_counts({protocol.initial_state(): n})

    # ------------------------------------------------------------------
    # configuration access
    # ------------------------------------------------------------------

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present (a copy)."""
        return Counter(self._counts)

    def _load_ids(self, by_id: dict[int, int]) -> None:
        fenwick = self._fenwick
        for sid, count in self._counts.items():
            fenwick.add(sid, -count)
        self._counts = dict(by_id)
        output_for = self._output_for
        self.output_counts = Counter()
        for sid, count in by_id.items():
            fenwick.add(sid, count)
            self.output_counts[output_for(sid)] += count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

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

    #: Stabilization through the shared driver
    #: (:func:`repro.engine.convergence.run_until_stabilized`), advanced
    #: one ``step()`` at a time.
    _advance = step_to_leader_target
    run = run
    run_until_stabilized = run_until_stabilized

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        return {
            "engine": "multiset",
            "path": "fenwick",
            "steps": self.steps,
            "null_steps": self.null_steps,
            "cache": cache_summary(self.cache.stats),
        }
