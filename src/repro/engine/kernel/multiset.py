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
so ``output()`` is never called in the loop.  The engine supplies
``state_id_counts`` (read off the slot boundaries) and ``_load_ids``;
the rest of its surface is :class:`~repro.engine.surface.EngineSurface`.

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
from typing import Mapping

from repro.engine.convergence import run_until_stabilized
from repro.engine.ensemble.lane import SlotLane
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.engine.protocol import Protocol
from repro.engine.surface import EngineSurface, output_tally, run
from repro.telemetry.core import cache_summary

__all__ = ["KernelMultisetSimulator"]


class KernelMultisetSimulator(EngineSurface):
    """Execute a kernel protocol on the sorted-slot multiset chain."""

    ENGINE_NAME = "multiset"

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
        super().__init__(protocol, n, seed, cache_entries, True, telemetry)
        self._lane = SlotLane(
            protocol,
            n,
            seed,
            cache=self.cache,
            weights=weights,
            batch_size=batch_size,
        )

    @property
    def steps(self) -> int:
        """Interactions executed so far."""
        return self._lane.steps

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self._lane.lead

    #: Derived on demand from the slot boundaries.
    output_counts = property(output_tally)

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present (a copy), in
        ascending id order."""
        counts: Counter[int] = Counter()
        previous = 0
        for sid, boundary in enumerate(self._lane.prefix):
            count = boundary - previous
            previous = boundary
            if count:
                counts[sid] = count
        return counts

    def _load_ids(self, by_id: dict[int, int]) -> None:
        self._lane.load_ids(by_id)

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

    run = run
    #: The shared driver (:func:`repro.engine.convergence.run_until_stabilized`).
    run_until_stabilized = run_until_stabilized
