"""Count-vector base of the block engine.

:class:`BatchSimulator` holds what the count-level
:class:`~repro.engine.superbatch.SuperBatchSimulator` runs on: the count
vector and its leader marks, bulk and single-interaction commits with
an incrementally tracked leader count, the exact geometric null-run
fast path and checkpoints.  It samples nothing itself: a subclass supplies
``_advance_block(budget, leader_target)``, one sampled block of at most
``budget`` interactions, cut at the first interaction whose leader count
hits ``leader_target``.

Near stabilization, when most pairs are no-ops, the geometric fast path
skips entire runs of null interactions: it computes the exact
probability that a scheduler pick is a null pair, advances the step
counter by a Geometric draw, and applies one weighted non-null
interaction — still exact, but O(1) blocks instead of O(1)
interactions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from repro.engine.convergence import run_until_stabilized
from repro.engine.protocol import LEADER, Protocol
from repro.engine.surface import EngineSurface, output_tally, run
from repro.telemetry.core import cache_summary

__all__ = ["BatchSimulator", "BatchStats", "NULL_SCAN_LIMIT"]

#: The geometric null fast path scans every ordered pair of present
#: states; past this many present states it leaves the work to blocks.
NULL_SCAN_LIMIT = 64


@dataclass
class BatchStats:
    """How a block engine spent its interactions."""

    blocks: int = 0
    block_steps: int = 0
    collision_steps: int = 0
    null_events: int = 0
    null_skipped_steps: int = 0
    #: Kept so stored telemetry and checkpoints keep their shape; the
    #: super-batch engine counts its cut runs in ``truncated_runs``.
    truncated_blocks: int = 0

    @property
    def total_steps(self) -> int:
        """All interactions accounted for: blocks, collisions, the null
        runs the geometric path skipped, and its non-null events."""
        return (
            self.block_steps
            + self.collision_steps
            + self.null_skipped_steps
            + self.null_events
        )


class BatchSimulator(EngineSurface):
    """Count vector, commits, null-run skip and checkpoints for a block
    engine; subclasses supply ``_advance_block``."""

    # Subclasses set ``ENGINE_NAME``, the name stamped into telemetry
    # summaries, heartbeats and checkpoints.

    #: ``_advance`` returns after one block; the stabilization driver
    #: polls after every block.
    BLOCK_ENGINE = True

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        cache_entries: int = 1 << 20,
        use_kernel: bool | None = None,
        telemetry: bool | None = None,
    ) -> None:
        super().__init__(protocol, n, seed, cache_entries, use_kernel, telemetry)
        self.steps = 0
        self.stats = BatchStats()
        self._rng = np.random.default_rng(seed)
        #: Optional :class:`~repro.faults.checkpoint.TrialCheckpointer`
        #: attached by the measurement layer; polled at block
        #: boundaries.  ``None`` (the default) costs one branch per
        #: block.
        self.checkpointer = None
        self._null_mode = False
        self._counts = np.zeros(16, dtype=np.int64)
        self._leader_mark = np.zeros(16, dtype=np.int64)
        #: Ids whose ``_leader_mark`` entry is set.
        self._marked = 0
        self.load_counts({protocol.initial_state(): n})

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self._lead

    #: Derived on demand from the count vector rather than maintained
    #: per block, so commits stay fully vectorized; the leader count —
    #: the one output engines poll every block — is tracked
    #: incrementally in ``leader_count`` instead.
    output_counts = property(output_tally)

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present (a copy)."""
        present = np.nonzero(self._counts)[0]
        return Counter(
            {int(sid): int(self._counts[sid]) for sid in present}
        )

    def _load_ids(self, by_id: dict[int, int]) -> None:
        self._ensure_tables()
        self._counts[:] = 0
        for sid, count in by_id.items():
            self._counts[sid] = count
        size = self._counts.shape[0]
        self._lead = int((self._counts * self._leader_mark[:size]).sum())
        self._null_mode = False

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        return {
            "engine": self.ENGINE_NAME,
            "steps": self.steps,
            "stats": asdict(self.stats),
            "cache": cache_summary(self.cache.stats),
        }

    # ------------------------------------------------------------------
    # checkpoint round-trip (in-trial resume; see repro.faults.checkpoint)
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Everything a resumed run needs to continue *bit-identically*.

        States travel decoded, in intern order, so the restoring process
        re-interns them into the same ids (the transition cache, side
        tables and kernel mirrors rebuild lazily from there).  The RNG
        generator state is the payload's heart: restoring it makes the
        continued trajectory indistinguishable from the uninterrupted
        one.
        """
        known = len(self.interner)
        state_of = self.interner.state_of
        series = self.phase_series
        return {
            "steps": self.steps,
            "states": [state_of(sid) for sid in range(known)],
            "counts": self._counts[:known].tolist(),
            "rng": self._rng.bit_generator.state,
            "null_mode": self._null_mode,
            "stats": asdict(self.stats),
            "phases": None if series is None else series.state_dict(),
        }

    def restore_state(self, payload: dict) -> None:
        """Resume from a :meth:`checkpoint_state` snapshot."""
        for state in payload["states"]:
            self.interner.intern(state)
        self._load_ids(dict(enumerate(payload["counts"])))
        self.steps = int(payload["steps"])
        self._null_mode = bool(payload["null_mode"])
        self.stats = type(self.stats)(**payload["stats"])
        self._rng.bit_generator.state = payload["rng"]
        if self.phase_series is not None and payload["phases"] is not None:
            self.phase_series.load_state(payload["phases"])

    # ------------------------------------------------------------------
    # id-indexed side tables
    # ------------------------------------------------------------------

    def _ensure_tables(self) -> None:
        """Grow the id-indexed arrays to cover every interned state."""
        known = len(self.interner)
        capacity = self._counts.shape[0]
        if known > capacity:
            while capacity < known:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._counts.shape[0]] = self._counts
            self._counts = grown
            grown_marks = np.zeros(capacity, dtype=np.int64)
            grown_marks[: self._leader_mark.shape[0]] = self._leader_mark
            self._leader_mark = grown_marks
        if self._marked < known:
            output_for = self._output_for
            marks = self._leader_mark
            for sid in range(self._marked, known):
                marks[sid] = output_for(sid) == LEADER
            self._marked = known

    # ------------------------------------------------------------------
    # block execution
    # ------------------------------------------------------------------

    def _commit(
        self,
        pre0: np.ndarray,
        pre1: np.ndarray,
        post0: np.ndarray,
        post1: np.ndarray,
    ) -> None:
        """Bulk-update counts and the leader tally for applied interactions."""
        size = self._counts.shape[0]
        removed = np.bincount(pre0, minlength=size)
        removed += np.bincount(pre1, minlength=size)
        added = np.bincount(post0, minlength=size)
        added += np.bincount(post1, minlength=size)
        net = added - removed
        changed = np.nonzero(net)[0]
        if not changed.size:
            return
        self._counts[changed] += net[changed]
        self._lead += int((net[changed] * self._leader_mark[changed]).sum())

    def _draw_one(self, pool: np.ndarray) -> int:
        """One state id drawn with probability proportional to ``pool``."""
        cumulative = np.cumsum(pool)
        ticket = int(self._rng.integers(0, int(cumulative[-1])))
        return int(np.searchsorted(cumulative, ticket, side="right"))

    def _apply_single(self, pre_initiator: int, pre_responder: int) -> int:
        """Resolve and commit one individually executed interaction.

        The tail of a block's collision replay: one cache lookup,
        step/collision accounting, and the count + leader-tally update.  Returns 1 when a state changed, 0 for a
        no-op.
        """
        post_initiator, post_responder = self.cache.apply(
            pre_initiator, pre_responder
        )
        self._ensure_tables()
        self.steps += 1
        self.stats.collision_steps += 1
        if (post_initiator, post_responder) == (pre_initiator, pre_responder):
            return 0
        counts = self._counts
        counts[pre_initiator] -= 1
        counts[pre_responder] -= 1
        counts[post_initiator] += 1
        counts[post_responder] += 1
        marks = self._leader_mark
        self._lead += int(
            marks[post_initiator]
            + marks[post_responder]
            - marks[pre_initiator]
            - marks[pre_responder]
        )
        return 1

    # ------------------------------------------------------------------
    # geometric null fast path
    # ------------------------------------------------------------------

    #: Leave the geometric path when non-null pairs carry more than this
    #: fraction of scheduler probability; block sampling is cheaper then.
    _NULL_EXIT = 1.0 / 64.0

    def _null_skip(self, budget: int) -> int | None:
        """Skip a Geometric run of null interactions, apply one non-null.

        Exact: with ``p`` the probability that a scheduler pick is a
        non-null ordered state pair (computed from current counts), the
        number of steps up to and including the next non-null interaction
        is Geometric(``p``), and the non-null pair itself is drawn with
        probability proportional to its pair weight.  Returns ``None``
        when the configuration is too active (or too wide) for the scan
        to pay off — the caller falls back to block sampling.
        """
        known = len(self.interner)
        counts = self._counts[:known]
        present = np.nonzero(counts)[0]
        if present.shape[0] > NULL_SCAN_LIMIT:
            return None
        # The whole present x present scan goes through the cache's
        # block interface in one shot — a single gather on the kernel
        # path (or the dense mirror), instead of one Python lookup per
        # ordered pair.  Pair order matches the historical nested loop
        # (row-major over ascending present ids), so the weighted ticket
        # below lands on the same pair.
        pairs0 = np.repeat(present, present.shape[0])
        pairs1 = np.tile(present, present.shape[0])
        eligible = (pairs0 != pairs1) | (counts[pairs0] >= 2)
        pairs0, pairs1 = pairs0[eligible], pairs1[eligible]
        post0s, post1s = self.cache.apply_block(pairs0, pairs1)
        self._ensure_tables()
        active = (post0s != pairs0) | (post1s != pairs1)
        if not active.any():
            # Silent configuration: every remaining interaction is a no-op.
            self.steps += budget
            self.stats.null_skipped_steps += budget
            return budget
        active0 = pairs0[active]
        active1 = pairs1[active]
        weights = counts[active0] * counts[active1]
        same = active0 == active1
        weights[same] = counts[active0[same]] * (counts[active0[same]] - 1)
        active_weight = int(weights.sum())
        probability = active_weight / (self.n * (self.n - 1))
        if probability > self._NULL_EXIT:
            return None
        skip = int(self._rng.geometric(probability))
        if skip > budget:
            self.steps += budget
            self.stats.null_skipped_steps += budget
            return budget
        cumulative = np.cumsum(weights)
        ticket = int(self._rng.integers(0, active_weight))
        chosen = int(np.searchsorted(cumulative, ticket, side="right"))
        pre0 = int(active0[chosen])
        pre1 = int(active1[chosen])
        post0 = int(post0s[active][chosen])
        post1 = int(post1s[active][chosen])
        self.steps += skip
        self.stats.null_skipped_steps += skip - 1
        self.stats.null_events += 1
        self._commit(
            np.array([pre0]),
            np.array([pre1]),
            np.array([post0]),
            np.array([post1]),
        )
        return skip

    def _advance(self, budget: int, leader_target: int | None) -> int:
        """One scheduling decision — geometric fast path or sampled
        block — of at most ``budget`` interactions; returns how many ran.
        A block that hits ``leader_target`` is cut at the hit."""
        if self._null_mode:
            with self._profile.stage("null"):
                skipped = self._null_skip(budget)
            if skipped is not None:
                return skipped
            self._null_mode = False
        return self._advance_block(budget, leader_target)

    run = run
    #: The shared driver (:func:`repro.engine.convergence.run_until_stabilized`);
    #: with the default detector the returned step count is exact, since
    #: ``_advance_block`` cuts a block at the first interaction hitting
    #: the target.
    run_until_stabilized = run_until_stabilized
