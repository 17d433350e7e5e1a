"""Count-vector base of the block engine.

:class:`BatchSimulator` holds what the count-level
:class:`~repro.engine.superbatch.SuperBatchSimulator` runs on: the count
vector and its id-indexed side tables (outputs, leader marks), bulk and
single-interaction commits with an incrementally tracked leader count,
the exact geometric null-run fast path, checkpoints, telemetry and the
budgeted ``run`` loop.  It samples nothing itself: a subclass supplies
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
from typing import Callable

import numpy as np

from repro.engine.convergence import run_until_stabilized
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.probe import make_phase_series
from repro.telemetry.profile import StageProfile

__all__ = ["BatchSimulator", "BatchStats"]


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


class BatchSimulator:
    """Count vector, commits, null-run skip, checkpoints and ``run`` for
    a block engine; subclasses supply ``_advance_block``."""

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
        null_scan_limit: int = 64,
        use_kernel: bool | None = None,
        telemetry: bool | None = None,
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
        self.steps = 0
        self.stats = BatchStats()
        self._rng = np.random.default_rng(seed)
        #: Optional :class:`~repro.faults.checkpoint.TrialCheckpointer`
        #: attached by the measurement layer; polled at block
        #: boundaries.  ``None`` (the default) costs one branch per
        #: block.
        self.checkpointer = None
        self._null_scan_limit = null_scan_limit
        self._null_mode = False
        self._counts = np.zeros(16, dtype=np.int64)
        self._output_of_id: list[str] = []
        self._leader_mark = np.zeros(16, dtype=np.int64)
        initial_id = self.interner.intern(protocol.initial_state())
        self._ensure_tables()
        self._counts[initial_id] = n
        self._lead = int(self._leader_mark[initial_id]) * n

    # ------------------------------------------------------------------
    # configuration access (same surface as MultisetSimulator)
    # ------------------------------------------------------------------

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self._lead

    @property
    def output_counts(self) -> Counter[str]:
        """Output tally, derived on demand from the count vector.

        Kept as a property (rather than a Counter maintained per block)
        so commits stay fully vectorized; the leader count — the one
        output engines poll every block — is tracked incrementally in
        ``leader_count`` instead.
        """
        tally: Counter[str] = Counter()
        table = self._output_of_id
        for sid in np.nonzero(self._counts)[0].tolist():
            tally[table[sid]] += int(self._counts[sid])
        return tally

    @property
    def parallel_time(self) -> float:
        """Steps executed divided by ``n``."""
        return self.steps / self.n

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present (a copy)."""
        present = np.nonzero(self._counts)[0]
        return Counter(
            {int(sid): int(self._counts[sid]) for sid in present}
        )

    def state_counts(self) -> Counter[State]:
        """Multiset of decoded states currently present."""
        state_of = self.interner.state_of
        return Counter(
            {state_of(sid): count for sid, count in self.state_id_counts().items()}
        )

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        sid = self.interner.id_of(state)
        if sid is None:
            return 0
        return int(self._counts[sid])

    def load_counts(self, counts: dict[State, int]) -> None:
        """Replace the configuration with an explicit state multiset."""
        total = sum(counts.values())
        if total != self.n:
            raise SimulationError(
                f"configuration counts sum to {total}, expected n={self.n}"
            )
        if any(count < 0 for count in counts.values()):
            raise SimulationError("configuration counts must be non-negative")
        self._counts[:] = 0
        for state, count in counts.items():
            if count == 0:
                continue
            sid = self.interner.intern(state)
            self._ensure_tables()
            self._counts[sid] += count
        size = self._counts.shape[0]
        self._lead = int((self._counts * self._leader_mark[:size]).sum())
        self._null_mode = False

    def distinct_states_seen(self) -> int:
        """Number of distinct states interned so far."""
        return len(self.interner)

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        return {
            "engine": self.ENGINE_NAME,
            "steps": self.steps,
            "stats": asdict(self.stats),
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
        self._ensure_tables()
        self._counts[:] = 0
        counts = payload["counts"]
        self._counts[: len(counts)] = counts
        size = self._counts.shape[0]
        self._lead = int((self._counts * self._leader_mark[:size]).sum())
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
        table = self._output_of_id
        if len(table) < known:
            output = self.protocol.output
            state_of = self.interner.state_of
            for sid in range(len(table), known):
                symbol = output(state_of(sid))
                table.append(symbol)
                if symbol == LEADER:
                    self._leader_mark[sid] = 1

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
        if present.shape[0] > self._null_scan_limit:
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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        max_steps: int,
        until: Callable[["BatchSimulator"], bool] | None = None,
        check_every: int = 1,
    ) -> int:
        """Run up to ``max_steps`` steps; stop early when ``until`` fires.

        ``until`` is evaluated between blocks rather than every
        ``check_every`` interactions (the parameter is accepted for
        interface parity); the step count never exceeds ``max_steps``.
        """
        executed = 0
        if until is not None and until(self):
            return 0
        while executed < max_steps:
            executed += self._advance(max_steps - executed, None)
            if self.checkpointer is not None:
                self.checkpointer.maybe_save(self)
            if until is not None and until(self):
                break
        return executed

    #: The shared driver (:func:`repro.engine.convergence.run_until_stabilized`);
    #: with the default detector the returned step count is exact, since
    #: ``_advance_block`` cuts a block at the first interaction hitting
    #: the target.
    run_until_stabilized = run_until_stabilized
