"""Count-vector simulation engine advancing many interactions per call.

:class:`BatchSimulator` is the third engine.  Like
:class:`~repro.engine.multiset.MultisetSimulator` it works on the
count-vector representation, but instead of sampling one interaction at a
time in Python it advances the chain a *block* at a time with vectorized
NumPy sampling:

1. draw a block of ordered (initiator, responder) agent-index pairs
   exactly as the sequential scheduler would
   (:func:`~repro.engine.batch.sampling.draw_interaction_pairs`);
2. cut the block at the first repeated agent — the birthday collision,
   expected after ``Theta(sqrt(n))`` picks — so every agent in the
   remaining prefix is distinct
   (:func:`~repro.engine.batch.sampling.first_collision`);
3. draw the prefix agents' states in one multivariate-hypergeometric shot
   over the current counts and assign them to pick slots uniformly
   (:func:`~repro.engine.batch.sampling.sample_block_states`);
4. apply transitions groupwise — one memoized
   :class:`~repro.engine.cache.TransitionCache` lookup per *distinct*
   ordered state pair in the block — and update the count vector and
   output tallies in bulk;
5. execute the colliding interaction individually: a repeated agent's
   state is its post-state from the prefix, a fresh agent's state is a
   weighted draw from the untouched remainder.

The composition is distribution-faithful to the sequential uniform
scheduler (the count process is the same Markov chain; see DESIGN.md),
which the tier-1 suite checks statistically with KS tests against the
other engines.  Near stabilization, when most pairs are no-ops, a
geometric fast path skips entire runs of null interactions: it computes
the exact probability that a scheduler pick is a null pair, advances the
step counter by a Geometric draw, and applies one weighted non-null
interaction — still exact, but O(1) blocks instead of O(1) interactions.

The engine has no per-interaction ``step()``; single-stepping is what the
other two engines are for.  Stabilization for
:class:`~repro.engine.convergence.MonotoneLeaderStabilization` is still
detected at the exact interaction: the block records per-interaction
leader-count deltas, locates the first interaction whose cumulative count
hits the target, and commits only the prefix up to it.  Generic ``until``
predicates are evaluated at block boundaries instead of every
``check_every`` steps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro.engine.batch.sampling import (
    draw_interaction_pairs,
    first_collision,
    sample_block_states,
)
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
    """How the batch engine spent its interactions."""

    blocks: int = 0
    block_steps: int = 0
    collision_steps: int = 0
    null_events: int = 0
    null_skipped_steps: int = 0
    #: Blocks cut short at an exact in-block leader-target hit (the
    #: birthday-block analogue of the super-batch engine's run
    #: truncation).
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

    @property
    def mean_block(self) -> float:
        """Average interactions committed per sampled block."""
        return self.block_steps / self.blocks if self.blocks else 0.0


class BatchSimulator:
    """Execute a protocol on counts, many interactions per NumPy block."""

    #: Engine name stamped into telemetry summaries and heartbeats
    #: (subclasses override).
    ENGINE_NAME = "batch"
    #: ``_advance`` returns after one block; the stabilization driver
    #: polls after every block.
    BLOCK_ENGINE = True

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        cache_entries: int = 1 << 20,
        block_pairs: int | None = None,
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
        if block_pairs is None:
            # The first collision lands after ~1.25 sqrt(n) picks in
            # expectation; 1.5 sqrt(n) pairs (3 sqrt(n) picks) captures
            # almost all of that mass without oversampling the tail.
            block_pairs = max(64, round(1.5 * math.sqrt(n)))
        self._block_pairs = block_pairs
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

    def _apply_pairs(
        self, pre0: np.ndarray, pre1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post-state ids for a slot-aligned block of ordered pre pairs.

        Delegates to :meth:`TransitionCache.apply_block`: one gather from
        the dense pair table while the state space is small, one lookup
        per distinct ordered pair beyond it.
        """
        out0, out1 = self.cache.apply_block(pre0, pre1)
        self._ensure_tables()
        return out0, out1

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

    def _advance_block(self, budget: int, leader_target: int | None) -> int:
        """Sample and apply one block of at most ``budget`` interactions.

        Returns the interactions applied.  A block whose leader count
        hits ``leader_target`` is truncated at the first hit, so
        ``self.steps`` is the true first-hit step.
        """
        pairs = min(self._block_pairs, budget)
        profile = self._profile
        with profile.stage("sample"):
            initiators, responders = draw_interaction_pairs(
                self._rng, self.n, pairs
            )
            free, collision_flat = first_collision(initiators, responders)
            use = min(free, budget)
            states = sample_block_states(
                self._rng, self._counts[: len(self.interner)], 2 * use
            )
            pre0 = states[0::2]
            pre1 = states[1::2]
        with profile.stage("apply"):
            post0, post1 = self._apply_pairs(pre0, pre1)
        reached = False
        if leader_target is not None:
            with profile.stage("detect"):
                marks = self._leader_mark
                deltas = (
                    marks[post0] + marks[post1] - marks[pre0] - marks[pre1]
                )
                if deltas.any():
                    cumulative = self.leader_count + np.cumsum(deltas)
                    hits = np.nonzero(cumulative == leader_target)[0]
                    if hits.size:
                        use = int(hits[0]) + 1
                        pre0, pre1 = pre0[:use], pre1[:use]
                        post0, post1 = post0[:use], post1[:use]
                        reached = True
                        self.stats.truncated_blocks += 1
        with profile.stage("commit"):
            self._commit(pre0, pre1, post0, post1)
        self.steps += use
        self.stats.blocks += 1
        self.stats.block_steps += use
        active = int(np.count_nonzero((post0 != pre0) | (post1 != pre1)))
        if reached:
            return use
        applied = use
        if collision_flat >= 0 and use == free and use < budget:
            applied += 1
            with profile.stage("commit"):
                collision_active = self._collision_step(
                    int(initiators[free]),
                    int(responders[free]),
                    initiators[:free],
                    responders[:free],
                    post0,
                    post1,
                )
            active += collision_active
            if (
                leader_target is not None
                and self.leader_count == leader_target
            ):
                return applied
        if active == 0 and applied >= 16:
            self._null_mode = True
        return applied

    def _collision_step(
        self,
        initiator_agent: int,
        responder_agent: int,
        block_initiators: np.ndarray,
        block_responders: np.ndarray,
        post0: np.ndarray,
        post1: np.ndarray,
    ) -> int:
        """Apply the interaction that ended the block; returns 1 if active.

        At least one of its two agents already interacted in the block, so
        its state is the post-state it was left in; a fresh agent's state
        is a weighted draw from the untouched remainder of the population
        (current counts minus the block's post-states).
        """

        def touched_state(agent: int) -> int | None:
            hits = np.nonzero(block_initiators == agent)[0]
            if hits.size:
                return int(post0[hits[0]])
            hits = np.nonzero(block_responders == agent)[0]
            if hits.size:
                return int(post1[hits[0]])
            return None

        pre_initiator = touched_state(initiator_agent)
        pre_responder = touched_state(responder_agent)
        if pre_initiator is None or pre_responder is None:
            pool = self._counts.copy()
            size = pool.shape[0]
            pool -= np.bincount(post0, minlength=size)
            pool -= np.bincount(post1, minlength=size)
            if pre_initiator is None:
                pre_initiator = self._draw_one(pool)
                pool[pre_initiator] -= 1
            if pre_responder is None:
                pre_responder = self._draw_one(pool)
        return self._apply_single(pre_initiator, pre_responder)

    def _apply_single(self, pre_initiator: int, pre_responder: int) -> int:
        """Resolve and commit one individually executed interaction.

        The shared tail of both block engines' collision steps: one
        cache lookup, step/collision accounting, and the count +
        leader-tally update.  Returns 1 when a state changed, 0 for a
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
    #: blocks are truncated at the first interaction hitting the target.
    run_until_stabilized = run_until_stabilized
