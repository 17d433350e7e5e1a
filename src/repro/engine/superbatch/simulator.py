"""Count-level super-batch simulation engine.

:class:`SuperBatchSimulator` advances the chain a block at a time and is
*distribution-faithful* rather than bit-identical to the sequential
scheduler.  It never materializes the scheduler's agent picks:

1. the length of the collision-free run — the number of interactions
   before any agent repeats — is sampled directly from its exact
   birthday distribution
   (:func:`~repro.engine.superbatch.sampling.sample_run_length`);
2. the run resolves as a multiset of ordered (initiator, responder)
   *state pairs* drawn straight from the count vector via chained
   hypergeometric splits
   (:func:`~repro.engine.superbatch.sampling.sample_run_pairs`) and
   pushed through the compiled kernel's pair tables in one
   ``apply_block`` gather — per-block work scales with the number of
   distinct states present (worst case ``O(S^2)`` realized pairs), not
   with ``n``;
3. the colliding interaction is replayed individually *at the count
   level*: its touched participant's state is a weighted draw from the
   run's post-state multiset, a fresh participant's from the untouched
   remainder — no agent identities anywhere.

Exact in-block monotone-leader detection works in count space: when the
leader count can hit the detector's target inside a run, the run's pair
multiset is bisected with multivariate-hypergeometric prefix splits
(exchangeability makes the split exact) down to the single interaction
of first hit, so ``run_until_stabilized`` still returns the true
first-hit step.  The count vector, commits, the geometric null-run fast
path and checkpoints come from the count-level base
:class:`~repro.engine.batch.BatchSimulator`.

DESIGN.md Section 6 carries the faithfulness argument, enforced by KS
tests against the exact engines; determinism per seed holds because
every draw flows through the one generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.batch import BatchSimulator, BatchStats
from repro.engine.protocol import Protocol
from repro.engine.superbatch.sampling import (
    sample_run_length,
    sample_run_pairs,
    split_pair_multiset,
)

__all__ = ["SuperBatchSimulator", "SuperBatchStats"]


@dataclass
class SuperBatchStats(BatchStats):
    """Block accounting plus the super-batch sampling counters.

    ``blocks`` counts sampled runs, ``block_steps`` the interactions they
    committed, ``collision_steps`` the individually replayed colliding
    interactions; the null fields are the inherited geometric fast path.
    ``truncated_runs`` counts runs cut short at an exact leader-target
    hit.  The sampling counters profile the two places a run's cost can
    hide: ``bisection_iters`` accumulates ``lgamma`` survival-function
    evaluations across the run-length inversions (``bisection_calls`` of
    them), and ``residual_pairs`` counts the minority-minority pairs that
    had to be materialized and permutation-matched (``residual_runs``
    runs needed any).
    """

    truncated_runs: int = 0
    bisection_calls: int = 0
    bisection_iters: int = 0
    residual_runs: int = 0
    residual_pairs: int = 0


class SuperBatchSimulator(BatchSimulator):
    """Execute a protocol on counts, one collision-free run per block."""

    ENGINE_NAME = "superbatch"

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        cache_entries: int = 1 << 20,
        use_kernel: bool | None = None,
        telemetry: bool | None = None,
    ) -> None:
        super().__init__(
            protocol,
            n,
            seed=seed,
            cache_entries=cache_entries,
            use_kernel=use_kernel,
            telemetry=telemetry,
        )
        self.stats = SuperBatchStats()
        #: Longest collision-free prefix with positive probability: at
        #: ``n // 2`` interactions every agent is in play.
        self._run_cap = n // 2

    # ------------------------------------------------------------------
    # block execution
    # ------------------------------------------------------------------

    def _advance_block(self, budget: int, leader_target: int | None) -> int:
        """Sample and apply one collision-free run plus its collision.

        Returns the interactions applied: a run whose leader count hits
        ``leader_target`` ends at the first hit, so ``self.steps`` is the true first-hit step (runs
        are truncated by exchangeable prefix splits, see
        :meth:`_truncate_run`).
        """
        rng = self._rng
        limit = min(budget, self._run_cap)
        stats = self.stats
        profile = self._profile
        with profile.stage("sample"):
            length, collided = sample_run_length(
                rng, self.n, limit, stats=stats
            )
        active = 0
        applied = 0
        touched = None
        if length:
            counts = self._counts
            with profile.stage("sample"):
                support = np.nonzero(counts[: len(self.interner)])[0]
                pre0, pre1, weight = sample_run_pairs(
                    rng, support, counts[support], length, stats=stats
                )
            with profile.stage("apply"):
                post0, post1 = self.cache.apply_block(pre0, pre1)
            self._ensure_tables()
            marks = self._leader_mark
            deltas = (
                marks[post0] + marks[post1] - marks[pre0] - marks[pre1]
            )
            if leader_target is not None and deltas.any():
                with profile.stage("detect"):
                    truncated = self._truncate_run(
                        weight, deltas, self._lead, leader_target
                    )
                if truncated is not None:
                    prefix, steps = truncated
                    with profile.stage("commit"):
                        self._commit_weighted(
                            pre0, pre1, post0, post1, prefix
                        )
                    self.steps += steps
                    stats.blocks += 1
                    stats.block_steps += steps
                    stats.truncated_runs += 1
                    return steps
            with profile.stage("commit"):
                touched = self._commit_weighted(
                    pre0, pre1, post0, post1, weight
                )
            self.steps += length
            applied = length
            stats.blocks += 1
            stats.block_steps += length
            changed = (post0 != pre0) | (post1 != pre1)
            if changed.any():
                active = int(weight[changed].sum())
        if collided and applied < budget:
            applied += 1
            with profile.stage("commit"):
                active += self._replay_collision(2 * length, touched)
            if (
                leader_target is not None
                and self.leader_count == leader_target
            ):
                return applied
        if active == 0 and applied >= 16:
            self._null_mode = True
        return applied

    def _commit_weighted(
        self,
        pre0: np.ndarray,
        pre1: np.ndarray,
        post0: np.ndarray,
        post1: np.ndarray,
        weight: np.ndarray,
    ) -> np.ndarray:
        """Bulk-update counts and leader tally for a weighted pair multiset.

        Returns the committed post-state multiset (the block's *touched*
        agents), which the collision replay draws from.  The float64
        ``bincount`` accumulators are exact: weights and sums stay far
        inside the 2^53 integer range.
        """
        size = self._counts.shape[0]
        w = weight.astype(np.float64)
        removed = np.bincount(pre0, weights=w, minlength=size)
        removed += np.bincount(pre1, weights=w, minlength=size)
        added = np.bincount(post0, weights=w, minlength=size)
        added += np.bincount(post1, weights=w, minlength=size)
        net = (added - removed).astype(np.int64)
        changed = np.nonzero(net)[0]
        if changed.size:
            self._counts[changed] += net[changed]
            self._lead += int(
                (net[changed] * self._leader_mark[changed]).sum()
            )
        return added.astype(np.int64)

    # ------------------------------------------------------------------
    # exact in-run leader-target truncation
    # ------------------------------------------------------------------

    def _truncate_run(
        self,
        weight: np.ndarray,
        deltas: np.ndarray,
        lead: int,
        target: int,
    ) -> tuple[np.ndarray, int] | None:
        """Pair counts and length of the prefix ending at the first hit.

        The run's interactions occur in uniformly random order, so any
        prefix's pair multiset is a multivariate-hypergeometric split of
        the run's (:func:`split_pair_multiset`); bisecting with such
        splits narrows to the exact first interaction at which the
        cumulative leader count equals ``target``.  Returns ``None``
        when no prefix hits the target exactly (a hypothetical
        two-leader-loss interaction jumping the count past the target is
        no exact hit).
        """
        down = int((weight * np.minimum(deltas, 0)).sum())
        up = int((weight * np.maximum(deltas, 0)).sum())
        if not lead + down <= target <= lead + up:
            return None
        total = int(weight.sum())
        if total == 1:
            if lead + int((weight * deltas).sum()) == target:
                return weight, 1
            return None
        half = total // 2
        left = split_pair_multiset(self._rng, weight, half)
        found = self._truncate_run(left, deltas, lead, target)
        if found is not None:
            return found
        found = self._truncate_run(
            weight - left,
            deltas,
            lead + int((left * deltas).sum()),
            target,
        )
        if found is not None:
            prefix, steps = found
            return left + prefix, half + steps
        return None

    # ------------------------------------------------------------------
    # the colliding interaction, replayed on counts
    # ------------------------------------------------------------------

    def _replay_collision(
        self, touched_count: int, touched: np.ndarray | None
    ) -> int:
        """Apply the interaction that ended the run; returns 1 if active.

        At least one participant is *touched* — among the run's agents,
        whose states form the post multiset ``touched`` — so its state
        is a weighted draw from that multiset; a fresh participant's
        state is a weighted draw from the untouched remainder (current
        counts minus ``touched``).  Conditional on the first collision
        happening here, the (initiator, responder) touched pattern has
        weights ``t(n-t) : (n-t)t : t(t-1)`` with ``t`` the touched
        count — together the scheduler's full collision mass
        ``t(2n - t - 1)``.
        """
        rng = self._rng
        n = self.n
        t = touched_count
        cross = t * (n - t)
        ticket = int(rng.integers(0, t * (2 * n - t - 1)))
        if ticket < 2 * cross:
            # One touched participant, one fresh.
            touched_state = self._draw_one(touched)
            remainder = self._counts.copy()
            remainder[: touched.shape[0]] -= touched
            fresh_state = self._draw_one(remainder)
            if ticket < cross:
                pre_initiator, pre_responder = touched_state, fresh_state
            else:
                pre_initiator, pre_responder = fresh_state, touched_state
        else:
            pool = touched.copy()
            pre_initiator = self._draw_one(pool)
            pool[pre_initiator] -= 1
            pre_responder = self._draw_one(pool)
        return self._apply_single(pre_initiator, pre_responder)
