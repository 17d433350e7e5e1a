"""State-weighted schedules on every engine, by thinning the uniform one.

The ``weighted`` family selects ordered pair ``(u, v)`` with probability
proportional to ``w(u) * w(v)``, where ``w`` maps an agent's *output
symbol* to a positive weight (unlisted symbols weigh 1.0).  Every
implementation here realizes that distribution the same way: propose
pairs from the uniform scheduler and accept a proposal with probability

    a(u, v) = w(u) * w(v) / wmax^2

Rejected proposals consume randomness but are *not* chain steps — the
accepted subsequence is the weighted chain, so ``steps`` (and therefore
parallel time and every stabilization measurement) counts accepted
interactions only.

Why thinning keeps the count-level engines exact: acceptance depends only
on the proposed pair's own states, never on agent identity or on a global
normalizer.  Within a super-batch collision-free run all drawn agents
are distinct, so every proposal's pre-states — for the accept decision
*and* for the transition — come from the run-start counts exactly as
the uniform engine already samples them.  Thinning such a run is
therefore a Binomial per realized pair type on the run's COO multiset,
and the accepted sub-multiset inherits the run's exchangeability, so
leader-target truncation via hypergeometric prefix splits applies
unchanged.  See DESIGN.md Section 11.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.engine.batch.simulator import NULL_SCAN_LIMIT
from repro.engine.multiset import MultisetSimulator
from repro.engine.scheduler import RandomScheduler
from repro.engine.superbatch.sampling import sample_run_length, sample_run_pairs
from repro.engine.superbatch.simulator import SuperBatchSimulator
from repro.errors import ScheduleError

__all__ = [
    "StateWeightedScheduler",
    "thinning_constants",
    "WeightedMultisetSimulator",
    "WeightedSuperBatchSimulator",
]


def thinning_constants(
    weights: Mapping[str, float],
) -> tuple[dict[str, float], float]:
    """The validated symbol -> weight map and the acceptance scale.

    Every thinning path accepts a proposal with probability
    ``w(u) * w(v) * inv_wmax2``.  ``wmax`` is floored at 1.0 because
    unlisted symbols weigh 1.0, so no acceptance ever exceeds 1.
    """
    if not weights:
        raise ScheduleError("weighted schedule needs a non-empty weight map")
    by_symbol = {str(k): float(v) for k, v in weights.items()}
    if any(v <= 0.0 or not np.isfinite(v) for v in by_symbol.values()):
        raise ScheduleError(f"weights must be positive and finite: {weights}")
    wmax = max(1.0, max(by_symbol.values()))
    return by_symbol, 1.0 / (wmax * wmax)


class StateWeightedScheduler:
    """Per-agent path: rejection sampling against the live simulator.

    Wraps a :class:`~repro.engine.scheduler.RandomScheduler` and reads
    the simulator's current per-agent states to accept or reject each
    uniform proposal; ``next_pair`` returns accepted pairs only.  The
    simulator must be the one the scheduler was built for — attach with
    :meth:`~repro.engine.simulator.AgentSimulator.set_scheduler`.
    """

    def __init__(
        self,
        sim,
        weights: Mapping[str, float],
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._sim = sim
        self._inner = RandomScheduler(sim.n, seed)
        self._weight_of_symbol, self._inv_wmax2 = thinning_constants(weights)
        self._weight_of_id: list[float] = []

    @property
    def rng(self) -> np.random.Generator:
        """The proposal stream's generator (shared when passed in)."""
        return self._inner.rng

    def _weight_for(self, sid: int) -> float:
        table = self._weight_of_id
        if sid >= len(table):
            weight_of = self._weight_of_symbol
            output_for = self._sim._output_for
            for missing in range(len(table), len(self._sim.interner)):
                table.append(weight_of.get(output_for(missing), 1.0))
        return table[sid]

    def next_pair(self) -> tuple[int, int]:
        states = self._sim.states
        inner = self._inner
        rng = inner.rng
        inv_wmax2 = self._inv_wmax2
        while True:
            u, v = inner.next_pair()
            accept = (
                self._weight_for(states[u])
                * self._weight_for(states[v])
                * inv_wmax2
            )
            if accept >= 1.0 or rng.random() < accept:
                return u, v

    def pairs(self, count: int):
        """Yield ``count`` accepted pairs (testing convenience)."""
        for _ in range(count):
            yield self.next_pair()


class WeightedMultisetSimulator(MultisetSimulator):
    """Fenwick-sampled engine with per-step proposal thinning.

    ``build_simulator`` runs it for kernel-less protocols only; kernel
    protocols thin inside
    :class:`~repro.engine.kernel.multiset.KernelMultisetSimulator`, the
    same chain with the same draws.
    """

    def __init__(
        self,
        protocol,
        n: int,
        weights: Mapping[str, float],
        seed: int | None = None,
        **kwargs,
    ) -> None:
        self._weight_of_symbol, self._inv_wmax2 = thinning_constants(weights)
        self._weight_of_id: list[float] = []
        super().__init__(protocol, n, seed=seed, **kwargs)

    def _weight_for(self, sid: int) -> float:
        table = self._weight_of_id
        if sid >= len(table):
            weight_of = self._weight_of_symbol
            for missing in range(len(table), len(self.interner)):
                table.append(weight_of.get(self._output_for(missing), 1.0))
        return table[sid]

    def _propose(self) -> tuple[int, int]:
        """The next *accepted* proposal; rejected ones are thinned away
        and are not chain steps."""
        propose = super()._propose
        rng = self._rng
        inv_wmax2 = self._inv_wmax2
        while True:
            pre0, pre1 = propose()
            accept = (
                self._weight_for(pre0) * self._weight_for(pre1) * inv_wmax2
            )
            if accept >= 1.0 or rng.random() < accept:
                return pre0, pre1
            self._fenwick.add(pre0, 1)  # undo the initiator's removal

    def telemetry_summary(self) -> dict:
        summary = super().telemetry_summary()
        summary["scheduler"] = "weighted"
        return summary


class WeightedSuperBatchSimulator(SuperBatchSimulator):
    """Collision-free-run engine with Binomial thinning per pair type."""

    def __init__(
        self,
        protocol,
        n: int,
        weights: Mapping[str, float],
        seed: int | None = None,
        **kwargs,
    ) -> None:
        # Before the base constructor: its ``_ensure_tables`` call needs
        # the symbol map in place.
        self._weight_of_symbol, self._inv_wmax2 = thinning_constants(weights)
        self._weight_of_id = np.ones(16, dtype=np.float64)
        self._weights_known = 0
        super().__init__(protocol, n, seed=seed, **kwargs)

    def _ensure_tables(self) -> None:
        super()._ensure_tables()
        known = len(self._output_of_id)
        table = self._weight_of_id
        if table.shape[0] < known:
            grown = np.ones(
                max(self._counts.shape[0], known), dtype=np.float64
            )
            grown[: table.shape[0]] = table
            self._weight_of_id = table = grown
        if self._weights_known < known:
            weight_of = self._weight_of_symbol
            outputs = self._output_of_id
            for sid in range(self._weights_known, known):
                table[sid] = weight_of.get(outputs[sid], 1.0)
            self._weights_known = known

    def _null_skip(self, budget: int) -> int | None:
        """Weighted-chain analogue of the geometric null fast path.

        A chain step's ordered state pair ``(s, t)`` has probability
        ``c_s w_s (c_t - [s=t]) w_t / Z`` with ``Z = W^2 - sum c_s
        w_s^2`` and ``W = sum c_s w_s`` (thinning's stationary pair
        law), so steps-to-next-non-null is Geometric in the active
        weighted mass over ``Z`` and the non-null pair is a weighted
        ticket draw — same structure as the uniform path, with float
        masses.
        """
        known = len(self.interner)
        counts = self._counts[:known]
        present = np.nonzero(counts)[0]
        if present.shape[0] > NULL_SCAN_LIMIT:
            return None
        pairs0 = np.repeat(present, present.shape[0])
        pairs1 = np.tile(present, present.shape[0])
        eligible = (pairs0 != pairs1) | (counts[pairs0] >= 2)
        pairs0, pairs1 = pairs0[eligible], pairs1[eligible]
        post0s, post1s = self.cache.apply_block(pairs0, pairs1)
        self._ensure_tables()
        active = (post0s != pairs0) | (post1s != pairs1)
        if not active.any():
            self.steps += budget
            self.stats.null_skipped_steps += budget
            return budget
        weight_table = self._weight_of_id
        mass = counts.astype(np.float64) * weight_table[:known]
        total_mass = float(mass.sum())
        normalizer = total_mass * total_mass - float(
            (mass * weight_table[:known]).sum()
        )
        active0 = pairs0[active]
        active1 = pairs1[active]
        weights = mass[active0] * mass[active1]
        same = active0 == active1
        weights[same] = mass[active0[same]] * (
            mass[active0[same]] - weight_table[active0[same]]
        )
        active_weight = float(weights.sum())
        probability = active_weight / normalizer
        if probability > self._NULL_EXIT:
            return None
        skip = int(self._rng.geometric(probability))
        if skip > budget:
            self.steps += budget
            self.stats.null_skipped_steps += budget
            return budget
        cumulative = np.cumsum(weights)
        ticket = float(self._rng.random()) * active_weight
        chosen = min(
            int(np.searchsorted(cumulative, ticket, side="right")),
            weights.shape[0] - 1,
        )
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

    def telemetry_summary(self) -> dict:
        summary = super().telemetry_summary()
        summary["scheduler"] = "weighted"
        return summary

    def _advance_block(self, budget: int, leader_target: int | None) -> int:
        """One thinned collision-free run plus its thinned collision.

        Proposals within a run involve all-distinct agents, so each of a
        pair type's ``m`` occurrences accepts independently with the
        same probability: accepted counts are ``Binomial(m, a(s, t))``,
        drawn vectorized.  The accepted sub-multiset stays exchangeable,
        so the base engine's hypergeometric leader-target truncation
        applies verbatim; the *touched* multiset for collision replay is
        accepted post-states plus rejected (unchanged) pre-states — all
        ``2 * length`` drawn agents.
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
                weight_table = self._weight_of_id
                accept_p = (
                    weight_table[pre0]
                    * weight_table[pre1]
                    * self._inv_wmax2
                )
                undecided = accept_p < 1.0
                if undecided.any():
                    # Binomial(m, 1) is deterministically m: only draw
                    # for the pair types whose acceptance can reject.
                    accepted = weight.copy()
                    accepted[undecided] = rng.binomial(
                        weight[undecided], accept_p[undecided]
                    )
                else:
                    accepted = weight
            if accepted is weight:
                run_pre0, run_pre1, run_weight = pre0, pre1, weight
            else:
                kept = accepted > 0
                run_pre0, run_pre1, run_weight = (
                    pre0[kept],
                    pre1[kept],
                    accepted[kept],
                )
            applied = int(run_weight.sum())
            touched_accepted = None
            if applied:
                with profile.stage("apply"):
                    post0, post1 = self.cache.apply_block(run_pre0, run_pre1)
                self._ensure_tables()
                marks = self._leader_mark
                deltas = (
                    marks[post0]
                    + marks[post1]
                    - marks[run_pre0]
                    - marks[run_pre1]
                )
                if leader_target is not None and deltas.any():
                    with profile.stage("detect"):
                        truncated = self._truncate_run(
                            run_weight, deltas, self._lead, leader_target
                        )
                    if truncated is not None:
                        prefix, steps = truncated
                        with profile.stage("commit"):
                            self._commit_weighted(
                                run_pre0, run_pre1, post0, post1, prefix
                            )
                        self.steps += steps
                        stats.blocks += 1
                        stats.block_steps += steps
                        stats.truncated_runs += 1
                        return steps
                with profile.stage("commit"):
                    touched_accepted = self._commit_weighted(
                        run_pre0, run_pre1, post0, post1, run_weight
                    )
                changed = (post0 != run_pre0) | (post1 != run_pre1)
                if changed.any():
                    active = int(run_weight[changed].sum())
            self.steps += applied
            stats.blocks += 1
            stats.block_steps += applied
            size = self._counts.shape[0]
            if accepted is weight:
                # Nothing rejected: the touched multiset is exactly the
                # accepted agents.
                touched = (
                    touched_accepted
                    if touched_accepted is not None
                    else np.zeros(size, dtype=np.int64)
                )
            else:
                rejected = (weight - accepted).astype(np.float64)
                touched = (
                    np.bincount(pre0, weights=rejected, minlength=size)
                    + np.bincount(pre1, weights=rejected, minlength=size)
                ).astype(np.int64)
                if touched_accepted is not None:
                    touched += touched_accepted
        if collided and applied < budget:
            with profile.stage("commit"):
                consumed, collision_active = self._thinned_replay_collision(
                    2 * length, touched
                )
            applied += consumed
            active += collision_active
            if (
                consumed
                and leader_target is not None
                and self.leader_count == leader_target
            ):
                return applied
        if active == 0 and applied >= 16:
            self._null_mode = True
        return applied

    def _thinned_replay_collision(
        self, touched_count: int, touched: np.ndarray
    ) -> tuple[int, int]:
        """Accept/reject and maybe apply the run-ending proposal.

        Pre-state resolution is the base engine's replay (the touched
        multiset here includes rejected proposals' unchanged agents);
        acceptance uses the resolved pre-states.  Returns ``(chain steps
        consumed, active interactions)``.
        """
        rng = self._rng
        n = self.n
        t = touched_count
        cross = t * (n - t)
        ticket = int(rng.integers(0, t * (2 * n - t - 1)))
        if ticket < 2 * cross:
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
        weight_table = self._weight_of_id
        accept = (
            float(weight_table[pre_initiator] * weight_table[pre_responder])
            * self._inv_wmax2
        )
        if accept < 1.0 and float(rng.random()) >= accept:
            return 0, 0
        return 1, self._apply_single(pre_initiator, pre_responder)
