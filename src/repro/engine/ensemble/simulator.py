"""Across-trial vectorized simulation: M independent trials per sweep.

:class:`EnsembleSimulator` advances ``M`` independent trials ("lanes") of
one protocol at one population size simultaneously.  Each lane is the
**exact** multiset chain of a solo
:class:`~repro.engine.multiset.MultisetSimulator` with that lane's seed:
it consumes the same PCG64 draw stream in the same refill pattern and
maps every scheduler ticket through the same count-ordered inverse CDF,
so per-lane trajectories and stabilization step counts are bit-identical
to solo runs (pinned by ``tests/engine/test_ensemble.py``).  What is
vectorized is everything *across* lanes:

* configurations live in row-per-lane NumPy arrays — ``A`` holds every
  agent's lane-local state id in sorted order (``(M, n)``), ``F`` the
  inclusive prefix counts per local id (``(M, num_states)``) — so the
  initiator of lane ``i`` is the single gather ``A[i, ticket]``;
* transitions resolve through shared, pair-indexed
  :class:`~repro.engine.ensemble.tables.PairTables` built over one
  :class:`~repro.engine.cache.TransitionCache`: one gather yields every
  lane's packed post pair and leader-count delta;
* applied transitions move one agent between sorted blocks by rewriting
  only the block-boundary slots between the two state ids (see
  :class:`~repro.engine.ensemble.lane.SlotLane` for the scalar form of
  the same update);
* each sweep looks ahead up to ``k`` draws per lane under the frozen
  configuration and commits the leading run of null interactions plus
  the first active one — exact, because null interactions do not change
  the configuration the lookahead was computed against.  ``k`` adapts to
  the observed null rate, so quiet protocols (Angluin is ~94% null)
  commit long runs per sweep while busy ones pay for no lookahead.

Lanes retire the moment their leader count first hits the target; their
rows are compacted away and their exact stabilization step count is
reported.  Because per-sweep NumPy dispatch overhead is fixed while the
committed work scales with the surviving lane count, the last few
straggler lanes detach into scalar :class:`SlotLane` continuations — the
same chain, same draws, byte-identical outcomes — instead of paying
vector overhead for two lanes.  Outcomes therefore never depend on lane
packing, sweep schedule, or detach timing; only wall-clock does.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.engine.convergence import default_max_steps
from repro.engine.ensemble.lane import SlotLane
from repro.engine.ensemble.tables import PairTables, PairTableOverflow
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import ConvergenceError, SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.heartbeat import make_heartbeat
from repro.telemetry.profile import StageProfile, emit_profile
from repro.telemetry.trace import make_tracer

__all__ = ["EnsembleSimulator", "LaneOutcome"]

#: Below this many surviving lanes the vectorized sweep detaches the rest
#: into scalar SlotLane continuations (fixed NumPy dispatch overhead per
#: sweep stops amortizing).  Purely a performance knob: outcomes are
#: identical either side of it.
DEFAULT_DETACH_LANES = 24

#: Minimum interactions a sweep must commit (summed over lanes) for the
#: lockstep path to keep paying for itself.  Sweep cost is dominated by
#: fixed NumPy dispatch, so its per-interaction price is
#: ``sweep_cost / committed``: interaction-heavy protocols (PLL commits
#: ~1 per lane per sweep) fall below this line and the whole ensemble
#: detaches to scalar lanes, while null-heavy ones (Angluin commits
#: tens per lane) stay vectorized.  Purely a performance knob, measured
#: per run from the engine's own commit counters; outcomes are
#: identical either side of it.  0 disables the policy.
DEFAULT_DETACH_WORK = 128

#: Lookahead window bounds; the window adapts inside them.
_MIN_LOOKAHEAD = 1
_MAX_LOOKAHEAD = 64


@dataclass(frozen=True)
class LaneOutcome:
    """One lane's exact stabilization measurement."""

    index: int
    seed: int | None
    steps: int
    leader_count: int
    distinct_states: int


class EnsembleSimulator:
    """Advance many same-protocol trials in lockstep NumPy sweeps."""

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seeds: Sequence[int | None],
        *,
        cache_entries: int = 1 << 20,
        target: int = 1,
        lookahead: int = 4,
        detach_lanes: int = DEFAULT_DETACH_LANES,
        detach_work: int = DEFAULT_DETACH_WORK,
        telemetry: bool | None = None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got n={n}")
        if not seeds:
            raise SimulationError("an ensemble needs at least one lane seed")
        self.protocol = protocol
        self.n = n
        self.seeds = list(seeds)
        self.target = target
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries
        )
        self._tables = PairTables(protocol, self.interner, self.cache)
        self._detach_lanes = detach_lanes
        self._detach_work = detach_work
        self._starved = False
        self._k = max(_MIN_LOOKAHEAD, min(int(lookahead), _MAX_LOOKAHEAD))
        self._telemetry = telemetry
        # Sweep/retire stage profile (gated wall-clock tier).  Packed
        # lanes carry no phase series: per-lane phase timelines would
        # depend on sweep packing, and store rows must stay
        # packing-independent — solo multiset runs probe instead.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        if hasattr(self.cache, "profile"):
            self.cache.profile = self._profile
        self.sweeps = 0
        self._commit_sum = 0
        self._commit_rows = 0
        self._window_sweeps = 0
        #: Monotone total of interactions committed by vectorized sweeps.
        #: ``_steps.sum()`` is NOT monotone — retired rows are compacted
        #: away — so heartbeats and summaries read this instead.
        self.committed_steps = 0
        #: Lanes retired at their exact stabilization step.
        self.retired_lanes = 0
        #: Lanes handed to scalar SlotLane continuations.
        self.detached_lanes = 0

        initial_global = self.interner.intern(protocol.initial_state())
        if initial_global != 0:  # pragma: no cover - fresh interner
            raise SimulationError("fresh interner must assign id 0 first")
        M = len(self.seeds)
        B = DRAW_BATCH_SIZE
        self._B = B
        self._rngs = [np.random.default_rng(seed) for seed in self.seeds]
        self._D1 = np.empty((M, B), dtype=np.int64)
        self._D2 = np.empty((M, B), dtype=np.int64)
        for row, rng in enumerate(self._rngs):
            self._D1[row] = rng.integers(0, n, size=B)
            self._D2[row] = rng.integers(0, n - 1, size=B)
        self._cursor = np.zeros(M, dtype=np.int64)
        self._Sl = 16
        self._A = np.zeros((M, n), dtype=np.int64)
        self._F = np.full((M, self._Sl), n, dtype=np.int64)
        self._nloc = np.ones(M, dtype=np.int64)
        self._l2g = np.zeros((M, self._Sl), dtype=np.int64)
        self._g2l = np.full((M, self._tables.cap), -1, dtype=np.int64)
        self._g2l[:, 0] = 0
        initially_leader = protocol.output(protocol.initial_state()) == LEADER
        self._lead = np.full(M, n if initially_leader else 0, dtype=np.int64)
        self._steps = np.zeros(M, dtype=np.int64)
        self._budget = np.zeros(M, dtype=np.int64)
        self._order = list(range(M))  # original lane index per row
        self._scalar: dict[int, SlotLane] | None = None

    # ------------------------------------------------------------------
    # introspection (primarily for tests and reporting)
    # ------------------------------------------------------------------

    @property
    def active_lanes(self) -> int:
        """Lanes still simulated (vectorized rows or scalar continuations)."""
        if self._scalar is not None:
            return len(self._scalar)
        return len(self._order)

    def lane_steps(self, index: int) -> int:
        """Interactions lane ``index`` has executed so far."""
        if self._scalar is not None:
            return self._scalar[index].steps
        return int(self._steps[self._order.index(index)])

    def lane_state_counts(self, index: int) -> Counter[State]:
        """Decoded state multiset of one lane's current configuration."""
        if self._scalar is not None:
            return self._scalar[index].state_counts()
        row = self._order.index(index)
        state_of = self.interner.state_of
        counts: Counter[State] = Counter()
        previous = 0
        for local in range(int(self._nloc[row])):
            boundary = int(self._F[row, local])
            count = boundary - previous
            previous = boundary
            if count:
                counts[state_of(int(self._l2g[row, local]))] = count
        return counts

    # ------------------------------------------------------------------
    # growth and compaction
    # ------------------------------------------------------------------

    def _grow_local(self, needed: int) -> None:
        if needed <= self._Sl:
            return
        cap = self._Sl
        while cap < needed:
            cap *= 2
        M = self._A.shape[0]
        F = np.full((M, cap), self.n, dtype=np.int64)
        F[:, : self._Sl] = self._F
        l2g = np.zeros((M, cap), dtype=np.int64)
        l2g[:, : self._Sl] = self._l2g
        self._F, self._l2g, self._Sl = F, l2g, cap

    def _grow_global(self) -> None:
        """Re-width ``g2l`` after the shared pair tables grew their cap."""
        cap = self._tables.cap
        if cap == self._g2l.shape[1]:
            return
        M = self._g2l.shape[0]
        g2l = np.full((M, cap), -1, dtype=np.int64)
        g2l[:, : self._g2l.shape[1]] = self._g2l
        self._g2l = g2l

    def _compact(self, keep: np.ndarray) -> None:
        self._A = self._A[keep]
        self._F = self._F[keep]
        self._l2g = self._l2g[keep]
        self._g2l = self._g2l[keep]
        self._D1 = self._D1[keep]
        self._D2 = self._D2[keep]
        self._cursor = self._cursor[keep]
        self._nloc = self._nloc[keep]
        self._lead = self._lead[keep]
        self._steps = self._steps[keep]
        self._budget = self._budget[keep]
        kept = keep.tolist()
        self._order = [o for o, k in zip(self._order, kept) if k]
        self._rngs = [r for r, k in zip(self._rngs, kept) if k]

    # ------------------------------------------------------------------
    # the vectorized sweep
    # ------------------------------------------------------------------

    def _apply_moves(self, rows: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """Move one agent from local state ``src`` to ``dst`` per row.

        Rewrites the block-boundary slots between the two ids and shifts
        the prefix counts; processed for all rows at once.  ``rows`` must
        be distinct (one move per lane per phase).
        """
        moving = src != dst
        if not moving.any():
            return
        rows = rows[moving]
        src = src[moving]
        dst = dst[moving]
        up = (dst > src).astype(np.int64)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        span = hi - lo
        F = self._F.ravel()
        A = self._A.ravel()
        wide = span > 1
        if wide.any():
            # Distance-1 moves dominate (PLL assigns consecutive timer
            # values adjacent local ids), so the occasional wide move
            # must not drag every row through the masked general path:
            # split, run the narrow fast path, recurse on the few wide
            # rows alone.
            narrow = ~wide
            if narrow.any():
                nrows = rows[narrow]
                nlo = lo[narrow]
                nup = up[narrow]
                findex = nrows * self._Sl + nlo
                boundary = F[findex]
                A[nrows * self.n + boundary - nup] = nlo + nup
                F[findex] += 1 - 2 * nup
            rows = rows[wide]
            up = up[wide]
            lo = lo[wide]
            hi = hi[wide]
            span = span[wide]
        else:
            findex = rows * self._Sl + lo
            boundary = F[findex]
            A[rows * self.n + boundary - up] = lo + up
            F[findex] += 1 - 2 * up  # -1 for up moves, +1 for down
            return
        width = int(span.max())
        offsets = np.arange(width, dtype=np.int64)
        inside = offsets[None, :] < span[:, None]
        y = np.where(inside, lo[:, None] + offsets[None, :], (hi - 1)[:, None])
        findex = rows[:, None] * self._Sl + y
        boundary = F[findex.ravel()].reshape(findex.shape)
        position = boundary - up[:, None]
        value = y + up[:, None]
        # Outside-the-span entries get per-row sentinels so duplicate-run
        # detection below never bridges real and padded cells.
        position = np.where(inside, position, -1 - rows[:, None])
        # Consecutive equal positions appear when intermediate states are
        # empty; the surviving write is the last (up) / first (down) of
        # the run — the order a scalar loop would apply them in.
        pad = np.full((position.shape[0], 1), -9, dtype=np.int64)
        following = np.concatenate([position[:, 1:], pad], axis=1)
        preceding = np.concatenate([pad, position[:, :-1]], axis=1)
        keep = np.where(
            up[:, None].astype(bool),
            position != following,
            position != preceding,
        )
        keep &= inside
        A[(rows[:, None] * self.n + position)[keep]] = value[keep]
        F[findex[inside]] += np.repeat(1 - 2 * up, span)

    def _sweep(self) -> None:
        """One lockstep advance: commit nulls + first active per lane."""
        M = self._A.shape[0]
        k = self._k
        n = self.n
        B = self._B
        rows = np.arange(M, dtype=np.int64)
        avail = np.minimum(B - self._cursor, np.int64(k))
        remaining = self._budget - self._steps
        np.minimum(avail, remaining, out=avail)
        offsets = np.arange(k, dtype=np.int64)
        window = offsets[None, :] < avail[:, None]
        ticket_index = np.minimum(self._cursor[:, None] + offsets[None, :], B - 1)
        flat_tickets = rows[:, None] * B + ticket_index
        d1 = self._D1.ravel().take(flat_tickets)
        d2 = self._D2.ravel().take(flat_tickets)
        row_agents = rows[:, None] * n
        row_states = rows[:, None] * self._Sl
        p0 = self._A.ravel().take(row_agents + d1)
        f0 = self._F.ravel().take(row_states + p0)
        j2 = d2 + (d2 >= f0 - 1)
        p1 = self._A.ravel().take(row_agents + j2)
        while True:
            g0 = self._l2g.ravel().take(row_states + p0)
            g1 = self._l2g.ravel().take(row_states + p1)
            cap = self._tables.cap
            keys = g0 * cap + g1
            if self._tables.ensure(keys.ravel()):
                break
            self._grow_global()
            row_states = rows[:, None] * self._Sl
        pair = self._tables.pair.take(keys)
        active = (pair != keys) & window
        has_active = active.any(axis=1)
        first = active.argmax(axis=1)
        commit = np.where(has_active, first + 1, avail)
        if has_active.any():
            arows = np.nonzero(has_active)[0]
            flat = arows * k + first[arows]
            term_p0 = p0.ravel()[flat]
            term_p1 = p1.ravel()[flat]
            term_key = keys.ravel()[flat]
            term_pair = pair.ravel()[flat]
            cap = self._tables.cap
            post0_global = term_pair // cap
            post1_global = term_pair % cap
            post0_local = self._localize(arows, post0_global)
            post1_local = self._localize(arows, post1_global)
            self._apply_moves(arows, term_p0, post0_local)
            self._apply_moves(arows, term_p1, post1_local)
            self._lead[arows] += self._tables.dmark.take(term_key)
        self._steps += commit
        self._cursor += commit
        exhausted_draws = self._cursor >= B
        if exhausted_draws.any():
            for row in np.nonzero(exhausted_draws)[0].tolist():
                rng = self._rngs[row]
                self._D1[row] = rng.integers(0, n, size=B)
                self._D2[row] = rng.integers(0, n - 1, size=B)
                self._cursor[row] = 0
        self.sweeps += 1
        committed = int(commit.sum())
        self.committed_steps += committed
        self._commit_sum += committed
        self._commit_rows += M
        self._window_sweeps += 1
        if self._window_sweeps >= 64:
            self._adapt_lookahead()

    def _localize(self, rows: np.ndarray, global_ids: np.ndarray) -> np.ndarray:
        """Lane-local ids for global post states, interning first sights.

        Callers pass initiator posts before responder posts, which is the
        order the solo interner sees new states in.
        """
        local = self._g2l[rows, global_ids]
        missing = local < 0
        if missing.any():
            self._grow_local(int(self._nloc[rows].max()) + 1)
            for row, gid in zip(rows[missing].tolist(), global_ids[missing].tolist()):
                if self._g2l[row, gid] >= 0:
                    continue
                new_local = int(self._nloc[row])
                self._grow_local(new_local + 1)
                self._g2l[row, gid] = new_local
                self._l2g[row, new_local] = gid
                self._nloc[row] = new_local + 1
            local = self._g2l[rows, global_ids]
        return local

    def _adapt_lookahead(self) -> None:
        if not self._commit_rows:
            return
        mean_commit = self._commit_sum / self._commit_rows
        window_grew = False
        if mean_commit > 0.6 * self._k and self._k < _MAX_LOOKAHEAD:
            self._k = min(self._k * 2, _MAX_LOOKAHEAD)
            window_grew = True
        elif mean_commit < 0.25 * self._k and self._k > _MIN_LOOKAHEAD:
            self._k = max(_MIN_LOOKAHEAD, self._k // 2)
        if self._detach_work and not window_grew:
            # Judge starvation only from windows where the lookahead had
            # stopped ramping: a quiet protocol's first windows commit
            # little merely because ``k`` starts small.
            per_sweep = self._commit_sum / self._window_sweeps
            self._starved = per_sweep < self._detach_work
        self._commit_sum = 0
        self._commit_rows = 0
        self._window_sweeps = 0

    # ------------------------------------------------------------------
    # detachment to scalar lanes
    # ------------------------------------------------------------------

    def _detach_row(self, row: int) -> SlotLane:
        nloc = int(self._nloc[row])
        return SlotLane.from_ensemble_row(
            protocol=self.protocol,
            n=self.n,
            seed=self.seeds[self._order[row]],
            cache=self.cache,
            target=self.target,
            slots=self._A[row].tolist(),
            prefix=self._F[row, :nloc].tolist(),
            local_globals=self._l2g[row, :nloc].tolist(),
            lead=int(self._lead[row]),
            steps=int(self._steps[row]),
            rng=self._rngs[row],
            d1=self._D1[row].tolist(),
            d2=self._D2[row].tolist(),
            cursor=int(self._cursor[row]),
        )

    def _detach_all(self) -> dict[int, SlotLane]:
        lanes = {
            self._order[row]: self._detach_row(row)
            for row in range(len(self._order))
        }
        self.detached_lanes += len(lanes)
        self._compact(np.zeros(len(self._order), dtype=bool))
        self._scalar = lanes
        return lanes

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, max_steps: int) -> None:
        """Advance every lane by exactly ``max_steps`` interactions.

        No stabilization detection — the lockstep analogue of
        :meth:`MultisetSimulator.run` with no predicate, used by the
        faithfulness tests to compare mid-run configurations.
        """
        if self._scalar is not None:
            for lane in self._scalar.values():
                lane.run(max_steps, stop_at_target=False)
            return
        self._budget = self._steps + max_steps
        while True:
            if not len(self._order):
                return
            if (self._budget > self._steps).any():
                try:
                    self._sweep_without_target()
                except PairTableOverflow:
                    deficits = (self._budget - self._steps).tolist()
                    order = list(self._order)
                    self._detach_all()
                    for index, deficit in zip(order, deficits):
                        if deficit > 0:
                            self._scalar[index].run(
                                int(deficit), stop_at_target=False
                            )
                    return
            else:
                return

    def _sweep_without_target(self) -> None:
        # ``_sweep`` never retires lanes itself; target checks live in
        # ``run_until_stabilized``.  This alias exists for readability.
        self._sweep()

    def run_until_stabilized(
        self,
        max_steps: int | None = None,
        on_lane_done: Callable[[LaneOutcome], None] | None = None,
    ) -> list[LaneOutcome]:
        """Run every lane to its exact stabilization step.

        Returns outcomes ordered by lane index; ``on_lane_done`` streams
        each outcome the moment its lane retires (so callers can persist
        completed trials before the slowest lane finishes).  A lane that
        exhausts ``max_steps`` (default: the solo engines'
        :func:`~repro.engine.convergence.default_max_steps`) raises :class:`ConvergenceError`
        naming its seed; outcomes already streamed stay valid.
        """
        if max_steps is None:
            max_steps = default_max_steps(self.n)
        # Aggregate heartbeat over all lanes: progress is the monotone
        # committed-interaction total, the ceiling its worst case (every
        # lane running to its full per-lane budget).
        heartbeat = make_heartbeat(
            "ensemble",
            self.protocol.name,
            self.n,
            None,
            max_steps * len(self.seeds),
            enabled=self._telemetry,
        )
        outcomes: dict[int, LaneOutcome] = {}
        # (lane index, seed, steps) per budget-exhausted lane; every other
        # lane still runs to its own end before the first failure raises,
        # so an abort costs the store only the genuinely divergent lanes.
        failures: list[tuple[int, int | None, int]] = []

        def retire(index: int, steps: int, leads: int, distinct: int) -> None:
            outcome = LaneOutcome(
                index=index,
                seed=self.seeds[index],
                steps=steps,
                leader_count=leads,
                distinct_states=distinct,
            )
            outcomes[index] = outcome
            if on_lane_done is not None:
                on_lane_done(outcome)

        profile = self._profile
        tracer = make_tracer()
        if tracer is not None:
            profile.tracer = tracer
        ensemble_span = (
            nullcontext()
            if tracer is None
            else tracer.span(
                "ensemble",
                cat="trial",
                engine="ensemble",
                protocol=self.protocol.name,
                n=self.n,
                lanes=len(self.seeds),
            )
        )
        try:
            with ensemble_span:
                if self._scalar is None:
                    self._budget = self._steps + max_steps
                    # Lanes stable before any step.
                    self._retire_stabilized(retire)
                    while (
                        len(self._order) > self._detach_lanes
                        and not self._starved
                    ):
                        try:
                            with profile.stage("sweep"):
                                self._sweep()
                        except PairTableOverflow:
                            break
                        with profile.stage("retire"):
                            self._retire_stabilized(retire)
                            self._harvest_exhausted(failures)
                        if heartbeat is not None:
                            heartbeat.maybe_beat(self.committed_steps)
                    if len(self._order):
                        budgets = {
                            self._order[row]: int(
                                self._budget[row] - self._steps[row]
                            )
                            for row in range(len(self._order))
                        }
                        self._detach_all()
                        self._finish_scalar(
                            budgets, retire, failures, heartbeat
                        )
                else:
                    budgets = {
                        index: max_steps for index in self._scalar
                    }
                    self._finish_scalar(budgets, retire, failures, heartbeat)
        finally:
            profile.tracer = None
        emit_profile(
            profile,
            "ensemble",
            self.protocol.name,
            self.n,
            None,
            self.committed_steps,
        )
        if failures:
            index, seed, steps = min(failures)
            raise ConvergenceError(
                f"protocol {self.protocol.name!r} (n={self.n}, seed {seed}) "
                f"did not stabilize within its step budget",
                steps=steps,
            )
        return [outcomes[index] for index in sorted(outcomes)]

    def _retire_stabilized(self, retire) -> None:
        done = self._lead == self.target
        if not done.any():
            return
        for row in np.nonzero(done)[0].tolist():
            self.retired_lanes += 1
            retire(
                self._order[row],
                int(self._steps[row]),
                int(self._lead[row]),
                int(self._nloc[row]),
            )
        self._compact(~done)

    def _harvest_exhausted(self, failures: list) -> None:
        """Record budget-exhausted lanes and compact them away.

        Siblings still within budget keep running (and retiring into the
        store); the caller raises for the harvested lanes only after
        every other lane has had its chance — mirroring the scalar path,
        so both execution modes preserve the same work on abort.
        """
        exhausted = (self._steps >= self._budget) & (self._lead != self.target)
        if not exhausted.any():
            return
        for row in np.nonzero(exhausted)[0].tolist():
            index = self._order[row]
            failures.append((index, self.seeds[index], int(self._steps[row])))
        self._compact(~exhausted)

    def _finish_scalar(
        self, budgets: dict[int, int], retire, failures: list, heartbeat=None
    ) -> None:
        # Every lane gets its (budget-bounded) chance before any failure
        # propagates: a divergent lane must not cost the store the
        # outcomes of lanes that would have finished — that is what makes
        # an aborted campaign resumable.
        finished: list[int] = []
        for index in sorted(self._scalar):
            lane = self._scalar[index]
            budget = budgets[index]
            if heartbeat is None:
                self.committed_steps += lane.run(budget, stop_at_target=True)
            else:
                # Chunked so stragglers keep beating; SlotLane.run resumes
                # mid-draw-batch, so chunking never changes the chain.
                while budget > 0:
                    ran = lane.run(min(budget, 1 << 16), stop_at_target=True)
                    self.committed_steps += ran
                    budget -= ran
                    heartbeat.maybe_beat(self.committed_steps)
                    if ran == 0 or lane.lead == self.target:
                        break
            if lane.lead != self.target:
                failures.append((index, lane.seed, lane.steps))
                continue
            self.retired_lanes += 1
            retire(index, lane.steps, lane.lead, lane.distinct_states_seen())
            finished.append(index)
        for index in finished:
            del self._scalar[index]

    def telemetry_summary(self) -> dict:
        """Ensemble-wide counter summary (aggregate, not per lane).

        Per-lane trial rows never carry this — lane packing is a runtime
        choice and store rows must stay packing-independent — so these
        counters feed heartbeats, tests, and ad-hoc profiling only.
        """
        return {
            "engine": "ensemble",
            "lanes": len(self.seeds),
            "sweeps": self.sweeps,
            "committed_steps": self.committed_steps,
            "retired_lanes": self.retired_lanes,
            "detached_lanes": self.detached_lanes,
            "cache": cache_summary(self.cache.stats),
        }
