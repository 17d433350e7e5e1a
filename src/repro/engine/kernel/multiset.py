"""Kernel-backed scalar engine for the multiset chain.

:class:`KernelMultisetSimulator` is what ``engine="multiset"`` builds
when the protocol compiles a kernel.  It runs the **exact** chain of
:class:`~repro.engine.multiset.MultisetSimulator` — same PCG64 draw
stream, same refill pattern, same count-ordered inverse-CDF ticket
mapping, same interning order, byte-identical trajectories and
stabilization step counts (pinned by ``tests/engine/test_kernel.py``) —
with the per-step Python cost stripped down:

* the configuration lives in a **sorted slot array** (every agent's
  state id in id-sorted order) plus inclusive prefix counts, so the
  initiator lookup is ``slots[ticket]`` — O(1) where the Fenwick
  inverse CDF pays O(log k) — and an applied transition rewrites only
  the block-boundary slots between the two ids (PLL's count-up moves
  are almost always between adjacent ids: 1-2 writes);
* transitions resolve through flat **list pair tables** — one index,
  no dict hashing, no tuple allocation — filled on first sight from the
  :class:`~repro.engine.kernel.cache.KernelTransitionCache` (vectorized
  kernel row fills, never a Python ``delta``);
* leader counting is a per-pair integer delta precomputed from the
  kernel's ``leader`` output-feature table, so ``output()`` is never
  called in the loop.

Both engines drive stabilization through the shared
:func:`~repro.engine.convergence.run_to_leader_target`, so they poll the
phase series at the same steps and store byte-identical ``phases``.

With ``weights`` (a symbol -> weight map) the same loop realizes a
state-weighted schedule by proposal thinning, exactly as
:class:`~repro.schedulers.weighted.WeightedMultisetSimulator` does on
the Fenwick tree: the same draws in the same order (ticket refills,
then one uniform per proposal whose acceptance is below 1), so steps,
leader counts, distinct states and phase series are byte-identical to
that engine's.  The uniforms come in one vectorized call per refill;
the next refill rewinds the generator past the unused ones, so the
stream matches one scalar ``random()`` per thinned proposal.  A
rejected proposal never reaches the pair tables or the interner.
Without weights the loop makes no extra draws.

The sorted-slot representation is the one
:class:`~repro.engine.ensemble.lane.SlotLane` introduced (and whose
equivalence to the Fenwick chain the ensemble suite pins); this class
adds the full ``MultisetSimulator`` surface — ``step``/``run``/
``run_until_stabilized`` with predicates, ``load_counts``, count and
output accessors — so it is a drop-in engine for trials, campaigns and
experiments.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping

import numpy as np

from repro.engine.convergence import run_until_stabilized
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.probe import make_phase_series
from repro.telemetry.profile import StageProfile

__all__ = ["KernelMultisetSimulator"]

#: Sentinel distinguishing "pair never requested" from a memoized null.
_UNSEEN = object()


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
        #: Null interactions and first-sight pair-table fills, counted
        #: unconditionally (nulls accumulate in a loop-local int, interns
        #: happen on the cold resolve path) so the stored summary never
        #: depends on the telemetry switch.
        self.null_steps = 0
        self.pair_interns = 0
        # Stage profile (gated) and phase series (deterministic tier,
        # always on): see DESIGN.md Section 9.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        self.phase_series = make_phase_series(protocol, n)
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries, use_kernel=True
        )
        self.cache.profile = self._profile
        self.steps = 0
        self._rng = np.random.default_rng(seed)
        self._batch_size = batch_size
        self._d1: list[int] = []
        self._d2: list[int] = []
        self._cursor = 0
        self._uniforms: list[float] = []
        self._ucursor = 0
        initial_id = self.interner.intern(protocol.initial_state())
        # Sorted-slot configuration: slots[i] is the state id of the
        # i-th agent in id-sorted order; prefix[s] is the inclusive
        # prefix count of ids <= s (id-indexed, appended on first sight).
        self.slots: list[int] = [initial_id] * n
        self.prefix: list[int] = [n]
        self._mark: list[int] = []
        # Thinning weight per id (None: the uniform schedule).  Grown in
        # place, so the hot loop's local reference stays valid.
        self._weight_of_id: list[float] | None = None
        self._inv_wmax2 = 1.0
        if weights is not None:
            # Imported here: repro.schedulers.weighted imports the engines.
            from repro.schedulers.weighted import thinning_constants

            self._weight_of_symbol, self._inv_wmax2 = thinning_constants(
                weights
            )
            self._weight_of_id = []
        self._sync_tables()
        self._lead = n * self._mark[initial_id]
        # Flat pair tables: _rows[p0][p1] is _UNSEEN, None (memoized
        # null) or (post0, post1, leader_delta).  Width grows with the
        # interned id count; one list index replaces dict hashing.
        self._cap = 16
        self._rows: list[list] = [[_UNSEEN] * self._cap]

    # ------------------------------------------------------------------
    # side tables
    # ------------------------------------------------------------------

    def _sync_tables(self) -> None:
        """Leader marks per id, from the kernel's feature table, and the
        thinning weight per id, from its output symbol."""
        marks = self._mark
        known = len(self.interner)
        weights = self._weight_of_id
        if weights is not None and len(weights) < known:
            weight_of = self._weight_of_symbol
            output = self.protocol.output
            state_of = self.interner.state_of
            weights.extend(
                weight_of.get(output(state_of(sid)), 1.0)
                for sid in range(len(weights), known)
            )
        if len(marks) >= known:
            return
        kernel = self.cache.kernel
        if kernel.has_feature("leader"):
            codes = self.cache.id_codes()[len(marks) : known]
            marks.extend(
                int(v) for v in kernel.feature_values("leader", codes)
            )
        else:  # pragma: no cover - every LE kernel declares the feature
            output = self.protocol.output
            state_of = self.interner.state_of
            marks.extend(
                1 if output(state_of(sid)) == LEADER else 0
                for sid in range(len(marks), known)
            )

    def _grow_rows(self) -> None:
        """Widen the pair tables to cover every interned id."""
        known = len(self.interner)
        cap = self._cap
        if known > cap:
            while cap < known:
                cap *= 2
            self._rows = [
                row + [_UNSEEN] * (cap - len(row)) for row in self._rows
            ]
            self._cap = cap
        rows = self._rows
        while len(rows) < known:
            rows.append([_UNSEEN] * self._cap)
        prefix = self.prefix
        while len(prefix) < known:
            prefix.append(self.n)

    def _resolve(self, pre0: int, pre1: int):
        """First-sight pair: kernel-resolve, memoize, return the entry."""
        self.pair_interns += 1
        post0, post1 = self.cache.apply(pre0, pre1)
        self._sync_tables()
        self._grow_rows()
        if post0 == pre0 and post1 == pre1:
            entry = None
        else:
            marks = self._mark
            entry = (
                post0,
                post1,
                marks[post0] + marks[post1] - marks[pre0] - marks[pre1],
            )
        self._rows[pre0][pre1] = entry
        return entry

    # ------------------------------------------------------------------
    # configuration access (the MultisetSimulator surface)
    # ------------------------------------------------------------------

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self._lead

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
        for sid, boundary in enumerate(self.prefix):
            count = boundary - previous
            previous = boundary
            if count:
                counts[sid] = count
        return counts

    def state_counts(self) -> Counter[State]:
        """Multiset of decoded states currently present."""
        state_of = self.interner.state_of
        return Counter(
            {
                state_of(sid): count
                for sid, count in self.state_id_counts().items()
            }
        )

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        sid = self.interner.id_of(state)
        if sid is None or sid >= len(self.prefix):
            # Detectors probing the shared cache can intern states the
            # configuration has never held; their count is simply 0.
            return 0
        previous = self.prefix[sid - 1] if sid else 0
        return self.prefix[sid] - previous

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
        self._sync_tables()
        self._grow_rows()
        slots: list[int] = []
        prefix: list[int] = []
        running = 0
        for sid in range(len(self.interner)):
            running += by_id.get(sid, 0)
            slots.extend([sid] * by_id.get(sid, 0))
            prefix.append(running)
        self.slots = slots
        self.prefix = prefix
        marks = self._mark
        self._lead = sum(
            marks[sid] * count for sid, count in by_id.items()
        )

    def distinct_states_seen(self) -> int:
        """Number of distinct states interned so far."""
        return len(self.interner)

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        summary = {
            "engine": "multiset",
            "path": "kernel",
            "steps": self.steps,
            "null_steps": self.null_steps,
            "pair_interns": self.pair_interns,
            "cache": cache_summary(self.cache.stats),
        }
        if self._weight_of_id is not None:
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

    def _refill_draws(self) -> None:
        rng = self._rng
        if self._uniforms:
            self._rewind_uniforms()
        size = self._batch_size
        self._d1 = rng.integers(0, self.n, size=size).tolist()
        self._d2 = rng.integers(0, self.n - 1, size=size).tolist()
        self._cursor = 0
        if self._weight_of_id is not None:
            # The thinning uniforms of the next ``size`` proposals, drawn
            # ahead in one call: a proposal takes at most one, and the
            # next refill hands the unused ones back to the generator.
            self._uniforms_from = rng.bit_generator.state
            self._uniforms = rng.random(size).tolist()
            self._ucursor = 0

    def _rewind_uniforms(self) -> None:
        """Leave the generator where ``_ucursor`` scalar ``random()``
        calls after the last refill would have: the Fenwick path's
        stream, which draws one uniform per thinned proposal."""
        bits = self._rng.bit_generator
        before = self._uniforms_from
        bits.state = before
        bits.advance(self._ucursor)  # one 64-bit output per uniform
        # advance() drops the buffered 32-bit half that the ticket draws
        # may have left; uniforms never consume it, so restore it.
        state = bits.state
        state["has_uint32"] = before["has_uint32"]
        state["uinteger"] = before["uinteger"]
        bits.state = state

    def step(self) -> tuple[int, int, int, int]:
        """Execute one interaction; returns (pre0, pre1, post0, post1) ids."""
        executed = self._advance(1, None)
        assert executed == 1
        return self._last

    def _advance(self, max_steps: int, leader_target: int | None) -> int:
        """The hot loop: up to ``max_steps`` interactions, early exit at
        the first interaction whose leader count hits ``leader_target``.

        Under a weighted schedule each proposal is thinned before it
        counts: accepted when ``w0 * w1 * inv_wmax2 >= 1``, else with
        one uniform draw.  A rejected proposal consumes its tickets and
        that draw but touches neither the configuration nor the pair
        tables, and is not an interaction."""
        slots = self.slots
        prefix = self.prefix
        rows = self._rows
        weight = self._weight_of_id
        inv_wmax2 = self._inv_wmax2
        lead = self._lead
        executed = 0
        nulls = 0
        d1, d2, cursor = self._d1, self._d2, self._cursor
        uniforms, ucursor = self._uniforms, self._ucursor
        while executed < max_steps:
            if cursor >= len(d1):
                self._ucursor = ucursor
                self._refill_draws()
                d1, d2, uniforms = self._d1, self._d2, self._uniforms
                cursor = ucursor = 0
            t1 = d1[cursor]
            t2 = d2[cursor]
            cursor += 1
            p0 = slots[t1]
            # Responder ticket over n-1 agents: skip the initiator's
            # slot (virtually the last slot of its block).
            j2 = t2 + (t2 >= prefix[p0] - 1)
            p1 = slots[j2]
            if weight is not None:
                accept = weight[p0] * weight[p1] * inv_wmax2
                if accept < 1.0:
                    ucursor += 1
                    if uniforms[ucursor - 1] >= accept:
                        continue
            executed += 1
            hit = rows[p0][p1]
            if hit is _UNSEEN:
                hit = self._resolve(p0, p1)
                rows = self._rows  # growth may have rebuilt the tables
            if hit is None:
                nulls += 1
                self._last = (p0, p1, p0, p1)
                continue
            q0, q1, delta = hit
            self._last = (p0, p1, q0, q1)
            for s, t in ((p0, q0), (p1, q1)):
                if t == s + 1:  # adjacent up-move: the dominant case
                    boundary = prefix[s]
                    slots[boundary - 1] = t
                    prefix[s] = boundary - 1
                elif t == s:
                    continue
                elif t > s:
                    # Ascending: when empty intermediate blocks collapse
                    # several boundary writes onto one slot, the highest
                    # state must land there (last write wins).
                    for y in range(s, t):
                        boundary = prefix[y]
                        slots[boundary - 1] = y + 1
                        prefix[y] = boundary - 1
                else:
                    # Descending for the mirror-image reason: the lowest
                    # state must survive on a collapsed boundary slot.
                    for y in range(s - 1, t - 1, -1):
                        boundary = prefix[y]
                        slots[boundary] = y
                        prefix[y] = boundary + 1
            if delta:
                lead += delta
                if leader_target is not None and lead == leader_target:
                    break
        self.steps += executed
        self.null_steps += nulls
        self._cursor = cursor
        self._ucursor = ucursor
        self._lead = lead
        return executed

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
