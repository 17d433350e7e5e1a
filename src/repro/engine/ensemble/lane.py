"""One ensemble lane: an exact multiset-chain trial on sorted slots.

A lane is one trial of the multiset chain: the same scheduler draws, the
same count-ordered inverse-CDF mapping, the same transition memo as a
solo :class:`~repro.engine.multiset.MultisetSimulator` with that seed.
:class:`SlotLane` advances a lane one interaction at a time in plain
Python — but on the **sorted slot array** representation rather than a
Fenwick tree: ``slots`` holds every agent's (lane-local) state id in
sorted order, so the initiator lookup is ``slots[ticket]`` — O(1) where
the Fenwick inverse CDF pays O(log k) — and an applied transition moves
one agent between states by rewriting only the block-boundary slots
between them (PLL's count-up transitions move almost exclusively between
adjacent ids, so this is 1-2 writes per interaction).

Every lane of a packed :class:`~repro.engine.ensemble.EnsembleSimulator`
cell runs here, memoizing transitions in a per-lane dict filled from the
cell's shared transition cache.

Lane-local state ids are assigned in first-appearance order — exactly the
order the solo run's interner assigns them — so the sorted-slot order,
and therefore every ticket-to-state mapping, matches the solo run
bit-for-bit.  ``tests/engine/test_ensemble.py`` pins this equivalence.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.engine.cache import TransitionCache
from repro.engine.interner import StateInterner
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import SimulationError

__all__ = ["SlotLane"]

#: Sentinel distinguishing "pair never computed" from a memoized null.
_UNSEEN = object()

#: Stride packing (local0, local1) pairs into one int key.  Keys stay
#: unique only while every local id is below it, so a lane refuses to
#: intern more states than this (fast-nonce with ``bits=48`` interns
#: about 39 states per agent, so it gets there near n = 27k).
_PAIR_STRIDE = 1 << 20


class SlotLane:
    """One exact multiset-chain trial on the sorted slot representation."""

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        *,
        cache: TransitionCache | None = None,
        target: int = 1,
    ) -> None:
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self.target = target
        if cache is None:
            from repro.engine.kernel import make_transition_cache

            interner = StateInterner()
            cache = make_transition_cache(protocol, interner)
        self.cache = cache
        self._interner = cache._interner  # shared global id space
        initial_global = self._interner.intern(protocol.initial_state())
        # local id 0 = the initial state, matching the solo interner.
        self.local_states = [initial_global]
        self._local_of_global = {initial_global: 0}
        self.slots = [0] * n
        self.prefix = [n]  # inclusive prefix counts per local id
        self.lead = n if protocol.output(protocol.initial_state()) == LEADER else 0
        self.steps = 0
        self.rng = np.random.default_rng(seed)
        self._d1: list[int] = []
        self._d2: list[int] = []
        self._cursor = 0
        # (local0, local1) -> (post_local0, post_local1, leader_delta) or
        # None for null interactions.
        # Keyed by p0 * _PAIR_STRIDE + p1: int keys hash measurably
        # faster than tuples in this loop's hottest line.
        self._pairs: dict[int, tuple[int, int, int] | None] = {}

    # -- bookkeeping -----------------------------------------------------

    def _local_id(self, global_id: int) -> int:
        """Lane-local id of a global state, interning on first sight."""
        local = self._local_of_global.get(global_id)
        if local is None:
            local = len(self.local_states)
            if local >= _PAIR_STRIDE:
                raise SimulationError(
                    f"lane reached {local} distinct states; its packed "
                    f"pair key supports at most {_PAIR_STRIDE}"
                )
            self._local_of_global[global_id] = local
            self.local_states.append(global_id)
            self.prefix.append(self.n)
        return local

    def _transition(self, p0: int, p1: int) -> tuple[int, int, int] | None:
        globals_ = self.local_states
        q0g, q1g = self.cache.apply(globals_[p0], globals_[p1])
        q0 = self._local_id(q0g)
        q1 = self._local_id(q1g)
        if q0 == p0 and q1 == p1:
            return None
        output = self.protocol.output
        state_of = self._interner.state_of
        delta = 0
        for q in (q0g, q1g):
            if output(state_of(q)) == LEADER:
                delta += 1
        for p in (globals_[p0], globals_[p1]):
            if output(state_of(p)) == LEADER:
                delta -= 1
        return q0, q1, delta

    def distinct_states_seen(self) -> int:
        """States this lane's trial has reached (matches the solo interner)."""
        return len(self.local_states)

    def state_counts(self) -> Counter[State]:
        """Decoded multiset of states currently present."""
        state_of = self._interner.state_of
        counts: Counter[State] = Counter()
        previous = 0
        for local, global_id in enumerate(self.local_states):
            count = self.prefix[local] - previous
            previous = self.prefix[local]
            if count:
                counts[state_of(global_id)] = count
        return counts

    @property
    def parallel_time(self) -> float:
        return self.steps / self.n

    # -- execution -------------------------------------------------------

    def run(self, max_steps: int, stop_at_target: bool = True) -> int:
        """Advance up to ``max_steps`` interactions; return how many ran.

        With ``stop_at_target`` the lane stops exactly at the first
        interaction that brings the leader count to ``target`` (the
        monotone-leader stabilization step).
        """
        if stop_at_target and self.lead == self.target:
            return 0
        n = self.n
        slots = self.slots
        prefix = self.prefix
        pairs = self._pairs
        transition = self._transition
        target = self.target if stop_at_target else None
        executed = 0
        d1, d2, cursor = self._d1, self._d2, self._cursor
        while executed < max_steps:
            if cursor >= len(d1):
                d1 = self.rng.integers(0, n, size=DRAW_BATCH_SIZE).tolist()
                d2 = self.rng.integers(0, n - 1, size=DRAW_BATCH_SIZE).tolist()
                self._d1, self._d2 = d1, d2
                cursor = 0
            t1 = d1[cursor]
            t2 = d2[cursor]
            cursor += 1
            p0 = slots[t1]
            # Responder ticket over n-1 agents: skip the initiator's slot
            # (virtually the last slot of its block).
            j2 = t2 + (t2 >= prefix[p0] - 1)
            p1 = slots[j2]
            executed += 1
            key = p0 * _PAIR_STRIDE + p1
            hit = pairs.get(key, _UNSEEN)
            if hit is _UNSEEN:
                hit = transition(p0, p1)
                pairs[key] = hit
            if hit is None:
                continue
            q0, q1, delta = hit
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
                self.lead += delta
                if target is not None and self.lead == target:
                    break
        self.steps += executed
        self._cursor = cursor
        return executed
