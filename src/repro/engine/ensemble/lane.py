"""The sorted-slot multiset chain: one trial as a lane.

A lane is one trial of the multiset chain: the same scheduler draws, the
same count-ordered inverse-CDF mapping, the same transition memo as a
solo :class:`~repro.engine.multiset.MultisetSimulator` with that seed.
:class:`SlotLane` advances a lane on the **sorted slot array**
representation rather than a Fenwick tree: ``slots`` holds every
agent's (lane-local) state id in sorted order, so the initiator lookup
is ``slots[ticket]`` — O(1) where the Fenwick inverse CDF pays
O(log k) — and an applied transition moves one agent between states by
rewriting only the block-boundary slots between them (PLL's count-up
transitions move almost exclusively between adjacent ids, so this is
1-2 writes per interaction).

:meth:`SlotLane._run_python` is the one Python sorted-slot loop; it
memoizes transitions in a per-lane dict.  It runs two kinds of lane.

* A lane built on its own gets a :class:`LaneCell` of its own and
  numbers states with that cell's interner ids.  This is the solo
  engine: :class:`~repro.engine.kernel.multiset.KernelMultisetSimulator`
  is such a lane plus the engine surface.  Only such a lane takes
  ``weights``: it thins each proposal before it counts, with the
  uniforms of a refill drawn ahead and the unused ones handed back at
  the next refill, so the generator stream is the Fenwick
  :class:`~repro.schedulers.weighted.WeightedMultisetSimulator`'s.
* Lanes of a packed :class:`~repro.engine.ensemble.EnsembleSimulator`
  cell share a :class:`LaneCell`: the cell's transition cache, and for
  kernel protocols the buffers of the native loop
  (:mod:`repro.engine.native`).  A native lane runs in C and resolves
  pairs its siblings already resolved straight from the cache's global
  id-pair tables; control comes back to Python only for a pair the
  cell has never resolved (one scalar transition,
  :meth:`~repro.engine.kernel.KernelTransitionCache.resolve_miss`), a
  draw refill, the target, the budget, or table growth.  Lanes of
  cells without a kernel run the Python loop.
  A native lane that would pass :data:`KERNEL_PAIR_BOUND` local states
  raises :class:`~repro.errors.SimulationError`, as a Python lane does
  past its pair-key stride; the campaign pool reruns such a lane solo.

Every cell keeps the leader mark and, under a weighted schedule, the
thinning weight of each global state id; :meth:`LaneCell.sync_marks`
extends both.  A packed lane assigns local state ids in
first-appearance order — exactly the order the solo run's interner
assigns them — so the sorted-slot order, and therefore every
ticket-to-state mapping, matches the solo run bit-for-bit on either
loop.  ``tests/engine/test_ensemble.py`` pins this equivalence.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_right
from collections import Counter
from typing import Mapping

import numpy as np

from repro.engine import native
from repro.engine.cache import TransitionCache
from repro.engine.interner import StateInterner
from repro.engine.kernel import (
    KERNEL_PAIR_BOUND,
    KernelTransitionCache,
    make_transition_cache,
)
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.engine.protocol import LEADER, Protocol, State
from repro.errors import SimulationError

__all__ = ["LaneCell", "SlotLane"]

#: Sentinel distinguishing "pair never computed" from a memoized null.
_UNSEEN = object()

#: Stride packing (local0, local1) pairs into one int key.  Keys stay
#: unique only while every local id is below it, so a lane refuses to
#: intern more states than this (fast-nonce with ``bits=48`` interns
#: about 39 states per agent, so it gets there near n = 27k).
_PAIR_STRIDE = 1 << 20

#: Width of a fresh cell's local pair tables; they double as lanes
#: intern more states, up to :data:`KERNEL_PAIR_BOUND`.
_LOCAL_CAP = 64


def _pointer(array: np.ndarray) -> int:
    return array.ctypes.data


class _NativeBuffers:
    """The native loop's state for one cell, reused lane after lane.

    Holds every array ``slot_run`` reads or writes, and the
    :class:`~repro.engine.native.SlotLaneState` that points at them.
    One lane owns the buffers at a time; claiming them for the next
    lane clears only what the previous one used.  The buffers hold no
    reference to their cell or lane: without cycles, a finished cell's
    tables (and its cache's) are freed at once, not at the next
    garbage collection.
    """

    def __init__(self, library, n: int) -> None:
        self.run = library.slot_run
        self.store = library.slot_store
        self.state = native.SlotLaneState()
        self.ref = ctypes.byref(self.state)
        #: Bumped by every claim; a lane owns the buffers while its
        #: claim's generation is current.
        self.generation = 0
        self.state.n = n
        self.slots = np.zeros(n, dtype=np.int32)
        self.state.slots = _pointer(self.slots)
        self._allocate_local(_LOCAL_CAP)
        self.local_of = np.full(0, -1, dtype=np.int32)
        self.gmark = np.zeros(0, dtype=np.int8)
        self._marked = 0
        self._gtable: np.ndarray | None = None

    def _allocate_local(self, cap: int) -> None:
        """Local tables and per-local arrays of width ``cap``, keeping
        the region the current lane uses."""
        state = self.state
        used = state.locals
        post0 = np.full(cap * cap, -1, dtype=np.int32)
        post1 = np.full(cap * cap, -1, dtype=np.int32)
        prefix = np.zeros(cap, dtype=np.int32)
        mark = np.zeros(cap, dtype=np.int8)
        global_of = np.zeros(cap, dtype=np.int32)
        if used:
            old = state.cap
            for new, current in ((post0, self.post0), (post1, self.post1)):
                new.reshape(cap, cap)[:used, :used] = current.reshape(
                    old, old
                )[:used, :used]
            prefix[:used] = self.prefix[:used]
            mark[:used] = self.mark[:used]
            global_of[:used] = self.global_of[:used]
        self.post0, self.post1 = post0, post1
        self.prefix, self.mark, self.global_of = prefix, mark, global_of
        state.post0, state.post1 = _pointer(post0), _pointer(post1)
        state.prefix, state.mark = _pointer(prefix), _pointer(mark)
        state.global_of = _pointer(global_of)
        state.cap = cap
        state.limit = min(cap, KERNEL_PAIR_BOUND)

    def grow(self) -> None:
        """Widen the local tables; past the bound, raise."""
        if self.state.limit >= KERNEL_PAIR_BOUND:
            raise SimulationError(
                f"lane reached {self.state.locals} distinct states; the "
                f"native loop's pair tables hold at most {KERNEL_PAIR_BOUND}"
            )
        self._allocate_local(2 * self.state.cap)

    def sync_globals(self, cell: "LaneCell") -> None:
        """Cover every global id the cell has interned, and rebind the
        cache's pair tables if it reallocated (or dropped) them."""
        cache = cell.cache
        if len(cell.interner) == self._marked and cache._post0 is self._gtable:
            return
        cell.sync_marks()
        known = len(cell.marks)
        state = self.state
        if self.gmark.shape[0] < known:
            width = max(16, 2 * known)
            gmark = np.zeros(width, dtype=np.int8)
            gmark[:known] = cell.marks
            local_of = np.full(width, -1, dtype=np.int32)
            local_of[: self.local_of.shape[0]] = self.local_of
            self.gmark, self.local_of = gmark, local_of
            state.gmark, state.local_of = _pointer(gmark), _pointer(local_of)
        else:
            have = self._marked
            self.gmark[have:known] = cell.marks[have:known]
        self._marked = known
        table = cache._post0
        if table is not self._gtable:
            self._gtable = table
            if table is None:
                state.gpost0 = state.gpost1 = None
                state.gcap = 0
            else:
                cap = cache._cap
                for post in (table, cache._post1):
                    if post.dtype != np.int32 or post.shape != (cap * cap,):
                        raise SimulationError(
                            "the cache's pair tables are not flat int32 "
                            f"{cap} x {cap} arrays"
                        )
                state.gpost0 = _pointer(table)
                state.gpost1 = _pointer(cache._post1)
                state.gcap = cap

    def claim(self, cell: "LaneCell", initial: int, lead: int) -> int:
        """Reset the buffers to a fresh lane whose every agent is in
        global state ``initial``; the claim's generation."""
        state = self.state
        used = state.locals
        if used:
            cap = state.cap
            self.post0.reshape(cap, cap)[:used, :used] = -1
            self.post1.reshape(cap, cap)[:used, :used] = -1
            self.local_of[self.global_of[:used]] = -1
        self.slots.fill(0)
        self.sync_globals(cell)
        # local id 0 = the initial state, matching the solo interner.
        self.local_of[initial] = 0
        self.global_of[0] = initial
        self.mark[0] = self.gmark[initial]
        self.prefix[0] = state.n
        state.locals = 1
        state.batch = state.cursor = 0
        state.lead = lead
        state.hits = 0
        self.generation += 1
        return self.generation


class LaneCell:
    """What the lanes of a cell share.

    One transition cache (and its interner), the leader mark of every
    global state id — from the kernel's ``leader`` feature where the
    protocol compiles one, else from ``protocol.output`` once per id —
    the thinning weight of every id under a weighted schedule, and, for
    kernel caches, the native loop's buffers.  The native library is
    loaded when the first packed lane is claimed, not before.
    """

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        cache: TransitionCache | None = None,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if cache is None:
            cache = make_transition_cache(protocol, StateInterner())
        self.protocol = protocol
        self.n = n
        self.cache = cache
        self.interner: StateInterner = cache._interner
        #: Leader mark (0/1) per global state id.
        self.marks: list[int] = []
        #: Thinning weight per global state id; ``None`` is the uniform
        #: schedule.  Grown in place, so a running loop's reference
        #: stays valid.
        self.weights: list[float] | None = None
        self.inv_wmax2 = 1.0
        if weights is not None:
            # Imported here: repro.schedulers.weighted imports the engines.
            from repro.schedulers.weighted import thinning_constants

            self._weight_of_symbol, self.inv_wmax2 = thinning_constants(weights)
            self.weights = []
        self._native: _NativeBuffers | None = None
        self._loaded = False
        #: Native ``slot_run`` calls made by this cell's lanes.
        self.round_trips = 0

    @property
    def loop(self) -> str:
        """``"native"`` once lanes run in C, else ``"python"``."""
        return "python" if self._native is None else "native"

    def sync_marks(self) -> None:
        """Extend :attr:`marks` and :attr:`weights` over every interned
        state."""
        marks = self.marks
        have, known = len(marks), len(self.interner)
        if have >= known:
            return
        output = self.protocol.output
        state_of = self.interner.state_of
        kernel = getattr(self.cache, "kernel", None)
        if kernel is not None and kernel.has_feature("leader"):
            codes = self.cache.id_codes()[have:known]
            marks.extend(kernel.feature_values("leader", codes).tolist())
        else:
            marks.extend(
                1 if output(state_of(sid)) == LEADER else 0
                for sid in range(have, known)
            )
        if self.weights is not None:
            weight_of = self._weight_of_symbol
            self.weights.extend(
                weight_of.get(output(state_of(sid)), 1.0)
                for sid in range(have, known)
            )

    def claim(
        self, initial: int, lead: int
    ) -> tuple[_NativeBuffers | None, int]:
        """The native buffers reset for a fresh lane, and the claim's
        generation; ``None`` when the cell's lanes run in Python."""
        if not self._loaded:
            self._loaded = True
            if isinstance(self.cache, KernelTransitionCache):
                library = native.load_slots()
                if library is not None:
                    self._native = _NativeBuffers(library, self.n)
        if self._native is None:
            return None, 0
        return self._native, self._native.claim(self, initial, lead)


class SlotLane:
    """One exact multiset-chain trial on the sorted slot representation.

    With a ``cell`` the lane is packed: it shares that cell's cache,
    numbers states in its own first-appearance order and runs the
    native loop when the cell has one.  Without, it builds its own cell
    (over ``cache`` when given, thinning by ``weights`` when given),
    numbers states with the cell's interner ids and runs the Python
    loop — the solo engine, and the reference the native loop is
    tested against.  ``batch_size`` is the number of proposals drawn
    per refill.
    """

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        *,
        cache: TransitionCache | None = None,
        target: int = 1,
        cell: LaneCell | None = None,
        weights: Mapping[str, float] | None = None,
        batch_size: int = DRAW_BATCH_SIZE,
    ) -> None:
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self.target = target
        self.batch_size = batch_size
        own = cell is None
        if own:
            cell = LaneCell(protocol, n, cache, weights)
        elif cache is not None and cache is not cell.cache:
            raise SimulationError("a lane's cache must be its cell's cache")
        elif weights is not None or cell.weights is not None:
            raise SimulationError("a weighted lane runs in its own cell")
        self.cell = cell
        self.cache = cell.cache
        self._interner = cell.interner  # shared global id space
        #: In its own cell a lane's ids are the interner's ids.
        self._own = own
        initial_global = self._interner.intern(protocol.initial_state())
        cell.sync_marks()
        self.lead = n * cell.marks[initial_global]
        self.steps = 0
        #: Null interactions and first-sight pairs.  Both are counted
        #: on every run, so a stored summary never depends on the
        #: telemetry switch.
        self.null_steps = 0
        self.pair_interns = 0
        self.rng = np.random.default_rng(seed)
        self._d1: list[int] = []
        self._d2: list[int] = []
        self._cursor = 0
        self._uniforms: list[float] = []
        self._ucursor = 0
        # (local0, local1) -> (post_local0, post_local1, leader_delta) or
        # None for null interactions.
        # Keyed by p0 * _PAIR_STRIDE + p1: int keys hash measurably
        # faster than tuples in this loop's hottest line.
        self._pairs: dict[int, tuple[int, int, int] | None] = {}
        # On the native loop the configuration lives in the cell's
        # buffers instead of the lists below.
        self._native, self._generation = (
            (None, 0) if own else cell.claim(initial_global, self.lead)
        )
        if self._native is None:
            self.local_states: list[int] = []
            self._local_of_global: dict[int, int] = {}
            self.prefix: list[int] = []  # inclusive prefix counts per local id
            if own:
                self.load_ids({initial_global: n})
            else:
                # local id 0 = the initial state, matching the solo interner.
                self._local_id(initial_global)
                self.slots = [0] * n

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

    def _cover(self) -> None:
        """In its own cell, give every interned state its interner id
        as local id (states a detector or ``load_counts`` interned
        included), so the slot order is the interner's order."""
        if self._own:
            for global_id in range(len(self.local_states), len(self._interner)):
                self._local_id(global_id)

    def _transition(self, p0: int, p1: int) -> tuple[int, int, int] | None:
        self.pair_interns += 1
        globals_ = self.local_states
        q0g, q1g = self.cache.apply(globals_[p0], globals_[p1])
        self._cover()
        q0 = self._local_id(q0g)
        q1 = self._local_id(q1g)
        if q0 == p0 and q1 == p1:
            return None
        self.cell.sync_marks()
        marks = self.cell.marks
        delta = marks[q0g] + marks[q1g] - marks[globals_[p0]] - marks[globals_[p1]]
        return q0, q1, delta

    def load_ids(self, counts: Mapping[int, int]) -> None:
        """Replace the configuration of a lane in its own cell:
        ``counts[sid]`` agents in interner state ``sid``."""
        self._cover()
        self.cell.sync_marks()
        slots: list[int] = []
        running = 0
        for sid in range(len(self.prefix)):
            count = counts.get(sid, 0)
            slots.extend([sid] * count)
            running += count
            self.prefix[sid] = running
        self.slots = slots
        marks = self.cell.marks
        self.lead = sum(marks[sid] * count for sid, count in counts.items())

    def distinct_states_seen(self) -> int:
        """States this lane's trial has reached (matches the solo interner)."""
        if self._native is not None:
            return self._own_buffers().state.locals
        return len(self.local_states)

    def state_counts(self) -> Counter[State]:
        """Decoded multiset of states currently present."""
        if self._native is None:
            local_states, prefix = self.local_states, self.prefix
        else:
            buffers = self._own_buffers()
            used = buffers.state.locals
            local_states = buffers.global_of[:used].tolist()
            prefix = buffers.prefix[:used].tolist()
        state_of = self._interner.state_of
        counts: Counter[State] = Counter()
        previous = 0
        for local, global_id in enumerate(local_states):
            count = prefix[local] - previous
            previous = prefix[local]
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
        target = self.target if stop_at_target else None
        if self._native is not None:
            return self._run_native(max_steps, target)
        return self._run_python(max_steps, target)

    def step(self) -> tuple[int, int, int, int]:
        """Run one interaction on the Python loop; return its
        ``(pre0, pre1, post0, post1)`` local ids."""
        before = list(self.prefix)
        self._run_python(1, None)
        # The interaction is the last proposal drawn; find its agents'
        # states in the configuration it started from.
        t1 = self._d1[self._cursor - 1]
        t2 = self._d2[self._cursor - 1]
        p0 = bisect_right(before, t1)
        p1 = bisect_right(before, t2 + (t2 >= before[p0] - 1))
        hit = self._pairs[p0 * _PAIR_STRIDE + p1]
        return (p0, p1, p0, p1) if hit is None else (p0, p1, hit[0], hit[1])

    def _own_buffers(self) -> _NativeBuffers:
        buffers = self._native
        if buffers.generation != self._generation:
            raise SimulationError(
                "a later lane of this cell has taken over its native buffers"
            )
        return buffers

    def _run_native(self, max_steps: int, target: int | None) -> int:
        buffers = self._own_buffers()
        state = buffers.state
        state.target = -1 if target is None else target
        run, ref = buffers.run, buffers.ref
        size = self.batch_size
        executed = 0
        calls = 0
        while executed < max_steps:
            status = run(ref, max_steps - executed)
            calls += 1
            executed += state.steps
            if status == native.SLOT_REFILL:
                self._d1 = self.rng.integers(0, self.n, size=size, dtype=np.int64)
                self._d2 = self.rng.integers(
                    0, self.n - 1, size=size, dtype=np.int64
                )
                state.d1, state.d2 = _pointer(self._d1), _pointer(self._d2)
                state.batch = size
                state.cursor = 0
            elif status == native.SLOT_MISS:
                q0g, q1g = self.cache.resolve_miss(state.gpre0, state.gpre1)
                buffers.sync_globals(self.cell)
                while not buffers.store(ref, q0g, q1g):
                    buffers.grow()
            elif status == native.SLOT_GROW:
                buffers.grow()
            else:  # the budget or the target
                break
        stats = self.cache.stats
        stats.hits += state.hits
        stats.dense_hits += state.hits
        state.hits = 0
        self.cell.round_trips += calls
        self.steps += executed
        self.lead = state.lead
        return executed

    def _refill(self) -> None:
        """Draw the next ``batch_size`` proposals' tickets and, under a
        weighted schedule, their thinning uniforms."""
        rng = self.rng
        if self._uniforms:
            self._rewind_uniforms()
        size = self.batch_size
        self._d1 = rng.integers(0, self.n, size=size).tolist()
        self._d2 = rng.integers(0, self.n - 1, size=size).tolist()
        self._cursor = 0
        if self.cell.weights is not None:
            # Drawn ahead in one call: a proposal takes at most one, and
            # the next refill hands the unused ones back to the generator.
            self._uniforms_from = rng.bit_generator.state
            self._uniforms = rng.random(size).tolist()
            self._ucursor = 0

    def _rewind_uniforms(self) -> None:
        """Leave the generator where ``_ucursor`` scalar ``random()``
        calls after the last refill would have: the Fenwick path's
        stream, which draws one uniform per thinned proposal."""
        bits = self.rng.bit_generator
        before = self._uniforms_from
        bits.state = before
        bits.advance(self._ucursor)  # one 64-bit output per uniform
        # advance() drops the buffered 32-bit half that the ticket draws
        # may have left; uniforms never consume it, so restore it.
        state = bits.state
        state["has_uint32"] = before["has_uint32"]
        state["uinteger"] = before["uinteger"]
        bits.state = state

    def _run_python(self, max_steps: int, target: int | None) -> int:
        """The sorted-slot loop.

        Under a weighted schedule each proposal is thinned before it
        counts: accepted when ``w0 * w1 * inv_wmax2 >= 1``, else with
        one uniform draw.  A rejected proposal consumes its tickets and
        that draw but touches neither the configuration nor the memo,
        and is not an interaction."""
        slots = self.slots
        prefix = self.prefix
        pairs = self._pairs
        transition = self._transition
        weight = self.cell.weights
        inv_wmax2 = self.cell.inv_wmax2
        lead = self.lead
        executed = 0
        nulls = 0
        d1, d2, cursor = self._d1, self._d2, self._cursor
        uniforms, ucursor = self._uniforms, self._ucursor
        while executed < max_steps:
            if cursor >= len(d1):
                self._ucursor = ucursor
                self._refill()
                d1, d2, uniforms = self._d1, self._d2, self._uniforms
                cursor = ucursor = 0
            t1 = d1[cursor]
            t2 = d2[cursor]
            cursor += 1
            p0 = slots[t1]
            # Responder ticket over n-1 agents: skip the initiator's slot
            # (virtually the last slot of its block).
            j2 = t2 + (t2 >= prefix[p0] - 1)
            p1 = slots[j2]
            if weight is not None:
                accept = weight[p0] * weight[p1] * inv_wmax2
                if accept < 1.0:
                    ucursor += 1
                    if uniforms[ucursor - 1] >= accept:
                        continue
            executed += 1
            key = p0 * _PAIR_STRIDE + p1
            hit = pairs.get(key, _UNSEEN)
            if hit is _UNSEEN:
                hit = transition(p0, p1)
                pairs[key] = hit
            if hit is None:
                nulls += 1
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
                lead += delta
                if lead == target:
                    break
        self.steps += executed
        self.null_steps += nulls
        self._cursor = cursor
        self._ucursor = ucursor
        self.lead = lead
        return executed
