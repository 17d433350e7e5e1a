"""Kernel-backed transition resolution over interned state ids.

:class:`KernelTransitionCache` is the drop-in replacement for
:class:`~repro.engine.cache.TransitionCache` used when a protocol
compiles to a :class:`~repro.engine.kernel.compiled.CompiledKernel`.
Same surface (``apply``, ``apply_block``, ``stats``, the shared
interner), same observable semantics — post ids for ordered pre-id
pairs, posts of every requested pair interned in (post-initiator,
post-responder) order.  Scalar lookups gather from an id-pair-indexed
post table (no dict hashing, no tuple allocation).  A pair missing
from it resolves one of two ways, by caller:

* **universe fills** — :meth:`apply` (the solo engines' scalar path)
  and :meth:`apply_block` (superbatch) read the kernel's shared
  :class:`~repro.engine.kernel.compiled.CodeUniverse`, a pair memo in
  packed-code space filled by rectangular vectorized kernel calls (at
  most one per universe growth).  These callers reuse a universe that
  travels with the *compiled kernel* (shared across instances via
  ``KernelSpec.cache_key``), so a campaign's later trials find every
  pair already resolved;
* **one scalar transition** — :meth:`resolve_miss`, the packed native
  loop's miss handler, runs ``protocol.transition`` once on the pair's
  interned pre-states and never touches the universe.  A packed cell
  requests few of the pairs a fill computes: on E9 a fill covers about
  one new code's whole row and column, 6.7 M pairs over a run of which
  the cells ever request 269,280 (4%), and the fills took 55–68% of
  the run.  Such a cache registers no code in the universe, so its
  quadratic tables never grow.

Neither path lets the universe touch the engine interner: ids are
interned only for posts of pairs actually requested, in request order,
so ``distinct_states_seen()`` (and therefore stored trial outcomes)
stays byte-identical to the interner+cache path.

Beyond :data:`KERNEL_PAIR_BOUND` interned states the quadratic id
tables are dropped and resolved pairs move to a bounded dict memo —
resolved the same ways, the paths differ only in lookup cost.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cache import CacheStats
from repro.engine.interner import StateInterner
from repro.engine.kernel.compiled import CompiledKernel
from repro.telemetry.profile import DISABLED

__all__ = ["KERNEL_PAIR_BOUND", "KernelTransitionCache"]

#: Largest interned state space for which the quadratic id-pair post
#: tables are maintained (2048^2 x 2 int32 cells = 32 MiB at the cap);
#: the paper's protocols stay far below it at every tier-1 scale.
KERNEL_PAIR_BOUND = 2048


class KernelTransitionCache:
    """Apply a compiled kernel on int ids with exact, growing memoization."""

    __slots__ = (
        "_protocol",
        "_interner",
        "kernel",
        "_universe",
        "_max_entries",
        "_pair_bound",
        "_codes",
        "_uindex",
        "_code_ids",
        "_sorted_codes",
        "_sorted_ids",
        "_post0",
        "_post1",
        "_list0",
        "_list1",
        "_cap",
        "_stored",
        "_wide",
        "stats",
        "profile",
    )

    def __init__(
        self,
        protocol,
        interner: StateInterner,
        max_entries: int = 1 << 20,
        kernel: CompiledKernel | None = None,
        pair_bound: int = KERNEL_PAIR_BOUND,
    ) -> None:
        if kernel is None:
            from repro.engine.kernel import compiled_kernel_for

            kernel = compiled_kernel_for(protocol)
            if kernel is None:
                raise ValueError(
                    f"protocol {protocol.name!r} does not compile a kernel"
                )
        self._protocol = protocol
        self._interner = interner
        self.kernel = kernel
        self._universe = kernel.universe
        self._max_entries = max_entries
        self._pair_bound = pair_bound
        self._codes = np.empty(0, dtype=np.int64)
        self._uindex = np.empty(0, dtype=np.int64)
        self._code_ids: dict[int, int] = {}
        self._sorted_codes = np.empty(0, dtype=np.int64)
        self._sorted_ids = np.empty(0, dtype=np.int64)
        # Id-level post tables (flat cap * cap, -1 = not yet requested):
        # the gather every hot-path lookup resolves from.
        self._cap = 16
        self._post0: np.ndarray | None = np.full(
            self._cap * self._cap, -1, dtype=np.int32
        )
        self._post1: np.ndarray | None = np.full(
            self._cap * self._cap, -1, dtype=np.int32
        )
        # Plain-list mirrors of the id tables for the scalar hit path:
        # one list index beats a NumPy scalar index by ~3x in the
        # per-interaction engines' hot loops.
        self._list0: list[int] | None = self._post0.tolist()
        self._list1: list[int] | None = self._post1.tolist()
        self._stored = 0
        self._wide: dict[tuple[int, int], tuple[int, int]] = {}
        self.stats = CacheStats()
        # Engines holding a StageProfile swap it in; the shared disabled
        # default keeps the fill sites below unconditional (no hasattr
        # on the miss path).
        self.profile = DISABLED
        self._sync_ids()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._stored + len(self._wide)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def dense_enabled(self) -> bool:
        """Whether the id-pair gather tables are still live."""
        return self._post0 is not None

    def _sync_ids(self) -> None:
        """Cover every interned state: its code and the reverse map."""
        known = len(self._interner)
        have = self._codes.shape[0]
        if known == have:
            return
        encode = self.kernel.encode
        state_of = self._interner.state_of
        codes = np.empty(known, dtype=np.int64)
        codes[:have] = self._codes
        for sid in range(have, known):
            code = encode(state_of(sid))
            codes[sid] = code
            self._code_ids.setdefault(code, sid)
        self._codes = codes

    def _sync_universe(self) -> None:
        """Register every interned state in the shared universe.

        Only the fill paths (:meth:`_resolve`, :meth:`_resolve_subset`)
        call this, so a cache whose misses all go through
        :meth:`resolve_miss` never grows the universe's quadratic
        tables.
        """
        self._sync_ids()
        known = self._codes.shape[0]
        have = self._uindex.shape[0]
        if known == have:
            return
        index_for = self._universe.index_for
        uindex = np.empty(known, dtype=np.int64)
        uindex[:have] = self._uindex
        for sid, code in enumerate(self._codes[have:].tolist(), have):
            uindex[sid] = index_for(code)
        self._uindex = uindex

    def id_codes(self) -> np.ndarray:
        """Packed codes of every interned state, id-indexed (a view).

        Engines use this to evaluate kernel output-feature extractors
        (leader marks, phases) over whole id ranges at once.
        """
        self._sync_ids()
        return self._codes

    def _grow_tables(self, needed: int) -> None:
        if self._post0 is None:
            return
        if needed > self._pair_bound:
            self._post0 = self._post1 = None
            self._list0 = self._list1 = None
            return
        cap = self._cap
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        old = self._cap
        new0 = np.full(cap * cap, -1, dtype=np.int32)
        new1 = np.full(cap * cap, -1, dtype=np.int32)
        new0.reshape(cap, cap)[:old, :old] = self._post0.reshape(old, old)
        new1.reshape(cap, cap)[:old, :old] = self._post1.reshape(old, old)
        self._post0, self._post1, self._cap = new0, new1, cap
        self._list0 = new0.tolist()
        self._list1 = new1.tolist()

    def _id_for_code(self, code: int) -> int:
        """Engine id of a post code, interning its state on first sight."""
        sid = self._code_ids.get(code)
        if sid is None:
            sid = self._interner.intern(self.kernel.decode(code))
            self._sync_ids()
        return sid

    def _resolve(self, initiator_id: int, responder_id: int) -> tuple[int, int]:
        """Post ids for a pair not yet in the id tables, from the
        universe (and store them)."""
        self._sync_universe()
        code0, code1 = self._universe.pair_posts(
            int(self._uindex[initiator_id]),
            int(self._uindex[responder_id]),
            self.profile,
        )
        post0 = self._id_for_code(code0)
        post1 = self._id_for_code(code1)
        return self._file(initiator_id, responder_id, post0, post1)

    def resolve_miss(
        self, initiator_id: int, responder_id: int
    ) -> tuple[int, int]:
        """Post ids for a pair the id tables lack, by one scalar
        ``protocol.transition`` on the interned pre-states.

        The native loop's miss handler: it returns only for pairs the
        cell's live id tables lack, so the one lookup left is ``_wide``
        once those tables are dropped.  The universe is not touched: a
        packed cell requests a few percent of the pairs a fill would
        compute (see DESIGN §4).  Posts are interned in
        (post-initiator, post-responder) order, as on every path.
        """
        if self._post0 is None:
            found = self._wide.get((initiator_id, responder_id))
            if found is not None:
                self.stats.hits += 1
                return found
        interner = self._interner
        post0, post1 = self._protocol.transition(
            interner.state_of(initiator_id), interner.state_of(responder_id)
        )
        return self._file(
            initiator_id,
            responder_id,
            interner.intern(post0),
            interner.intern(post1),
        )

    def _file(
        self, initiator_id: int, responder_id: int, post0: int, post1: int
    ) -> tuple[int, int]:
        """Store one resolved pair in the id tables (``_wide`` past the
        pair bound, nowhere past ``max_entries``) and count it."""
        result = (post0, post1)
        self._grow_tables(len(self._interner))
        table0 = self._post0
        if table0 is not None:
            cap = self._cap
            if initiator_id < cap and responder_id < cap:
                slot = initiator_id * cap + responder_id
                table0[slot] = post0
                self._post1[slot] = post1
                self._list0[slot] = post0
                self._list1[slot] = post1
                self._stored += 1
                self.stats.misses += 1
                return result
        if len(self._wide) < self._max_entries:
            self._wide[(initiator_id, responder_id)] = result
            self.stats.misses += 1
        else:
            self.stats.bypasses += 1
        return result

    # ------------------------------------------------------------------
    # the TransitionCache surface
    # ------------------------------------------------------------------

    def apply(self, initiator_id: int, responder_id: int) -> tuple[int, int]:
        """Return post-state ids for an ordered pre-state id pair."""
        table0 = self._list0
        if table0 is not None:
            cap = self._cap
            if initiator_id < cap and responder_id < cap:
                slot = initiator_id * cap + responder_id
                post0 = table0[slot]
                if post0 >= 0:
                    self.stats.hits += 1
                    self.stats.dense_hits += 1
                    return post0, self._list1[slot]
        else:
            found = self._wide.get((initiator_id, responder_id))
            if found is not None:
                self.stats.hits += 1
                return found
        return self._resolve(initiator_id, responder_id)

    def apply_block(
        self, pre0: np.ndarray, pre1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post-state ids for slot-aligned arrays of ordered pre pairs.

        One gather when every pair is already in the id tables.  Blocks
        with missing pairs resolve through the universe in bulk: post
        codes gather from the shared memo and translate to ids in one
        vectorized pass when every post state is already interned — the
        steady state.  Only blocks that *discover* states fall back to
        the ordered per-pair path, which preserves the interner's
        request-order id assignment exactly.  Stats stay in per-slot
        units, mirroring :meth:`TransitionCache.apply_block`.
        """
        size = pre0.shape[0]
        table0 = self._post0
        if table0 is not None and size:
            cap = self._cap
            if (pre0 < cap).all() and (pre1 < cap).all():
                slots = pre0 * cap + pre1
                out0 = table0.take(slots)
                missing = out0 < 0
                count = int(np.count_nonzero(missing))
                if count == 0:
                    self.stats.hits += size
                    self.stats.dense_hits += size
                    return (
                        out0.astype(np.int64),
                        self._post1.take(slots).astype(np.int64),
                    )
                # Resolve only the missing subset through the universe
                # memo; the rest of the block stays a pure gather.
                if self._resolve_subset(pre0[missing], pre1[missing]):
                    self.stats.hits += size - count
                    self.stats.dense_hits += size - count
                    self.stats.misses += count
                    out0 = table0.take(slots)
                    return (
                        out0.astype(np.int64),
                        self._post1.take(slots).astype(np.int64),
                    )
        return self._apply_block_pairwise(pre0, pre1)

    def _resolve_subset(self, pre0: np.ndarray, pre1: np.ndarray) -> bool:
        """Bulk-resolve missing pairs into the id tables; ``False`` to
        fall back.

        Falls back when the universe memo is gone or any post state is
        not yet interned (interning order must follow pair request
        order, which only the pairwise path guarantees), and when the
        id tables themselves are out of range.
        """
        self._sync_universe()
        posts = self._universe.block_posts(
            self._uindex.take(pre0), self._uindex.take(pre1), self.profile
        )
        if posts is None:
            return False
        code0, code1 = posts
        codes = self._codes
        if self._sorted_ids.shape[0] != codes.shape[0]:
            # Sorted view for vectorized code -> id translation.
            order = np.argsort(codes, kind="stable")
            self._sorted_codes = codes[order]
            self._sorted_ids = order
        sorted_codes = self._sorted_codes
        width = sorted_codes.shape[0]
        position0 = np.minimum(np.searchsorted(sorted_codes, code0), width - 1)
        position1 = np.minimum(np.searchsorted(sorted_codes, code1), width - 1)
        if (sorted_codes[position0] != code0).any() or (
            sorted_codes[position1] != code1
        ).any():
            return False
        out0 = self._sorted_ids[position0]
        out1 = self._sorted_ids[position1]
        table0 = self._post0
        cap = self._cap
        slots = pre0 * cap + pre1
        table0[slots] = out0
        self._post1[slots] = out1
        list0, list1 = self._list0, self._list1
        for slot, value0, value1 in zip(
            slots.tolist(), out0.tolist(), out1.tolist()
        ):
            list0[slot] = value0
            list1[slot] = value1
        self._stored += int(np.unique(slots).shape[0])
        return True

    def _apply_block_pairwise(
        self, pre0: np.ndarray, pre1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Order-preserving fallback: one ``apply`` per distinct pair."""
        stride = len(self._interner)
        keys = pre0.astype(np.int64) * stride + pre1
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        out0 = np.empty(unique_keys.shape[0], dtype=np.int64)
        out1 = np.empty(unique_keys.shape[0], dtype=np.int64)
        for index, key in enumerate(unique_keys.tolist()):
            post0, post1 = self.apply(key // stride, key % stride)
            out0[index] = post0
            out1[index] = post1
        self.stats.hits += keys.shape[0] - unique_keys.shape[0]
        return out0[inverse], out1[inverse]
