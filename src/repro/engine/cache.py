"""Memoized transition application over interned state ids.

Population protocol transitions are deterministic functions of the ordered
(initiator, responder) state pair, so ``T`` can be memoized exactly.  The
cache is bounded: once ``max_entries`` distinct pairs have been stored,
further misses are computed directly without insertion, so memory stays
bounded even for protocols with high-entropy components (e.g. the ``V_B``
count-up timers of PLL, whose ``count`` variable cycles through ``41 m``
values and makes most timer/timer pairs cold).

Two lookup structures back the memo:

* a dict keyed by the ordered id pair — always present, unbounded state
  space, the ``max_entries`` insertion bound applies here;
* a **dense fast path**: while the interned state space stays small
  (``<= DENSE_STATE_BOUND`` states by default; configurable per cache),
  stored pairs are mirrored into a ``(S, S)`` pair-indexed NumPy table.
  Scalar lookups then skip dict hashing, and
  :meth:`TransitionCache.apply_block` resolves whole arrays of pre-state
  pairs with one gather — the form the block engine (superbatch, uniform
  and weighted) consumes.  The moment the interner grows past the bound
  the dense mirror is dropped and everything falls back to the dict, so
  wide-state protocols pay nothing but the bound check.

A pair is mirrored into the dense table only when it is also stored in
the dict: the ``max_entries`` eviction discipline (insert-until-full,
then compute-without-storing) is observable through ``stats`` and must
not change underneath callers that tuned it.

Since the dense fast path landed, block lookups account stats **per
slot** on every path (PR 2's block path counted per *distinct* pair),
so ``hit_rate`` is comparable across paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.interner import StateInterner
from repro.engine.protocol import Protocol

__all__ = [
    "CacheStats",
    "DENSE_STATE_BOUND",
    "TransitionCache",
]

#: Default bound on the interned state space for which the dense
#: ``(S, S)`` mirror is maintained; beyond it lookups use only the dict.
#: 512 states cover all of the paper's protocols at tier-1 scale —
#: including PLL at ``n = 1024``, whose ``41 m`` count-up timers reach
#: ~275 states and used to silently drop the mirror at the old bound of
#: 256 — while capping the mirror at 512 x 512 x 2 int32 cells = 2 MiB.
#: Override per cache via the ``dense_bound`` constructor argument.
DENSE_STATE_BOUND = 512


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    #: Subset of ``hits`` answered by the dense pair table (scalar path)
    #: or resolved per-slot by :meth:`TransitionCache.apply_block`.
    dense_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total number of transitions requested through the cache."""
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class TransitionCache:
    """Apply a protocol's transition on int ids with exact memoization."""

    __slots__ = (
        "_protocol",
        "_interner",
        "_table",
        "_max_entries",
        "_dense",
        "_dense_cap",
        "_dense_bound",
        "stats",
    )

    def __init__(
        self,
        protocol: Protocol,
        interner: StateInterner,
        max_entries: int = 1 << 20,
        dense_bound: int = DENSE_STATE_BOUND,
    ) -> None:
        self._protocol = protocol
        self._interner = interner
        self._table: dict[tuple[int, int], tuple[int, int]] = {}
        self._max_entries = max_entries
        # Dense mirror: _dense[0] holds post-initiator ids, _dense[1]
        # post-responder ids, both flat (cap * cap) with -1 = not stored.
        # None once the interner outgrows the dense bound.
        self._dense_bound = dense_bound
        self._dense_cap = 16
        self._dense: tuple[np.ndarray, np.ndarray] | None = (
            (
                np.full(self._dense_cap * self._dense_cap, -1, dtype=np.int32),
                np.full(self._dense_cap * self._dense_cap, -1, dtype=np.int32),
            )
            if self._dense_bound > 0
            else None
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def dense_enabled(self) -> bool:
        """Whether the dense pair table is still live."""
        return self._dense is not None

    def _grow_dense(self, needed: int) -> None:
        """Grow (or drop) the dense mirror to cover ``needed`` state ids."""
        if self._dense is None:
            return
        if needed > self._dense_bound:
            self._dense = None
            return
        cap = self._dense_cap
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        old0, old1 = self._dense
        new0 = np.full(cap * cap, -1, dtype=np.int32)
        new1 = np.full(cap * cap, -1, dtype=np.int32)
        old_cap = self._dense_cap
        new0.reshape(cap, cap)[:old_cap, :old_cap] = old0.reshape(
            old_cap, old_cap
        )
        new1.reshape(cap, cap)[:old_cap, :old_cap] = old1.reshape(
            old_cap, old_cap
        )
        self._dense = (new0, new1)
        self._dense_cap = cap

    def apply(self, initiator_id: int, responder_id: int) -> tuple[int, int]:
        """Return post-state ids for an ordered pre-state id pair."""
        dense = self._dense
        if dense is not None:
            cap = self._dense_cap
            if initiator_id < cap and responder_id < cap:
                slot = initiator_id * cap + responder_id
                post0 = int(dense[0][slot])
                if post0 >= 0:
                    self.stats.hits += 1
                    self.stats.dense_hits += 1
                    return post0, int(dense[1][slot])
        key = (initiator_id, responder_id)
        found = self._table.get(key)
        if found is not None:
            self.stats.hits += 1
            return found
        result = self._compute(initiator_id, responder_id)
        if len(self._table) < self._max_entries:
            self.stats.misses += 1
            self._table[key] = result
            self._store_dense(initiator_id, responder_id, result)
        else:
            self.stats.bypasses += 1
        return result

    def _store_dense(
        self, initiator_id: int, responder_id: int, result: tuple[int, int]
    ) -> None:
        self._grow_dense(len(self._interner))
        dense = self._dense
        if dense is None:
            return
        cap = self._dense_cap
        if initiator_id < cap and responder_id < cap:
            slot = initiator_id * cap + responder_id
            dense[0][slot] = result[0]
            dense[1][slot] = result[1]

    def apply_block(
        self, pre0: np.ndarray, pre1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post-state ids for slot-aligned arrays of ordered pre pairs.

        The dense table resolves every stored pair with one gather; the
        remaining pairs (not yet stored, or outside the dense bound) fall
        back to one scalar :meth:`apply` per *distinct* missing pair, which
        also populates the tables for the next block.  Element order is
        preserved: ``out[i]`` is the post pair of ``(pre0[i], pre1[i])``.
        """
        size = pre0.shape[0]
        dense = self._dense
        if dense is not None and size:
            cap = self._dense_cap
            in_range = (pre0 < cap) & (pre1 < cap)
            if in_range.all():
                slots = pre0 * cap + pre1
                out0 = dense[0].take(slots)
                if (out0 >= 0).all():
                    self.stats.hits += size
                    self.stats.dense_hits += size
                    return out0.astype(np.int64), dense[1].take(slots).astype(
                        np.int64
                    )
                # Any miss drops the whole block to the generic path: it
                # resolves (and counts) every distinct pair exactly once,
                # filling the dense mirror for the next block as it goes.
        return self._apply_block_dict(pre0, pre1)

    def _apply_block_dict(
        self, pre0: np.ndarray, pre1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generic block path: one computation per distinct ordered pair.

        Stats are kept in per-slot units on every block path (the scalar
        ``apply`` accounts each distinct pair; duplicate slots count as
        hits of the first resolution), so ``hit_rate`` means the same
        thing whether a block resolved densely or through the dict.
        """
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

    def _compute(self, initiator_id: int, responder_id: int) -> tuple[int, int]:
        interner = self._interner
        pre_initiator = interner.state_of(initiator_id)
        pre_responder = interner.state_of(responder_id)
        post_initiator, post_responder = self._protocol.transition(
            pre_initiator, pre_responder
        )
        return interner.intern(post_initiator), interner.intern(post_responder)
