"""Tests for repro.engine.cache."""

import numpy as np
import pytest

from repro.engine.cache import DENSE_STATE_BOUND, TransitionCache
from repro.engine.interner import StateInterner
from repro.epidemic.epidemic import MaxPropagationProtocol
from repro.protocols.angluin import AngluinProtocol


def make_cache(max_entries: int = 1 << 20):
    protocol = AngluinProtocol()
    interner = StateInterner()
    leader = interner.intern(True)
    follower = interner.intern(False)
    return TransitionCache(protocol, interner, max_entries), leader, follower


class TestCacheCorrectness:
    def test_applies_protocol_transition(self):
        cache, leader, follower = make_cache()
        assert cache.apply(leader, leader) == (leader, follower)

    def test_null_transition_returns_same_ids(self):
        cache, leader, follower = make_cache()
        assert cache.apply(follower, follower) == (follower, follower)

    def test_order_matters(self):
        cache, leader, follower = make_cache()
        assert cache.apply(leader, follower) == (leader, follower)
        assert cache.apply(follower, leader) == (follower, leader)

    def test_result_matches_direct_computation_for_new_states(self):
        protocol = MaxPropagationProtocol()
        interner = StateInterner()
        cache = TransitionCache(protocol, interner)
        zero = interner.intern(0)
        one = interner.intern(1)
        assert cache.apply(zero, one) == (one, one)

    def test_new_post_states_are_interned(self):
        protocol = MaxPropagationProtocol()
        interner = StateInterner()
        cache = TransitionCache(protocol, interner)
        zero = interner.intern(0)
        # 1 has never been interned; the transition creates it... but
        # (0, 0) -> (0, 0), so nothing new:
        cache.apply(zero, zero)
        assert len(interner) == 1


class TestCacheStatistics:
    def test_miss_then_hit(self):
        cache, leader, follower = make_cache()
        cache.apply(leader, leader)
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)
        cache.apply(leader, leader)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_len_tracks_stored_pairs(self):
        cache, leader, follower = make_cache()
        cache.apply(leader, leader)
        cache.apply(leader, follower)
        cache.apply(leader, leader)
        assert len(cache) == 2

    def test_hit_rate(self):
        cache, leader, follower = make_cache()
        assert cache.stats.hit_rate == 0.0
        cache.apply(leader, leader)
        cache.apply(leader, leader)
        cache.apply(leader, leader)
        assert cache.stats.hit_rate == 2 / 3

    def test_bounded_cache_bypasses_beyond_cap(self):
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(leader, leader)  # stored
        cache.apply(leader, follower)  # bypassed
        assert len(cache) == 1
        assert cache.stats.bypasses == 1

    def test_bypassed_transitions_still_correct(self):
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(follower, follower)
        assert cache.apply(leader, leader) == (leader, follower)
        assert cache.apply(leader, leader) == (leader, follower)

    def test_lookups_total(self):
        cache, leader, follower = make_cache()
        for _ in range(5):
            cache.apply(leader, follower)
        assert cache.stats.lookups == 5


class TestCacheTinyBound:
    """Behavior at a tiny ``cache_entries`` bound (the eviction policy is
    insert-until-full, then compute-without-storing)."""

    def test_zero_capacity_never_stores(self):
        cache, leader, follower = make_cache(max_entries=0)
        for _ in range(3):
            assert cache.apply(leader, leader) == (leader, follower)
        assert len(cache) == 0
        assert cache.stats.bypasses == 3
        assert cache.stats.hits == cache.stats.misses == 0

    def test_stored_pairs_keep_hitting_after_the_bound(self):
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(leader, leader)  # occupies the single slot
        cache.apply(follower, leader)  # bypassed
        assert cache.apply(leader, leader) == (leader, follower)
        assert cache.stats.hits == 1

    def test_bypassed_pair_is_recomputed_every_time(self):
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(leader, leader)
        for _ in range(4):
            cache.apply(follower, leader)
        assert cache.stats.bypasses == 4
        assert len(cache) == 1

    def test_full_cache_hit_rate_unaffected_by_bypasses(self):
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(leader, leader)  # miss, stored
        cache.apply(leader, leader)  # hit
        cache.apply(follower, leader)  # bypass
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_max_entries_property_reflects_bound(self):
        cache, _, _ = make_cache(max_entries=7)
        assert cache.max_entries == 7


class TestDenseFastPath:
    """The (S, S) pair-indexed mirror for small interned state spaces."""

    def test_second_lookup_is_a_dense_hit(self):
        cache, leader, follower = make_cache()
        cache.apply(leader, leader)  # miss, stored in dict + dense
        assert cache.apply(leader, leader) == (leader, follower)
        assert cache.stats.dense_hits == 1
        assert cache.stats.hits == 1  # dense hits are hits

    def test_dense_disabled_beyond_the_state_bound(self):
        protocol = MaxPropagationProtocol()
        interner = StateInterner()
        cache = TransitionCache(protocol, interner)
        for value in range(DENSE_STATE_BOUND + 8):
            interner.intern(value)
        assert cache.dense_enabled  # not yet consulted past the bound
        zero, one = 0, 1
        cache.apply(zero, one)  # miss: _store_dense sees the wide space
        assert not cache.dense_enabled
        # Correctness is unaffected: the dict keeps answering.
        assert cache.apply(zero, one) == (one, one)
        assert cache.stats.hits >= 1
        assert cache.stats.dense_hits == 0

    def test_apply_block_matches_scalar_apply(self):
        protocol = MaxPropagationProtocol()
        interner = StateInterner()
        cache = TransitionCache(protocol, interner)
        for value in range(6):
            interner.intern(value)
        rng = np.random.default_rng(0)
        pre0 = rng.integers(0, 6, size=64)
        pre1 = rng.integers(0, 6, size=64)
        out0, out1 = cache.apply_block(pre0, pre1)
        reference = TransitionCache(protocol, interner)
        for i in range(64):
            want = reference.apply(int(pre0[i]), int(pre1[i]))
            assert (int(out0[i]), int(out1[i])) == want

    def test_apply_block_handles_empty_input(self):
        cache, _leader, _follower = make_cache()
        out0, out1 = cache.apply_block(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out0.shape == (0,) and out1.shape == (0,)

    def test_apply_block_works_past_the_dense_bound(self):
        protocol = MaxPropagationProtocol()
        interner = StateInterner()
        cache = TransitionCache(protocol, interner)
        wide = DENSE_STATE_BOUND + 16
        for value in range(wide):
            interner.intern(value)
        pre0 = np.arange(wide - 8, wide, dtype=np.int64)
        pre1 = np.arange(wide - 8, wide, dtype=np.int64)[::-1].copy()
        out0, out1 = cache.apply_block(pre0, pre1)
        for i in range(8):
            want0, want1 = protocol.transition(
                interner.state_of(int(pre0[i])),
                interner.state_of(int(pre1[i])),
            )
            assert interner.state_of(int(out0[i])) == want0
            assert interner.state_of(int(out1[i])) == want1

    def test_dense_respects_the_entry_bound(self):
        # A bypassed pair (dict full) must not sneak into the dense mirror
        # either — the eviction discipline stays observable.
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(leader, leader)  # stored
        cache.apply(follower, leader)  # bypassed
        cache.apply(follower, leader)  # must be recomputed, not dense-hit
        assert cache.stats.bypasses == 2
        assert cache.stats.dense_hits == 0

    def test_apply_block_counts_each_distinct_pair_once(self):
        # A block containing an unstorable pair (dict full) must not
        # double-compute or double-count it: one bypass per block.
        cache, leader, follower = make_cache(max_entries=1)
        cache.apply(leader, leader)  # occupies the single dict slot
        pre0 = np.array([leader, follower], dtype=np.int64)
        pre1 = np.array([leader, leader], dtype=np.int64)
        before = cache.stats.bypasses
        cache.apply_block(pre0, pre1)
        assert cache.stats.bypasses == before + 1


class TestConfigurableDenseBound:
    """The dense-mirror bound: a constructor argument over a module default."""

    def test_default_bound_covers_pll_at_n_1024(self):
        # The raise to 512 exists for exactly this regime: PLL reaches
        # ~275 states at n=1024 and used to drop the mirror at 256.
        assert DENSE_STATE_BOUND == 512

    def test_ctor_bound_overrides_the_default(self):
        protocol = MaxPropagationProtocol()
        interner = StateInterner()
        cache = TransitionCache(protocol, interner, dense_bound=4)
        for value in range(6):
            interner.intern(value)
        cache.apply(0, 1)
        assert not cache.dense_enabled
        assert cache.apply(0, 1) == (1, 1)  # dict path still answers

    def test_zero_bound_disables_the_mirror_outright(self):
        protocol = MaxPropagationProtocol()
        cache = TransitionCache(protocol, StateInterner(), dense_bound=0)
        assert not cache.dense_enabled
