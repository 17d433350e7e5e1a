"""Unit and property tests for the count-level super-batch engine.

Distributional agreement with the other engines lives in
``test_superbatch_agree.py``; this file pins the count-level mechanics:
exact run-length sampling, pair-multiset margins, count-vector
invariants across blocks, per-seed determinism, the exact in-run
leader truncation, and the count-vector base the engine runs on
(configuration surface, stopping rules, the geometric null-run skip and
checkpoint round-trips).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import ks_critical_value, ks_statistic
from repro.core.pll import PLLProtocol
from repro.engine.convergence import SilenceDetector
from repro.engine.superbatch import SuperBatchSimulator, SuperBatchStats
from repro.engine.superbatch.sampling import (
    sample_run_length,
    sample_run_pairs,
    split_pair_multiset,
)
from repro.epidemic.epidemic import MaxPropagationProtocol
from repro.errors import ConvergenceError, SimulationError
from repro.protocols.angluin import AngluinProtocol
from repro.protocols.majority import ApproximateMajority


class TestSampleRunLength:
    def test_matches_brute_force_birthday_process(self):
        # The sampled run length must follow the exact distribution of
        # "interactions before any agent repeats" under the sequential
        # scheduler, which a pick-by-pick simulation realizes directly.
        n, draws = 40, 20_000
        rng = np.random.default_rng(0)
        sampled = np.array(
            [sample_run_length(rng, n, 10_000)[0] for _ in range(draws)],
            dtype=float,
        )
        brute_rng = np.random.default_rng(1)
        brute = np.empty(draws)
        for index in range(draws):
            seen = set()
            length = 0
            while True:
                initiator = int(brute_rng.integers(0, n))
                responder = int(brute_rng.integers(0, n - 1))
                responder += responder >= initiator
                if initiator in seen or responder in seen:
                    break
                seen.add(initiator)
                seen.add(responder)
                length += 1
            brute[index] = length
        statistic = ks_statistic(sampled, brute)
        assert statistic < ks_critical_value(draws, draws, alpha=0.001)

    def test_cap_is_reported_as_uncollided(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            length, collided = sample_run_length(rng, 1000, 3)
            assert 0 <= length <= 3
            if length == 3:
                assert not collided
            else:
                assert collided

    def test_limit_clamped_to_half_the_population(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            length, collided = sample_run_length(rng, 10, 10_000)
            assert length <= 5

    def test_always_at_least_one_interaction(self):
        # The two picks of one interaction are distinct by construction.
        rng = np.random.default_rng(0)
        assert all(
            sample_run_length(rng, 8, 4)[0] >= 1 for _ in range(200)
        )


class TestSampleRunPairs:
    @given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_margins_and_totals(self, seed, pairs):
        rng = np.random.default_rng(seed)
        support = np.array([0, 1, 2, 5, 9], dtype=np.int64)
        pool = np.array([200, 3, 17, 40, 1], dtype=np.int64)
        pre0, pre1, weight = sample_run_pairs(rng, support, pool, pairs)
        assert weight.sum() == pairs
        assert (weight > 0).all()
        drawn = np.zeros(10, dtype=np.int64)
        np.add.at(drawn, pre0, weight)
        np.add.at(drawn, pre1, weight)
        assert drawn.sum() == 2 * pairs
        # Without-replacement: never draws more of a state than exists.
        limits = np.zeros(10, dtype=np.int64)
        limits[support] = pool
        assert (drawn <= limits).all()
        # COO pairs are unique (aggregated), and ids come from support.
        keys = pre0 * 10 + pre1
        assert len(np.unique(keys)) == keys.shape[0]
        assert np.isin(pre0, support).all() and np.isin(pre1, support).all()

    def test_single_state_population_short_circuits(self):
        rng = np.random.default_rng(0)
        pre0, pre1, weight = sample_run_pairs(
            rng, np.array([7]), np.array([1000]), 13
        )
        assert pre0.tolist() == [7] and pre1.tolist() == [7]
        assert weight.tolist() == [13]

    def test_state_frequencies_match_hypergeometric_margins(self):
        # Aggregate per-state draw frequencies across many runs must
        # match the without-replacement expectation 2L * count / total.
        rng = np.random.default_rng(3)
        support = np.arange(4, dtype=np.int64)
        pool = np.array([600, 300, 90, 10], dtype=np.int64)
        pairs = 100
        totals = np.zeros(4)
        runs = 400
        for _ in range(runs):
            pre0, pre1, weight = sample_run_pairs(rng, support, pool, pairs)
            np.add.at(totals, pre0, weight)
            np.add.at(totals, pre1, weight)
        expected = 2 * pairs * runs * pool / pool.sum()
        np.testing.assert_allclose(totals, expected, rtol=0.05)

    def test_initiator_responder_roles_are_symmetric_in_distribution(self):
        # Each sampled agent lands in an initiator slot with probability
        # exactly 1/2, so per-state initiator counts must match
        # responder counts in aggregate.
        rng = np.random.default_rng(4)
        support = np.arange(3, dtype=np.int64)
        pool = np.array([500, 100, 25], dtype=np.int64)
        initiator_totals = np.zeros(3)
        responder_totals = np.zeros(3)
        for _ in range(600):
            pre0, pre1, weight = sample_run_pairs(rng, support, pool, 50)
            np.add.at(initiator_totals, pre0, weight)
            np.add.at(responder_totals, pre1, weight)
        np.testing.assert_allclose(
            initiator_totals, responder_totals, rtol=0.05
        )


class TestSplitPairMultiset:
    def test_split_preserves_totals_and_bounds(self):
        rng = np.random.default_rng(0)
        weights = np.array([5, 0, 9, 1], dtype=np.int64)
        for take in (0, 1, 7, 15):
            prefix = split_pair_multiset(rng, weights, take)
            assert prefix.sum() == take
            assert (prefix <= weights).all()

    @given(
        weights=st.lists(st.integers(0, 50), min_size=1, max_size=8),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_nested_splits_stay_inside_the_run(self, weights, fraction, seed):
        # The bisection splits a prefix again: every nested prefix must
        # be a sub-multiset of the one it was split from.
        rng = np.random.default_rng(seed)
        run = np.asarray(weights, dtype=np.int64)
        take = int(fraction * int(run.sum()))
        prefix = split_pair_multiset(rng, run, take)
        inner = split_pair_multiset(rng, prefix, take // 2)
        assert prefix.sum() == take and inner.sum() == take // 2
        assert (inner >= 0).all()
        assert (inner <= prefix).all() and (prefix <= run).all()


class TestSimulatorInvariants:
    @given(
        n=st.integers(2, 400),
        seed=st.integers(0, 2**31 - 1),
        chunk=st.integers(1, 700),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_stay_nonnegative_and_sum_to_n(self, n, seed, chunk):
        sim = SuperBatchSimulator(AngluinProtocol(), n, seed=seed)
        for _ in range(6):
            sim.run(chunk)
            assert (sim._counts >= 0).all()
            assert int(sim._counts.sum()) == n
        assert sim.steps == 6 * chunk

    @given(n=st.integers(4, 120), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_pll_counts_invariant_through_stabilization(self, n, seed):
        sim = SuperBatchSimulator(
            PLLProtocol.for_population(n), n, seed=seed
        )
        sim.run_until_stabilized()
        assert (sim._counts >= 0).all()
        assert int(sim._counts.sum()) == n
        assert sim.leader_count == 1

    def test_rejects_tiny_populations(self):
        with pytest.raises(SimulationError):
            SuperBatchSimulator(AngluinProtocol(), 1)

    def test_n_equals_two(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 2, seed=0)
        sim.run(100)
        assert sim.steps == 100
        assert int(sim._counts.sum()) == 2

    def test_output_counts_track_commits(self):
        n = 64
        sim = SuperBatchSimulator(ApproximateMajority(), n, seed=5)
        sim.run(500)
        assert sum(sim.output_counts.values()) == n


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def trajectory(seed):
            sim = SuperBatchSimulator(
                PLLProtocol.for_population(128), 128, seed=seed
            )
            points = []
            for _ in range(8):
                sim.run(400)
                points.append((sim.steps, dict(sim.state_counts())))
            points.append(sim.run_until_stabilized())
            return points

        assert trajectory(1234) == trajectory(1234)

    def test_different_seeds_diverge(self):
        def final(seed):
            sim = SuperBatchSimulator(
                PLLProtocol.for_population(128), 128, seed=seed
            )
            return sim.run_until_stabilized()

        outcomes = {final(seed) for seed in range(6)}
        assert len(outcomes) > 1

    def test_stabilization_step_is_deterministic_per_seed(self):
        for seed in range(4):
            first = SuperBatchSimulator(
                PLLProtocol.for_population(200), 200, seed=seed
            ).run_until_stabilized()
            second = SuperBatchSimulator(
                PLLProtocol.for_population(200), 200, seed=seed
            ).run_until_stabilized()
            assert first == second


class TestLeaderTruncation:
    def test_exact_first_hit_when_every_delta_is_minus_one(self):
        # With unit-loss deltas the hit position is fully determined by
        # the leader surplus, whatever order the bisection resolves.
        sim = SuperBatchSimulator(PLLProtocol.for_population(64), 64, seed=0)
        weight = np.array([10, 20, 5], dtype=np.int64)
        deltas = np.array([0, -1, 0], dtype=np.int64)
        found = sim._truncate_run(weight, deltas, lead=8, target=1)
        assert found is not None
        prefix, steps = found
        assert int(prefix.sum()) == steps
        assert prefix[1] == 7  # exactly the losses needed to reach 1
        assert int((prefix * deltas).sum()) == -7

    def test_no_hit_when_target_unreachable(self):
        sim = SuperBatchSimulator(PLLProtocol.for_population(64), 64, seed=0)
        weight = np.array([10, 3], dtype=np.int64)
        deltas = np.array([0, -1], dtype=np.int64)
        assert sim._truncate_run(weight, deltas, lead=8, target=1) is None

    def test_skipping_deltas_report_no_exact_hit(self):
        # A two-leader-loss interaction jumping straight past the target
        # must mirror the batch engine's `cumulative == target` scan:
        # no exact hit.
        sim = SuperBatchSimulator(PLLProtocol.for_population(64), 64, seed=0)
        weight = np.array([4], dtype=np.int64)
        deltas = np.array([-2], dtype=np.int64)
        assert sim._truncate_run(weight, deltas, lead=4, target=1) is None

    def test_run_is_cut_at_the_exact_first_hit(self):
        # Angluin from all leaders: every interaction of the first run
        # is leader-meets-leader and costs one leader, so a target three
        # below n is first hit at exactly the third interaction.
        n = 256
        cut = 0
        for seed in range(6):
            sim = SuperBatchSimulator(AngluinProtocol(), n, seed=seed)
            applied = sim._advance_block(10_000, n - 3)
            if sim.stats.truncated_runs:
                cut += 1
                assert applied == sim.steps == 3
                assert sim.leader_count == n - 3
        assert cut > 0

    def test_stabilization_truncates_runs(self):
        sim = SuperBatchSimulator(
            PLLProtocol.for_population(512), 512, seed=3
        )
        sim.run_until_stabilized()
        assert isinstance(sim.stats, SuperBatchStats)
        assert sim.leader_count == 1
        # The leader count hit the target inside a block at least once
        # over the run (initial configurations start with n leaders).
        assert sim.stats.truncated_runs + sim.stats.collision_steps > 0


class TestStatsAccounting:
    def test_total_steps_matches_executed(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 256, seed=0)
        executed = sim.run(5000)
        assert executed == 5000
        assert sim.stats.total_steps == sim.steps == 5000

    def test_null_skip_engages_on_silent_configurations(self):
        # Angluin with a single leader left is fully null: the inherited
        # geometric path must absorb the budget without block sampling.
        sim = SuperBatchSimulator(AngluinProtocol(), 128, seed=0)
        sim.run_until_stabilized()
        before = sim.stats.blocks
        sim.run(100_000)
        assert sim.stats.null_skipped_steps > 0
        assert sim.stats.blocks - before < 20


class TestCountSurface:
    def test_initial_configuration(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 16, seed=0)
        assert sim.steps == 0
        assert sim.leader_count == 16  # Angluin starts everyone as leader
        assert sim.count_of(True) == 16
        assert sim.count_of("never-seen") == 0

    def test_run_executes_exactly_max_steps(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 64, seed=1)
        assert sim.run(777) == 777
        assert sim.steps == 777

    def test_population_is_conserved(self):
        sim = SuperBatchSimulator(PLLProtocol.for_population(128), 128, seed=2)
        sim.run(5000)
        assert sum(sim.state_counts().values()) == 128
        assert sum(sim.output_counts.values()) == 128
        assert all(count > 0 for count in sim.state_id_counts().values())

    def test_describe_mentions_protocol_and_n(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 8, seed=0)
        text = sim.describe()
        assert "n=8" in text and sim.protocol.name in text

    def test_load_counts_replaces_configuration(self):
        sim = SuperBatchSimulator(MaxPropagationProtocol(), 32, seed=0)
        sim.load_counts({0: 31, 1: 1})
        assert sim.count_of(1) == 1
        assert sim.output_counts["1"] == 1

    def test_load_counts_validates_total(self):
        sim = SuperBatchSimulator(MaxPropagationProtocol(), 32, seed=0)
        with pytest.raises(SimulationError):
            sim.load_counts({0: 3})

    def test_load_counts_rejects_negative(self):
        sim = SuperBatchSimulator(MaxPropagationProtocol(), 32, seed=0)
        with pytest.raises(SimulationError):
            sim.load_counts({0: 33, 1: -1})


class TestStoppingRules:
    def test_angluin_stabilizes_to_one_leader(self):
        for seed in range(4):
            sim = SuperBatchSimulator(AngluinProtocol(), 48, seed=seed)
            steps = sim.run_until_stabilized()
            assert sim.leader_count == 1
            assert steps == sim.steps > 0

    def test_n2_population_stabilizes(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 2, seed=0)
        assert sim.run_until_stabilized() == sim.steps == 1
        assert sim.leader_count == 1

    def test_stabilized_before_start_returns_current_steps(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 24, seed=0)
        first = sim.run_until_stabilized()
        assert sim.run_until_stabilized() == first  # already stable: no-op

    def test_budget_overrun_raises_convergence_error(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 64, seed=0)
        with pytest.raises(ConvergenceError):
            sim.run_until_stabilized(max_steps=5)
        assert sim.steps == 5  # budget respected exactly

    def test_until_predicate_stops_run(self):
        sim = SuperBatchSimulator(AngluinProtocol(), 64, seed=3)
        executed = sim.run(10_000_000, until=lambda s: s.leader_count <= 32)
        assert sim.leader_count <= 32
        assert executed < 10_000_000

    def test_silence_detector_on_epidemic(self):
        """Full infection is silent; the generic detector path finds it."""
        sim = SuperBatchSimulator(MaxPropagationProtocol(), 64, seed=1)
        sim.load_counts({0: 63, 1: 1})
        sim.run_until_stabilized(detector=SilenceDetector())
        assert sim.count_of(1) == 64


class TestNullRunSkip:
    def test_consensus_tail_is_skipped_geometrically(self):
        sim = SuperBatchSimulator(ApproximateMajority(), 500, seed=3)
        sim.load_counts({"x": 350, "y": 150})
        assert sim.run(2_000_000) == 2_000_000
        assert sim.output_counts.get("x", 0) == 500  # consensus reached
        # The overwhelming majority of post-consensus steps must come from
        # the geometric skip, not from sampled runs.
        assert sim.stats.null_skipped_steps > 1_500_000

    def test_silent_configuration_skips_the_whole_budget(self):
        sim = SuperBatchSimulator(ApproximateMajority(), 100, seed=0)
        sim.load_counts({"x": 100})  # silent from the start
        sim.run(12345)  # warms up, then skips the silent remainder
        assert sim.steps == 12345
        assert sim.stats.null_skipped_steps > 12345 // 2
        assert sim.count_of("x") == 100

    def test_counts_untouched_by_silent_skip(self):
        sim = SuperBatchSimulator(ApproximateMajority(), 100, seed=0)
        sim.load_counts({"x": 60, "b": 40})
        sim.run(3_000_000)
        assert sum(sim.output_counts.values()) == 100
        assert sim.output_counts.get("x", 0) == 100


class TestCheckpointRoundTrip:
    def test_restored_run_continues_bit_identically(self):
        def fresh():
            return SuperBatchSimulator(
                PLLProtocol.for_population(256), 256, seed=11
            )

        original = fresh()
        original.run(3000)
        payload = original.checkpoint_state()
        resumed = fresh()
        resumed.restore_state(payload)
        assert resumed.steps == original.steps == 3000
        assert resumed.state_counts() == original.state_counts()
        assert original.run_until_stabilized() == resumed.run_until_stabilized()
        assert resumed.state_counts() == original.state_counts()
        assert resumed.stats == original.stats

    def test_round_trip_inside_the_null_run_regime(self):
        # A snapshot taken while the geometric null-run skip is engaged
        # must carry the mode: the resumed run keeps skipping exactly
        # where the uninterrupted one does.  Six Angluin leaders among
        # 500 agents: leader meetings are rare, so the skip applies them.
        def fresh():
            sim = SuperBatchSimulator(AngluinProtocol(), 500, seed=3)
            sim.load_counts({True: 6, False: 494})
            return sim

        original = fresh()
        original.run(20_000)
        assert original._null_mode and original.stats.null_events > 0
        payload = original.checkpoint_state()
        resumed = fresh()
        resumed.restore_state(payload)
        assert resumed._null_mode
        assert resumed.leader_count == original.leader_count
        assert original.run_until_stabilized() == resumed.run_until_stabilized()
        assert resumed.state_counts() == original.state_counts()
        assert resumed.stats == original.stats
