"""Compiled-kernel correctness: agreement, equivalence, cache semantics.

The compiled kernels (:mod:`repro.engine.kernel`) are a pure execution
path — they must be *invisible* in every observable: the packed codecs
round-trip states exactly, the vectorized deltas agree with the Python
``transition`` on every pair, engines produce byte-identical
trajectories on either path, and the kernel cache interns exactly the
states the interner+cache path would.  These tests pin all of that.
"""

import json

import numpy as np
import pytest

from repro.core.pll import PLLProtocol, VARIANTS
from repro.core.symmetric import SymmetricPLLProtocol
from repro.engine.interner import StateInterner
from repro.engine.kernel import (
    CompiledKernel,
    KernelTransitionCache,
    compiled_kernel_for,
    make_transition_cache,
)
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.multiset import MultisetSimulator
from repro.engine.protocol import LEADER
from repro.engine.simulator import AgentSimulator
from repro.engine.superbatch import SuperBatchSimulator
from repro.errors import ConvergenceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.orchestration.registry import build_protocol, protocol_names
from repro.protocols.angluin import AngluinProtocol
from repro.telemetry.profile import StageProfile

#: Registry names expected to compile kernels (the ISSUE 4 opt-in set;
#: ``lottery`` rides along because it *is* PLL's no-tournament variant).
KERNELIZED = (
    "pll",
    "pll-symmetric",
    "pll-no-tournament",
    "pll-backup-only",
    "lottery",
    "angluin",
    "approximate-majority",
    "exact-majority",
    "size-estimation",
    "countup-timer",
)

#: Registry names that deliberately keep the interner+cache path.
UNKERNELIZED = ("fast-nonce", "loose")


def reachable_states(protocol, n, seed, steps=4000):
    """States reached by a short real trajectory (always well-formed)."""
    sim = AgentSimulator(protocol, n, seed=seed, use_kernel=False)
    sim.run(steps)
    return sim.interner.states()


def assert_agreement(protocol, states, rng, pairs=4000, exhaustive=False):
    """Kernel apply_codes must equal transition() on the given states."""
    kernel = compiled_kernel_for(protocol)
    assert kernel is not None
    for state in states:
        assert kernel.decode(kernel.encode(state)) == state
    codes = np.array([kernel.encode(state) for state in states], dtype=np.int64)
    count = len(states)
    if exhaustive:
        index0 = np.repeat(np.arange(count), count)
        index1 = np.tile(np.arange(count), count)
    else:
        index0 = rng.integers(0, count, size=pairs)
        index1 = rng.integers(0, count, size=pairs)
    post0, post1 = kernel.apply_codes(codes[index0], codes[index1])
    for a, b, q0, q1 in zip(
        index0.tolist(), index1.tolist(), post0.tolist(), post1.tolist()
    ):
        expected = protocol.transition(states[a], states[b])
        got = (kernel.decode(q0), kernel.decode(q1))
        assert got == expected, (
            f"{protocol.name}: T({states[a]!r}, {states[b]!r}) = "
            f"{expected!r}, kernel produced {got!r}"
        )


class TestRegistryCoverage:
    @pytest.mark.parametrize("name", KERNELIZED)
    def test_registry_protocol_compiles_a_kernel(self, name):
        assert compiled_kernel_for(build_protocol(name, 64)) is not None

    @pytest.mark.parametrize("name", UNKERNELIZED)
    def test_uncompiled_protocols_keep_the_cached_path(self, name):
        protocol = build_protocol(name, 64)
        assert compiled_kernel_for(protocol) is None
        cache = make_transition_cache(protocol, StateInterner())
        assert not isinstance(cache, KernelTransitionCache)

    def test_expected_names_cover_the_kernelized_registry(self):
        # New registry protocols must be sorted into one of the two
        # lists above (and gain agreement coverage when they opt in).
        # Names starting with "_" are fixtures other test modules
        # register and are not part of the shipped registry.
        shipped = {
            name for name in protocol_names() if not name.startswith("_")
        }
        assert set(KERNELIZED) | set(UNKERNELIZED) == shipped


class TestExhaustiveSmallDomainAgreement:
    """Every ordered pair over the protocol's full (small) state space."""

    def test_angluin(self):
        assert_agreement(
            AngluinProtocol(), [True, False], None, exhaustive=True
        )

    @pytest.mark.parametrize("name", ["approximate-majority", "exact-majority"])
    def test_majority(self, name):
        protocol = build_protocol(name, 16)
        kernel = compiled_kernel_for(protocol)
        states = [kernel.decode(code) for code in range(kernel.num_codes)]
        assert_agreement(protocol, states, None, exhaustive=True)

    def test_size_estimation(self):
        protocol = build_protocol("size-estimation", 16, {"level_cap": 4})
        kernel = compiled_kernel_for(protocol)
        states = [kernel.decode(code) for code in range(kernel.num_codes)]
        assert_agreement(protocol, states, None, exhaustive=True)

    def test_countup_timer(self):
        protocol = build_protocol("countup-timer", 16, {"cmax": 5})
        # The full code space includes ticks_seen up to the huge default
        # cap; enumerate the reachable low-tick slice exhaustively.
        from repro.sync.countup import TimerState

        states = [
            TimerState(count, color, ticks)
            for count in range(5)
            for color in range(3)
            for ticks in range(4)
        ]
        assert_agreement(protocol, states, None, exhaustive=True)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pll_small_params(self, variant):
        protocol = PLLProtocol.for_population(4, variant=variant)
        rng = np.random.default_rng(5)
        states = protocol.compile_kernel().sample_states(rng, 60)
        states.append(protocol.initial_state())
        assert_agreement(protocol, states, rng, exhaustive=True)

    def test_symmetric_pll_small_params(self):
        protocol = SymmetricPLLProtocol.for_population(4)
        rng = np.random.default_rng(6)
        states = protocol.compile_kernel().sample_states(rng, 60)
        states.append(protocol.initial_state())
        assert_agreement(protocol, states, rng, exhaustive=True)


class TestRandomizedWideDomainAgreement:
    """Sampled pairs over wide parameterizations (the campaign regime)."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pll_wide(self, variant):
        protocol = PLLProtocol.for_population(1024, variant=variant)
        rng = np.random.default_rng(11)
        states = protocol.compile_kernel().sample_states(rng, 400)
        states += reachable_states(
            PLLProtocol.for_population(1024, variant=variant), 64, seed=3
        )
        assert_agreement(protocol, states, rng, pairs=3000)

    def test_symmetric_pll_wide(self):
        protocol = SymmetricPLLProtocol.for_population(1024)
        rng = np.random.default_rng(12)
        states = protocol.compile_kernel().sample_states(rng, 400)
        states += reachable_states(
            SymmetricPLLProtocol.for_population(1024), 64, seed=3
        )
        assert_agreement(protocol, states, rng, pairs=3000)

    def test_countup_timer_wide(self):
        protocol = build_protocol("countup-timer", 1 << 16)
        states = reachable_states(
            build_protocol("countup-timer", 1 << 16), 48, seed=1
        )
        assert_agreement(
            protocol, states, np.random.default_rng(13), pairs=2000
        )

    def test_size_estimation_wide(self):
        protocol = build_protocol("size-estimation", 1 << 16)
        states = reachable_states(
            build_protocol("size-estimation", 1 << 16), 48, seed=2
        )
        assert_agreement(
            protocol, states, np.random.default_rng(14), pairs=2000
        )


class TestFeatureExtractors:
    @pytest.mark.parametrize(
        "name", ["pll", "pll-symmetric", "angluin"]
    )
    def test_leader_feature_matches_output(self, name):
        protocol = build_protocol(name, 64)
        kernel = compiled_kernel_for(protocol)
        states = reachable_states(build_protocol(name, 64), 32, seed=4)
        codes = np.array([kernel.encode(s) for s in states])
        marks = kernel.feature_values("leader", codes)
        for state, mark in zip(states, marks.tolist()):
            assert (protocol.output(state) == LEADER) == bool(mark)

    def test_unknown_feature_raises(self):
        kernel = compiled_kernel_for(AngluinProtocol())
        with pytest.raises(Exception):
            kernel.feature_values("no-such-feature", np.array([0]))


class TestTrajectoryEquivalence:
    """Kernel-backed vs interner-backed engines: byte-identical runs."""

    @pytest.mark.parametrize(
        "name,n", [("pll", 256), ("angluin", 128)]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_multiset_engines_agree_exactly(self, name, n, seed):
        cached = MultisetSimulator(
            build_protocol(name, n), n, seed=seed, use_kernel=False
        )
        kerneled = KernelMultisetSimulator(build_protocol(name, n), n, seed=seed)
        assert cached.run_until_stabilized() == kerneled.run_until_stabilized()
        assert cached.state_counts() == kerneled.state_counts()
        assert cached.distinct_states_seen() == kerneled.distinct_states_seen()
        assert cached.leader_count == kerneled.leader_count == 1
        assert cached.output_counts == kerneled.output_counts
        assert cached.phases_json() == kerneled.phases_json()

    @pytest.mark.parametrize("seed", range(10))
    def test_faulted_phase_series_agree(self, seed):
        # A fault splits the run into budget-capped segments; both
        # engines must skip the poll at the cut and record the same
        # post-fault sample.
        plan = FaultPlan.create([{"kind": "corrupt", "at_step": 64, "count": 8}])
        series = []
        for sim in (
            MultisetSimulator(
                build_protocol("pll", 32), 32, seed=seed, use_kernel=False
            ),
            KernelMultisetSimulator(build_protocol("pll", 32), 32, seed=seed),
        ):
            injector = FaultInjector(plan, 32, seed)
            injector.drive(sim)
            series.append((sim.steps, sim.phases_json(), injector.to_json()))
        assert series[0] == series[1]

    def test_large_population_poll_schedule_agrees(self):
        # Above 2^17 the probe stride exceeds the 2^14 poll mask, so
        # samples land on multiples of the mask, not of the stride.
        n = 200_000
        series = []
        for sim in (
            MultisetSimulator(build_protocol("pll", n), n, seed=0, use_kernel=False),
            KernelMultisetSimulator(build_protocol("pll", n), n, seed=0),
        ):
            with pytest.raises(ConvergenceError):
                sim.run_until_stabilized(max_steps=100_000)
            series.append(sim.phases_json())
        assert series[0] == series[1]
        steps = [row[0] for row in json.loads(series[0])["samples"]]
        assert steps == [0, 32_768, 65_536, 98_304, 100_000]

    def test_multiset_checkpoints_agree_mid_run(self):
        cached = MultisetSimulator(
            build_protocol("pll", 512), 512, seed=3, use_kernel=False
        )
        kerneled = KernelMultisetSimulator(build_protocol("pll", 512), 512, seed=3)
        for _ in range(10):
            cached.run(700)
            kerneled.run(700)
            assert cached.steps == kerneled.steps
            assert cached.state_counts() == kerneled.state_counts()
            assert cached.state_id_counts() == kerneled.state_id_counts()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_superbatch_paths_agree_exactly(self, seed):
        cached = SuperBatchSimulator(
            build_protocol("pll", 1024), 1024, seed=seed, use_kernel=False
        )
        kerneled = SuperBatchSimulator(
            build_protocol("pll", 1024), 1024, seed=seed, use_kernel=True
        )
        assert cached.run_until_stabilized() == kerneled.run_until_stabilized()
        assert cached.state_counts() == kerneled.state_counts()
        assert cached.stats.total_steps == kerneled.stats.total_steps

    def test_agent_paths_agree_exactly(self):
        cached = AgentSimulator(
            build_protocol("pll-symmetric", 64), 64, seed=9, use_kernel=False
        )
        kerneled = AgentSimulator(
            build_protocol("pll-symmetric", 64), 64, seed=9, use_kernel=True
        )
        cached.run(20_000)
        kerneled.run(20_000)
        assert cached.configuration() == kerneled.configuration()

    def test_kernel_multiset_load_counts_matches(self):
        protocol = build_protocol("angluin", 64)
        cached = MultisetSimulator(
            build_protocol("angluin", 64), 64, seed=2, use_kernel=False
        )
        kerneled = KernelMultisetSimulator(build_protocol("angluin", 64), 64, seed=2)
        counts = {True: 10, False: 54}
        cached.load_counts(counts)
        kerneled.load_counts(counts)
        assert kerneled.leader_count == 10
        assert cached.run_until_stabilized() == kerneled.run_until_stabilized()


class TestKernelTransitionCache:
    def test_interns_only_requested_posts(self):
        # The universe resolves whole regions, but the engine interner
        # must only ever see posts of pairs actually requested — that
        # is what keeps distinct_states_seen() identical to the
        # interner+cache path.
        protocol = PLLProtocol.for_population(64)
        interner = StateInterner()
        cache = KernelTransitionCache(protocol, interner)
        initial = interner.intern(protocol.initial_state())
        post0, post1 = cache.apply(initial, initial)
        mirror = StateInterner()
        reference = make_transition_cache(
            PLLProtocol.for_population(64), mirror, use_kernel=False
        )
        mirror.intern(protocol.initial_state())
        assert (post0, post1) == reference.apply(initial, initial)
        assert len(interner) == len(mirror)

    def test_apply_block_matches_scalar_apply(self):
        protocol = PLLProtocol.for_population(128)
        states = reachable_states(PLLProtocol.for_population(128), 32, seed=6)
        interner = StateInterner()
        cache = KernelTransitionCache(protocol, interner)
        for state in states:
            interner.intern(state)
        rng = np.random.default_rng(0)
        pre0 = rng.integers(0, len(states), size=500)
        pre1 = rng.integers(0, len(states), size=500)
        out0, out1 = cache.apply_block(pre0, pre1)
        for a, b, q0, q1 in zip(
            pre0.tolist(), pre1.tolist(), out0.tolist(), out1.tolist()
        ):
            assert cache.apply(a, b) == (q0, q1)

    def test_wide_fallback_beyond_pair_bound(self):
        protocol = build_protocol("countup-timer", 64, {"cmax": 40})
        interner = StateInterner()
        cache = KernelTransitionCache(protocol, interner, pair_bound=8)
        sim_states = reachable_states(
            build_protocol("countup-timer", 64, {"cmax": 40}), 16, seed=0
        )
        for state in sim_states:
            interner.intern(state)
        assert len(interner) > 8
        pairs = [(0, 1), (3, 5), (2, 2), (0, 1)]
        for a, b in pairs:
            expected = protocol.transition(
                interner.state_of(a), interner.state_of(b)
            )
            q0, q1 = cache.apply(a, b)
            assert (
                interner.state_of(q0),
                interner.state_of(q1),
            ) == expected
        assert not cache.dense_enabled
        assert cache.stats.hits >= 1  # the repeated pair hit the memo

    def test_stats_and_len_accounting(self):
        protocol = AngluinProtocol()
        interner = StateInterner()
        cache = KernelTransitionCache(protocol, interner)
        leader = interner.intern(True)
        cache.apply(leader, leader)
        assert cache.stats.misses == 1
        cache.apply(leader, leader)
        assert cache.stats.hits == 1
        assert cache.stats.dense_hits == 1
        assert len(cache) == 1

    def test_shared_kernel_reuses_compiled_tables(self):
        first = compiled_kernel_for(PLLProtocol.for_population(256))
        second = compiled_kernel_for(PLLProtocol.for_population(256))
        assert first is second
        different = compiled_kernel_for(PLLProtocol.for_population(1 << 12))
        assert different is not first

    def test_kernel_fill_times_fills_only(self):
        # Lookups served by a filled universe are not fills: only the
        # call that extends the universe opens the stage, on the scalar
        # and the block path alike.
        protocol = PLLProtocol.for_population(256)
        kernel = CompiledKernel(protocol, protocol.compile_kernel())
        profile = StageProfile(enabled=True)
        caches = []
        for _ in range(3):
            cache = KernelTransitionCache(
                protocol, StateInterner(), kernel=kernel
            )
            cache.profile = profile
            caches.append(
                (cache, cache._interner.intern(protocol.initial_state()))
            )
        (first, a), (second, b), (third, c) = caches
        first.apply(a, a)
        assert profile.calls == {"kernel_fill": 1}
        assert kernel.universe._filled == len(kernel.universe) == 1
        assert second.apply(b, b) == first.apply(a, a)
        pre = np.array([c], dtype=np.int64)
        assert third.apply_block(pre, pre)[0].tolist() == [first.apply(a, a)[0]]
        assert second.stats.misses == third.stats.misses == 1
        assert profile.calls == {"kernel_fill": 1}

    def test_resolve_miss_leaves_the_universe_alone(self):
        # The native loop's miss handler resolves one pair by one
        # scalar transition, files it as the universe path would, and
        # never registers a code in the universe.
        protocol = PLLProtocol.for_population(256)
        kernel = CompiledKernel(protocol, protocol.compile_kernel())
        states = reachable_states(PLLProtocol.for_population(256), 64, seed=3)
        scalar = KernelTransitionCache(protocol, StateInterner(), kernel=kernel)
        filled = KernelTransitionCache(protocol, StateInterner())
        for state in states:
            scalar._interner.intern(state)
            filled._interner.intern(state)
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, len(states), size=(300, 2)).tolist()
        seen = set()
        for a, b in pairs:
            if (a, b) in seen:
                continue
            seen.add((a, b))
            assert scalar.resolve_miss(a, b) == filled.apply(a, b)
        assert list(scalar._interner) == list(filled._interner)
        assert scalar.stats == filled.stats
        assert len(kernel.universe) == 0
        assert [scalar.apply(a, b) for a, b in seen] == [
            filled.apply(a, b) for a, b in seen
        ]

    def test_private_kernels_stay_private(self):
        protocol = PLLProtocol.for_population(256)
        private = CompiledKernel(protocol, protocol.compile_kernel())
        assert private is not compiled_kernel_for(protocol)


class TestKernelKillSwitch:
    def test_env_disables_kernel_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "0")
        cache = make_transition_cache(AngluinProtocol(), StateInterner())
        assert not isinstance(cache, KernelTransitionCache)

    def test_forced_kernel_for_uncompiled_protocol_raises(self):
        protocol = build_protocol("fast-nonce", 64)
        with pytest.raises(ValueError):
            make_transition_cache(
                protocol, StateInterner(), use_kernel=True
            )
