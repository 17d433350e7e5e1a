"""Faithfulness and behavior of the packed ensemble engine.

The ensemble's contract is stronger than the batch engine's statistical
agreement: every lane must be **bit-identical** to a solo
:class:`MultisetSimulator` run with the same seed — same trajectory, same
stabilization step, same distinct-state count — although its lanes run
on sorted slots over a transition cache shared with their siblings.
RNG-stream isolation between lanes falls out of the same checks: if any
lane read another's draws, its trajectory would diverge from the solo
run that consumes only its own stream.
"""

import functools
import os

import numpy as np
import pytest

import repro.engine.ensemble.lane as lane_module
import repro.engine.ensemble.simulator as simulator_module
from repro.analysis.stats import ks_critical_value, ks_statistic
from repro.core.pll import PLLProtocol
from repro.engine import native
from repro.engine.ensemble import EnsembleSimulator, SlotLane
from repro.engine.ensemble.lane import LaneCell
from repro.engine.interner import StateInterner
from repro.engine.kernel import (
    KERNEL_PAIR_BOUND,
    CompiledKernel,
    KernelTransitionCache,
)
from repro.engine.multiset import MultisetSimulator
from repro.errors import ConvergenceError, SimulationError
from repro.orchestration import pool
from repro.orchestration.spec import trial_specs
from repro.protocols.angluin import AngluinProtocol


def pll(n):
    return PLLProtocol.for_population(n)


def solo_outcomes(protocol_factory, n, seeds):
    outcomes = {}
    for seed in seeds:
        sim = MultisetSimulator(protocol_factory(n), n, seed=seed)
        sim.run_until_stabilized()
        outcomes[seed] = (sim.steps, sim.distinct_states_seen())
    return outcomes


class TestLanesMatchSoloMultiset:
    """The satellite requirement: lane(seed) == MultisetSimulator(seed)."""

    PLL_N = 192
    PLL_SEEDS = list(range(8))
    ANGLUIN_N = 96
    ANGLUIN_SEEDS = list(range(5))

    @pytest.fixture(scope="class")
    def solo_pll(self):
        return solo_outcomes(pll, self.PLL_N, self.PLL_SEEDS)

    @pytest.fixture(scope="class")
    def solo_angluin(self):
        return solo_outcomes(
            lambda n: AngluinProtocol(), self.ANGLUIN_N, self.ANGLUIN_SEEDS
        )

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "delta"])
    def test_pll_lanes_bit_identical(self, solo_pll, monkeypatch, kernel):
        # The shared cache is kernel-filled by default; REPRO_KERNEL=0
        # fills it through Python delta.  Lanes must not notice.
        monkeypatch.setenv("REPRO_KERNEL", "1" if kernel else "0")
        ensemble = EnsembleSimulator(pll(self.PLL_N), self.PLL_N, self.PLL_SEEDS)
        assert isinstance(ensemble.cache, KernelTransitionCache) == kernel
        got = {
            o.seed: (o.steps, o.distinct_states)
            for o in ensemble.run_until_stabilized()
        }
        assert got == solo_pll

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "delta"])
    def test_angluin_lanes_bit_identical(self, solo_angluin, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_KERNEL", "1" if kernel else "0")
        ensemble = EnsembleSimulator(
            AngluinProtocol(), self.ANGLUIN_N, self.ANGLUIN_SEEDS
        )
        assert isinstance(ensemble.cache, KernelTransitionCache) == kernel
        got = {
            o.seed: (o.steps, o.distinct_states)
            for o in ensemble.run_until_stabilized()
        }
        assert got == solo_angluin

    def test_lanes_are_built_one_at_a_time(self, monkeypatch):
        # A lane is built only when its turn comes: by the time lane i
        # is delivered, exactly i + 1 lanes exist, all over one cache.
        built = []

        class CountingLane(SlotLane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(kwargs["cache"])

        monkeypatch.setattr(simulator_module, "SlotLane", CountingLane)
        ensemble = EnsembleSimulator(pll(self.PLL_N), self.PLL_N, [0, 1, 2])
        seen = []
        ensemble.run_until_stabilized(
            on_lane_done=lambda outcome: seen.append((outcome.index, len(built)))
        )
        assert seen == [(0, 1), (1, 2), (2, 3)]
        assert all(cache is ensemble.cache for cache in built)

    def test_every_lane_elects_one_leader(self):
        ensemble = EnsembleSimulator(pll(self.PLL_N), self.PLL_N, [0, 1, 2, 3])
        outcomes = ensemble.run_until_stabilized()
        assert all(o.leader_count == 1 for o in outcomes)


class TestMidRunConfigurations:
    """Checkpoint equality: not just endpoints, whole trajectories."""

    N = 128

    def test_slot_lane_configurations_match_solo(self):
        lane = SlotLane(pll(self.N), self.N, seed=6)
        solo = MultisetSimulator(pll(self.N), self.N, seed=6)
        for stride in (1, 13, 500):
            lane.run(stride, stop_at_target=False)
            solo.run(stride)
            assert lane.state_counts() == solo.state_counts()


class TestLanePackingIndependence:
    """Outcomes are a pure function of the seed, not of the packing."""

    N = 96

    def outcomes_for(self, seeds):
        ensemble = EnsembleSimulator(pll(self.N), self.N, seeds)
        return {
            o.seed: o.steps for o in ensemble.run_until_stabilized()
        }

    def test_subsets_and_orderings_agree(self):
        full = self.outcomes_for(list(range(8)))
        shuffled = self.outcomes_for([5, 2, 7, 0])
        pair = self.outcomes_for([2, 5])
        for seed, steps in shuffled.items():
            assert full[seed] == steps
        for seed, steps in pair.items():
            assert full[seed] == steps


class TestBudgetsAndErrors:
    def test_budget_overrun_names_the_seed(self):
        # Every lane exhausts a 3-step budget; the error deterministically
        # names the first (lowest-index) offender's seed.
        with pytest.raises(ConvergenceError, match="seed 7"):
            EnsembleSimulator(
                AngluinProtocol(), 64, [7, 8, 9]
            ).run_until_stabilized(max_steps=3)

    def test_siblings_within_budget_still_finish(self):
        # Some lanes exhaust the budget; every lane that can stabilize
        # inside it — before or after the first failing lane — must run
        # to completion and be delivered through the callback before
        # the failure raises.  That is what makes an interrupted
        # campaign resumable.
        n = 64
        solo = solo_outcomes(lambda n: AngluinProtocol(), n, range(6))
        budget = sorted(steps for steps, _distinct in solo.values())[3]
        fits = {seed for seed, (steps, _d) in solo.items() if steps <= budget}
        delivered = []
        with pytest.raises(ConvergenceError):
            EnsembleSimulator(
                AngluinProtocol(), n, list(range(6))
            ).run_until_stabilized(
                max_steps=budget, on_lane_done=delivered.append
            )
        assert {outcome.seed for outcome in delivered} == fits
        for outcome in delivered:
            assert outcome.steps == solo[outcome.seed][0]

    def test_lane_refuses_states_past_the_pair_stride(self, monkeypatch):
        # The lane memo packs (p0, p1) as p0 * stride + p1; past the
        # stride two pairs would share a key, so the lane must fail
        # loudly instead of reusing the wrong transition.
        monkeypatch.setattr(lane_module, "_PAIR_STRIDE", 4)
        lane = SlotLane(pll(64), 64, seed=0)
        with pytest.raises(SimulationError, match="at most 4"):
            lane.run(10_000, stop_at_target=False)

    def test_rejects_tiny_population(self):
        with pytest.raises(SimulationError):
            EnsembleSimulator(AngluinProtocol(), 1, [0])

    def test_rejects_empty_lane_list(self):
        with pytest.raises(SimulationError):
            EnsembleSimulator(AngluinProtocol(), 8, [])


class TestNonKernelBackend:
    """Packed lanes over the cached-delta transition cache.

    Protocols without a compiled kernel fill the shared cache through
    Python ``delta``; their solo multiset trials run on the Fenwick
    engine, so this pins sorted-slot lanes against it.
    """

    @pytest.mark.parametrize(
        "protocol,params", [("fast-nonce", {"bits": 48}), ("loose", {})]
    )
    def test_packed_cell_equals_solo(self, monkeypatch, protocol, params):
        built = []

        class CountingEnsemble(EnsembleSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(len(self.seeds))

        monkeypatch.setattr(pool, "EnsembleSimulator", CountingEnsemble)
        specs = trial_specs(
            protocol, 64, trials=5, engine="multiset", params=params
        )
        packed = pool.run_specs(specs, ensemble_lanes=2)
        solo = pool.run_specs(specs, ensemble_lanes=0)
        assert built == [5]
        assert packed.outcomes == solo.outcomes


class TestEnsembleDistributions:
    """KS agreement with the multiset engine over disjoint seed ranges.

    Per-seed equality makes same-seed comparison vacuous, so this uses
    different seeds: the ensemble's stabilization-time *distribution*
    must match the multiset engine's, which is the property the paper's
    Table 1 / Theorem 1 statistics rest on.
    """

    N = 32
    TRIALS = 40

    def test_ks_agreement_on_pll(self):
        ensemble = EnsembleSimulator(
            pll(self.N), self.N, list(range(5000, 5000 + self.TRIALS))
        )
        mine = np.asarray(
            [o.steps / self.N for o in ensemble.run_until_stabilized()]
        )
        times = []
        for seed in range(self.TRIALS):
            sim = MultisetSimulator(pll(self.N), self.N, seed=seed)
            sim.run_until_stabilized()
            times.append(sim.parallel_time)
        theirs = np.asarray(times)
        statistic = ks_statistic(mine, theirs)
        threshold = ks_critical_value(len(mine), len(theirs), alpha=0.001)
        assert statistic < threshold, (
            f"ensemble vs multiset KS {statistic:.3f} exceeds {threshold:.3f}"
        )


class TestSingleTrialEnsembleIsMultiset:
    """``build_simulator(engine="ensemble")`` builds the solo multiset
    engine: one lane is a multiset run, as ``trial_specs`` resolves it."""

    @pytest.mark.parametrize(
        "protocol,n,seed", [("angluin", 64, 3), ("pll", 256, 0), ("pll", 1024, 5)]
    )
    def test_same_trial_as_engine_multiset(self, protocol, n, seed):
        from repro.orchestration.pool import build_simulator
        from repro.orchestration.registry import build_protocol

        sim, solo = (
            build_simulator(build_protocol(protocol, n), n, seed, engine=engine)
            for engine in ("ensemble", "multiset")
        )
        assert type(sim) is type(solo)
        assert sim.run_until_stabilized() == solo.run_until_stabilized()
        assert sim.leader_count == solo.leader_count == 1
        assert sim.phases_json() == solo.phases_json()
        assert sim.distinct_states_seen() == solo.distinct_states_seen()

    def test_budget_error(self):
        from repro.orchestration.pool import build_simulator

        sim = build_simulator(AngluinProtocol(), 64, seed=3, engine="ensemble")
        with pytest.raises(ConvergenceError):
            sim.run_until_stabilized(max_steps=2)


def native_cell(protocol, n, cache=None):
    """A cell whose lanes run the native loop (skips without a compiler)."""
    if native.load_slots() is None:
        pytest.skip("no C compiler: the native slot loop cannot build")
    return LaneCell(protocol, n, cache)


def solo_counts(protocol, n, seed, chunks):
    sim = MultisetSimulator(protocol, n, seed=seed)
    counts = []
    for chunk in chunks:
        sim.run(chunk)
        counts.append(sim.state_counts())
    return counts


PROTOCOLS = {"pll": pll, "angluin": lambda n: AngluinProtocol()}


@functools.lru_cache(maxsize=None)
def solo_lane_rows(n, lanes=8):
    """Per seed: the solo Python loop's ``(steps, leader count,
    distinct states)`` for PLL at ``n``, and its first-sight pairs."""
    rows = {}
    for seed in range(lanes):
        lane = SlotLane(pll(n), n, seed)
        while lane.lead != 1:
            lane.run(1 << 16)
        rows[seed] = (
            (lane.steps, lane.lead, lane.distinct_states_seen()),
            lane.pair_interns,
        )
    return rows


class TestNativeLoop:
    """Native lane == Python lane == solo ``MultisetSimulator``.

    A cell's lanes run in C against the cell's global pair tables; a
    lane built on its own runs the Python loop.  Both must reproduce
    the solo Fenwick chain draw for draw.
    """

    #: Odd chunk sizes, so chunk ends fall mid draw batch and mid run.
    CHUNKS = [1, 7, 333, 4099, 16385, 9001]

    @pytest.mark.parametrize("n", [64, 256, 2048])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_odd_chunks_match_solo(self, name, n):
        factory = PROTOCOLS[name]
        cell = native_cell(factory(n), n)
        for seed in (3, 4):
            fast = SlotLane(cell.protocol, n, seed, cell=cell)
            slow = SlotLane(factory(n), n, seed)
            assert fast._native is not None and slow._native is None
            expected = solo_counts(factory(n), n, seed, self.CHUNKS)
            for chunk, counts in zip(self.CHUNKS, expected):
                assert fast.run(chunk, stop_at_target=False) == chunk
                assert slow.run(chunk, stop_at_target=False) == chunk
                assert fast.state_counts() == slow.state_counts() == counts
                assert fast.lead == slow.lead
            assert fast.distinct_states_seen() == slow.distinct_states_seen()

    @pytest.mark.parametrize(
        "name,n,seeds",
        [
            ("pll", 64, range(4)),
            ("pll", 256, range(3)),
            ("pll", 2048, [1]),
            ("angluin", 64, range(4)),
            ("angluin", 256, [0]),
        ],
    )
    def test_stops_at_the_target_like_solo(self, name, n, seeds):
        factory = PROTOCOLS[name]
        cell = native_cell(factory(n), n)
        for seed in seeds:
            fast = SlotLane(cell.protocol, n, seed, cell=cell)
            slow = SlotLane(factory(n), n, seed)
            while fast.lead != 1:
                fast.run(12_345)
            while slow.lead != 1:
                slow.run(12_345)
            solo = MultisetSimulator(factory(n), n, seed=seed)
            solo.run_until_stabilized()
            assert fast.steps == slow.steps == solo.steps
            assert (
                fast.distinct_states_seen()
                == slow.distinct_states_seen()
                == solo.distinct_states_seen()
            )
            assert fast.run(1000) == 0  # already at the target

    def test_lane_refuses_states_past_the_pair_bound(self, monkeypatch):
        # With the bound at 8 a PLL lane outgrows the native tables
        # early: it raises, as a Python lane does past its pair stride
        # (the campaign pool then reruns it solo).
        monkeypatch.setattr(lane_module, "KERNEL_PAIR_BOUND", 8)
        n = 256
        cell = native_cell(pll(n), n)
        lane = SlotLane(cell.protocol, n, 2, cell=cell)
        assert lane._native is not None
        with pytest.raises(SimulationError, match="at most 8"):
            while lane.lead != 1:
                lane.run(777)

    def test_cell_without_global_tables(self):
        # A cache past its pair bound keeps resolved pairs in a dict the
        # C loop cannot read: every first-sight pair returns to Python.
        n = 256
        protocol = pll(n)
        cache = KernelTransitionCache(protocol, StateInterner(), pair_bound=4)
        cell = native_cell(protocol, n, cache)
        seeds = [0, 1, 2]
        got = {}
        for seed in seeds:
            lane = SlotLane(protocol, n, seed, cell=cell)
            assert lane._native is not None
            while lane.lead != 1:
                lane.run(50_000)
            got[seed] = (lane.steps, lane.distinct_states_seen())
        assert not cache.dense_enabled
        assert cache.stats.dense_hits == 0 and cache.stats.hits > 0
        assert got == solo_outcomes(pll, n, seeds)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("n", [256, 2048])
    def test_first_sights_skip_the_universe(self, n, wide):
        # A cell-wide first sight returns to Python and resolves by one
        # scalar transition: the cell's private universe never fills,
        # every lane first sight is one cache hit or miss, and each lane
        # is the solo Python loop's trial.  ``wide`` drops the cell's id
        # tables early, so the misses go through ``_wide``.
        protocol = pll(n)
        kernel = CompiledKernel(protocol, protocol.compile_kernel())
        cache = KernelTransitionCache(
            protocol,
            StateInterner(),
            kernel=kernel,
            pair_bound=64 if wide else KERNEL_PAIR_BOUND,
        )
        cell = native_cell(protocol, n, cache)
        first_sights = 0
        for seed, (row, sights) in solo_lane_rows(n).items():
            lane = SlotLane(protocol, n, seed, cell=cell)
            while lane.lead != 1:
                lane.run(1 << 16)
            assert (
                lane.steps,
                lane.lead,
                lane.distinct_states_seen(),
            ) == row
            first_sights += sights
        assert kernel.universe._filled == 0 and len(kernel.universe) == 0
        stats = cache.stats
        assert stats.hits + stats.misses == first_sights
        assert stats.bypasses == 0
        assert cache.dense_enabled is not wide
        if wide:
            assert cache._wide and stats.dense_hits == 0
        if n == 2048:
            assert len(cell.interner) > 512

    @pytest.mark.parametrize("name,n", [("pll", 256), ("angluin", 64)])
    def test_loader_unavailable_runs_python(self, monkeypatch, name, n):
        factory = PROTOCOLS[name]
        seeds = list(range(5))
        if native.load_slots() is None:
            pytest.skip("no C compiler: the native slot loop cannot build")
        fast = EnsembleSimulator(factory(n), n, seeds)
        fast_outcomes = fast.run_until_stabilized()
        monkeypatch.setattr(native, "load_slots", lambda: None)
        slow = EnsembleSimulator(factory(n), n, seeds)
        slow_outcomes = slow.run_until_stabilized()
        assert fast.telemetry_summary()["loop"] == "native"
        assert slow.telemetry_summary()["loop"] == "python"
        assert fast_outcomes == slow_outcomes
        # The C loop's global-table hits reach the cache's counters:
        # both loops resolve the same pairs the same way.
        fast_cache = fast.telemetry_summary()["cache"]
        assert fast_cache == slow.telemetry_summary()["cache"]
        assert fast_cache["dense_hits"] > 0
        assert fast.telemetry_summary()["round_trips"] > 0
        assert slow.telemetry_summary()["round_trips"] == 0

    def test_native_lane_yields_its_buffers_to_the_next(self):
        n = 64
        cell = native_cell(pll(n), n)
        first = SlotLane(cell.protocol, n, 0, cell=cell)
        first.run(100)
        SlotLane(cell.protocol, n, 1, cell=cell)
        with pytest.raises(SimulationError, match="taken over"):
            first.run(100)


class TestNativeBuild:
    """The loader builds and loads only from a directory, and a file,
    that no other user can write."""

    @pytest.fixture
    def dirs(self, tmp_path, monkeypatch):
        import shutil
        import tempfile

        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            pytest.skip("no C compiler: the native slot loop cannot build")
        cache, temp = tmp_path / "cache", tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        return compiler, cache / "repro", temp

    def build(self, compiler):
        import ctypes

        path = native._build(compiler, native._SOURCE.read_bytes(), "key")
        assert path is not None
        assert ctypes.CDLL(str(path)).slot_run is not None
        return path

    def test_planted_temp_library_is_not_loaded(self, dirs):
        compiler, cache, temp = dirs
        for shared in (temp / "repro", temp / f"repro-{os.getuid()}"):
            shared.mkdir(mode=0o777)
            (shared / "slots-key.so").write_bytes(b"planted")
        assert self.build(compiler) == cache / "slots-key.so"

    def test_library_others_can_write_is_rebuilt(self, dirs):
        compiler, cache, _temp = dirs
        cache.mkdir(parents=True)
        planted = cache / "slots-key.so"
        planted.write_bytes(b"planted")
        planted.chmod(0o666)
        assert self.build(compiler) == planted
        assert planted.read_bytes() != b"planted"
        assert not planted.stat().st_mode & 0o022

    def test_shared_cache_directory_falls_back_to_a_private_one(self, dirs):
        compiler, cache, temp = dirs
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        path = self.build(compiler)
        assert path.parent == temp / f"repro-{os.getuid()}"
        assert path.parent.stat().st_mode & 0o777 == 0o700
