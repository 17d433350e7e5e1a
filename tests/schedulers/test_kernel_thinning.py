"""Weighted schedules thinned inside the sorted-slot kernel engine.

:func:`~repro.orchestration.pool.build_simulator` routes weighted
``multiset`` specs for kernel protocols to
:class:`~repro.engine.kernel.multiset.KernelMultisetSimulator`, which
thins proposals inside its one hot loop.  It must realize exactly the
chain :class:`~repro.schedulers.weighted.WeightedMultisetSimulator`
realizes on the Fenwick tree — the same draws in the same order — so a
trial's outcome and its ``phases``, ``faults`` and ``scheduler`` records
are byte-identical on the two paths.  Only the telemetry column names
the path.
"""

import json

import pytest

from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.faults.plan import FaultPlan
from repro.orchestration.pool import build_simulator, measure_trial
from repro.orchestration.registry import build_protocol
from repro.schedulers.spec import SchedulerSpec
from repro.schedulers.weighted import WeightedMultisetSimulator

N = 32
SEEDS = range(20)

#: The ESCHED/EROB recovery fault: a quarter of the population
#: corrupted at step 2n.
CORRUPT = FaultPlan.create([{"kind": "corrupt", "at_step": 2 * N, "count": 8}])


def weighted(weights):
    return SchedulerSpec.create("weighted", weights=weights)


def trial(name, seed, scheduler, plan, monkeypatch, kernel):
    monkeypatch.setenv("REPRO_KERNEL", "1" if kernel else "0")
    return measure_trial(
        build_protocol(name, N),
        N,
        seed,
        engine="multiset",
        fault_plan=plan,
        scheduler=scheduler,
    )


class TestRouting:
    def test_kernel_protocols_thin_on_sorted_slots(self):
        sim = build_simulator(
            build_protocol("pll", N),
            N,
            seed=0,
            engine="multiset",
            scheduler=weighted({"L": 4.0}),
        )
        assert isinstance(sim, KernelMultisetSimulator)

    def test_kernel_less_protocols_stay_on_fenwick(self):
        sim = build_simulator(
            build_protocol("fast-nonce", N),
            N,
            seed=0,
            engine="multiset",
            scheduler=weighted({"L": 4.0}),
        )
        assert isinstance(sim, WeightedMultisetSimulator)

    def test_kill_switch_keeps_the_fenwick_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "0")
        sim = build_simulator(
            build_protocol("pll", N),
            N,
            seed=0,
            engine="multiset",
            scheduler=weighted({"L": 4.0}),
        )
        assert isinstance(sim, WeightedMultisetSimulator)


class TestPathEquivalence:
    @pytest.mark.parametrize("name", ["pll", "angluin"])
    @pytest.mark.parametrize("plan", [None, CORRUPT], ids=["clean", "corrupt"])
    @pytest.mark.parametrize("weights", [{"L": 4.0}, {"L": 0.25}])
    def test_outcomes_and_records_are_identical(
        self, name, plan, weights, monkeypatch
    ):
        scheduler = weighted(weights)
        for seed in SEEDS:
            kernel = trial(name, seed, scheduler, plan, monkeypatch, True)
            fenwick = trial(name, seed, scheduler, plan, monkeypatch, False)
            assert kernel == fenwick, seed
            assert kernel.phases == fenwick.phases, seed
            assert kernel.faults == fenwick.faults, seed
            assert kernel.scheduler == fenwick.scheduler, seed
            assert json.loads(kernel.telemetry)["path"] == "kernel"
            assert json.loads(fenwick.telemetry)["path"] == "fenwick"
            for outcome in (kernel, fenwick):
                summary = json.loads(outcome.telemetry)
                assert summary["scheduler"] == "weighted"
            assert (
                json.loads(kernel.telemetry)["null_steps"]
                == json.loads(fenwick.telemetry)["null_steps"]
            )

    @pytest.mark.parametrize("batch_size", [DRAW_BATCH_SIZE, 61])
    def test_stepwise_trajectories_match(self, batch_size):
        # A short refill (odd, so the ticket draws leave a buffered
        # 32-bit half) crosses hundreds of refills in 3000 steps.
        kernel = KernelMultisetSimulator(
            build_protocol("pll", N),
            N,
            seed=5,
            batch_size=batch_size,
            weights={"L": 4.0},
        )
        fenwick = WeightedMultisetSimulator(
            build_protocol("pll", N), N, {"L": 4.0}, seed=5, batch_size=batch_size
        )
        for _ in range(3000):
            assert kernel.step() == fenwick.step()
        assert kernel.state_id_counts() == fenwick.state_id_counts()
        # The kernel path draws a refill's uniforms ahead; handing back
        # the unused ones must leave the Fenwick path's generator state.
        kernel._lane._rewind_uniforms()
        assert (
            kernel._lane.rng.bit_generator.state == fenwick._rng.bit_generator.state
        )


class TestWeightTableCoverage:
    def test_load_counts_interns_new_states_with_weights(self):
        # A configuration reached elsewhere holds states the fresh
        # engines have never interned; loading it must extend the
        # weight table to cover every one of them.
        donor = KernelMultisetSimulator(build_protocol("pll", N), N, seed=9)
        donor.run(400)
        counts = dict(donor.state_counts())
        weights = {"L": 4.0, "F": 0.5}
        kernel = KernelMultisetSimulator(
            build_protocol("pll", N), N, seed=3, weights=weights
        )
        fenwick = WeightedMultisetSimulator(
            build_protocol("pll", N), N, weights, seed=3
        )
        known = len(kernel.interner)
        kernel.load_counts(counts)
        fenwick.load_counts(counts)
        assert len(kernel.interner) > known
        table = kernel._lane.cell.weights
        assert len(table) == len(kernel.interner)
        protocol = kernel.protocol
        for sid, weight in enumerate(table):
            symbol = protocol.output(kernel.interner.state_of(sid))
            assert weight == weights.get(symbol, 1.0)
        assert kernel.run_until_stabilized() == fenwick.run_until_stabilized()
        assert len(kernel._lane.cell.weights) == len(kernel.interner)
        assert kernel.state_counts() == fenwick.state_counts()
        assert kernel.phases_json() == fenwick.phases_json()


class TestNeutralWeights:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_neutral_weights_match_the_uniform_engine(self, seed):
        uniform = KernelMultisetSimulator(build_protocol("pll", 64), 64, seed=seed)
        neutral = KernelMultisetSimulator(
            build_protocol("pll", 64), 64, seed=seed, weights={"L": 1.0}
        )
        for _ in range(2000):
            assert uniform.step() == neutral.step()
        assert uniform.run_until_stabilized() == neutral.run_until_stabilized()
        assert uniform.state_id_counts() == neutral.state_id_counts()
        assert uniform.phases_json() == neutral.phases_json()
        # Acceptance 1 everywhere: no thinning uniform is ever used.
        assert neutral._lane._ucursor == 0
        neutral._lane._rewind_uniforms()
        assert (
            uniform._lane.rng.bit_generator.state == neutral._lane.rng.bit_generator.state
        )
