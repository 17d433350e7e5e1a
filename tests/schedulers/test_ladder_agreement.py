"""KS agreement across the scheduler degradation ladder.

The ladder's soundness claim is distributional: a state-weighted spec
must induce the *same* stabilization-time law on every count-level
engine (superbatch thins whole runs, multiset thins per step), and a graph spec's degraded per-agent run must match a direct
scheduler-driven run of the same graph.  The multiset samples come
through :func:`~repro.orchestration.pool.build_simulator`, so they grade
the engine weighted specs really run on: the sorted-slot kernel engine
for PLL and Angluin.  ``tests/schedulers/test_kernel_thinning.py`` pins
the Fenwick engine's weighted chain to it bit for bit, so the same
samples grade both.  Both claims are graded with
two-sample Kolmogorov-Smirnov tests at fixed seeds (strict
alpha = 0.001: deterministic, failing only if a code change actually
shifts a distribution) — the ``tests/engine/test_superbatch_agree.py``
methodology.

The uniform family's stronger, exact claim — an explicit
``{"family": "uniform"}`` spec is *bit-identical* to ``scheduler=None``
on every engine — is pinned here too.
"""

import numpy as np
import pytest

from repro.analysis.stats import ks_critical_value, ks_statistic
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.scheduler import RestrictedScheduler
from repro.engine.simulator import AgentSimulator
from repro.orchestration.pool import build_simulator
from repro.orchestration.registry import build_protocol
from repro.schedulers.spec import SchedulerSpec
from repro.schedulers.weighted import WeightedSuperBatchSimulator

#: Leaders meet 4x more often than weight-1 agents: accelerates the
#: elimination phases, so the pinned trials stay fast while still
#: exercising every thinning path (acceptance < 1 on most pairs).
WEIGHTS = {"L": 4.0}


def weighted_times(engine_cls, protocol_name, n, trials, seed0):
    times = []
    for trial in range(trials):
        sim = engine_cls(
            build_protocol(protocol_name, n), n, WEIGHTS, seed=seed0 + trial
        )
        sim.run_until_stabilized()
        times.append(sim.parallel_time)
    return np.asarray(times)


def built_multiset_times(protocol_name, n, trials, seed0):
    """Weighted multiset times through the production build path."""
    spec = SchedulerSpec.create("weighted", weights=WEIGHTS)
    times = []
    for trial in range(trials):
        sim = build_simulator(
            build_protocol(protocol_name, n),
            n,
            seed=seed0 + trial,
            engine="multiset",
            scheduler=spec,
        )
        assert isinstance(sim, KernelMultisetSimulator)
        sim.run_until_stabilized()
        times.append(sim.parallel_time)
    return np.asarray(times)


def assert_same_distribution(first, second, label):
    statistic = ks_statistic(first, second)
    threshold = ks_critical_value(len(first), len(second), alpha=0.001)
    assert statistic < threshold, (
        f"{label}: KS statistic {statistic:.3f} exceeds {threshold:.3f} "
        f"(medians {np.median(first):.2f} vs {np.median(second):.2f})"
    )


class TestWeightedLadderAgreesOnPLL:
    N = 32
    TRIALS = 40

    @pytest.fixture(scope="class")
    def samples(self):
        return {
            "multiset": built_multiset_times(
                "pll", self.N, self.TRIALS, 1000
            ),
            "superbatch": weighted_times(
                WeightedSuperBatchSimulator, "pll", self.N, self.TRIALS, 3000
            ),
        }

    def test_superbatch_vs_multiset(self, samples):
        assert_same_distribution(
            samples["superbatch"],
            samples["multiset"],
            "pll weighted superbatch/multiset",
        )

    def test_every_trial_elects_one_leader(self):
        sim = WeightedSuperBatchSimulator(
            build_protocol("pll", self.N), self.N, WEIGHTS, seed=3000
        )
        sim.run_until_stabilized()
        assert sim.leader_count == 1


class TestWeightedLadderAgreesOnAngluin:
    N = 24
    TRIALS = 48

    @pytest.fixture(scope="class")
    def samples(self):
        return {
            "multiset": built_multiset_times(
                "angluin", self.N, self.TRIALS, 1000
            ),
            "superbatch": weighted_times(
                WeightedSuperBatchSimulator,
                "angluin",
                self.N,
                self.TRIALS,
                3000,
            ),
        }

    def test_superbatch_vs_multiset(self, samples):
        assert_same_distribution(
            samples["superbatch"],
            samples["multiset"],
            "angluin weighted superbatch/multiset",
        )



class TestGraphDegradationAgreesWithDirectDrive:
    """The degraded per-agent path vs driving the scheduler by hand.

    ``cliques=1`` is the complete graph, whose directed edge multiset is
    exactly the uniform scheduler's support — and
    :class:`RestrictedScheduler` over the full population reproduces
    that distribution through an entirely different code path.  The
    built (ladder) simulator and the hand-assembled one must therefore
    induce the same stabilization-time law.
    """

    N = 32
    TRIALS = 40

    @pytest.fixture(scope="class")
    def samples(self):
        spec = SchedulerSpec.create("cliques", cliques=1)
        ladder = []
        for trial in range(self.TRIALS):
            sim = build_simulator(
                build_protocol("pll", self.N),
                self.N,
                seed=1000 + trial,
                engine="agent",
                scheduler=spec,
            )
            sim.run_until_stabilized()
            ladder.append(sim.parallel_time)
        direct = []
        for trial in range(self.TRIALS):
            sim = AgentSimulator(
                build_protocol("pll", self.N),
                self.N,
                seed=2000 + trial,
                scheduler=RestrictedScheduler(
                    self.N, range(self.N), seed=2000 + trial
                ),
            )
            sim.run_until_stabilized()
            direct.append(sim.parallel_time)
        return np.asarray(ladder), np.asarray(direct)

    def test_degraded_run_matches_direct_drive(self, samples):
        ladder, direct = samples
        assert_same_distribution(
            ladder, direct, "complete-graph ladder/direct"
        )


class TestUniformSpecBitIdentity:
    """An explicit uniform spec must be *bit-identical* to ``None``."""

    N = 64
    SEED = 42

    @pytest.mark.parametrize(
        "engine", ["agent", "multiset", "superbatch"]
    )
    def test_same_trajectory_on_every_engine(self, engine):
        uniform = SchedulerSpec.create("uniform")
        baseline = build_simulator(
            build_protocol("pll", self.N), self.N, seed=self.SEED, engine=engine
        )
        spelled = build_simulator(
            build_protocol("pll", self.N),
            self.N,
            seed=self.SEED,
            engine=engine,
            scheduler=uniform,
        )
        baseline.run_until_stabilized()
        spelled.run_until_stabilized()
        assert baseline.steps == spelled.steps
        assert baseline.leader_count == spelled.leader_count
