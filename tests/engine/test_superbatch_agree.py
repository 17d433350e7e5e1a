"""Statistical agreement of the super-batch engine with the others.

The super-batch engine samples the scheduler entirely at the count
level — exact birthday run lengths, hypergeometric pair multisets,
count-level collision replay — so a bias in any of those samplers would
surface as a shifted stabilization-time distribution.  Agreement with
the exact multiset chain and the per-agent scheduler is enforced with
two-sample Kolmogorov–Smirnov tests at fixed seeds (strict
alpha = 0.001: deterministic, failing only if a code change actually
shifts a distribution).
"""

import numpy as np
import pytest

from repro.analysis.stats import ks_critical_value, ks_statistic
from repro.core.pll import PLLProtocol
from repro.engine import AgentSimulator, MultisetSimulator
from repro.engine.superbatch import SuperBatchSimulator
from repro.protocols.angluin import AngluinProtocol


def stabilization_times(engine_cls, protocol_factory, n, trials, seed0):
    times = []
    for trial in range(trials):
        sim = engine_cls(protocol_factory(), n, seed=seed0 + trial)
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


class TestSuperBatchAgreesOnAngluin:
    N = 24
    TRIALS = 48

    @pytest.fixture(scope="class")
    def samples(self):
        return {
            "agent": stabilization_times(
                AgentSimulator, AngluinProtocol, self.N, self.TRIALS, 0
            ),
            "multiset": stabilization_times(
                MultisetSimulator, AngluinProtocol, self.N, self.TRIALS, 1000
            ),
            "superbatch": stabilization_times(
                SuperBatchSimulator, AngluinProtocol, self.N, self.TRIALS, 3000
            ),
        }

    def test_superbatch_vs_multiset(self, samples):
        assert_same_distribution(
            samples["superbatch"],
            samples["multiset"],
            "angluin superbatch/multiset",
        )

    def test_superbatch_vs_agent(self, samples):
        assert_same_distribution(
            samples["superbatch"], samples["agent"], "angluin superbatch/agent"
        )

    def test_every_trial_elects_one_leader(self, samples):
        sim = SuperBatchSimulator(AngluinProtocol(), self.N, seed=3000)
        sim.run_until_stabilized()
        assert sim.leader_count == 1


class TestSuperBatchAgreesOnPLL:
    N = 32
    TRIALS = 40

    @pytest.fixture(scope="class")
    def samples(self):
        factory = lambda: PLLProtocol.for_population(self.N)  # noqa: E731
        return {
            "agent": stabilization_times(
                AgentSimulator, factory, self.N, self.TRIALS, 0
            ),
            "multiset": stabilization_times(
                MultisetSimulator, factory, self.N, self.TRIALS, 1000
            ),
            "superbatch": stabilization_times(
                SuperBatchSimulator, factory, self.N, self.TRIALS, 3000
            ),
        }

    def test_superbatch_vs_multiset(self, samples):
        assert_same_distribution(
            samples["superbatch"],
            samples["multiset"],
            "pll superbatch/multiset",
        )

    def test_superbatch_vs_agent(self, samples):
        assert_same_distribution(
            samples["superbatch"], samples["agent"], "pll superbatch/agent"
        )

    def test_every_trial_elects_one_leader(self, samples):
        # The KS comparison is meaningless if the engine "stabilized"
        # into a different predicate; spot-check it directly.
        sim = SuperBatchSimulator(
            PLLProtocol.for_population(self.N), self.N, seed=3000
        )
        sim.run_until_stabilized()
        assert sim.leader_count == 1
