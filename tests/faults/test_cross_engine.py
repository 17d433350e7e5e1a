"""Cross-engine faithfulness of faulted runs.

The count-level fault path (multivariate hypergeometric on the count
vector) and the per-agent path realize the same distributions, and the
segment driver measures recovery exactly to the interaction on every
engine — so recovery-time distributions must agree across multiset
and superbatch.  Engines use different RNG consumption patterns,
so agreement is distributional (two-sample KS), not per-seed equality.
"""

import json

import pytest

from repro.faults.plan import FaultPlan
from repro.orchestration.pool import measure_trial
from repro.orchestration.registry import build_protocol
from repro.orchestration.spec import trial_specs

ENGINES = ("multiset", "superbatch")
SEEDS = 25
#: Significance of the KS agreement check (one engine pair per
#: protocol); 0.005 keeps
#: the suite's flake budget tiny while a wrong-distribution bug (e.g.
#: off-by-one segment accounting) drives p to ~0 at these sample sizes.
ALPHA = 0.005


def corrupt_plan(n):
    return FaultPlan.create(
        [{"kind": "corrupt", "at_step": 2 * n, "count": n // 8}]
    )


def recovery_samples(protocol_name, n, engine, seeds):
    plan = corrupt_plan(n)
    samples = []
    for seed in range(seeds):
        outcome = measure_trial(
            build_protocol(protocol_name, n),
            n,
            seed,
            engine=engine,
            fault_plan=plan,
        )
        (event,) = json.loads(outcome.faults)["events"]
        assert event["recovery_steps"] is not None
        samples.append(event["recovery_steps"])
    return samples


class TestRecoveryDistributionsAgree:
    @pytest.mark.parametrize("protocol_name", ["pll", "angluin"])
    def test_ks_agreement_across_count_engines(self, protocol_name):
        stats = pytest.importorskip("scipy.stats")
        n = 256
        samples = {
            engine: recovery_samples(protocol_name, n, engine, SEEDS)
            for engine in ENGINES
        }
        for i, first in enumerate(ENGINES):
            for second in ENGINES[i + 1 :]:
                result = stats.ks_2samp(samples[first], samples[second])
                assert result.pvalue > ALPHA, (
                    f"{protocol_name}: recovery-time distributions diverge "
                    f"between {first} and {second} (p={result.pvalue:.2e})"
                )


class TestDegradationRouting:
    def test_auto_resolves_to_agent_for_non_exchangeable_plans(self):
        plan = [
            {
                "kind": "partition",
                "at_step": 100,
                "count": 8,
                "duration": 200,
            }
        ]
        specs = trial_specs(
            "pll", 64, trials=2, engine="auto", fault_plan=plan
        )
        assert all(spec.engine == "agent" for spec in specs)

    def test_auto_keeps_count_engine_for_exchangeable_plans(self):
        specs = trial_specs(
            "pll",
            64,
            trials=1,
            engine="auto",
            fault_plan=[{"kind": "corrupt", "at_step": 100, "count": 4}],
        )
        assert all(spec.engine != "agent" for spec in specs)

    def test_degraded_from_recorded_in_fault_record(self, monkeypatch):
        """A non-exchangeable plan forced onto the agent engine records
        the engine `auto` would have picked, so the store row explains
        why a production-scale spec ran per-agent.  default_engine is
        monkeypatched so the check doesn't need a SUPERBATCH_ENGINE_MIN_N
        population."""
        import repro.orchestration.pool as pool

        monkeypatch.setattr(pool, "default_engine", lambda n: "superbatch")
        plan = FaultPlan.create(
            [{"kind": "corrupt", "at_step": 100, "agents": [1, 5]}]
        )
        outcome = measure_trial(
            build_protocol("angluin", 32),
            32,
            0,
            engine="agent",
            fault_plan=plan,
        )
        assert json.loads(outcome.faults)["degraded_from"] == "superbatch"

    def test_no_degradation_note_when_agent_is_the_natural_pick(self, monkeypatch):
        import repro.orchestration.pool as pool

        monkeypatch.setattr(pool, "default_engine", lambda n: "agent")
        plan = FaultPlan.create(
            [{"kind": "corrupt", "at_step": 100, "agents": [1, 5]}]
        )
        outcome = measure_trial(
            build_protocol("angluin", 32),
            32,
            0,
            engine="agent",
            fault_plan=plan,
        )
        assert "degraded_from" not in json.loads(outcome.faults)
