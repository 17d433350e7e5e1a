"""Tests for repro.orchestration.pool (serial fast path + worker farm)."""

import pytest

from repro.engine.superbatch import SuperBatchSimulator
from repro.errors import ConvergenceError, ExperimentError
from repro.orchestration.pool import build_simulator, execute_trial, run_specs
from repro.orchestration.spec import TrialSpec, trial_specs
from repro.orchestration.store import TrialStore
from repro.protocols.angluin import AngluinProtocol


class TestExecuteTrial:
    def test_runs_to_stabilization(self):
        outcome = execute_trial(TrialSpec.create("angluin", 8, 3))
        assert outcome.seed == 3
        assert outcome.leader_count == 1
        assert outcome.parallel_time == pytest.approx(outcome.steps / 8)

    def test_convergence_error_names_the_seed(self):
        spec = TrialSpec.create("angluin", 16, 9, max_steps=5)
        with pytest.raises(ConvergenceError, match="seed 9"):
            execute_trial(spec)


class TestBuildSimulator:
    def test_superbatch_engine_builds_and_runs(self):
        sim = build_simulator(
            AngluinProtocol(), 64, seed=3, engine="superbatch"
        )
        assert isinstance(sim, SuperBatchSimulator)
        sim.run_until_stabilized()
        assert sim.leader_count == 1

    def test_superbatch_trials_execute_declaratively(self):
        outcome = execute_trial(
            TrialSpec.create("angluin", 48, 7, engine="superbatch")
        )
        assert outcome.seed == 7
        assert outcome.leader_count == 1

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ExperimentError, match="superbatch"):
            build_simulator(AngluinProtocol(), 64, seed=0, engine="warp")

    def test_retired_batch_engine_is_rejected(self):
        with pytest.raises(ExperimentError, match="retired") as info:
            build_simulator(AngluinProtocol(), 64, seed=0, engine="batch")
        assert "'multiset'" in str(info.value)
        assert "'superbatch'" in str(info.value)

    @pytest.mark.parametrize(
        "engine", ["auto", "agent", "multiset", "superbatch", "ensemble"]
    )
    def test_rejects_populations_numpy_cannot_sample(self, engine):
        # The path `repro simulate` takes without a spec: the numpy
        # hypergeometric limit fails here, before any engine is built.
        with pytest.raises(ExperimentError, match="hypergeometric"):
            build_simulator(AngluinProtocol(), 2 * 10**9, seed=0, engine=engine)


class TestRunSpecs:
    def test_preserves_spec_order(self):
        specs = trial_specs("angluin", 8, trials=4, base_seed=2)
        report = run_specs(specs)
        assert [o.seed for o in report.outcomes] == [2, 3, 4, 5]
        assert report.executed == 4 and report.cached == 0

    def test_parallel_matches_serial(self):
        specs = trial_specs("angluin", 8, trials=6) + trial_specs(
            "angluin", 12, trials=6
        )
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=4)
        assert serial.outcomes == parallel.outcomes

    def test_store_turns_reruns_into_cache_hits(self):
        specs = trial_specs("angluin", 8, trials=3)
        with TrialStore(":memory:") as store:
            first = run_specs(specs, store=store)
            second = run_specs(specs, store=store)
        assert first.executed == 3
        assert second.executed == 0 and second.cached == 3
        assert first.outcomes == second.outcomes

    def test_partial_cache_executes_only_missing(self):
        specs = trial_specs("angluin", 8, trials=4)
        with TrialStore(":memory:") as store:
            run_specs(specs[:2], store=store)
            report = run_specs(specs, store=store)
        assert report.cached == 2 and report.executed == 2

    def test_worker_convergence_error_propagates_with_seed(self):
        specs = trial_specs("angluin", 16, trials=4, max_steps=5)
        with pytest.raises(ConvergenceError, match="seed"):
            run_specs(specs, jobs=2)

    def test_failed_batch_keeps_completed_trials_in_store(self):
        good = trial_specs("angluin", 8, trials=2)
        bad = trial_specs("angluin", 16, trials=1, max_steps=5)
        with TrialStore(":memory:") as store:
            with pytest.raises(ConvergenceError):
                run_specs(good + bad, jobs=1, store=store)
            # The two completed trials survived the abort: resume skips them.
            assert run_specs(good, store=store).executed == 0

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ExperimentError):
            run_specs(trial_specs("angluin", 8, trials=1), jobs=0)

    def test_progress_reports_cached_and_fresh(self):
        specs = trial_specs("angluin", 8, trials=3)
        calls = []
        with TrialStore(":memory:") as store:
            run_specs(specs[:1], store=store)
            run_specs(
                specs,
                store=store,
                progress=lambda done, total, outcome: calls.append(
                    (done, total, outcome is None)
                ),
            )
        assert calls[0] == (1, 3, True)  # cached batch reported up front
        assert calls[-1] == (3, 3, False)
