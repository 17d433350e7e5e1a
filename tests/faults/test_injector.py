"""FaultInjector unit behavior: event application, RNG isolation, records."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.orchestration.pool import build_simulator
from repro.orchestration.registry import build_protocol


def simulator(engine, protocol="pll", n=64, seed=0):
    return build_simulator(build_protocol(protocol, n), n, seed=seed, engine=engine)


def plan_of(*events):
    return FaultPlan.create(list(events))


class TestCountLevelApplication:
    @pytest.mark.parametrize("engine", ["multiset", "superbatch"])
    def test_corrupt_conserves_population(self, engine):
        sim = simulator(engine)
        sim.run(200)
        before = Counter(sim.state_counts())
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 200, "count": 8}), 64, 0
        )
        injector._apply(sim, injector.plan.events[0], 0)
        after = Counter(sim.state_counts())
        assert sum(after.values()) == sum(before.values()) == 64
        # Replacements are drawn from the states that were present.
        assert set(after) <= set(before)

    @pytest.mark.parametrize("engine", ["multiset", "superbatch"])
    def test_churn_moves_victims_to_initial_state(self, engine):
        sim = simulator(engine)
        sim.run(500)
        initial = sim.protocol.initial_state()
        before = Counter(sim.state_counts())
        injector = FaultInjector(
            plan_of({"kind": "churn", "at_step": 500, "count": 8}), 64, 0
        )
        injector._apply(sim, injector.plan.events[0], 0)
        after = Counter(sim.state_counts())
        assert sum(after.values()) == 64
        # Fresh joiners all land on the initial state; leavers came from
        # the pre-fault population, so every other count can only drop.
        assert after[initial] >= 8
        assert all(
            after[state] <= count
            for state, count in before.items()
            if state != initial
        )

    def test_corrupt_changes_at_most_count_agents(self):
        sim = simulator("multiset")
        sim.run(200)
        before = Counter(sim.state_counts())
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 200, "count": 4}), 64, 0
        )
        injector._apply(sim, injector.plan.events[0], 0)
        after = Counter(sim.state_counts())
        moved = sum((before - after).values())
        assert moved <= 4


class TestAgentLevelApplication:
    def test_targeted_corrupt_touches_only_targets(self):
        sim = simulator("agent")
        sim.run(200)
        before = sim.configuration()
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 200, "agents": [3, 7]}), 64, 0
        )
        injector._apply(sim, injector.plan.events[0], 0)
        after = sim.configuration()
        unchanged = [i for i in range(64) if i not in (3, 7)]
        assert [before[i] for i in unchanged] == [after[i] for i in unchanged]

    def test_partition_needs_scheduler_support(self):
        sim = simulator("multiset")
        sim.run(100)
        injector = FaultInjector(
            plan_of(
                {"kind": "partition", "at_step": 100, "count": 4, "duration": 50}
            ),
            64,
            0,
        )
        with pytest.raises(SimulationError, match="per-agent engine"):
            injector._apply(sim, injector.plan.events[0], 0)

    def test_partition_runs_clique_then_heals(self):
        sim = simulator("agent")
        sim.run(100)
        injector = FaultInjector(
            plan_of(
                {"kind": "partition", "at_step": 100, "count": 4, "duration": 80}
            ),
            64,
            0,
        )
        injector._apply(sim, injector.plan.events[0], 0)
        # The partition window ran inside the application.
        assert sim.steps == 180
        sim.run_until_stabilized()
        assert sim.leader_count == 1


class TestRngIsolation:
    def test_fault_draws_never_touch_the_engine_stream(self):
        """A clean run and a faulted run agree step-for-step before the
        fault: the injector draws from its own spawned stream."""
        clean = simulator("multiset", seed=3)
        clean.run(400)
        faulted = simulator("multiset", seed=3)
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 400, "count": 4}), 64, 3
        )
        faulted.run(400)
        assert Counter(faulted.state_counts()) == Counter(clean.state_counts())

    def test_same_seed_same_fault_draws(self):
        draws = []
        for _ in range(2):
            sim = simulator("multiset", seed=5)
            sim.run(300)
            injector = FaultInjector(
                plan_of({"kind": "corrupt", "at_step": 300, "count": 6}), 64, 5
            )
            injector._apply(sim, injector.plan.events[0], 0)
            draws.append(Counter(sim.state_counts()))
        assert draws[0] == draws[1]

    def test_event_index_separates_streams(self):
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 300, "count": 6}), 64, 5
        )
        first = injector._event_rng(0).integers(0, 2**31, size=4)
        second = injector._event_rng(1).integers(0, 2**31, size=4)
        assert not np.array_equal(first, second)


class TestDriveAndRecords:
    @pytest.mark.parametrize("engine", ["multiset", "superbatch", "agent"])
    def test_drive_records_recovery(self, engine):
        n = 128
        sim = build_simulator(
            build_protocol("pll", n), n, seed=1, engine=engine
        )
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 2 * n, "count": 32}), n, 1
        )
        steps = injector.drive(sim)
        assert steps == sim.steps
        assert sim.leader_count == 1
        (record,) = injector.records
        assert record["step"] == 2 * n
        assert record["recovery_steps"] is not None
        assert 0 <= record["recovery_steps"] <= steps - 2 * n

    def test_faults_json_shape(self):
        n = 64
        sim = simulator("multiset", n=n, seed=2)
        injector = FaultInjector(
            plan_of(
                {"kind": "corrupt", "at_step": 100, "count": 4},
                {"kind": "churn", "at_step": 300, "count": 4},
            ),
            n,
            2,
        )
        injector.drive(sim)
        payload = json.loads(injector.to_json())
        assert payload["version"] == 1
        assert payload["plan"] == injector.plan.canonical()
        assert [event["kind"] for event in payload["events"]] == [
            "corrupt",
            "churn",
        ]
        for event in payload["events"]:
            assert event["exchangeable"] is True
            if event["recovery_steps"] is not None:
                assert event["recovery_parallel_time"] == (
                    event["recovery_steps"] / n
                )
        assert "degraded_from" not in payload
        assert (
            json.loads(injector.to_json("superbatch"))["degraded_from"]
            == "superbatch"
        )

    def test_state_dict_round_trip(self):
        n = 64
        sim = simulator("multiset", n=n, seed=2)
        injector = FaultInjector(
            plan_of({"kind": "corrupt", "at_step": 100, "count": 4}), n, 2
        )
        injector.drive(sim)
        clone = FaultInjector(injector.plan, n, 2)
        clone.load_state(injector.state_dict())
        assert clone.records == injector.records
        assert clone._next_event == injector._next_event
