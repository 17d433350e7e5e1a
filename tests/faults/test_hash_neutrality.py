"""Fault-plan hash neutrality: ``plan=None`` keeps every pre-existing hash.

Spec content hashes name store rows, so if attaching the ``fault_plan``
field had leaked into the canonical form of clean specs, every existing
trial store would silently re-execute from scratch.  The hashes pinned
here were computed on the pre-fault-subsystem tree (the telemetry-PR
checkout): any drift is a breaking store-format change, not a test to
update casually.
"""

import json

from repro.faults.plan import FaultPlan
from repro.orchestration.pool import run_specs
from repro.orchestration.spec import TrialSpec
from repro.orchestration.store import TrialStore

#: (protocol, n, seed, engine, content hash) computed before the faults
#: subsystem existed.
PINNED = [
    ("pll", 24, 0, "agent", "9031ef2f5f5975a7e7c3dbf66231e7c89e0b097e443e82480e4265ac03f160d0"),
    ("angluin", 24, 0, "agent", "2b89b4add69decaa5cb1ce0f555ef52d4f06cfa982f1cba64f6c6e99b5e80c10"),
    ("angluin", 24, 1, "multiset", "e7e64675722ac4d62c82a805585aad97aef099268dbf61c9143d9a9b82ac3e2f"),
    ("pll", 64, 0, "multiset", "d6a1d72586450b4d90b9af62f2a7f618656d0383e0e71bae6a8c4075c7ad8d1c"),
    ("pll", 256, 2, "superbatch", "a0af4d2e9d15987feed5f35fc3915252f9185ec208679ca8037c9b28e3baace1"),
    ("pll", 1000000, 0, "superbatch", "de168ad1a1d9dd51aa3370fd7a9597a13d37124350fdaa4971702bf6b90370cf"),
]

PINNED_WITH_PARAMS = (
    "9264bd608de717cd994087e74d07c45625571d0d7a5f24e0a2d32fb45fbfa736"
)

PLAN = FaultPlan.create([{"kind": "corrupt", "at_step": 48, "count": 2}])


class TestCleanSpecHashes:
    def test_pre_fault_hashes_unchanged(self):
        for protocol, n, seed, engine, expected in PINNED:
            spec = TrialSpec.create(protocol, n, seed, engine=engine)
            assert spec.content_hash() == expected, (protocol, n, seed, engine)

    def test_params_spec_hash_unchanged(self):
        spec = TrialSpec.create(
            "pll",
            128,
            3,
            engine="multiset",
            params={"variant": "no-backup"},
            max_steps=500000,
        )
        assert spec.content_hash() == PINNED_WITH_PARAMS

    def test_canonical_form_has_no_faults_key(self):
        canonical = TrialSpec.create("pll", 64, 0, engine="multiset").canonical()
        assert "faults" not in canonical


class TestFaultedSpecIdentity:
    def test_plan_enters_the_canonical_form(self):
        spec = TrialSpec.create(
            "pll", 64, 0, engine="multiset", fault_plan=PLAN
        )
        assert spec.canonical()["faults"] == PLAN.canonical()

    def test_faulted_hash_differs_from_clean(self):
        clean = TrialSpec.create("pll", 64, 0, engine="multiset")
        faulted = TrialSpec.create(
            "pll", 64, 0, engine="multiset", fault_plan=PLAN
        )
        assert clean.content_hash() != faulted.content_hash()

    def test_equivalent_plans_hash_identically(self):
        from_plan = TrialSpec.create(
            "pll", 64, 0, engine="multiset", fault_plan=PLAN
        )
        from_mappings = TrialSpec.create(
            "pll",
            64,
            0,
            engine="multiset",
            fault_plan=[{"kind": "corrupt", "at_step": 48, "count": 2}],
        )
        assert from_plan.content_hash() == from_mappings.content_hash()

    def test_spec_json_round_trip_preserves_plan(self):
        spec = TrialSpec.create(
            "pll", 64, 0, engine="multiset", fault_plan=PLAN
        )
        restored = TrialSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()


class TestStoreRowNeutrality:
    def test_clean_rows_carry_no_fault_record(self):
        specs = [TrialSpec.create("angluin", 24, seed) for seed in range(2)]
        with TrialStore(":memory:") as store:
            run_specs(specs, store=store)
            rows = list(store.rows())
        assert all(row["faults"] is None for row in rows)

    def test_faulted_rows_carry_the_record(self):
        spec = TrialSpec.create(
            "angluin",
            24,
            0,
            engine="multiset",
            fault_plan=[{"kind": "churn", "at_step": 48, "count": 3}],
        )
        with TrialStore(":memory:") as store:
            run_specs([spec], store=store)
            (row,) = store.rows()
        record = json.loads(row["faults"])
        assert record["plan"] == spec.fault_plan.canonical()
        assert len(record["events"]) == 1
