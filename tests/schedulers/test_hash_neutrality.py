"""Scheduler-spec hash neutrality: ``scheduler=None`` keeps every hash.

Spec content hashes name store rows, so if attaching the ``scheduler``
field had leaked into the canonical form of uniform-schedule specs,
every existing trial store would silently re-execute from scratch.  The
hashes pinned here are the same pre-fault-subsystem values
``tests/faults/test_hash_neutrality.py`` pins (computed on the
telemetry-PR checkout, before either optional field existed): any drift
is a breaking store-format change, not a test to update casually.
"""

import json

from repro.orchestration.pool import run_specs
from repro.orchestration.spec import TrialSpec
from repro.orchestration.store import TrialStore
from repro.schedulers.spec import SchedulerSpec

#: (protocol, n, seed, engine, content hash) computed before the faults
#: and schedulers subsystems existed.
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

WEIGHTED = SchedulerSpec.create("weighted", weights={"L": 4.0})


class TestUniformSpecHashes:
    def test_pre_scheduler_hashes_unchanged(self):
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

    def test_canonical_form_has_no_scheduler_key(self):
        canonical = TrialSpec.create("pll", 64, 0, engine="multiset").canonical()
        assert "scheduler" not in canonical

    def test_explicit_uniform_spec_normalizes_to_none(self):
        # Both spellings of the paper's scheduler must hash (and
        # therefore cache) identically: the explicit baseline cell of a
        # grid is the same trial as the default.
        implicit = TrialSpec.create("pll", 64, 0, engine="multiset")
        explicit = TrialSpec.create(
            "pll", 64, 0, engine="multiset", scheduler={"family": "uniform"}
        )
        assert explicit.scheduler is None
        assert explicit.content_hash() == implicit.content_hash()


class TestScheduledSpecIdentity:
    def test_spec_enters_the_canonical_form(self):
        spec = TrialSpec.create(
            "pll", 64, 0, engine="multiset", scheduler=WEIGHTED
        )
        assert spec.canonical()["scheduler"] == WEIGHTED.canonical()

    def test_scheduled_hash_differs_from_uniform(self):
        uniform = TrialSpec.create("pll", 64, 0, engine="multiset")
        weighted = TrialSpec.create(
            "pll", 64, 0, engine="multiset", scheduler=WEIGHTED
        )
        assert uniform.content_hash() != weighted.content_hash()

    def test_equivalent_specs_hash_identically(self):
        from_spec = TrialSpec.create(
            "pll", 64, 0, engine="multiset", scheduler=WEIGHTED
        )
        from_mapping = TrialSpec.create(
            "pll",
            64,
            0,
            engine="multiset",
            scheduler={"family": "weighted", "weights": {"L": 4.0}},
        )
        assert from_spec.content_hash() == from_mapping.content_hash()

    def test_spec_json_round_trip_preserves_scheduler(self):
        spec = TrialSpec.create(
            "fast-nonce",
            64,
            0,
            engine="agent",
            params={"bits": 48},
            scheduler={"family": "ring"},
        )
        restored = TrialSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()


class TestStoreRowNeutrality:
    def test_uniform_rows_carry_no_scheduler_record(self):
        specs = [TrialSpec.create("angluin", 24, seed) for seed in range(2)]
        with TrialStore(":memory:") as store:
            run_specs(specs, store=store)
            rows = list(store.rows())
        assert all(row["scheduler"] is None for row in rows)

    def test_scheduled_rows_carry_the_record(self):
        spec = TrialSpec.create(
            "angluin",
            24,
            0,
            engine="multiset",
            scheduler={"family": "weighted", "weights": {"L": 4.0}},
        )
        with TrialStore(":memory:") as store:
            run_specs([spec], store=store)
            (row,) = store.rows()
        record = json.loads(row["scheduler"])
        assert record["spec"] == spec.scheduler.canonical()
        assert "degraded_from" not in record  # exchangeable: no ladder drop

    def test_degraded_rows_record_the_engine_they_left(self):
        # A graph spec at a size whose default engine is count-level:
        # auto resolution degrades to agent and the row says so.
        spec = TrialSpec.create(
            "fast-nonce",
            64,
            0,
            engine="agent",
            params={"bits": 48},
            scheduler={"family": "ring"},
        )
        with TrialStore(":memory:") as store:
            run_specs([spec], store=store)
            (row,) = store.rows()
        record = json.loads(row["scheduler"])
        assert record["spec"] == {"family": "ring"}
        assert record["degraded_from"] == "multiset"
