"""Tests for repro.orchestration.store (SQLite trial cache)."""

import pytest

from repro.errors import ExperimentError
from repro.orchestration.spec import TrialOutcome, TrialSpec, trial_specs
from repro.orchestration.store import TrialStore


def outcome_for(spec: TrialSpec, steps: int = 100) -> TrialOutcome:
    return TrialOutcome(
        seed=spec.seed,
        steps=steps,
        parallel_time=steps / spec.n,
        leader_count=1,
        distinct_states=4,
    )


class TestTrialStore:
    def test_roundtrip(self):
        spec = TrialSpec.create("angluin", 8, 3)
        with TrialStore(":memory:") as store:
            assert store.get(spec) is None
            assert spec not in store
            store.put(spec, outcome_for(spec))
            assert store.get(spec) == outcome_for(spec)
            assert spec in store
            assert len(store) == 1

    def test_put_is_idempotent_by_hash(self):
        spec = TrialSpec.create("angluin", 8, 3)
        with TrialStore(":memory:") as store:
            store.put(spec, outcome_for(spec, steps=100))
            store.put(spec, outcome_for(spec, steps=100))
            assert len(store) == 1

    def test_get_many_returns_only_hits(self):
        specs = trial_specs("angluin", 8, trials=4)
        with TrialStore(":memory:") as store:
            store.put_many((spec, outcome_for(spec)) for spec in specs[:2])
            hits = store.get_many(specs)
            assert set(hits) == {spec.content_hash() for spec in specs[:2]}

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "trials.sqlite"
        spec = TrialSpec.create("pll", 64, 0, params={"variant": "full"})
        with TrialStore(path) as store:
            store.put(spec, outcome_for(spec))
        with TrialStore(path) as store:
            assert store.get(spec) == outcome_for(spec)

    def test_distinct_specs_do_not_alias(self):
        a = TrialSpec.create("angluin", 8, 0)
        b = TrialSpec.create("angluin", 8, 1)
        with TrialStore(":memory:") as store:
            store.put(a, outcome_for(a))
            assert store.get(b) is None

    def test_rejects_seed_mismatch(self):
        a = TrialSpec.create("angluin", 8, 0)
        b = TrialSpec.create("angluin", 8, 1)
        with TrialStore(":memory:") as store:
            with pytest.raises(ExperimentError):
                store.put(a, outcome_for(b))

    def test_readonly_reads_existing_store(self, tmp_path):
        path = tmp_path / "trials.sqlite"
        spec = TrialSpec.create("angluin", 8, 0)
        with TrialStore(path) as store:
            store.put(spec, outcome_for(spec))
        with TrialStore(path, readonly=True) as store:
            assert store.get(spec) == outcome_for(spec)

    def test_readonly_missing_store_raises_without_creating(self, tmp_path):
        path = tmp_path / "missing.sqlite"
        with pytest.raises(ExperimentError, match="campaign been run"):
            TrialStore(path, readonly=True)
        assert not path.exists()

    def test_readonly_rejects_non_store_file(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.sqlite"
        sqlite3.connect(path).close()  # valid sqlite file, wrong schema
        with pytest.raises(ExperimentError, match="not a trial store"):
            TrialStore(path, readonly=True)

    def test_get_many_chunks_large_batches(self):
        specs = trial_specs("angluin", 8, trials=600)
        with TrialStore(":memory:") as store:
            store.put_many((spec, outcome_for(spec)) for spec in specs)
            assert len(store.get_many(specs)) == 600

    def test_runtime_records_roundtrip(self):
        spec = TrialSpec.create("angluin", 8, 3)
        outcome = TrialOutcome(
            seed=3,
            steps=100,
            parallel_time=12.5,
            leader_count=1,
            distinct_states=4,
            duration=1.25,
            telemetry='{"engine":"agent","steps":100}',
        )
        with TrialStore(":memory:") as store:
            store.put(spec, outcome)
            loaded = store.get(spec)
        assert loaded.duration == 1.25
        assert loaded.telemetry == '{"engine":"agent","steps":100}'

    def test_rows_exposes_spec_identity_and_outcome_columns(self):
        spec = TrialSpec.create("pll", 64, 2, engine="superbatch")
        with TrialStore(":memory:") as store:
            store.put(spec, outcome_for(spec))
            (row,) = list(store.rows())
        assert row["protocol"] == "pll"
        assert row["n"] == 64
        assert row["seed"] == 2
        assert row["engine"] == "superbatch"
        assert row["steps"] == 100
        assert row["duration"] == 0.0
        assert row["telemetry"] is None
        assert row["spec_hash"] == spec.content_hash()


def make_pre_pr6_store(path):
    """A store with the original (PR 1) schema: no runtime-record columns."""
    import sqlite3

    connection = sqlite3.connect(path)
    connection.executescript(
        """
        CREATE TABLE trials (
            spec_hash       TEXT PRIMARY KEY,
            protocol        TEXT NOT NULL,
            n               INTEGER NOT NULL,
            seed            INTEGER NOT NULL,
            engine          TEXT NOT NULL,
            spec_json       TEXT NOT NULL,
            steps           INTEGER NOT NULL,
            parallel_time   REAL NOT NULL,
            leader_count    INTEGER NOT NULL,
            distinct_states INTEGER NOT NULL,
            created_at      TEXT NOT NULL DEFAULT (datetime('now'))
        );
        CREATE INDEX idx_trials_protocol_n ON trials (protocol, n);
        """
    )
    spec = TrialSpec.create("angluin", 8, 3)
    connection.execute(
        "INSERT INTO trials (spec_hash, protocol, n, seed, engine,"
        " spec_json, steps, parallel_time, leader_count, distinct_states)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (spec.content_hash(), "angluin", 8, 3, "agent", spec.to_json(),
         100, 12.5, 1, 4),
    )
    connection.commit()
    connection.close()
    return spec


class TestSchemaMigration:
    def test_writable_open_migrates_in_place(self, tmp_path):
        path = tmp_path / "old.sqlite"
        spec = make_pre_pr6_store(path)
        with TrialStore(path) as store:
            # Old rows read back with the backfill defaults ...
            outcome = store.get(spec)
            assert outcome == outcome_for(spec)
            assert outcome.duration == 0.0
            assert outcome.telemetry is None
            # ... and new rows persist full runtime records.
            fresh = TrialSpec.create("angluin", 8, 4)
            store.put(
                fresh,
                TrialOutcome(
                    seed=4, steps=50, parallel_time=6.25, leader_count=1,
                    distinct_states=4, duration=0.5, telemetry='{"a":1}',
                ),
            )
        with TrialStore(path, readonly=True) as store:
            assert store.get(fresh).telemetry == '{"a":1}'

    def test_readonly_open_tolerates_the_old_schema(self, tmp_path):
        path = tmp_path / "old.sqlite"
        spec = make_pre_pr6_store(path)
        with TrialStore(path, readonly=True) as store:
            outcome = store.get(spec)
            assert outcome.duration == 0.0
            assert outcome.telemetry is None
            assert len(store.get_many([spec])) == 1
            (row,) = list(store.rows())
            assert row["duration"] == 0.0
            assert row["telemetry"] is None

    def test_readonly_open_does_not_alter_the_schema(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.sqlite"
        make_pre_pr6_store(path)
        with TrialStore(path, readonly=True):
            pass
        columns = {
            row[1]
            for row in sqlite3.connect(path)
            .execute("PRAGMA table_info(trials)")
            .fetchall()
        }
        assert "duration" not in columns and "telemetry" not in columns

    def test_migration_is_idempotent(self, tmp_path):
        path = tmp_path / "old.sqlite"
        spec = make_pre_pr6_store(path)
        for _ in range(2):
            with TrialStore(path) as store:
                assert store.get(spec) is not None
