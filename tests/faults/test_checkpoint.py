"""In-trial checkpoint/resume: kill a trial mid-run, resume bit-identically."""

import pickle

import pytest

from repro.faults.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_SECS_ENV,
    DEFAULT_CHECKPOINT_DIR,
    TrialCheckpointer,
    checkpoint_dir,
    make_checkpointer,
    sweep_orphans,
)
from repro.orchestration.pool import execute_trial
from repro.orchestration.spec import TrialSpec


class SimulatedKill(BaseException):
    """Out-of-band interruption (not Exception, so no retry machinery
    or except-clause in the engine loop can swallow it — like SIGKILL,
    minus the process teardown)."""


def spec_for(tmp_path, engine="superbatch", fault_plan=None, seed=0):
    return TrialSpec.create(
        "pll", 256, seed, engine=engine, fault_plan=fault_plan
    )


def enable(monkeypatch, tmp_path):
    monkeypatch.setenv(CHECKPOINT_SECS_ENV, "0")
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))


class TestGating:
    def test_disabled_without_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CHECKPOINT_SECS_ENV, raising=False)
        assert make_checkpointer(spec_for(tmp_path)) is None

    def test_disabled_for_invalid_interval(self, monkeypatch, tmp_path):
        enable(monkeypatch, tmp_path)
        monkeypatch.setenv(CHECKPOINT_SECS_ENV, "soon")
        assert make_checkpointer(spec_for(tmp_path)) is None

    @pytest.mark.parametrize("engine", ["agent", "multiset"])
    def test_disabled_for_per_interaction_engines(
        self, monkeypatch, tmp_path, engine
    ):
        enable(monkeypatch, tmp_path)
        assert make_checkpointer(spec_for(tmp_path, engine=engine)) is None

    def test_enabled_for_the_block_engine(self, monkeypatch, tmp_path):
        enable(monkeypatch, tmp_path)
        spec = spec_for(tmp_path)
        checkpointer = make_checkpointer(spec)
        assert checkpointer is not None
        assert checkpointer.path.name == f"{spec.content_hash()}.ckpt"
        assert checkpointer.path.parent == tmp_path


class TestKillAndResume:
    @pytest.mark.parametrize("fault_plan", [None, [
        {"kind": "corrupt", "at_step": 512, "count": 32},
        {"kind": "churn", "at_step": 2048, "count": 16},
    ]])
    def test_resumed_outcome_is_bit_identical(
        self, monkeypatch, tmp_path, fault_plan
    ):
        spec = spec_for(tmp_path, fault_plan=fault_plan)
        baseline = execute_trial(spec)

        enable(monkeypatch, tmp_path)
        original_save = TrialCheckpointer.save
        state = {"saves": 0}

        def killing_save(self, sim):
            original_save(self, sim)
            state["saves"] += 1
            if state["saves"] == 2:
                raise SimulatedKill

        monkeypatch.setattr(TrialCheckpointer, "save", killing_save)
        with pytest.raises(SimulatedKill):
            execute_trial(spec)
        checkpoint = tmp_path / f"{spec.content_hash()}.ckpt"
        assert checkpoint.exists()

        monkeypatch.setattr(TrialCheckpointer, "save", original_save)
        resumed = execute_trial(spec)
        assert resumed.steps == baseline.steps
        assert resumed.leader_count == baseline.leader_count
        assert resumed.faults == baseline.faults
        # The snapshot never outlives its trial.
        assert not checkpoint.exists()

    def test_faulted_resume_does_not_replay_applied_events(
        self, monkeypatch, tmp_path
    ):
        """Kill after the fault fired: the resumed run restores the
        injector cursor, so the event applies exactly once."""
        plan = [{"kind": "corrupt", "at_step": 256, "count": 32}]
        spec = spec_for(tmp_path, fault_plan=plan)
        baseline = execute_trial(spec)

        enable(monkeypatch, tmp_path)
        original_save = TrialCheckpointer.save

        def killing_save(self, sim):
            original_save(self, sim)
            if sim.steps > 256:
                raise SimulatedKill

        monkeypatch.setattr(TrialCheckpointer, "save", killing_save)
        with pytest.raises(SimulatedKill):
            execute_trial(spec)
        payload = pickle.loads(
            (tmp_path / f"{spec.content_hash()}.ckpt").read_bytes()
        )
        assert payload["injector"]["next_event"] == 1

        monkeypatch.setattr(TrialCheckpointer, "save", original_save)
        resumed = execute_trial(spec)
        assert resumed.faults == baseline.faults


class TestSnapshotHygiene:
    def test_corrupt_file_is_discarded_and_cleared(self, tmp_path):
        path = tmp_path / "broken.ckpt"
        path.write_bytes(b"not a pickle")
        checkpointer = TrialCheckpointer(path, 0)
        assert checkpointer.load() is None
        assert not path.exists()

    def test_stale_version_is_discarded(self, tmp_path):
        path = tmp_path / "stale.ckpt"
        path.write_bytes(pickle.dumps({"version": -1}))
        checkpointer = TrialCheckpointer(path, 0)
        assert checkpointer.load() is None
        assert not path.exists()

    def test_retired_batch_checkpoint_is_refused(
        self, monkeypatch, tmp_path, caplog
    ):
        enable(monkeypatch, tmp_path)
        checkpointer = make_checkpointer(spec_for(tmp_path))

        class FakeSim:
            ENGINE_NAME = "superbatch"

        checkpointer.path.write_bytes(
            pickle.dumps({"version": 1, "engine": "batch", "sim": {}, "injector": None})
        )
        with caplog.at_level("WARNING", logger="repro.faults.checkpoint"):
            assert checkpointer.restore(FakeSim()) is False
        assert "'batch' engine (a retired engine)" in caplog.text
        assert "starting the trial from scratch" in caplog.text
        assert not checkpointer.path.exists()


class TestSweepOrphans:
    """``repro store gc``: checkpoint files whose trial already
    completed are garbage; in-flight ones must survive the sweep."""

    def test_completed_hashes_are_swept(self, tmp_path):
        done = tmp_path / "aaaa.ckpt"
        live = tmp_path / "bbbb.ckpt"
        done.write_bytes(b"snapshot")
        live.write_bytes(b"snapshot")
        removed = sweep_orphans({"aaaa"}, tmp_path)
        assert removed == [done]
        assert not done.exists()
        assert live.exists()

    def test_interrupted_tmp_droppings_always_swept(self, tmp_path):
        dropping = tmp_path / "cccc.ckpt12345.tmp"
        dropping.write_bytes(b"partial")
        assert sweep_orphans(set(), tmp_path) == [dropping]
        assert not dropping.exists()

    def test_unrelated_files_survive(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_text("keep me")
        assert sweep_orphans({"notes"}, tmp_path) == []
        assert other.exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert sweep_orphans({"aaaa"}, tmp_path / "absent") == []

    def test_env_names_the_default_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))
        assert checkpoint_dir() == tmp_path
        orphan = tmp_path / "dddd.ckpt"
        orphan.write_bytes(b"snapshot")
        assert sweep_orphans({"dddd"}) == [orphan]

    def test_default_directory_without_env(self, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        assert str(checkpoint_dir()) == DEFAULT_CHECKPOINT_DIR
