"""The distributed campaign fabric: worker loop, crash reclaim, chaos.

The chaos test is the PR's acceptance spine: SIGKILL a worker mid-cell,
watch its leases expire, have a survivor reclaim and finish, and prove
the merged canonical store is row-identical (on the deterministic
columns) to a single-worker reference run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.faults.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_SECS_ENV,
    TrialCheckpointer,
)
from repro.orchestration.backend.fabric import FabricReport, run_sharded_campaign
from repro.orchestration.backend.leases import LeaseManager
from repro.orchestration.backend.merge import merge_store
from repro.orchestration.backend.sharded import CANONICAL_NAME, ShardedStore
from repro.orchestration.pool import execute_trial, run_specs
from repro.orchestration.spec import TrialSpec
from repro.orchestration.store import TrialStore

REPO_SRC = str(Path(__file__).resolve().parents[3] / "src")

#: Outcome columns that are deterministic functions of the spec — the
#: ones a distributed run must reproduce exactly.  Wall-clock columns
#: (duration, created_at) legitimately differ between runs.
DETERMINISTIC_COLUMNS = (
    "spec_hash",
    "protocol",
    "n",
    "seed",
    "engine",
    "spec_json",
    "steps",
    "parallel_time",
    "leader_count",
    "distinct_states",
)


class SimulatedKill(BaseException):
    """SIGKILL minus the process teardown (BaseException, so neither
    the retry machinery nor quarantine capture can swallow it)."""


def specs_for(count, n=16):
    return [TrialSpec.create("angluin", n, seed) for seed in range(count)]


def doomed_spec(seed=100):
    """Deterministic convergence failure: 10 steps stabilizes nothing."""
    return TrialSpec.create("angluin", 16, seed, max_steps=10)


def deterministic_rows(store):
    return [
        tuple(row[column] for column in DETERMINISTIC_COLUMNS)
        for row in store.rows()
    ]


class TestWorkerLoop:
    def test_single_worker_completes_everything(self, tmp_path):
        specs = specs_for(5)
        report = run_sharded_campaign(
            specs, tmp_path / "root", worker="w1", lease_ttl=30
        )
        assert isinstance(report, FabricReport)
        assert report.executed == 5
        assert report.cached == 0
        with ShardedStore(tmp_path / "root", readonly=True) as view:
            assert len(view) == 5
            assert view.live_leases() == []  # released on the way out

    def test_second_worker_sees_cached_campaign(self, tmp_path):
        specs = specs_for(4)
        run_sharded_campaign(specs, tmp_path / "root", worker="w1", lease_ttl=30)
        report = run_sharded_campaign(
            specs, tmp_path / "root", worker="w2", lease_ttl=30
        )
        assert report.executed == 0
        assert report.cached == 4
        assert report.rounds == 0

    def test_quarantined_cells_do_not_block_termination(self, tmp_path):
        specs = specs_for(2) + [doomed_spec()]
        report = run_sharded_campaign(
            specs, tmp_path / "root", worker="w1", lease_ttl=30, retries=0
        )
        assert report.executed == 2
        assert report.quarantined == 1
        # A second worker must also terminate without re-running poison.
        report2 = run_sharded_campaign(
            specs, tmp_path / "root", worker="w2", lease_ttl=30, retries=0
        )
        assert report2.executed == 0
        assert report2.quarantined == 1

    def test_starved_worker_waits_then_takes_over_expired_lease(
        self, tmp_path
    ):
        (spec,) = specs_for(1)
        root = tmp_path / "root"
        root.mkdir()
        # A "crashed" sibling: claims the only cell, never renews.
        dead = LeaseManager(root / "leases.sqlite", "dead", ttl_secs=0.2)
        dead.claim([spec.content_hash()])
        dead.close()
        sleeps = []

        def sleep(secs):
            sleeps.append(secs)
            time.sleep(min(secs, 0.25))

        report = run_sharded_campaign(
            [spec], root, worker="survivor", lease_ttl=30, sleep=sleep
        )
        assert report.starved_rounds >= 1
        assert report.reclaimed == 1
        assert report.executed == 1
        assert sleeps  # it actually waited for the expiry

    def test_rejects_empty_worker(self, tmp_path):
        with pytest.raises(ExperimentError, match="worker"):
            run_sharded_campaign(specs_for(1), tmp_path / "root", worker="")

    def test_rejects_bad_claim_chunk(self, tmp_path):
        with pytest.raises(ExperimentError, match="claim chunk"):
            run_sharded_campaign(
                specs_for(1), tmp_path / "root", worker="w1", claim_chunk=0
            )


class TestCheckpointComposition:
    def test_reclaimed_trial_resumes_from_checkpoint(
        self, monkeypatch, tmp_path
    ):
        """The tentpole composition: a worker dies mid-trial (after a
        checkpoint), its lease is released/expired, and the reclaiming
        worker's engine resumes from the checkpoint — finishing with the
        bit-identical outcome the uninterrupted run produces."""
        spec = TrialSpec.create("pll", 256, 0, engine="superbatch")
        baseline = execute_trial(spec)

        ckpt_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHECKPOINT_SECS_ENV, "0")
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(ckpt_dir))
        root = tmp_path / "root"

        original_save = TrialCheckpointer.save
        state = {"saves": 0}

        def killing_save(self, sim):
            original_save(self, sim)
            state["saves"] += 1
            if state["saves"] == 2:
                raise SimulatedKill

        monkeypatch.setattr(TrialCheckpointer, "save", killing_save)
        with pytest.raises(SimulatedKill):
            run_sharded_campaign([spec], root, worker="victim", lease_ttl=30)
        checkpoint = ckpt_dir / f"{spec.content_hash()}.ckpt"
        assert checkpoint.exists()

        monkeypatch.setattr(TrialCheckpointer, "save", original_save)
        report = run_sharded_campaign(
            [spec], root, worker="survivor", lease_ttl=30
        )
        assert report.executed == 1
        with ShardedStore(root, readonly=True) as view:
            outcome = view.get(spec)
        assert outcome.steps == baseline.steps
        assert outcome.leader_count == baseline.leader_count
        assert outcome.parallel_time == baseline.parallel_time
        assert not checkpoint.exists()  # cleared on completion


#: Victim worker: join the fabric, SIGKILL own process after the third
#: freshly executed trial — mid-campaign, leases still held.
_VICTIM = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.orchestration.backend.fabric import run_sharded_campaign
from repro.orchestration.spec import TrialSpec

specs = [TrialSpec.create("angluin", 16, seed) for seed in range({count})]
fresh = [0]

def kill_after_three(done, total, outcome):
    if outcome is None:
        return
    fresh[0] += 1
    if fresh[0] == 3:
        os.kill(os.getpid(), signal.SIGKILL)

run_sharded_campaign(
    specs, {root!r}, worker="victim", lease_ttl=2.0,
    claim_chunk=4, progress=kill_after_three,
)
"""


class TestChaos:
    def test_sigkill_reclaim_and_row_identical_merge(self, tmp_path):
        count = 10
        specs = specs_for(count)

        # Single-worker reference: jobs=1 into a plain single-file store.
        reference_path = tmp_path / "reference.sqlite"
        with TrialStore(reference_path) as reference:
            run_specs(specs, jobs=1, store=reference)
            expected = deterministic_rows(reference)
        assert len(expected) == count

        root = tmp_path / "root"
        victim = subprocess.run(
            [sys.executable, "-c", _VICTIM.format(
                src=REPO_SRC, count=count, root=str(root)
            )],
            env=dict(os.environ),
            timeout=120,
        )
        assert victim.returncode == -signal.SIGKILL

        # The victim died holding leases; at least one trial is durable
        # in its shard and at least one cell is still unfinished.
        with ShardedStore(root, readonly=True) as view:
            survivors_todo = count - len(view)
            assert 3 <= len(view) < count
        assert survivors_todo >= 1

        # Survivor waits out the 2 s TTL, reclaims, finishes the grid.
        report = run_sharded_campaign(
            specs, root, worker="survivor", lease_ttl=2.0
        )
        assert report.executed == survivors_todo
        assert report.executed + report.cached == count

        merge_report = merge_store(root)
        assert merge_report.trials == count
        with TrialStore(root / CANONICAL_NAME, readonly=True) as merged:
            assert deterministic_rows(merged) == expected
            assert merged.failures() == []

    def test_double_executed_spec_yields_one_canonical_row(self, tmp_path):
        """Duplicate execution (the lease-expiry race) is harmless by
        construction: both workers run the same spec, the merge keeps
        one row, and it matches the single-run reference."""
        (spec,) = specs_for(1)
        root = tmp_path / "root"
        # Bypass the federated cache (which would normally dedupe): both
        # workers really execute the spec, as happens when a lease
        # expires under a slow-but-alive worker mid-trial.
        for worker in ("w1", "w2"):
            with ShardedStore(root, worker=worker) as store:
                store.put(spec, execute_trial(spec))
        report = merge_store(root)
        assert report.trials == 1
        assert report.duplicate_trials == 1
        with TrialStore(root / CANONICAL_NAME, readonly=True) as merged:
            with TrialStore(tmp_path / "ref.sqlite") as reference:
                run_specs([spec], store=reference)
                assert deterministic_rows(merged) == deterministic_rows(
                    reference
                )
