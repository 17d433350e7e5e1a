"""Stored campaigns survive the compiled-kernel switch untouched.

PR 4 changed the default transition-resolution path; these tests pin
the invariants that keep pre-PR-4 trial stores valid: spec content
hashes never mention the kernel, kernel-backed engines produce
byte-identical outcomes for the same specs, and a store written by the
cached-delta path resumes under the kernel path with zero re-execution
(and vice versa).
"""

import pytest

from repro.orchestration.pool import run_specs
from repro.orchestration.spec import TrialSpec, trial_specs
from repro.orchestration.store import TrialStore


@pytest.fixture
def store(tmp_path):
    with TrialStore(tmp_path / "trials.sqlite") as handle:
        yield handle


def specs_for(protocol="pll", n=64, trials=4, engine="multiset"):
    return trial_specs(protocol, n, trials, base_seed=0, engine=engine)


class TestHashStability:
    def test_hashes_do_not_mention_the_kernel(self):
        spec = TrialSpec.create("pll", 64, 0, engine="multiset")
        canonical = spec.to_json()
        assert "kernel" not in canonical
        assert set(spec.canonical()) == {
            "version",
            "protocol",
            "params",
            "n",
            "seed",
            "engine",
            "max_steps",
            "detector",
        }


class TestStoreResumability:
    @pytest.mark.parametrize("engine", ["multiset", "superbatch", "agent"])
    def test_cached_path_store_resumes_under_the_kernel(
        self, store, engine, monkeypatch
    ):
        specs = specs_for(engine=engine)
        # Populate the store exactly as a pre-PR-4 checkout would:
        # kernels disabled, classic interner+cache path.
        monkeypatch.setenv("REPRO_KERNEL", "0")
        legacy = run_specs(specs, store=store)
        assert legacy.executed == len(specs)
        monkeypatch.delenv("REPRO_KERNEL")
        # The kernel-backed runner must find every row and execute
        # nothing — resumability across the path switch.
        resumed = run_specs(specs, store=store)
        assert resumed.executed == 0
        assert resumed.cached == len(specs)
        assert resumed.outcomes == legacy.outcomes

    @pytest.mark.parametrize("engine", ["multiset", "superbatch"])
    def test_kernel_outcomes_match_the_cached_path(self, engine, monkeypatch):
        specs = specs_for(engine=engine)
        kernel_report = run_specs(specs)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        cached_report = run_specs(specs)
        assert kernel_report.outcomes == cached_report.outcomes

    def test_kernel_path_store_resumes_under_the_cached_path(
        self, store, monkeypatch
    ):
        specs = specs_for()
        fresh = run_specs(specs, store=store)
        assert fresh.executed == len(specs)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        resumed = run_specs(specs, store=store)
        assert resumed.executed == 0
        assert resumed.outcomes == fresh.outcomes

    def test_ensemble_packing_shares_rows_with_kernel_solo(self, store):
        # Same cell, deep enough to pack into ensemble lanes: rows land
        # in the same store slots the solo kernel engine would fill.
        specs = specs_for(trials=6)
        packed = run_specs(specs, store=store, ensemble_lanes=2)
        assert packed.executed == len(specs)
        solo = run_specs(specs, store=store, ensemble_lanes=0)
        assert solo.executed == 0
        assert solo.outcomes == packed.outcomes
