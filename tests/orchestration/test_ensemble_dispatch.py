"""The pool's ensemble dispatch path: packing, equivalence, resume.

``run_specs`` packs pending same-cell multiset trials into
:class:`EnsembleSimulator` lanes.  Because lanes are bit-identical to
solo multiset runs, the packing must be *observationally invisible*:
identical outcomes, identical store rows, resumable either way.  These
tests pin that invisibility — the property that lets ``--engine
ensemble`` share a trial store with plain multiset campaigns in both
directions.
"""

import time

import pytest

from repro.errors import ConvergenceError
from repro.orchestration.pool import _ensemble_chunks, run_specs
from repro.orchestration.spec import trial_specs
from repro.orchestration.store import TrialStore


def cell(trials=6, n=48, base_seed=0, **kwargs):
    return trial_specs(
        "angluin", n, trials=trials, base_seed=base_seed,
        engine="multiset", **kwargs
    )


class TestPackedEqualsSolo:
    def test_outcomes_identical_to_solo_path(self):
        specs = cell()
        packed = run_specs(specs)  # default: packing enabled
        solo = run_specs(specs, ensemble_lanes=0)
        assert packed.outcomes == solo.outcomes
        assert packed.executed == solo.executed == len(specs)

    def test_mixed_cells_all_covered(self):
        # Two packable cells plus a group too small to pack: every trial
        # must complete through one path or the other, in spec order.
        specs = cell(6, n=48) + cell(6, n=64) + cell(2, n=32)
        report = run_specs(specs)
        assert [o.seed for o in report.outcomes] == [s.seed for s in specs]
        solo = run_specs(specs, ensemble_lanes=0)
        assert report.outcomes == solo.outcomes

    def test_packed_parallel_matches_serial(self):
        # jobs>1 shards each cell into lane chunks that run as pool
        # tasks; chunking and worker scheduling must be invisible.
        specs = cell(9, n=48) + cell(5, n=64)
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=3)
        assert serial.outcomes == parallel.outcomes

    def test_agent_specs_never_pack(self):
        # Packing is a multiset-chain equivalence; agent specs must take
        # the solo path even when they share a cell.
        specs = trial_specs("angluin", 48, trials=6, engine="agent")
        packed = run_specs(specs)
        solo = run_specs(specs, ensemble_lanes=0)
        assert packed.outcomes == solo.outcomes


class TestChunking:
    @pytest.mark.parametrize(
        "size,jobs,min_lanes,sizes",
        [
            (48, 1, 4, [48]),  # one worker: the cell stays one chunk
            (48, 4, 4, [12, 12, 12, 12]),  # one chunk per worker
            (9, 4, 4, [5, 4]),  # too shallow for four: len // min_lanes
            (3, 4, 4, [3]),  # below min_lanes: still one chunk
        ],
    )
    def test_cell_splits_into_min_jobs_and_depth(
        self, size, jobs, min_lanes, sizes
    ):
        group = list(enumerate(cell(size)))
        chunks = _ensemble_chunks(group, jobs, min_lanes)
        assert [len(chunk) for chunk in chunks] == sizes
        assert [item for chunk in chunks for item in chunk] == group


class TestLaneDurations:
    def test_stored_durations_split_the_chunk_wall_time(self):
        # Lanes share sweeps, so each lane stores the time since its
        # chunk's previous lane retired: the durations of a packed
        # cell add up to (at most) the wall time of the whole run.
        specs = cell(trials=8, n=64)
        with TrialStore(":memory:") as store:
            started = time.perf_counter()
            report = run_specs(specs, jobs=1, store=store)
            wall = time.perf_counter() - started
            durations = [store.get(spec).duration for spec in specs]
        assert all(duration > 0 for duration in durations)
        assert sum(durations) <= wall
        assert report.executed_duration == pytest.approx(sum(durations))


class TestStoreInterchange:
    def test_rows_shared_between_packed_and_solo(self):
        specs = cell()
        with TrialStore(":memory:") as store:
            first = run_specs(specs, store=store)  # packed
            second = run_specs(specs, store=store, ensemble_lanes=0)
        assert first.executed == len(specs)
        assert second.executed == 0 and second.cached == len(specs)
        assert first.outcomes == second.outcomes

    def test_rows_shared_in_the_other_direction(self):
        specs = cell()
        with TrialStore(":memory:") as store:
            run_specs(specs[:3], store=store, ensemble_lanes=0)  # solo fill
            report = run_specs(specs, store=store)  # pack the rest
        assert report.cached == 3 and report.executed == 3

    def test_partial_resume_packs_only_the_missing(self):
        specs = cell(trials=10)
        with TrialStore(":memory:") as store:
            run_specs(specs[:4], store=store)
            resumed = run_specs(specs, store=store)
            assert resumed.cached == 4 and resumed.executed == 6
            everything = run_specs(specs, store=store)
        assert everything.cached == 10
        assert resumed.outcomes == everything.outcomes


class TestFailureSemantics:
    def test_convergence_error_names_a_seed(self):
        specs = cell(trials=6, n=64, max_steps=3)
        with pytest.raises(ConvergenceError, match="seed"):
            run_specs(specs)

    def test_finished_lanes_survive_an_abort(self):
        # A budget that lets some lanes finish but not all: the retired
        # lanes' rows must be in the store, so a retry resumes from them.
        probe = run_specs(cell(trials=6, n=64), ensemble_lanes=0)
        steps = sorted(o.steps for o in probe.outcomes)
        budget = steps[2]  # at least two lanes finish inside this budget
        specs = cell(trials=6, n=64, max_steps=budget)
        with TrialStore(":memory:") as store:
            with pytest.raises(ConvergenceError):
                run_specs(specs, store=store)
            assert len(store) >= 2  # the fast lanes were persisted

    def test_worker_chunk_failure_still_persists_its_finished_lanes(self):
        # jobs>1: the chunk runs inside a worker, which cannot stream
        # into the parent's store — so the failure travels back as a
        # marker after the chunk's completed lanes, and the parent
        # records those before re-raising.  trials=4 keeps the cell in
        # one chunk, making the persisted count deterministic.
        probe = run_specs(cell(trials=4, n=64), ensemble_lanes=0)
        steps = sorted(o.steps for o in probe.outcomes)
        budget = steps[2]  # exactly three lanes fit this budget
        specs = cell(trials=4, n=64, max_steps=budget)
        with TrialStore(":memory:") as store:
            with pytest.raises(ConvergenceError, match="seed"):
                run_specs(specs, store=store, jobs=3)
            assert len(store) == 3
