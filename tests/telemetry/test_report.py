"""Tests for the per-cell runtime profile (repro.telemetry.report)."""

import json

import pytest

from repro.orchestration.spec import TrialOutcome, TrialSpec
from repro.orchestration.store import TrialStore
from repro.telemetry.report import REPORT_SCHEMA, build_report, render_report


def put_trial(store, protocol, n, engine, seed, steps, duration, telemetry):
    # The raw constructor, not ``create``: some rows stand for trials of
    # the retired batch engine, which stores keep from older runs.
    spec = TrialSpec(protocol, n, seed, engine=engine)
    store.put(
        spec,
        TrialOutcome(
            seed=seed,
            steps=steps,
            parallel_time=steps / n,
            leader_count=1,
            distinct_states=8,
            duration=duration,
            telemetry=telemetry,
        ),
    )


def cache_json(hits, misses):
    return json.dumps(
        {"engine": "multiset", "cache": {"hits": hits, "misses": misses}}
    )


class TestBuildReport:
    def test_groups_per_cell_with_percentiles(self):
        with TrialStore(":memory:") as store:
            for seed, steps, duration in (
                (0, 1000, 0.5),
                (1, 2000, 1.0),
                (2, 3000, 1.5),
            ):
                put_trial(
                    store, "pll", 64, "multiset", seed, steps, duration,
                    cache_json(90, 10),
                )
            put_trial(store, "angluin", 32, "agent", 0, 500, 0.25, None)
            report = build_report(store)
        assert report["schema"] == REPORT_SCHEMA
        assert report["trials"] == 4
        cells = {
            (cell["protocol"], cell["n"], cell["engine"]): cell
            for cell in report["cells"]
        }
        assert set(cells) == {("pll", 64, "multiset"), ("angluin", 32, "agent")}
        pll = cells[("pll", 64, "multiset")]
        assert pll["trials"] == pll["timed_trials"] == 3
        assert pll["duration_sec"]["p50"] == pytest.approx(1.0)
        assert pll["total_duration_sec"] == pytest.approx(3.0)
        assert pll["steps_per_sec"]["p50"] == pytest.approx(2000.0)
        assert pll["steps"]["min"] == 1000.0 and pll["steps"]["max"] == 3000.0
        assert pll["cache_hit_rate"] == pytest.approx(0.9)

    def test_untimed_rows_are_counted_but_not_profiled(self):
        # Rows migrated from a pre-duration store carry duration=0.0;
        # they must not poison the wall-clock statistics.
        with TrialStore(":memory:") as store:
            put_trial(store, "pll", 64, "batch", 0, 1000, 0.0, None)
            put_trial(store, "pll", 64, "batch", 1, 1200, 0.6, None)
            report = build_report(store)
        (cell,) = report["cells"]
        assert cell["trials"] == 2
        assert cell["timed_trials"] == 1
        assert cell["duration_sec"]["min"] == pytest.approx(0.6)

    def test_cells_without_timed_trials_have_no_duration_block(self):
        with TrialStore(":memory:") as store:
            put_trial(store, "pll", 64, "batch", 0, 1000, 0.0, None)
            report = build_report(store)
        (cell,) = report["cells"]
        assert "duration_sec" not in cell
        assert "cache_hit_rate" not in cell

    def test_malformed_telemetry_json_is_skipped(self):
        with TrialStore(":memory:") as store:
            put_trial(store, "pll", 64, "batch", 0, 1000, 0.5, "{not json")
            report = build_report(store)
        (cell,) = report["cells"]
        assert "cache_hit_rate" not in cell

    def test_empty_store_renders_cleanly(self):
        with TrialStore(":memory:") as store:
            report = build_report(store)
        assert report["trials"] == 0
        assert report["cells"] == []

    def test_parallel_time_percentiles(self):
        with TrialStore(":memory:") as store:
            for seed, steps, duration in (
                (0, 1000, 0.5),
                (1, 2000, 1.0),
                (2, 3000, 1.5),
            ):
                put_trial(
                    store, "pll", 64, "multiset", seed, steps, duration, None
                )
            report = build_report(store)
        (cell,) = report["cells"]
        # Every trial above simulates (steps/n)/duration = 2000/64
        # units of parallel time per wall-clock second.
        assert cell["parallel_time_per_sec"]["p50"] == pytest.approx(2000 / 64)
        assert cell["parallel_time_per_sec"]["p95"] == pytest.approx(2000 / 64)

    def test_render_json_is_stable(self):
        with TrialStore(":memory:") as store:
            put_trial(store, "pll", 64, "batch", 0, 1000, 0.5, None)
            rendered = render_report(build_report(store), fmt="json")
        payload = json.loads(rendered)
        assert payload["schema"] == REPORT_SCHEMA
        # Stable key order: re-rendering the parsed payload is identical.
        assert json.dumps(payload, indent=2, sort_keys=True) == rendered

    def test_render_text_table(self):
        with TrialStore(":memory:") as store:
            put_trial(
                store, "pll", 64, "batch", 0, 1000, 0.5, cache_json(90, 10)
            )
            rendered = render_report(build_report(store))
        assert "pll" in rendered and "batch" in rendered
        # Text, not JSON: the default format is the human-readable table.
        with pytest.raises(json.JSONDecodeError):
            json.loads(rendered)

    def test_render_rejects_unknown_format(self):
        with TrialStore(":memory:") as store:
            report = build_report(store)
        with pytest.raises(ValueError):
            render_report(report, fmt="yaml")
