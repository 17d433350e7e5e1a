"""Tests for block-level stage profiles (repro.telemetry.profile)."""

import pytest

from repro.orchestration.spec import TrialSpec
from repro.telemetry.profile import (
    DISABLED,
    StageProfile,
    aggregate_profiles,
    emit_profile,
    load_profile_records,
    render_profile_table,
    top_stages,
)
from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV


class RecordingSink:
    path = "<memory>"

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestStageProfile:
    def test_accumulates_seconds_and_calls(self):
        profile = StageProfile(enabled=True)
        for _ in range(3):
            with profile.stage("sample"):
                pass
        with profile.stage("apply"):
            pass
        assert profile.calls == {"sample": 3, "apply": 1}
        assert set(profile.seconds) == {"sample", "apply"}
        assert all(seconds >= 0.0 for seconds in profile.seconds.values())

    def test_disabled_profile_is_a_shared_noop(self):
        with DISABLED.stage("sample"):
            pass
        assert DISABLED.seconds == {}
        assert DISABLED.calls == {}
        # The disabled path hands out one shared span object.
        assert DISABLED.stage("a") is DISABLED.stage("b")

    def test_event_shape(self):
        profile = StageProfile(enabled=True)
        with profile.stage("sample"):
            pass
        event = profile.event("batch", "pll", 256, 0, 1234)
        assert event["event"] == "profile"
        assert event["engine"] == "batch"
        assert event["stages"]["sample"]["calls"] == 1

    def test_empty_profile_has_no_event(self):
        assert StageProfile(enabled=True).event("batch", "pll", 256, 0, 0) is None

    def test_stage_spans_feed_attached_tracer(self):
        from repro.telemetry.trace import Tracer

        sink = RecordingSink()
        profile = StageProfile(enabled=True)
        profile.tracer = Tracer(sink)
        with profile.stage("sample"):
            pass
        (span,) = sink.events
        assert span["name"] == "sample" and span["cat"] == "stage"

    def test_capped_tracer_still_profiles(self):
        from repro.telemetry.trace import Tracer

        sink = RecordingSink()
        profile = StageProfile(enabled=True)
        profile.tracer = Tracer(sink, limit=0)
        with profile.stage("sample"):
            pass
        # No span emitted (cap), but the profile still accumulated and
        # the drop was counted.
        assert sink.events == []
        assert profile.calls["sample"] == 1
        assert profile.tracer.dropped == 1


class TestEmitProfile:
    def test_emits_through_given_sink(self):
        profile = StageProfile(enabled=True)
        with profile.stage("sample"):
            pass
        sink = RecordingSink()
        emit_profile(profile, "batch", "pll", 256, 0, 99, sink=sink)
        (event,) = sink.events
        assert event["event"] == "profile" and event["steps"] == 99

    def test_noop_for_disabled_or_empty(self):
        sink = RecordingSink()
        emit_profile(None, "batch", "pll", 256, 0, 0, sink=sink)
        emit_profile(DISABLED, "batch", "pll", 256, 0, 0, sink=sink)
        emit_profile(
            StageProfile(enabled=True), "batch", "pll", 256, 0, 0, sink=sink
        )
        assert sink.events == []


class TestAggregation:
    def profile_event(self, engine, n, stages, steps=100):
        return {
            "event": "profile",
            "engine": engine,
            "protocol": "pll",
            "n": n,
            "seed": 0,
            "steps": steps,
            "stages": {
                name: {"seconds": seconds, "calls": 1}
                for name, seconds in stages.items()
            },
        }

    def test_folds_cells_and_ranks_stages(self):
        events = [
            self.profile_event("batch", 256, {"sample": 0.1, "apply": 0.3}),
            self.profile_event("batch", 256, {"sample": 0.2, "apply": 0.1}),
            self.profile_event("superbatch", 512, {"detect": 1.0}),
            {"event": "heartbeat"},  # ignored
        ]
        records = aggregate_profiles(events)
        assert [(r["engine"], r["n"]) for r in records] == [
            ("batch", 256),
            ("superbatch", 512),
        ]
        batch = records[0]
        assert batch["trials"] == 2 and batch["steps"] == 200
        assert top_stages(batch) == ["apply", "sample"]
        assert batch["stages"][0]["seconds"] == pytest.approx(0.4)
        shares = [stage["share"] for stage in batch["stages"]]
        assert sum(shares) == pytest.approx(1.0)
        assert shares == sorted(shares, reverse=True)

    def test_render_table_and_empty_message(self):
        records = aggregate_profiles(
            [self.profile_event("batch", 256, {"sample": 0.5})]
        )
        table = render_profile_table(records)
        assert "batch pll n=256" in table and "sample" in table
        assert "no profile events" in render_profile_table([])


class TestEndToEnd:
    def run_trial(self, engine, n, monkeypatch, tmp_path):
        path = tmp_path / f"{engine}.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.setenv(QUIET_ENV, "1")
        monkeypatch.setenv(EVENTS_ENV, str(path))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        spec = TrialSpec.create("pll", n, 0, engine=engine)
        from repro.orchestration.pool import execute_trial

        execute_trial(spec)
        return load_profile_records(str(path))

    def test_superbatch_names_its_top_stages(self, monkeypatch, tmp_path):
        # The acceptance check: the aggregated profile names the top-2
        # cost stages for a superbatch cell.
        records = self.run_trial("superbatch", 256, monkeypatch, tmp_path)
        (record,) = [r for r in records if r["engine"] == "superbatch"]
        top = top_stages(record, k=2)
        assert len(top) == 2
        assert set(top) <= {
            "sample", "apply", "detect", "commit", "null", "kernel_fill"
        }
        assert record["profiled_seconds"] > 0.0

    def test_no_profile_events_when_telemetry_off(self, monkeypatch, tmp_path):
        path = tmp_path / "off.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, "0")
        monkeypatch.setenv(EVENTS_ENV, str(path))
        spec = TrialSpec.create("pll", 256, 0, engine="superbatch")
        from repro.orchestration.pool import execute_trial

        execute_trial(spec)
        assert not path.exists()
