"""Tests for heartbeats and the JSONL event sink."""

import json
import time

from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.heartbeat import (
    HEARTBEAT_SECS_ENV,
    Heartbeat,
    make_heartbeat,
)
from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV, EventSink, make_sink


class CollectingSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def fast_heartbeat(max_steps=None, interval=0.0):
    return Heartbeat(
        engine="superbatch",
        protocol="pll",
        n=1000,
        seed=7,
        max_steps=max_steps,
        interval=interval,
        sink=CollectingSink(),
    )


class TestMakeHeartbeat:
    def test_none_when_telemetry_disabled(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "0")
        assert make_heartbeat("agent", "pll", 64, 0, None) is None

    def test_none_when_ctor_override_disables(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        assert make_heartbeat("agent", "pll", 64, 0, None, enabled=False) is None

    def test_none_when_interval_is_non_positive(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        monkeypatch.setenv(HEARTBEAT_SECS_ENV, "0")
        assert make_heartbeat("agent", "pll", 64, 0, None) is None

    def test_built_when_enabled(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        monkeypatch.setenv(HEARTBEAT_SECS_ENV, "2.5")
        beat = make_heartbeat("superbatch", "pll", 64, 3, 1000)
        assert beat is not None
        assert beat.interval == 2.5

    def test_garbage_interval_falls_back_to_default(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        monkeypatch.setenv(HEARTBEAT_SECS_ENV, "not-a-float")
        beat = make_heartbeat("superbatch", "pll", 64, 3, 1000)
        assert beat is not None
        assert beat.interval == 1.0


class TestHeartbeat:
    def test_respects_the_interval(self):
        beat = fast_heartbeat(interval=3600.0)
        beat.maybe_beat(10)
        beat.maybe_beat(20)
        assert beat.sink.events == []

    def test_emits_identity_progress_and_eta(self):
        beat = fast_heartbeat(max_steps=1000)
        time.sleep(0.001)
        beat.maybe_beat(500)
        (event,) = beat.sink.events
        assert event["event"] == "heartbeat"
        assert event["engine"] == "superbatch"
        assert event["protocol"] == "pll"
        assert event["seed"] == 7
        assert event["steps"] == 500
        assert event["parallel_time"] == 0.5  # 500 steps over n = 1000
        assert event["steps_per_sec"] > 0
        assert event["eta_sec"] is not None and event["eta_sec"] >= 0.0

    def test_eta_is_none_without_a_budget(self):
        beat = fast_heartbeat(max_steps=None)
        time.sleep(0.001)
        beat.maybe_beat(500)
        (event,) = beat.sink.events
        assert event["eta_sec"] is None

    def test_counts_beats(self):
        beat = fast_heartbeat(max_steps=100)
        for steps in (10, 20, 30):
            time.sleep(0.001)
            beat.maybe_beat(steps)
        assert beat.beats == 3


class TestEventSink:
    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(str(path), echo=False)
        sink.emit({"event": "heartbeat", "steps": 1})
        sink.emit({"event": "heartbeat", "steps": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["steps"] for line in lines] == [1, 2]

    def test_no_path_means_no_file(self):
        sink = EventSink(None, echo=False)
        sink.emit({"event": "heartbeat", "steps": 1})  # must not raise

    def test_write_failure_degrades_to_warning(self, tmp_path, capsys):
        sink = EventSink(str(tmp_path / "no" / "such" / "dir.jsonl"), echo=False)
        sink.emit({"event": "heartbeat", "steps": 1})
        assert sink.path is None  # disabled after the first failure
        assert "telemetry" in capsys.readouterr().err

    def test_heartbeats_echo_to_stderr(self, capsys):
        sink = EventSink(None, echo=True)
        sink.emit(
            {
                "event": "heartbeat",
                "protocol": "pll",
                "n": 64,
                "engine": "agent",
                "steps": 1234,
                "elapsed": 2.0,
                "steps_per_sec": 617.0,
            }
        )
        err = capsys.readouterr().err
        assert "heartbeat" in err and "1,234 steps" in err

    def test_heartbeat_echo_shows_parallel_time(self, capsys):
        beat = fast_heartbeat(max_steps=10_000)
        beat.sink = EventSink(None, echo=True)
        time.sleep(0.001)
        beat.maybe_beat(2500)
        err = capsys.readouterr().err
        assert "2,500 steps (parallel time 2.50) in" in err

    def test_non_heartbeat_events_do_not_echo(self, capsys):
        sink = EventSink(None, echo=True)
        sink.emit({"event": "trial-done"})
        assert capsys.readouterr().err == ""

    def test_make_sink_reads_the_environment(self, monkeypatch, tmp_path):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv(EVENTS_ENV, str(path))
        monkeypatch.setenv(QUIET_ENV, "1")
        sink = make_sink()
        assert sink.path == str(path)
        assert sink.echo is False
