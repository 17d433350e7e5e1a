"""Heartbeats observed through real engine runs and the JSONL stream.

The acceptance shape from the issue: a long superbatch run must emit a
stream of heartbeat events whose step counts are monotone and whose ETA
is finite.  Production demonstrates this at n=10^7 with the default 1 s
interval; the test forces a microscopic interval so a sub-second run at
test scale crosses the same code paths the same number of times.
"""

import json

import pytest

from repro.orchestration.pool import build_simulator
from repro.orchestration.registry import build_protocol
from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.heartbeat import HEARTBEAT_SECS_ENV
from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV


def run_with_event_stream(
    engine, protocol_name, n, seed, tmp_path, monkeypatch
):
    events_path = tmp_path / "events.jsonl"
    monkeypatch.setenv(TELEMETRY_ENV, "1")
    monkeypatch.setenv(HEARTBEAT_SECS_ENV, "0.000001")
    monkeypatch.setenv(QUIET_ENV, "1")
    monkeypatch.setenv(EVENTS_ENV, str(events_path))
    protocol = build_protocol(protocol_name, n)
    sim = build_simulator(protocol, n, seed=seed, engine=engine)
    steps = sim.run_until_stabilized()
    events = [
        json.loads(line) for line in events_path.read_text().splitlines()
    ]
    return steps, [event for event in events if event["event"] == "heartbeat"]


@pytest.mark.parametrize(
    "engine,protocol,n,seed",
    [
        # (n, seed) is chosen per engine so the run crosses the engine's
        # beat-poll cadence (poll_mask + 1 steps on the per-interaction
        # engines, every block on superbatch) at least three
        # times before stabilizing; convergence time varies widely by
        # seed, so these seeds pin known-long runs.  "ensemble" builds
        # the solo multiset engine.
        ("agent", "pll", 1024, 1),
        ("multiset", "pll", 1024, 0),
        ("superbatch", "pll", 2048, 0),
        ("ensemble", "pll", 4096, 2),
    ],
)
def test_heartbeats_are_monotone_with_finite_eta(
    engine, protocol, n, seed, tmp_path, monkeypatch
):
    steps, beats = run_with_event_stream(
        engine, protocol, n, seed, tmp_path, monkeypatch
    )
    assert len(beats) >= 3
    reported = [beat["steps"] for beat in beats]
    assert reported == sorted(reported)
    assert all(step <= steps for step in reported)
    for beat in beats:
        assert beat["n"] == n
        assert beat["steps_per_sec"] >= 0
        # The stabilization loop always knows its budget, so every beat
        # carries a finite ETA.
        assert beat["max_steps"] is not None
        assert beat["eta_sec"] is not None
        assert 0.0 <= beat["eta_sec"] < float("inf")


def test_no_events_when_telemetry_is_off(tmp_path, monkeypatch):
    events_path = tmp_path / "events.jsonl"
    monkeypatch.setenv(TELEMETRY_ENV, "0")
    monkeypatch.setenv(HEARTBEAT_SECS_ENV, "0.000001")
    monkeypatch.setenv(EVENTS_ENV, str(events_path))
    protocol = build_protocol("pll", 256)
    sim = build_simulator(protocol, 256, seed=0, engine="superbatch")
    sim.run_until_stabilized()
    assert not events_path.exists()
