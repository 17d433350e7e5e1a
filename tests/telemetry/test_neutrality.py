"""Store-row neutrality: the telemetry switch must not change outcomes.

The PR-6 contract is that ``REPRO_TELEMETRY`` gates *wall-clock
machinery only* (heartbeats, sinks, timers — and, since PR 7, span
tracing and stage profiles): the deterministic data that feeds the
store's ``telemetry`` and ``phases`` columns is collected
unconditionally, and no engine's chain may depend on the switch.  These
tests pin that end to end: run identical specs through the real
orchestration path with the switch off and with the *full* diagnostic
tier on (telemetry + heartbeats + tracing + profile emission), and
require the stored rows — steps, parallel time, leader count, distinct
states, the telemetry JSON bytes, *and the phase-series bytes* — to be
identical (``duration`` excepted: wall clock is a runtime record, not
part of the measurement).

Heartbeat chunking is the dangerous part (the ensemble scalar finisher
runs lanes in bounded chunks when a heartbeat exists), so the on-runs
force a tiny heartbeat interval to exercise those paths for real.
"""

import pytest

from repro.orchestration.pool import run_specs
from repro.orchestration.spec import TrialSpec, trial_specs
from repro.orchestration.store import TrialStore
from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.heartbeat import HEARTBEAT_SECS_ENV
from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV
from repro.telemetry.trace import TRACE_ENV


def rows_without_runtime_records(store):
    rows = []
    for row in store.rows():
        row = dict(row)
        del row["duration"]  # wall clock legitimately differs
        rows.append(row)
    return rows


def run_to_rows(specs, monkeypatch, telemetry, tmp_path=None):
    monkeypatch.setenv(TELEMETRY_ENV, "1" if telemetry else "0")
    if telemetry:
        # Beat practically every block, silently: exercises the chunked
        # heartbeat paths without a second of sleeping or stderr noise.
        monkeypatch.setenv(HEARTBEAT_SECS_ENV, "0.000001")
        monkeypatch.setenv(QUIET_ENV, "1")
        if tmp_path is not None:
            # Full diagnostic tier: span tracing and profile emission
            # into a real sink, so the on-run pays every instrument the
            # contract claims is chain-neutral.
            monkeypatch.setenv(TRACE_ENV, "1")
            monkeypatch.setenv(EVENTS_ENV, str(tmp_path / "events.jsonl"))
    else:
        monkeypatch.delenv(TRACE_ENV, raising=False)
        monkeypatch.delenv(EVENTS_ENV, raising=False)
    with TrialStore(":memory:") as store:
        run_specs(specs, store=store)
        return rows_without_runtime_records(store)


@pytest.mark.parametrize(
    "engine,protocol,n",
    [
        ("agent", "angluin", 24),
        ("multiset", "angluin", 24),
        ("multiset", "pll", 64),
        ("superbatch", "pll", 256),
    ],
)
def test_store_rows_identical_off_and_on(engine, protocol, n, monkeypatch, tmp_path):
    specs = [
        TrialSpec.create(protocol, n, seed, engine=engine)
        for seed in range(3)
    ]
    off = run_to_rows(specs, monkeypatch, telemetry=False)
    on = run_to_rows(specs, monkeypatch, telemetry=True, tmp_path=tmp_path)
    assert off == on
    # The rows must actually carry counter summaries (not None == None),
    # and phase series (the probes are always-on, like the counters).
    assert all(row["telemetry"] for row in off)
    assert all(row["phases"] for row in off)


def test_ensemble_packed_rows_identical_off_and_on(monkeypatch):
    # Enough same-cell multiset specs to trigger lane packing, plus the
    # scalar finisher for stragglers — the chunked-heartbeat path.
    specs = trial_specs("angluin", 24, trials=6, engine="ensemble")
    off = run_to_rows(specs, monkeypatch, telemetry=False)
    on = run_to_rows(specs, monkeypatch, telemetry=True)
    assert off == on
    assert len(off) == 6


def test_telemetry_json_is_engine_tagged(monkeypatch):
    import json

    spec = TrialSpec.create("pll", 128, 0, engine="superbatch")
    (row,) = run_to_rows([spec], monkeypatch, telemetry=False)
    summary = json.loads(row["telemetry"])
    assert summary["engine"] == "superbatch"
    assert summary["steps"] == row["steps"]
    assert "cache" in summary
