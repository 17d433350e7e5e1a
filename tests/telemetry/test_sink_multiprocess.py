"""Event-sink integrity under the multiprocessing pool.

The sink's contract (one O_APPEND write per complete line) is what lets
``jobs>1`` workers share a single event file.  These tests run real
campaigns through the pool with the full diagnostic tier on and check
the stream end to end: every line parses as JSON, every trial's stage
spans nest under that trial's span, and a killed-and-resumed campaign
appending to the same file never reuses a span id.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.orchestration.pool import run_specs
from repro.orchestration.spec import TrialSpec
from repro.orchestration.store import TrialStore
from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV, EventSink
from repro.telemetry.trace import TRACE_ENV, load_events

REPO_SRC = str(Path(__file__).resolve().parent.parent.parent / "src")


def trace_env(monkeypatch, path):
    monkeypatch.setenv(TELEMETRY_ENV, "1")
    monkeypatch.setenv(TRACE_ENV, "1")
    monkeypatch.setenv(QUIET_ENV, "1")
    monkeypatch.setenv(EVENTS_ENV, str(path))


def specs_for(seeds, engine="superbatch", n=128):
    return [
        TrialSpec.create("pll", n, seed, engine=engine) for seed in seeds
    ]


def test_jobs4_campaign_stream_is_well_formed_jsonl(monkeypatch, tmp_path):
    path = tmp_path / "events.jsonl"
    trace_env(monkeypatch, path)
    with TrialStore(":memory:") as store:
        run_specs(specs_for(range(8)), store=store, jobs=4)
    # Parse every raw line strictly: a torn write would fail json.loads,
    # unlike load_events which tolerates malformed lines by design.
    lines = path.read_text().splitlines()
    assert lines
    events = [json.loads(line) for line in lines]
    spans = [event for event in events if event.get("event") == "span"]
    trial_spans = [span for span in spans if span["name"] == "trial"]
    assert len(trial_spans) == 8
    # Worker processes appended to the same file.
    assert len({span["pid"] for span in spans}) >= 1


def test_trial_stage_spans_nest_under_their_trial(monkeypatch, tmp_path):
    path = tmp_path / "events.jsonl"
    trace_env(monkeypatch, path)
    with TrialStore(":memory:") as store:
        run_specs(specs_for([0]), store=store, jobs=1)
    spans = [
        event
        for event in load_events(str(path))
        if event.get("event") == "span"
    ]
    (trial,) = [span for span in spans if span["name"] == "trial"]
    stages = [span for span in spans if span["cat"] == "stage"]
    assert stages
    # Every stage span roots at the trial span: direct children name it
    # as parent, nested stages (kernel_fill inside apply/commit) reach
    # it through their ancestor chain.
    by_id = {span["span_id"]: span for span in spans}
    for stage in stages:
        walk = stage
        while walk["parent"] is not None:
            walk = by_id[walk["parent"]]
        assert walk["span_id"] == trial["span_id"]
    assert {stage["pid"] for stage in stages} == {trial["pid"]}


def test_pid_placeholder_expands_per_process(monkeypatch, tmp_path):
    trace_env(monkeypatch, tmp_path / "events-{pid}.jsonl")
    with TrialStore(":memory:") as store:
        run_specs(specs_for(range(2)), store=store, jobs=1)
    files = list(tmp_path.glob("events-*.jsonl"))
    assert files
    for file in files:
        # The placeholder expanded to digits, not the literal "{pid}".
        assert "{pid}" not in file.name
        assert file.name[len("events-") : -len(".jsonl")].isdigit()


def test_resumed_campaign_never_reuses_span_ids(tmp_path):
    """A killed-and-resumed campaign appends without id collisions.

    Two separate interpreter invocations (fresh pids, fresh counters)
    run overlapping campaigns against the same store and event file —
    the resume path after a kill.  Every span id in the combined stream
    must be unique: ids are ``pid-counter``, so distinct processes can
    never collide, and within a process the counter is monotone.
    """
    store_path = tmp_path / "store.sqlite"
    events_path = tmp_path / "events.jsonl"
    script = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.orchestration.pool import run_specs\n"
        "from repro.orchestration.spec import TrialSpec\n"
        "from repro.orchestration.store import TrialStore\n"
        "specs = [TrialSpec.create('pll', 128, seed, engine='superbatch')"
        " for seed in range({seeds})]\n"
        "with TrialStore({store!r}) as store:\n"
        "    run_specs(specs, store=store)\n"
    )
    env = {
        "PATH": "/usr/bin:/bin",
        TELEMETRY_ENV: "1",
        TRACE_ENV: "1",
        QUIET_ENV: "1",
        EVENTS_ENV: str(events_path),
    }
    # First run covers seeds 0-1 and is "killed" after finishing them;
    # the resume runs seeds 0-3 (0-1 replay from the store, 2-3 fresh).
    for seeds in (2, 4):
        subprocess.run(
            [
                sys.executable,
                "-c",
                script.format(
                    src=REPO_SRC, store=str(store_path), seeds=seeds
                ),
            ],
            env=env,
            check=True,
            timeout=120,
        )
    spans = [
        event
        for event in load_events(str(events_path))
        if event.get("event") == "span"
    ]
    trial_spans = [span for span in spans if span["name"] == "trial"]
    assert len(trial_spans) == 4  # 2 from the first run, 2 fresh
    span_ids = [span["span_id"] for span in spans]
    assert len(span_ids) == len(set(span_ids))
    assert len({span["pid"] for span in spans}) == 2


def test_concurrent_sinks_interleave_whole_lines(tmp_path):
    # The primitive under all of the above: O_APPEND single-write lines
    # from two handles on one path interleave without tearing.
    path = tmp_path / "shared.jsonl"
    first = EventSink(str(path), echo=False)
    second = EventSink(str(path), echo=False)
    payload = {"event": "span", "blob": "x" * 512}
    for _ in range(50):
        first.emit(dict(payload, origin=1))
        second.emit(dict(payload, origin=2))
    first.close()
    second.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 100
    origins = [json.loads(line)["origin"] for line in lines]
    assert origins.count(1) == origins.count(2) == 50
