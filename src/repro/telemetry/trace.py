"""Hierarchical span tracing over the JSONL event sink.

Spans follow the orchestration hierarchy — campaign → cell → trial →
engine stage (sample/apply/detect/commit in the block engine,
pair-table fills in the kernels) — and
are emitted as ordinary sink events, one JSON line per *closed* span:

``{"event": "span", "name": ..., "cat": ..., "span_id": "pid-k",
"parent": ..., "pid": ..., "ts": <epoch secs>, "dur": <secs>, ...}``

Tracing is doubly gated: it exists only when telemetry is enabled
*and* ``REPRO_TRACE`` is truthy (the PR-6 contract — wall-clock
machinery must cost nothing when off), and it needs an event sink
(``REPRO_TELEMETRY_EVENTS``) to write to.  Span ids are
``"<pid>-<counter>"`` with a process-global monotone counter, so a
killed-and-resumed campaign (a new pid) can append to the same event
file without ever reusing an id.

``repro trace export`` converts an event file to the Chrome
trace-event format (``{"traceEvents": [...]}``) that Perfetto and
``chrome://tracing`` open directly: closed spans become complete
(``"ph": "X"``) events, heartbeats become counter (``"ph": "C"``)
tracks.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Iterable

from repro.telemetry.core import telemetry_enabled
from repro.telemetry.sink import make_sink

__all__ = [
    "DEFAULT_SPAN_LIMIT",
    "SPAN_LIMIT_ENV",
    "TRACE_ENV",
    "Tracer",
    "chrome_trace_events",
    "load_events",
    "make_tracer",
    "tracing_enabled",
    "validate_chrome_trace",
]

#: Master switch for span emission (in addition to ``REPRO_TELEMETRY``).
TRACE_ENV = "REPRO_TRACE"

#: Cap on emitted *stage* spans per process (``REPRO_TRACE_SPANS``
#: overrides).  A production superbatch trial closes four stage spans
#: per block for tens of thousands of blocks; past the cap the tracer
#: counts drops instead of writing, so traces stay loadable and the
#: hot path stays bounded.  Trial/cell/campaign spans always emit.
DEFAULT_SPAN_LIMIT = 20_000
SPAN_LIMIT_ENV = "REPRO_TRACE_SPANS"

_FALSY = {"", "0", "false", "no", "off"}

#: Process-global id source: ids stay unique across every tracer (and
#: every resume — the pid prefix separates processes).
_SPAN_IDS = itertools.count(1)

#: Process-global open-span stack.  The campaign/cell spans (opened by
#: the orchestration layer's tracer) and the trial/stage spans (opened
#: by each engine's own tracer) must nest into one hierarchy, so parent
#: resolution reads a shared stack rather than a per-tracer one.
#: Engines are single-threaded; ``fork``-started workers inherit the
#: parent's open campaign span, which is exactly the parent their trial
#: spans should name.
_OPEN_STACK: list[str] = []


def tracing_enabled() -> bool:
    """Whether span tracing is requested (telemetry gate included)."""
    if not telemetry_enabled():
        return False
    return os.environ.get(TRACE_ENV, "0").strip().lower() not in _FALSY


def _span_limit() -> int:
    raw = os.environ.get(SPAN_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SPAN_LIMIT
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_SPAN_LIMIT


class _TraceSpan:
    """Context manager for one span; emits on exit."""

    __slots__ = ("tracer", "name", "cat", "args", "span_id", "parent", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_TraceSpan":
        tracer = self.tracer
        self.parent = _OPEN_STACK[-1] if _OPEN_STACK else None
        self.span_id = f"{tracer.pid}-{next(_SPAN_IDS)}"
        _OPEN_STACK.append(self.span_id)
        self._start = time.time()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.time() - self._start
        if _OPEN_STACK and _OPEN_STACK[-1] == self.span_id:
            _OPEN_STACK.pop()
        self.tracer._emit(self, duration)


class Tracer:
    """Emits closed spans through a sink, tracking the open-span stack.

    Nesting is the process-global :data:`_OPEN_STACK` (engines are
    single-threaded), so a trial span opened around an engine loop
    becomes the parent of every stage span the loop closes — even when
    the two were opened through different tracer instances, as happens
    between the orchestration layer and the engines.
    """

    __slots__ = ("sink", "limit", "emitted", "dropped", "pid")

    def __init__(self, sink, limit: int | None = None) -> None:
        self.sink = sink
        self.limit = _span_limit() if limit is None else limit
        self.emitted = 0
        self.dropped = 0
        self.pid = os.getpid()

    def span(self, name: str, cat: str = "engine", **args) -> _TraceSpan:
        return _TraceSpan(self, name, cat, args)

    def _emit(self, span: _TraceSpan, duration: float) -> None:
        if span.cat == "stage" and self.emitted >= self.limit:
            self.dropped += 1
            return
        event = {
            "event": "span",
            "name": span.name,
            "cat": span.cat,
            "span_id": span.span_id,
            "parent": span.parent,
            "pid": self.pid,
            "ts": round(span._start, 6),
            "dur": round(duration, 9),
        }
        if span.args:
            event.update(span.args)
        if self.dropped and span.cat != "stage":
            event["dropped_stage_spans"] = self.dropped
        self.emitted += 1
        self.sink.emit(event)


def make_tracer(sink=None) -> Tracer | None:
    """A tracer when tracing is on and has somewhere to write.

    With the default environment sink, tracing without
    ``REPRO_TELEMETRY_EVENTS`` would emit into the void — return
    ``None`` so the hot paths keep their tracer-free branch.
    """
    if not tracing_enabled():
        return None
    if sink is None:
        sink = make_sink()
        if sink.path is None:
            return None
    return Tracer(sink)


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------

#: Span-event keys that map to top-level Chrome fields; everything else
#: lands in ``args`` so Perfetto shows it on the slice.
_SPAN_CORE_KEYS = frozenset(
    {"event", "name", "cat", "pid", "ts", "dur"}
)


def load_events(path: str) -> list[dict]:
    """Parse a JSONL event file, skipping blank and malformed lines."""
    events = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


def chrome_trace_events(events: Iterable[dict]) -> list[dict]:
    """Convert sink events to Chrome trace-event dicts.

    Spans become complete events (``ph: "X"``, microsecond ts/dur);
    heartbeats that carry a wall-clock ``ts`` become ``steps_per_sec``
    counter events.  Other event kinds (profiles) have no timeline
    shape and are skipped.
    """
    out = []
    for event in events:
        kind = event.get("event")
        if kind == "span" and "ts" in event and "dur" in event:
            args = {
                key: value
                for key, value in event.items()
                if key not in _SPAN_CORE_KEYS
            }
            out.append(
                {
                    "ph": "X",
                    "name": str(event.get("name", "?")),
                    "cat": str(event.get("cat", "engine")),
                    "pid": int(event.get("pid", 0)),
                    "tid": 0,
                    "ts": int(round(float(event["ts"]) * 1e6)),
                    "dur": max(1, int(round(float(event["dur"]) * 1e6))),
                    "args": args,
                }
            )
        elif kind == "heartbeat" and "ts" in event:
            out.append(
                {
                    "ph": "C",
                    "name": "steps_per_sec",
                    "pid": int(event.get("pid", 0)),
                    "tid": 0,
                    "ts": int(round(float(event["ts"]) * 1e6)),
                    "args": {
                        "steps_per_sec": float(event.get("steps_per_sec", 0.0))
                    },
                }
            )
    return out


def validate_chrome_trace(payload) -> list[str]:
    """Schema errors for a Chrome trace-event JSON object (empty = valid).

    Checks the subset of the trace-event format the export produces
    and Perfetto requires: a ``traceEvents`` list whose members carry a
    phase, and whose complete events carry numeric ``pid``/``tid``/
    ``ts``/``dur`` plus a name.
    """
    errors = []
    if not isinstance(payload, dict):
        return ["trace payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["trace payload lacks a traceEvents list"]
    if not events:
        errors.append("traceEvents is empty")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"traceEvents[{index}] is not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            errors.append(f"traceEvents[{index}] lacks a ph phase")
            continue
        if phase == "X":
            for key in ("ts", "dur", "pid", "tid"):
                if not isinstance(event.get(key), (int, float)):
                    errors.append(
                        f"traceEvents[{index}] ({event.get('name')!r}) "
                        f"lacks numeric {key}"
                    )
            if not event.get("name"):
                errors.append(f"traceEvents[{index}] lacks a name")
        elif phase == "C":
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"traceEvents[{index}] counter lacks numeric ts")
            if not isinstance(event.get("args"), dict):
                errors.append(f"traceEvents[{index}] counter lacks args")
    return errors
