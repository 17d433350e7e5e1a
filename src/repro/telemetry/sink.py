"""JSONL event sink for telemetry events.

Events are single-line JSON objects appended to the file named by
``REPRO_TELEMETRY_EVENTS``.  The sink holds one raw (unbuffered)
append-mode handle, opened lazily on first emission, and each event is
a **single ``write()`` of a full line** — on POSIX, ``O_APPEND``
writes are atomic at these sizes, so worker processes and ensemble
lanes pointing at the same path interleave whole lines, never
fragments.  A ``{pid}`` placeholder in the path expands to the
emitting process id for per-worker files
(``REPRO_TELEMETRY_EVENTS=events-{pid}.jsonl``).

Heartbeat events additionally echo one human-readable line to stderr —
that is what makes a long-running ``repro run`` visibly alive even when
no event file is configured.  Set ``REPRO_TELEMETRY_QUIET=1`` to keep
the JSONL stream without the stderr echo (CI logs under ``tee``).
"""

from __future__ import annotations

import json
import os
import sys

__all__ = ["EVENTS_ENV", "QUIET_ENV", "EventSink", "make_sink"]

#: Path the JSONL event stream appends to; unset means no event file.
#: A ``{pid}`` placeholder expands to the emitting process id.
EVENTS_ENV = "REPRO_TELEMETRY_EVENTS"

#: Set to suppress the stderr echo of heartbeat events.
QUIET_ENV = "REPRO_TELEMETRY_QUIET"


class EventSink:
    """Append telemetry events as JSON lines; optionally echo to stderr."""

    __slots__ = ("path", "echo", "_stream")

    def __init__(self, path: str | None, echo: bool = True) -> None:
        if path is not None and "{pid}" in path:
            path = path.replace("{pid}", str(os.getpid()))
        self.path = path
        self.echo = echo
        self._stream = None

    def emit(self, event: dict) -> None:
        """Write one event; I/O failures are reported once, never raised.

        Telemetry must not be able to kill a multi-hour trial over a
        full disk or a bad path, so emission errors degrade to a single
        stderr warning and the sink disables its file output.
        """
        if self.path is not None:
            line = json.dumps(event, sort_keys=True, separators=(",", ":"))
            try:
                if self._stream is None:
                    # buffering=0 on a binary handle: every write() below
                    # is one OS-level append of the complete line.
                    self._stream = open(self.path, "ab", buffering=0)
                self._stream.write((line + "\n").encode("utf-8"))
            except OSError as exc:
                print(
                    f"telemetry: cannot append to {self.path!r} ({exc}); "
                    "event file disabled",
                    file=sys.stderr,
                    flush=True,
                )
                self.path = None
                self.close()
        if self.echo and event.get("event") == "heartbeat":
            print(_heartbeat_line(event), file=sys.stderr, flush=True)

    def close(self) -> None:
        """Release the file handle (emission reopens on demand)."""
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def _heartbeat_line(event: dict) -> str:
    eta = event.get("eta_sec")
    eta_text = f", eta {eta:.0f}s to budget" if eta is not None else ""
    parallel = event.get("parallel_time")
    time_text = f" (parallel time {parallel:.2f})" if parallel is not None else ""
    return (
        f"heartbeat {event.get('protocol')} n={event.get('n')} "
        f"[{event.get('engine')}]: {event.get('steps'):,} steps{time_text} in "
        f"{event.get('elapsed', 0.0):.1f}s "
        f"({event.get('steps_per_sec', 0.0):,.0f} steps/s{eta_text})"
    )


def make_sink() -> EventSink:
    """The process-wide sink configuration, resolved from the environment."""
    return EventSink(
        path=os.environ.get(EVENTS_ENV) or None,
        echo=not os.environ.get(QUIET_ENV),
    )
