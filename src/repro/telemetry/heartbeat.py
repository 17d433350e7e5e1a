"""Periodic progress events for long-running trials.

A :class:`Heartbeat` is created per ``run_until_stabilized`` call and
polled from the engine's block loop via :meth:`Heartbeat.maybe_beat`.
The poll is cheap — one ``perf_counter`` read and a compare — and the
engines only reach it once per block/chunk (never per interaction), so
the instrument is safe on every hot path.  When telemetry is disabled,
:func:`make_heartbeat` returns ``None`` and the loops skip the poll
entirely: the disabled cost is a single ``is None`` branch per block.

Every beat emits a ``heartbeat`` event (see :mod:`repro.telemetry.sink`)
carrying the trial's identity, steps so far and the parallel time
they make (steps / n), wall-clock elapsed, steps/sec, and — when the
engine knows its step budget — the ETA to ``max_steps`` at the current
rate.

Beats also fan out to registered *beat listeners*
(:func:`add_beat_listener`) — process-local callables fired with the
event payload.  Listeners are how other subsystems borrow the engines'
block-loop liveness poll without adding their own hot-path hook: the
campaign fabric's lease renewal
(:class:`repro.orchestration.backend.leases.LeaseRenewer`) rides it to
keep a worker's claims alive through a multi-minute trial.  With at
least one listener registered, :func:`make_heartbeat` builds a
heartbeat even when telemetry is off (the sink/echo machinery stays
disabled; only the listeners fire), so liveness does not depend on the
observability switch.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable

from repro.telemetry.core import telemetry_enabled
from repro.telemetry.sink import EventSink, make_sink

__all__ = [
    "DEFAULT_HEARTBEAT_SECS",
    "HEARTBEAT_SECS_ENV",
    "Heartbeat",
    "add_beat_listener",
    "beat_listeners",
    "make_heartbeat",
    "remove_beat_listener",
]

#: Seconds between beats; override via :data:`HEARTBEAT_SECS_ENV`.
#: 1 s keeps even a sub-10-second superbatch trial visibly alive while
#: capping the emission rate far below anything measurable.
DEFAULT_HEARTBEAT_SECS = 1.0

#: Environment override for the beat interval (float seconds; ``0`` or a
#: negative value disables heartbeats without touching the rest of the
#: telemetry layer).
HEARTBEAT_SECS_ENV = "REPRO_HEARTBEAT_SECS"


def heartbeat_interval() -> float:
    raw = os.environ.get(HEARTBEAT_SECS_ENV)
    if raw is None:
        return DEFAULT_HEARTBEAT_SECS
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_HEARTBEAT_SECS


#: Process-local beat listeners: ``listener(event_dict)`` per beat.
#: Deliberately inherited across ``fork`` (pool workers keep renewing
#: the leases their parent registered a renewer for).
_BEAT_LISTENERS: list[Callable[[dict], None]] = []


def add_beat_listener(listener: Callable[[dict], None]) -> None:
    """Register ``listener`` to run on every heartbeat in this process."""
    _BEAT_LISTENERS.append(listener)


def remove_beat_listener(listener: Callable[[dict], None]) -> None:
    """Unregister ``listener`` (no-op when it is not registered)."""
    try:
        _BEAT_LISTENERS.remove(listener)
    except ValueError:
        pass


def beat_listeners() -> tuple[Callable[[dict], None], ...]:
    return tuple(_BEAT_LISTENERS)


class Heartbeat:
    """Emit progress events for one trial, at most once per interval."""

    __slots__ = (
        "engine",
        "protocol",
        "n",
        "seed",
        "max_steps",
        "interval",
        "sink",
        "beats",
        "_started",
        "_last",
        "_listener_warned",
    )

    def __init__(
        self,
        engine: str,
        protocol: str,
        n: int,
        seed: int | None,
        max_steps: int | None,
        interval: float,
        sink: EventSink | None,
    ) -> None:
        self.engine = engine
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self.max_steps = max_steps
        self.interval = interval
        self.sink = sink
        self.beats = 0
        now = time.perf_counter()
        self._started = now
        self._last = now
        self._listener_warned = False

    def maybe_beat(self, steps: int) -> None:
        """Emit a heartbeat if at least ``interval`` elapsed since the last."""
        now = time.perf_counter()
        if now - self._last < self.interval:
            return
        self._last = now
        self.beats += 1
        elapsed = now - self._started
        rate = steps / elapsed if elapsed > 0 else 0.0
        eta = None
        if self.max_steps is not None and rate > 0:
            eta = max(0.0, (self.max_steps - steps) / rate)
        event = {
            "event": "heartbeat",
            "engine": self.engine,
            "protocol": self.protocol,
            "n": self.n,
            "steps": int(steps),
            "parallel_time": round(steps / self.n, 3),
            "elapsed": round(elapsed, 3),
            "steps_per_sec": round(rate, 1),
            "max_steps": self.max_steps,
            "eta_sec": None if eta is None else round(eta, 1),
            # Wall-clock stamp + pid anchor the beat on the trace
            # timeline (`repro trace export` renders a counter track).
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
        }
        if self.seed is not None:
            event["seed"] = self.seed
        if self.sink is not None:
            self.sink.emit(event)
        for listener in _BEAT_LISTENERS:
            try:
                listener(event)
            except Exception as exc:
                # A listener (e.g. lease renewal against a briefly
                # unreachable file) must never abort a trial; degrade
                # to one warning per heartbeat instance.
                if not self._listener_warned:
                    self._listener_warned = True
                    print(
                        f"warning: heartbeat listener failed: {exc}",
                        file=sys.stderr,
                    )


def make_heartbeat(
    engine: str,
    protocol: str,
    n: int,
    seed: int | None,
    max_steps: int | None,
    enabled: bool | None = None,
) -> Heartbeat | None:
    """A heartbeat for one trial, or ``None`` when telemetry is off.

    ``enabled`` carries the engine's ctor override; ``None`` defers to
    ``REPRO_TELEMETRY``.  A non-positive ``REPRO_HEARTBEAT_SECS`` also
    yields ``None``, so the engines' block loops keep their single-branch
    disabled cost no matter which knob turned heartbeats off.

    With beat listeners registered, a heartbeat is built even when
    telemetry is off — listener-only (no sink, no echo, no events), so
    fabric lease renewal works without the observability switch while
    the off-path cost for listener-less processes stays ``None``.
    """
    telemetry_on = telemetry_enabled(enabled)
    if not telemetry_on and not _BEAT_LISTENERS:
        return None
    interval = heartbeat_interval()
    if interval <= 0:
        return None
    return Heartbeat(
        engine=engine,
        protocol=protocol,
        n=n,
        seed=seed,
        max_steps=max_steps,
        interval=interval,
        sink=make_sink() if telemetry_on else None,
    )
