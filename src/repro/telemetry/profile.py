"""Block-level hot-path profiles: per-stage wall-clock accumulation.

A :class:`StageProfile` accumulates wall-clock per named engine stage —
``sample`` / ``apply`` / ``detect`` / ``commit`` in the block engines,
``kernel_fill`` for pair-table fills in every kernel-backed engine,
the ensemble included — behind the ``REPRO_TELEMETRY`` gate: disabled profiles hand
out a shared no-op span (the :class:`~repro.telemetry.core.PhaseTimer`
pattern), so the off path pays two method calls per block and reads no
clock.

Totals leave the process as a ``profile`` event through the JSONL sink
when a trial's stabilization loop finishes; ``repro telemetry
profile`` aggregates those events into the per-(engine, protocol, n)
stage-cost table that names the lowering targets for the ROADMAP's
native-backend item.

When a tracer is attached (``profile.tracer``), every stage span is
also emitted as a trace span — one instrumentation site serves both
the aggregate profile and the Perfetto timeline.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Iterable

from repro.telemetry.sink import make_sink

__all__ = [
    "DISABLED",
    "StageProfile",
    "aggregate_profiles",
    "emit_profile",
    "load_profile_records",
    "render_profile_table",
    "top_stages",
]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _StageSpan:
    __slots__ = ("profile", "name", "_start", "_trace")

    def __init__(self, profile: "StageProfile", name: str) -> None:
        self.profile = profile
        self.name = name

    def __enter__(self) -> "_StageSpan":
        tracer = self.profile.tracer
        if tracer is not None and tracer.emitted >= tracer.limit:
            # Past the stage-span cap: count the drop here and skip the
            # span entirely (object, clock reads, stack bookkeeping) so
            # long runs degrade to plain profile cost, not capped-emit
            # cost.
            tracer.dropped += 1
            tracer = None
        self._trace = (
            tracer.span(self.name, cat="stage").__enter__()
            if tracer is not None
            else None
        )
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._start
        profile = self.profile
        profile.seconds[self.name] = (
            profile.seconds.get(self.name, 0.0) + elapsed
        )
        profile.calls[self.name] = profile.calls.get(self.name, 0) + 1
        if self._trace is not None:
            self._trace.__exit__(*exc)
        return False


class StageProfile:
    """Per-stage wall-clock totals with a free disabled path."""

    __slots__ = ("enabled", "seconds", "calls", "tracer")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.tracer = None

    def stage(self, name: str):
        if not self.enabled:
            return _NULL
        return _StageSpan(self, name)

    def event(
        self, engine: str, protocol: str, n: int, seed, steps: int
    ) -> dict | None:
        """The ``profile`` sink event for one finished trial."""
        if not self.seconds:
            return None
        return {
            "event": "profile",
            "engine": engine,
            "protocol": protocol,
            "n": n,
            "seed": seed,
            "steps": steps,
            "stages": {
                name: {
                    "seconds": round(seconds, 9),
                    "calls": self.calls.get(name, 0),
                }
                for name, seconds in sorted(self.seconds.items())
            },
        }


#: Shared disabled profile: lets hot-path holders (the kernel cache)
#: keep an unconditional ``with self.profile.stage(...)`` site.
DISABLED = StageProfile(enabled=False)


def emit_profile(
    profile: StageProfile | None,
    engine: str,
    protocol: str,
    n: int,
    seed,
    steps: int,
    sink=None,
) -> None:
    """Send a trial's stage totals to the event sink, if any."""
    if profile is None or not profile.enabled or not profile.seconds:
        return
    if sink is None:
        sink = make_sink()
        if sink.path is None:
            return
    event = profile.event(engine, protocol, n, seed, steps)
    if event is not None:
        sink.emit(event)


# ----------------------------------------------------------------------
# Aggregation (repro telemetry profile)
# ----------------------------------------------------------------------


def aggregate_profiles(events: Iterable[dict]) -> list[dict]:
    """Fold ``profile`` events into per-(engine, protocol, n) records.

    Each record carries summed per-stage seconds/calls over every trial
    of the cell, the stage's share of the cell's profiled time, and the
    stages sorted most-expensive first — the lowering-target ranking.
    """
    cells: dict[tuple[str, str, int], dict] = {}
    for event in events:
        if event.get("event") != "profile":
            continue
        stages = event.get("stages")
        if not isinstance(stages, dict):
            continue
        key = (
            str(event.get("engine", "?")),
            str(event.get("protocol", "?")),
            int(event.get("n", 0)),
        )
        cell = cells.setdefault(
            key, {"trials": 0, "steps": 0, "seconds": {}, "calls": {}}
        )
        cell["trials"] += 1
        cell["steps"] += int(event.get("steps", 0))
        for name, entry in stages.items():
            cell["seconds"][name] = cell["seconds"].get(name, 0.0) + float(
                entry.get("seconds", 0.0)
            )
            cell["calls"][name] = cell["calls"].get(name, 0) + int(
                entry.get("calls", 0)
            )
    records = []
    for (engine, protocol, n), cell in sorted(cells.items()):
        total = sum(cell["seconds"].values())
        stages = [
            {
                "stage": name,
                "seconds": seconds,
                "calls": cell["calls"].get(name, 0),
                "share": seconds / total if total > 0 else 0.0,
            }
            for name, seconds in sorted(
                cell["seconds"].items(), key=lambda item: -item[1]
            )
        ]
        records.append(
            {
                "engine": engine,
                "protocol": protocol,
                "n": n,
                "trials": cell["trials"],
                "steps": cell["steps"],
                "profiled_seconds": total,
                "stages": stages,
            }
        )
    return records


def top_stages(record: dict, k: int = 2) -> list[str]:
    """Names of the ``k`` most expensive stages of one aggregate cell."""
    return [stage["stage"] for stage in record["stages"][:k]]


def render_profile_table(records: list[dict]) -> str:
    """Plain-text stage-cost table for ``repro telemetry profile``."""
    if not records:
        return "no profile events found (run with REPRO_TELEMETRY_EVENTS set)"
    lines = []
    for record in records:
        lines.append(
            f"{record['engine']} {record['protocol']} n={record['n']:,} "
            f"({record['trials']} trial{'s' if record['trials'] != 1 else ''}, "
            f"{record['steps']:,} steps, "
            f"{record['profiled_seconds']:.3f}s profiled)"
        )
        for stage in record["stages"]:
            lines.append(
                f"  {stage['stage']:>12s}  {stage['seconds']:10.4f}s  "
                f"{stage['share']:6.1%}  ({stage['calls']:,} calls)"
            )
    return "\n".join(lines)


def load_profile_records(path: str) -> list[dict]:
    """Aggregate records straight from a JSONL event file path."""
    records = []
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
                records.append(event)
    return aggregate_profiles(records)
