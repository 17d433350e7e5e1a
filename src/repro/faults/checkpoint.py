"""In-trial checkpoints: resume a killed multi-minute trial mid-run.

Campaign resume has always been per-trial (the store is the ledger); at
production scale a single superbatch trial is minutes of work, so a kill
mid-trial used to lose the whole trial.  A :class:`TrialCheckpointer`
closes that gap for the count-level engines: attached to a simulator, it
serializes the full chain state — count vector, interner contents, RNG
generator state, engine stats, phase series, and (for faulted trials)
the injector's progress — at block boundaries, wall-clock throttled, so
a ``kill -9`` resumes from the last checkpoint *bit-identically* to the
uninterrupted run (the generator state is part of the payload).

Everything is opt-in behind ``REPRO_CHECKPOINT_SECS``; without it no
checkpointer is constructed and the engines' block loops pay a single
``is None`` attribute check.  Files are keyed by spec content hash under
``REPRO_CHECKPOINT_DIR`` (default ``.repro-checkpoints/``), written
atomically (tmp + rename), and deleted when the trial completes, so a
checkpoint can never outlive — or alias — the trial it belongs to.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import time
from pathlib import Path

__all__ = [
    "CHECKPOINT_DIR_ENV",
    "CHECKPOINT_SECS_ENV",
    "CHECKPOINT_VERSION",
    "DEFAULT_CHECKPOINT_DIR",
    "TrialCheckpointer",
    "checkpoint_dir",
    "checkpoint_engines",
    "make_checkpointer",
    "sweep_orphans",
]

#: Seconds between checkpoint writes; unset/empty disables checkpointing.
CHECKPOINT_SECS_ENV = "REPRO_CHECKPOINT_SECS"
#: Directory checkpoint files live in (created on first write).
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

CHECKPOINT_VERSION = 1

_log = logging.getLogger(__name__)


#: Engines that implement ``checkpoint_state``/``restore_state``.  The
#: block engine is the one whose trials run long enough to matter and
#: whose state (a count vector plus one generator) snapshots cheaply at
#: block boundaries; the per-interaction engines carry buffered draw
#: cursors mid-stream and stay out of scope.
def checkpoint_engines() -> tuple[str, ...]:
    return ("superbatch",)


class TrialCheckpointer:
    """Periodic, atomic snapshots of one trial keyed by its spec hash."""

    def __init__(self, path: str | Path, interval_secs: float) -> None:
        self.path = Path(path)
        self.interval_secs = max(0.0, interval_secs)
        #: Set by the measurement layer for faulted trials so the
        #: snapshot carries the injector's applied-event cursor too.
        self.injector = None
        self.saves = 0
        self._last_save = time.monotonic()

    # ------------------------------------------------------------------
    # writes (called from engine block loops)
    # ------------------------------------------------------------------

    def maybe_save(self, sim) -> None:
        """Save when the wall-clock interval elapsed (engine poll site).

        Wall-clock gating never touches the chain: a save *reads* the
        simulator state between blocks, so trajectories are identical
        with checkpointing on, off, or interrupted — the same neutrality
        argument as the telemetry heartbeats.
        """
        now = time.monotonic()
        if now - self._last_save < self.interval_secs:
            return
        self.save(sim)
        self._last_save = now

    def save(self, sim) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "engine": sim.ENGINE_NAME,
            "sim": sim.checkpoint_state(),
            "injector": (
                None if self.injector is None else self.injector.state_dict()
            ),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.saves += 1

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------

    def load(self) -> dict | None:
        """The last snapshot, or ``None`` (missing/corrupt/stale files
        are discarded rather than trusted)."""
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.clear()
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CHECKPOINT_VERSION
        ):
            self.clear()
            return None
        return payload

    def restore(self, sim, injector=None) -> bool:
        """Restore ``sim`` (and the injector) from disk; True on resume.

        A snapshot written by another engine (such as the retired
        ``batch`` engine) is refused and deleted with a warning: ``sim``
        cannot continue its chain, so the trial restarts from scratch.
        """
        payload = self.load()
        if payload is None:
            return False
        engine = payload["engine"]
        if engine != sim.ENGINE_NAME:
            retired = "" if engine in checkpoint_engines() else " (a retired engine)"
            _log.warning(
                "refusing checkpoint %s: it was written by the %r engine%s, "
                "but this trial runs %r; starting the trial from scratch",
                self.path,
                engine,
                retired,
                sim.ENGINE_NAME,
            )
            self.clear()
            return False
        sim.restore_state(payload["sim"])
        if injector is not None and payload["injector"] is not None:
            injector.load_state(payload["injector"])
        return True

    def clear(self) -> None:
        """Delete the snapshot (trial completed, or file rejected)."""
        try:
            self.path.unlink()
        except OSError:
            pass


def checkpoint_dir() -> Path:
    """The active checkpoint directory (env override or the default)."""
    return Path(
        os.environ.get(CHECKPOINT_DIR_ENV) or DEFAULT_CHECKPOINT_DIR
    )


def sweep_orphans(
    completed_hashes: set[str], directory: str | Path | None = None
) -> list[Path]:
    """Delete checkpoint files whose trial already completed.

    A worker killed *between* a trial's final store write and the
    checkpointer's ``clear()`` leaves an orphan ``<hash>.ckpt`` behind —
    harmless (a re-run would just resume and immediately finish) but
    unbounded garbage across a long campaign.  ``repro store gc`` calls
    this with the store's completed set; files keyed by an in-flight
    hash survive, so sweeping is safe while workers run.  Stray
    ``*.tmp`` droppings from interrupted atomic writes are always
    swept.  Returns the deleted paths.
    """
    root = checkpoint_dir() if directory is None else Path(directory)
    if not root.is_dir():
        return []
    removed: list[Path] = []
    for path in sorted(root.iterdir()):
        orphaned = (
            path.suffixes and path.suffixes[-1] == ".tmp"
        ) or (
            path.suffix == ".ckpt" and path.stem in completed_hashes
        )
        if not orphaned:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed.append(path)
    return removed


def make_checkpointer(spec) -> TrialCheckpointer | None:
    """The env-gated checkpointer for one trial spec, or ``None``.

    ``None`` whenever ``REPRO_CHECKPOINT_SECS`` is unset/invalid or the
    spec's engine does not snapshot — the zero-overhead default.
    """
    raw = os.environ.get(CHECKPOINT_SECS_ENV)
    if not raw:
        return None
    try:
        interval = float(raw)
    except ValueError:
        return None
    if interval < 0 or spec.engine not in checkpoint_engines():
        return None
    path = checkpoint_dir() / f"{spec.content_hash()}.ckpt"
    return TrialCheckpointer(path, interval)
