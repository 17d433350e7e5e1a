"""Count-vector base of the block engine.

:class:`BatchSimulator` is the shared count-level base of
:class:`~repro.engine.superbatch.SuperBatchSimulator` (counts, leader
marks, commits, null-run skip, checkpoints, telemetry); it samples no
blocks itself.  See DESIGN.md Section 6.
"""

from repro.engine.batch.simulator import BatchSimulator, BatchStats

__all__ = ["BatchSimulator", "BatchStats"]
