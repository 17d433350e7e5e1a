"""Across-trial vectorized ensemble engine.

The fourth engine: where :class:`~repro.engine.batch.BatchSimulator`
vectorizes *within* one trial (blocks of ``Theta(sqrt(n))`` interactions),
the ensemble vectorizes *across* trials — ``M`` independent same-protocol
runs advance together in ``(M, num_states)`` NumPy arrays, each lane
bit-identical to a solo :class:`~repro.engine.multiset.MultisetSimulator`
with that lane's seed.  DESIGN.md Section 4 has the representation and
the faithfulness argument.
"""

from repro.engine.ensemble.lane import SlotLane
from repro.engine.ensemble.simulator import EnsembleSimulator, LaneOutcome
from repro.engine.ensemble.tables import PairTables, PairTableOverflow

__all__ = [
    "EnsembleSimulator",
    "LaneOutcome",
    "PairTables",
    "PairTableOverflow",
    "SlotLane",
]
