"""Packed same-cell trials over one shared transition cache.

The ensemble runs ``M`` same-protocol trials of one cell as serial
:class:`~repro.engine.ensemble.lane.SlotLane` lanes over one interner
and one transition cache, each lane bit-identical to a solo
:class:`~repro.engine.multiset.MultisetSimulator` with that lane's seed.
DESIGN.md Section 4 has the representation and the faithfulness
argument.
"""

from repro.engine.ensemble.lane import SlotLane
from repro.engine.ensemble.simulator import EnsembleSimulator, LaneOutcome

__all__ = ["EnsembleSimulator", "LaneOutcome", "SlotLane"]
