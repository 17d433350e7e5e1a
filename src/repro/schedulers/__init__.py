"""Adversarial interaction schedules: specs, graphs, weighted engines.

The subsystem behind :class:`~repro.orchestration.spec.TrialSpec`'s
optional ``scheduler`` field.  See :mod:`repro.schedulers.spec` for the
declarative spec and exchangeability classes, :mod:`repro.schedulers
.graphs` for graph-restricted schedules, and :mod:`repro.schedulers
.weighted` for the state-weighted engines (thinned uniform scheduler on
every count-level engine).  DESIGN.md Section 11 has the faithfulness
argument.
"""

from repro.schedulers.graphs import (
    GraphScheduler,
    clique_edges,
    edges_for,
    graph_scheduler_for,
    regular_edges,
    ring_edges,
    torus_edges,
)
from repro.schedulers.spec import (
    FAMILIES,
    GRAPH_FAMILIES,
    SCHEDULERS_VERSION,
    SchedulerSpec,
    resolve_schedule_engine,
    scheduler_json,
)
from repro.schedulers.weighted import (
    StateWeightedScheduler,
    WeightedMultisetSimulator,
    WeightedSuperBatchSimulator,
)

__all__ = [
    "FAMILIES",
    "GRAPH_FAMILIES",
    "SCHEDULERS_VERSION",
    "SchedulerSpec",
    "resolve_schedule_engine",
    "scheduler_json",
    "GraphScheduler",
    "clique_edges",
    "edges_for",
    "graph_scheduler_for",
    "regular_edges",
    "ring_edges",
    "torus_edges",
    "StateWeightedScheduler",
    "WeightedMultisetSimulator",
    "WeightedSuperBatchSimulator",
]
