"""Population-protocol simulation substrate.

Five engines share one contract (protocols, interning, caching,
detectors):

* :class:`~repro.engine.simulator.AgentSimulator` — per-agent identity;
  supports hooks, traces, epidemics, failure injection.
* :class:`~repro.engine.multiset.MultisetSimulator` — count-based with
  Fenwick-tree sampling; per-step cost independent of ``n``.
* :class:`~repro.engine.batch.BatchSimulator` — count-based, advancing
  ``Theta(sqrt(n))`` interactions per vectorized NumPy block of
  materialized scheduler picks.
* :class:`~repro.engine.superbatch.SuperBatchSimulator` — count-level
  super-batching: the same blocks sampled without any per-agent arrays
  (exact birthday run lengths, hypergeometric pair multisets, colliding
  agents replayed on counts), so per-block cost scales with the number
  of distinct states rather than ``sqrt(n)``; the engine for
  ``n >= 10^7`` sweeps.
* :class:`~repro.engine.ensemble.EnsembleSimulator` — packed
  campaign cells: M same-protocol trials run one after another as
  sorted-slot lanes over one shared interner and transition cache, each
  lane bit-identical to a solo multiset run.  It has no single-trial
  form: one ``ensemble`` trial is a solo multiset run.

The four solo engines stabilize through one driver,
:func:`repro.engine.convergence.run_until_stabilized` (default budget,
detector dispatch, heartbeat, trace span, phase-series polls, stage
profile); each supplies only ``_advance(budget, target)``.

Transitions resolve through a per-protocol backend picked by
:func:`repro.engine.kernel.make_transition_cache`: protocols that opt in
via ``compile_kernel()`` run on compiled packed-state kernels
(:mod:`repro.engine.kernel` — no Python ``delta`` on the hot path, and
``engine="multiset"`` trials upgrade to the kernel-backed sorted-slot
:class:`~repro.engine.kernel.multiset.KernelMultisetSimulator`); all
others keep the classic interner + memoized-cache path.  The choice is
trajectory-invisible.  DESIGN.md has the selection guide.
"""

from repro.engine.batch import BatchSimulator, BatchStats
from repro.engine.superbatch import SuperBatchSimulator, SuperBatchStats
from repro.engine.cache import CacheStats, TransitionCache
from repro.engine.kernel import (
    CompiledKernel,
    Field,
    KernelSpec,
    KernelTransitionCache,
    compiled_kernel_for,
    kernels_enabled,
    make_transition_cache,
)
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.ensemble import EnsembleSimulator, LaneOutcome, SlotLane
from repro.engine.convergence import (
    MonotoneLeaderStabilization,
    SilenceDetector,
    StabilizationDetector,
    default_max_steps,
    output_stable_forever,
)
from repro.engine.fenwick import FenwickTree
from repro.engine.interner import StateInterner
from repro.engine.metrics import InteractionCounter, StateChangeCounter, parallel_time
from repro.engine.multiset import MultisetSimulator
from repro.engine.population import Configuration
from repro.engine.protocol import (
    FOLLOWER,
    LEADER,
    LeaderElectionProtocol,
    Protocol,
    State,
    check_symmetry,
)
from repro.engine.scheduler import (
    DeterministicSchedule,
    PairScheduler,
    RandomScheduler,
    RestrictedScheduler,
)
from repro.engine.simulator import AgentSimulator
from repro.engine.trace import ConfigurationSnapshot, TraceRecorder, replay

__all__ = [
    "AgentSimulator",
    "BatchSimulator",
    "BatchStats",
    "SuperBatchSimulator",
    "SuperBatchStats",
    "CacheStats",
    "CompiledKernel",
    "Configuration",
    "ConfigurationSnapshot",
    "DeterministicSchedule",
    "EnsembleSimulator",
    "FenwickTree",
    "Field",
    "FOLLOWER",
    "InteractionCounter",
    "KernelMultisetSimulator",
    "KernelSpec",
    "KernelTransitionCache",
    "LaneOutcome",
    "LEADER",
    "LeaderElectionProtocol",
    "MonotoneLeaderStabilization",
    "MultisetSimulator",
    "SlotLane",
    "PairScheduler",
    "Protocol",
    "RandomScheduler",
    "RestrictedScheduler",
    "SilenceDetector",
    "StabilizationDetector",
    "State",
    "StateChangeCounter",
    "StateInterner",
    "TraceRecorder",
    "TransitionCache",
    "check_symmetry",
    "compiled_kernel_for",
    "default_max_steps",
    "kernels_enabled",
    "make_transition_cache",
    "output_stable_forever",
    "parallel_time",
    "replay",
]
