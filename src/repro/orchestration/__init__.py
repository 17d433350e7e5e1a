"""Parallel campaign orchestration with a persistent, resumable trial store.

The subsystem splits trial farming into four layers:

* :mod:`~repro.orchestration.spec` — declarative, content-hashed
  :class:`TrialSpec`/:class:`CampaignSpec` descriptions of work;
* :mod:`~repro.orchestration.store` — a SQLite :class:`TrialStore` caching
  every completed outcome by spec hash (resume-after-crash for free);
* :mod:`~repro.orchestration.backend` — the :class:`StoreBackend`
  protocol behind the store, plus the distributed campaign fabric: a
  sharded multi-worker backend, TTL work leases, and a deterministic
  shard → canonical merge;
* :mod:`~repro.orchestration.pool` — serial fast path plus a
  ``multiprocessing`` worker farm sharding missing trials across cores;
* :mod:`~repro.orchestration.runner` — :class:`CampaignRunner` diffing
  campaigns against the store and aggregating outcomes into the
  ``analysis`` statistics.

:mod:`~repro.orchestration.context` threads CLI-level settings
(``--jobs``, ``--store``, ``--engine``, ``--trials``) to the experiment
layer without touching experiment signatures, and
:mod:`~repro.orchestration.registry` names protocols so specs stay
picklable and hashable.
"""

from repro.orchestration.backend import (
    StoreBackend,
    is_sharded_root,
    open_store,
)
from repro.orchestration.context import (
    ExecutionContext,
    current_context,
    execution_context,
)
from repro.orchestration.pool import (
    RunReport,
    build_simulator,
    execute_trial,
    run_specs,
)
from repro.orchestration.registry import (
    build_protocol,
    protocol_names,
    register_protocol,
)
from repro.orchestration.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignStatus,
)
from repro.orchestration.spec import (
    AUTO_ENGINE,
    ENGINES,
    SUPERBATCH_ENGINE_MIN_N,
    CampaignSpec,
    TrialOutcome,
    TrialSpec,
    default_engine,
    trial_specs,
)
from repro.orchestration.store import DEFAULT_STORE_PATH, TrialStore

__all__ = [
    "AUTO_ENGINE",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "DEFAULT_STORE_PATH",
    "ENGINES",
    "SUPERBATCH_ENGINE_MIN_N",
    "ExecutionContext",
    "RunReport",
    "StoreBackend",
    "TrialOutcome",
    "TrialSpec",
    "TrialStore",
    "build_protocol",
    "build_simulator",
    "current_context",
    "default_engine",
    "execute_trial",
    "execution_context",
    "is_sharded_root",
    "open_store",
    "protocol_names",
    "register_protocol",
    "run_specs",
    "trial_specs",
]
