"""Campaign builders: experiment ids mapped to declarative trial grids.

``repro campaign run E9`` needs the *work list* behind an experiment
without the aggregation code around it.  The builders here construct a
:class:`~repro.orchestration.spec.CampaignSpec` from the same grid
constants the experiment modules use, so both entry points produce
identical :class:`TrialSpec` content hashes and therefore share trial
store rows: trials simulated by ``repro run E1 --store x`` are cache hits
for ``repro campaign run E1 --store x`` and vice versa.

Only experiments whose measurements are plain stabilization trials have
campaigns (E1, E9, and E12's module-ablation section); the per-lemma
experiments instrument runs with hooks and bespoke predicates, which the
trial store does not model.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExperimentError
from repro.experiments import (
    ablations,
    robustness,
    schedules,
    table1_comparison,
    theorem1_scaling,
)
from repro.experiments.spec import scaled
from repro.faults.plan import FaultPlan
from repro.orchestration.spec import CampaignSpec, TrialSpec, trial_specs

__all__ = ["campaign_for", "campaign_ids", "canary_specs"]

#: EROB's quarantine canary: a deliberately unconvergeable cell (full
#: scramble of the population with only ~90 interactions of budget
#: left), so every robustness campaign run — including the CI smoke —
#: exercises retry, the failure ledger, and quarantine reporting.  The
#: surrounding grid completes around it; `repro campaign status` shows
#: it as quarantined.
CANARY_N = 256
CANARY_MAX_STEPS = 600
CANARY_FAULT_STEP = 512


def canary_specs(seed: int, engine: str = "auto") -> list[TrialSpec]:
    """The one-trial poison cell appended to every EROB campaign."""
    plan = FaultPlan.create(
        [{"kind": "corrupt", "at_step": CANARY_FAULT_STEP, "count": CANARY_N}]
    )
    return list(
        trial_specs(
            "pll",
            CANARY_N,
            1,
            base_seed=seed,
            engine=engine,
            max_steps=CANARY_MAX_STEPS,
            fault_plan=plan,
        )
    )


def _theorem1_campaign(scale: float, seed: int, engine: str) -> CampaignSpec:
    """E9 — PLL over a doubling grid of n (Theorem 1 scaling).

    From ``scale >= LARGE_N_SCALE`` the campaign carries the large-``n``
    extension cells too (same specs as ``repro run E9`` at that scale,
    so the store rows stay shared).
    """
    ns, trials = theorem1_scaling.grid(scale)
    specs = list(
        CampaignSpec.from_grid(
            "E9", "pll", ns, trials, base_seed=seed, engine=engine
        ).trials
    )
    for n, cell_trials in theorem1_scaling.large_cells(scale):
        specs.extend(
            trial_specs(
                "pll", n, cell_trials, base_seed=seed, engine=engine
            )
        )
    return CampaignSpec(name="E9", trials=tuple(specs))


def _table1_campaign(scale: float, seed: int, engine: str) -> CampaignSpec:
    """E1 — every Table 1 protocol row over the comparison grid."""
    trials = scaled([table1_comparison.TRIALS], scale)[0]
    specs: list[TrialSpec] = []
    for _label, protocol_name, *_rest in table1_comparison.ROWS:
        for n in table1_comparison.NS:
            specs.extend(
                trial_specs(
                    protocol_name,
                    n,
                    trials,
                    base_seed=seed,
                    engine=engine,
                )
            )
    return CampaignSpec(name="E1", trials=tuple(specs))


def _ablations_campaign(scale: float, seed: int, engine: str) -> CampaignSpec:
    """E12 (module section) — PLL variants at two population sizes."""
    trials = scaled([ablations.MODULE_TRIALS], scale)[0]
    specs: list[TrialSpec] = []
    for n in ablations.MODULE_NS:
        for variant in ablations.MODULE_VARIANTS:
            specs.extend(
                trial_specs(
                    "pll",
                    n,
                    trials,
                    base_seed=seed,
                    engine=engine,
                    params={"variant": variant},
                )
            )
    return CampaignSpec(name="E12", trials=tuple(specs))


def _robustness_campaign(scale: float, seed: int, engine: str) -> CampaignSpec:
    """EROB — E13's fault grid (protocol × n × kind × severity) plus the
    quarantine canary.

    Grid specs share hashes (and therefore store rows) with ``repro run
    E13``'s fault section; from ``scale >= LARGE_N_SCALE`` the campaign
    carries the superbatch-scale million-agent cells too.
    """
    specs: list[TrialSpec] = []
    for protocol, n, kind, severity, trials in robustness.fault_grid(scale):
        specs.extend(
            trial_specs(
                protocol,
                n,
                trials,
                base_seed=seed,
                engine=engine,
                fault_plan=robustness.fault_plan_for(n, kind, severity),
            )
        )
    specs.extend(canary_specs(seed, engine))
    return CampaignSpec(name="EROB", trials=tuple(specs))


def _schedules_campaign(scale: float, seed: int, engine: str) -> CampaignSpec:
    """ESCHED — E14's scheduler grid (protocol × n × family × parameter)
    plus the schedule-composed recovery cells.

    Grid specs share hashes (and therefore store rows) with ``repro run
    E14``.  Graph-restricted cells ride the degradation ladder: with
    ``engine="auto"`` they resolve to the per-agent engine and their
    store rows carry ``degraded_from`` (surfaced by ``repro campaign
    status``), while the state-weighted cells keep the size-resolved
    count-level engine.
    """
    specs: list[TrialSpec] = []
    for protocol, params, n, scheduler, trials in schedules.schedule_grid(scale):
        specs.extend(
            trial_specs(
                protocol,
                n,
                trials,
                base_seed=seed,
                engine=engine,
                params=params,
                scheduler=scheduler,
            )
        )
    for protocol, params, n, scheduler, plan, trials in schedules.recovery_cells(
        scale
    ):
        specs.extend(
            trial_specs(
                protocol,
                n,
                trials,
                base_seed=seed,
                engine=engine,
                params=params,
                scheduler=scheduler,
                fault_plan=plan,
            )
        )
    return CampaignSpec(name="ESCHED", trials=tuple(specs))


_BUILDERS: dict[str, Callable[[float, int, str], CampaignSpec]] = {
    "E1": _table1_campaign,
    "E9": _theorem1_campaign,
    "E12": _ablations_campaign,
    "EROB": _robustness_campaign,
    "ESCHED": _schedules_campaign,
}


def campaign_ids() -> list[str]:
    """Experiment ids that have campaign builders."""
    return sorted(_BUILDERS)


def campaign_for(
    experiment_id: str,
    scale: float = 1.0,
    seed: int = 0,
    engine: str = "auto",
) -> CampaignSpec:
    """The campaign behind an experiment id (case-insensitive).

    ``engine="auto"`` (the default) resolves per population size inside
    :func:`~repro.orchestration.spec.trial_specs`: large-``n`` grid
    points run on the batch engine, the rest name the multiset chain —
    which the pool packs into ensemble lanes whenever a
    cell has enough pending trials.  (PR 3 moved the sub-crossover
    default from the agent engine to multiset to enable that packing;
    stores filled under the old default re-execute on first use.)
    """
    key = experiment_id.upper()
    try:
        builder = _BUILDERS[key]
    except KeyError:
        known = ", ".join(campaign_ids())
        raise ExperimentError(
            f"no campaign for experiment {experiment_id!r}; known: {known}"
        ) from None
    return builder(scale, seed, engine)
