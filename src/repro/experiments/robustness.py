"""E13 — Lemmas 9 and 10: recovery from arbitrary configurations.

The probability-1 correctness of PLL rests on two unconditional lemmas:

* **Lemma 9** — from *any* reachable configuration, every agent reaches
  epoch 4 within ``O(log n)`` parallel time (some timer always exists and
  the max epoch spreads by epidemic);
* **Lemma 10** — from any all-epoch-4 configuration, the pairwise-election
  rule elects a unique leader within ``O(n)`` expected parallel time.

Three stress families make these measurable:

* **Partition-then-heal**: run the population under a
  :class:`~repro.engine.scheduler.RestrictedScheduler` that only lets a
  small clique interact (the rest are isolated) — this drives the clique
  deep into later epochs while everyone else is frozen at the initial
  state, a maximally skewed *reachable* configuration.  Then hand the run
  back to the uniform scheduler and measure time-to-all-epoch-4 and
  time-to-stabilization.
* **Scrambled epoch-4 start**: construct adversarial all-epoch-4
  configurations (random timer phases and colors, many equal-``levelB``
  leaders) and measure stabilization.  Lemma 10's argument needs nothing
  but the epoch-4 rules, so it must hold even for configurations no fair
  execution would produce.
* **Fault grid** (protocol × n × kind × severity): declarative
  :class:`~repro.faults.plan.FaultPlan`\\ s inject transient corruption
  and churn mid-run and the :class:`~repro.faults.injector.FaultInjector`
  measures per-fault recovery time — interactions from the fault to the
  re-armed convergence detector's first hit.  The grid constants here
  are shared with the ``EROB`` campaign builder
  (:mod:`repro.experiments.campaigns`) so ``repro run E13`` and
  ``repro campaign run EROB`` address identical spec hashes and share
  trial-store rows.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

from repro.analysis.stats import summarize
from repro.core.pll import PLLProtocol
from repro.core.state import PLLState, STATUS_CANDIDATE, STATUS_TIMER
from repro.engine.scheduler import RandomScheduler, RestrictedScheduler
from repro.experiments.runner import make_simulator, stabilization_trials
from repro.experiments.spec import ExperimentResult, ExperimentSpec, register, scaled
from repro.faults.plan import FaultPlan

SPEC = ExperimentSpec(
    id="E13",
    title="Robustness: recovery from adversarial configurations",
    paper_artifact="Lemmas 9 and 10",
    paper_claim=(
        "from any reachable configuration all agents reach epoch 4 within "
        "O(log n); from all-epoch-4, a unique leader within O(n) expected"
    ),
    bench="benchmarks/bench_robustness.py",
)

#: The fault grid, shared with the EROB campaign builder
#: (:func:`repro.experiments.campaigns.campaign_for`) so both entry
#: points produce identical spec hashes and share store rows.  Kinds are
#: the exchangeable pair — uniform-victim corruption and churn apply on
#: count vectors, so the grid survives on batch/superbatch engines at
#: any ``n`` the ``auto`` resolution picks.
FAULT_KINDS = ("corrupt", "churn")

#: Fraction of the population each fault hits.
FAULT_SEVERITIES = (0.05, 0.25)

#: Population sizes per protocol for the dense (always-on) grid cells.
FAULT_NS = {"pll": (256, 1024), "angluin": (256,)}

#: Trials per grid cell at scale 1.
FAULT_TRIALS = 5

#: Superbatch-scale extension cells: joined from ``scale >=
#: LARGE_N_SCALE`` (same explicit opt-in as E9's large-``n`` cells —
#: even a few million-agent faulted trials dominate the wall clock).
LARGE_FAULT_NS = {"pll": (1_000_000,)}
LARGE_N_SCALE = 4.0
LARGE_FAULT_TRIALS = 3


def fault_plan_for(n: int, kind: str, severity: float) -> FaultPlan:
    """The grid's one-event plan: hit ``severity * n`` agents at step
    ``2 n`` (two parallel-time units in — election well underway, not
    yet necessarily stabilized)."""
    return FaultPlan.create(
        [{"kind": kind, "at_step": 2 * n, "count": max(1, round(severity * n))}]
    )


def fault_grid(scale: float) -> list[tuple[str, int, str, float, int]]:
    """``(protocol, n, kind, severity, trials)`` cells at a given scale.

    Below ``scale=0.5`` each protocol keeps only its smallest ``n`` (the
    experiment smoke tests run every registered experiment at tiny
    scale); from :data:`LARGE_N_SCALE` the superbatch-scale extension
    cells join with their own reduced trial count.
    """
    trials = scaled([FAULT_TRIALS], scale)[0]
    cells = []
    for protocol, all_ns in FAULT_NS.items():
        ns = all_ns[:1] if scale < 0.5 else all_ns
        for n in ns:
            for kind in FAULT_KINDS:
                for severity in FAULT_SEVERITIES:
                    cells.append((protocol, n, kind, severity, trials))
    if scale >= LARGE_N_SCALE:
        for protocol, all_ns in LARGE_FAULT_NS.items():
            for n in all_ns:
                for kind in FAULT_KINDS:
                    for severity in FAULT_SEVERITIES:
                        cells.append(
                            (protocol, n, kind, severity, LARGE_FAULT_TRIALS)
                        )
    return cells


def recovery_parallel_times(faults_json: str | None) -> list[float]:
    """Per-event recovery parallel times from one outcome's fault record
    (events the run never re-converged after are dropped)."""
    if not faults_json:
        return []
    events = json.loads(faults_json).get("events", [])
    return [
        event["recovery_parallel_time"]
        for event in events
        if event.get("recovery_parallel_time") is not None
    ]


def _partition_then_heal(n: int, seed: int, clique: int = 4) -> tuple[float, float]:
    """(parallel time to all-epoch-4 after heal, total stabilization time)."""
    protocol = PLLProtocol.for_population(n)
    # Per-agent engine via the shared registry builder: restricted
    # interaction graphs need agent identity, the one non-exchangeable
    # regime (DESIGN.md §10).
    sim = make_simulator(protocol, n, seed=seed, engine="agent")
    sim.set_scheduler(RestrictedScheduler(n, range(clique), seed=seed))
    # Partition phase: drive the clique through several timer periods.
    sim.run(8 * protocol.params.cmax * clique)
    heal_step = sim.steps
    sim.set_scheduler(RandomScheduler(n, seed=seed + 1))

    def all_epoch4(s) -> bool:
        return all(state.epoch == 4 for state in s.configuration())

    sim.run(3000 * protocol.params.m * n, until=all_epoch4, check_every=max(64, n // 2))
    epoch4_time = (sim.steps - heal_step) / n
    sim.run_until_stabilized()
    return epoch4_time, (sim.steps - heal_step) / n


def scrambled_epoch4_configuration(
    n: int, leaders: int, rng: np.random.Generator, params
) -> list[PLLState]:
    """An adversarial all-epoch-4 configuration: random phases, tied leaders."""
    states: list[PLLState] = []
    candidates = n - n // 2
    for index in range(candidates):
        states.append(
            PLLState(
                leader=index < leaders,
                status=STATUS_CANDIDATE,
                epoch=4,
                color=int(rng.integers(0, 3)),
                level_b=params.lmax,  # everyone pinned at the cap: pure Lemma 10
            )
        )
    for _ in range(n // 2):
        states.append(
            PLLState(
                leader=False,
                status=STATUS_TIMER,
                epoch=4,
                color=int(rng.integers(0, 3)),
                count=int(rng.integers(0, params.cmax)),
            )
        )
    return states


@register(SPEC)
def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    trials = scaled([10], scale)[0]
    headers = ["scenario", "n", "measured (parallel time)", "reference", "consistent"]
    rows = []

    # Lemma 9 analogue: partition, heal, measure epoch-4 convergence.
    for n in (32, 128):
        epoch4_times = []
        total_times = []
        for trial in range(trials):
            epoch4_time, total_time = _partition_then_heal(n, seed + 97 * trial)
            epoch4_times.append(epoch4_time)
            total_times.append(total_time)
        mean_epoch4 = summarize(epoch4_times).mean
        m = PLLProtocol.for_population(n).params.m
        rows.append(
            {
                "scenario": "partition-heal: all agents at epoch 4",
                "n": n,
                "measured (parallel time)": mean_epoch4,
                "reference": f"O(log n); 100 m = {100 * m}",
                "consistent": mean_epoch4 < 100 * m,
            }
        )
        rows.append(
            {
                "scenario": "partition-heal: full stabilization",
                "n": n,
                "measured (parallel time)": summarize(total_times).mean,
                "reference": "finite (probability-1 correctness)",
                "consistent": True,
            }
        )

    # Lemma 10 analogue: scrambled epoch-4 starts with many tied leaders.
    # The engine comes from the registry resolution (count semantics are
    # engine-independent, so the multiset/superbatch chains measure the same
    # process); the per-agent list collapses to a count vector first.
    for n in (32, 128):
        protocol = PLLProtocol.for_population(n)
        rng = np.random.default_rng(seed)
        times = []
        for trial in range(trials):
            sim = make_simulator(protocol, n, seed=seed + trial, engine="auto")
            configuration = scrambled_epoch4_configuration(
                n, leaders=n // 4, rng=rng, params=protocol.params
            )
            sim.load_counts(dict(Counter(configuration)))
            sim.run_until_stabilized()
            times.append(sim.parallel_time)
        mean_time = summarize(times).mean
        rows.append(
            {
                "scenario": "scrambled epoch-4, n/4 tied leaders",
                "n": n,
                "measured (parallel time)": mean_time,
                "reference": f"O(n); 4n = {4 * n}",
                "consistent": mean_time < 4 * n,
            }
        )

    # Fault grid: injected corruption/churn with measured recovery times.
    for protocol_name, n, kind, severity, cell_trials in fault_grid(scale):
        outcomes = stabilization_trials(
            protocol_name,
            n,
            cell_trials,
            base_seed=seed,
            fault_plan=fault_plan_for(n, kind, severity),
        )
        recoveries = []
        recovered_all = True
        for outcome in outcomes:
            if outcome is None:
                recovered_all = False
                continue
            times = recovery_parallel_times(outcome.faults)
            recovered_all = recovered_all and bool(times)
            recoveries.extend(times)
        mean_recovery = summarize(recoveries).mean if recoveries else math.inf
        rows.append(
            {
                "scenario": f"fault: {kind} {severity:.0%} ({protocol_name})",
                "n": n,
                "measured (parallel time)": mean_recovery,
                "reference": "re-converges within budget (Lemmas 9-10)",
                "consistent": recovered_all,
            }
        )

    notes = [
        f"{trials} trials per adversarial-configuration scenario",
        "partition phase: only a 4-agent clique interacts for 8 cmax "
        "rounds, then the scheduler heals",
        "scrambled starts pin every levelB at lmax so only the pairwise "
        "rule (line 58) can make progress — the pure Lemma 10 regime; its "
        "expected meeting time for the last two leaders is ~n/2",
        "fault rows: recovery time is measured from the fault event to "
        "the re-armed convergence detector's first hit; `repro telemetry "
        "faults <store>` renders the stored per-event records",
    ]
    return ExperimentResult(
        spec=SPEC, headers=headers, rows=rows, notes=notes, scale=scale, seed=seed
    )
