"""E9 — Theorem 1: PLL stabilizes in O(log n) expected parallel time.

The headline result.  We measure stabilization parallel time across a
doubling grid of ``n`` and report the ratio to ``lg n``: Theorem 1
predicts a flat ratio.

Measurement note: PLL's time distribution is strongly bimodal.  With
probability ~0.72 QuickElimination alone leaves a unique leader within a
few ``lg n`` (Lemma 7's ``i = 1`` mass); otherwise the run waits for
Tournament/BackUp epochs, each costing ``~20.5 m`` parallel time (the
``cmax = 41 m`` timer period).  Both branches are ``Theta(log n)``, but
the mixture makes the *sample mean* extremely high-variance at small
trial counts.  We therefore use a healthy trial count, report mean (with
CI), median, and a 10% trimmed mean, and fit the growth model on the
trimmed mean — unbiased estimates of a log-shaped quantity with far less
tail noise than the raw mean.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.scaling import fit_scaling
from repro.analysis.stats import summarize
from repro.experiments.runner import stabilization_trials
from repro.experiments.spec import ExperimentResult, ExperimentSpec, register, scaled

SPEC = ExperimentSpec(
    id="E9",
    title="PLL stabilization time scaling",
    paper_artifact="Theorem 1",
    paper_claim="expected stabilization time is O(log n) parallel time",
    bench="benchmarks/bench_theorem1.py",
)

#: The measurement grid, shared with the E9 campaign builder
#: (:func:`repro.experiments.campaigns.campaign_for`) so `repro run E9`
#: and `repro campaign run E9` address the same store rows.
NS = [64, 128, 256, 512, 1024, 2048]
TRIALS = 48

#: Large-``n`` extension cells: population sizes only the count-level
#: engines reach in reasonable time (``auto`` resolves them to
#: superbatch).  They join the grid from ``scale >= LARGE_N_SCALE`` —
#: an explicit opt-in, because even a handful of 10^8-agent trials
#: dominates the sweep's wall clock — with a reduced per-cell trial
#: count: the scaling *fit* still runs on the dense small-``n`` grid,
#: and the large cells extend the trimmed/lg n ratio column out to
#: production scale.
LARGE_NS = [1 << 20, 1 << 23, 1 << 26]
LARGE_N_SCALE = 4.0
LARGE_N_TRIALS = 4


def grid(scale: float) -> tuple[list[int], int]:
    """The dense small-``n`` ``(ns, trials)`` grid at a given scale."""
    ns = NS
    if scale < 0.5:
        ns = ns[: max(3, int(len(ns) * scale * 2))]
    return ns, scaled([TRIALS], scale)[0]


def large_cells(scale: float) -> list[tuple[int, int]]:
    """Large-``n`` ``(n, trials)`` extension cells; empty below the gate."""
    if scale < LARGE_N_SCALE:
        return []
    return [(n, LARGE_N_TRIALS) for n in LARGE_NS]


def trimmed_mean(values: list[float], fraction: float = 0.1) -> float:
    """Mean with the top and bottom ``fraction`` of samples dropped."""
    data = np.sort(np.asarray(values, dtype=float))
    drop = int(len(data) * fraction)
    kept = data[drop : len(data) - drop] if drop else data
    return float(kept.mean())


@register(SPEC)
def run(
    scale: float = 1.0,
    seed: int = 0,
    engine: str = "auto",
) -> ExperimentResult:
    ns, trials = grid(scale)
    headers = [
        "n",
        "trials",
        "mean time (parallel)",
        "ci95 half-width",
        "median",
        "trimmed mean",
        "trimmed / lg n",
    ]
    rows = []
    trimmed = []
    cells = [(n, trials) for n in ns] + large_cells(scale)
    for n, cell_trials in cells:
        outcomes = stabilization_trials(
            "pll",
            n,
            cell_trials,
            base_seed=seed,
            engine=engine,
        )
        assert all(outcome.leader_count == 1 for outcome in outcomes)
        times = [outcome.parallel_time for outcome in outcomes]
        summary = summarize(times)
        robust = trimmed_mean(times)
        if n in ns:
            # Only the dense small-n grid feeds the growth-model fit;
            # the large-n extension cells are too thin in trials.
            trimmed.append(robust)
        rows.append(
            {
                "n": n,
                "trials": len(outcomes),
                "mean time (parallel)": summary.mean,
                "ci95 half-width": (summary.ci95_high - summary.ci95_low) / 2,
                "median": summary.median,
                "trimmed mean": robust,
                "trimmed / lg n": robust / math.log2(n),
            }
        )
    fit = fit_scaling(ns, trimmed, models=("log", "log^2", "linear", "sqrt"))
    notes = [
        f"best-fit growth model (on trimmed means): {fit} (must be 'log')",
        "the trimmed/lg n ratio should be flat; PLL's time distribution is "
        "bimodal (fast QuickElimination path vs epoch-waiting path), so "
        "the raw mean carries a heavy slow-path tail — see module docstring",
    ]
    return ExperimentResult(
        spec=SPEC, headers=headers, rows=rows, notes=notes, scale=scale, seed=seed
    )
