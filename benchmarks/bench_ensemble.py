"""Ensemble-engine micro-benchmarks: packed-cell lane throughput.

Companions to ``bench_batch.py``: where the batch engine vectorizes
*within* one trial, :class:`repro.engine.ensemble.EnsembleSimulator`
packs a cell's trials into sorted-slot lanes over one shared transition
cache — the regime campaigns actually spend their time in (many trials
at small-to-mid ``n``, below the batch crossover).  The machine-readable
trials-per-second comparison against serial solo runs and the
multiprocessing pool is ``repro bench`` (``src/repro/bench/report.py``,
schema v9, ``trials`` section); these targets isolate the engine-level
pieces.
"""

from repro.core.pll import PLLProtocol
from repro.engine.ensemble import EnsembleSimulator, SlotLane
from repro.engine.multiset import MultisetSimulator

N = 1024
LANES = 32


def test_ensemble_pll_cell_to_stabilization(benchmark):
    """A whole multi-trial PLL cell, every lane to its exact step."""

    def run():
        sim = EnsembleSimulator(
            PLLProtocol.for_population(N), N, list(range(LANES))
        )
        return sum(o.steps for o in sim.run_until_stabilized())

    assert benchmark(run) > 0


def test_slot_lane_throughput(benchmark):
    """The loop every lane runs: the sorted-slot chain must comfortably
    beat the Fenwick multiset loop it replays."""

    def run():
        lane = SlotLane(PLLProtocol.for_population(N), N, seed=0)
        lane.run(20_000, stop_at_target=False)
        return lane.steps

    assert benchmark(run) == 20_000


def test_multiset_reference_for_slot_lane(benchmark):
    """Same workload on MultisetSimulator, for the comparison row."""

    def run():
        sim = MultisetSimulator(PLLProtocol.for_population(N), N, seed=0)
        sim.run(20_000)
        return sim.steps

    assert benchmark(run) == 20_000
