"""Batch-engine micro-benchmarks: block throughput and the null fast path.

Companions to ``bench_engine.py`` (see DESIGN.md, "Choosing an engine"):
these measure the claims specific to :class:`repro.engine.batch.
BatchSimulator` — that Theta(sqrt(n))-interaction vectorized blocks beat
the per-interaction engines once ``n`` is large, and that null-dominated
phases cost O(1) per *block* rather than per interaction.  The
machine-readable cross-engine comparison is ``repro bench``
(``src/repro/bench/report.py``, schema v9), which writes
``BENCH_engine.json``.
"""

from repro.core.pll import PLLProtocol
from repro.engine.batch import BatchSimulator
from repro.engine.multiset import MultisetSimulator
from repro.protocols.majority import ApproximateMajority

STEPS = 20000

#: Large enough that blocks hold hundreds of interactions — the regime
#: the engine is built for (and the regime CI's smoke check grades).
LARGE_N = 200_000


def test_batch_engine_pll_throughput(benchmark):
    def run():
        sim = BatchSimulator(PLLProtocol.for_population(1024), 1024, seed=0)
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_batch_engine_pll_large_n_throughput(benchmark):
    def run():
        sim = BatchSimulator(
            PLLProtocol.for_population(LARGE_N), LARGE_N, seed=0
        )
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_batch_beats_multiset_at_large_n(benchmark):
    """The headline claim, as a benchmark: batch >> multiset at scale."""

    def run():
        sim = BatchSimulator(
            PLLProtocol.for_population(LARGE_N), LARGE_N, seed=0
        )
        sim.run(STEPS)
        return sim.stats.mean_block

    mean_block = benchmark(run)
    # Hundreds of interactions per Python-level block is what makes the
    # engine fast; a collapse here is a sampling regression even if the
    # wall-clock numbers drift with the hardware.
    assert mean_block > 50


def test_multiset_large_n_reference(benchmark):
    """Same workload on the multiset engine, for the comparison row."""

    def run():
        sim = MultisetSimulator(
            PLLProtocol.for_population(LARGE_N), LARGE_N, seed=0
        )
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_batch_null_fast_path_skips_geometrically(benchmark):
    """Ten million post-consensus interactions in a handful of events."""

    def run():
        sim = BatchSimulator(ApproximateMajority(), 1000, seed=3)
        sim.load_counts({"x": 700, "y": 300})
        sim.run(10_000_000)
        return sim.stats.null_skipped_steps

    skipped = benchmark(run)
    # Consensus lands after ~10^4 interactions; virtually everything
    # after it must be skipped by the geometric path, not sampled.
    assert skipped > 9_000_000
