"""Engine micro-benchmarks: step throughput and memoization effect.

Together with ``bench_ensemble.py`` these are the only benchmarks here
measuring *our* code's speed rather than regenerating a paper artifact;
they back the engineering claims of DESIGN.md's "Choosing an engine"
guide (interned-int hot loop, exact transition memoization, n-independent
multiset step cost).  The scriptable cross-engine comparison — the one CI
runs and records — is ``repro bench`` (``src/repro/bench/report.py``),
which writes ``BENCH_engine.json`` at the repository root.
"""

from repro.core.pll import PLLProtocol
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.multiset import MultisetSimulator
from repro.engine.simulator import AgentSimulator
from repro.protocols.angluin import AngluinProtocol

STEPS = 20000


def test_agent_engine_pll_throughput(benchmark):
    def run():
        sim = AgentSimulator(PLLProtocol.for_population(1024), 1024, seed=0)
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_multiset_engine_pll_throughput(benchmark):
    def run():
        sim = MultisetSimulator(PLLProtocol.for_population(1024), 1024, seed=0)
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_kernel_multiset_engine_pll_throughput(benchmark):
    """The solo sorted-slot engine ``multiset`` builds for kernel protocols."""

    def run():
        sim = KernelMultisetSimulator(PLLProtocol.for_population(1024), 1024, seed=0)
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_kernel_multiset_engine_weighted_pll_throughput(benchmark):
    """The same engine thinning proposals under a weighted schedule."""

    def run():
        sim = KernelMultisetSimulator(
            PLLProtocol.for_population(1024), 1024, seed=0, weights={"L": 4.0}
        )
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_agent_engine_two_state_throughput(benchmark):
    def run():
        sim = AgentSimulator(AngluinProtocol(), 1024, seed=0)
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run) == STEPS


def test_transition_cache_effectiveness(benchmark):
    """Cached vs uncached PLL stepping (same seed, same work)."""

    def run_cached():
        sim = AgentSimulator(PLLProtocol.for_population(256), 256, seed=0)
        sim.run(STEPS)
        return sim.cache.stats.hit_rate

    hit_rate = benchmark(run_cached)
    assert hit_rate > 0.5  # memoization must actually be doing the work


def test_multiset_step_cost_independent_of_n(benchmark):
    """The count-based engine costs the same at n=10^3 and n=10^6."""

    def run_large_n():
        sim = MultisetSimulator(AngluinProtocol(), 1_000_000, seed=0)
        sim.run(STEPS)
        return sim.steps

    assert benchmark(run_large_n) == STEPS
