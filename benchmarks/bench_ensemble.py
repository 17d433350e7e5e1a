"""Ensemble-engine micro-benchmarks: packed-cell lane throughput.

:class:`repro.engine.ensemble.EnsembleSimulator` packs a cell's trials
into sorted-slot lanes over one shared transition cache, run on the
native loop for kernel protocols — the regime campaigns actually spend
their time in (many trials at small-to-mid ``n``, below ``auto``'s
superbatch crossover).  The machine-readable trials-per-second
comparison against serial solo runs and the multiprocessing pool is
``repro bench`` (``src/repro/bench/report.py``, ``trials`` section);
these targets isolate the engine-level pieces.
"""

from repro.core.pll import PLLProtocol
from repro.engine.ensemble import EnsembleSimulator, SlotLane
from repro.engine.ensemble.lane import LaneCell
from repro.engine.multiset import MultisetSimulator

N = 1024
LANES = 32
E9_N = 2048
E9_LANES = 48


def test_ensemble_pll_cell_to_stabilization(benchmark):
    """A whole multi-trial PLL cell, every lane to its exact step."""

    def run():
        sim = EnsembleSimulator(
            PLLProtocol.for_population(N), N, list(range(LANES))
        )
        return sum(o.steps for o in sim.run_until_stabilized())

    assert benchmark(run) > 0


def test_e9_shaped_cell(benchmark):
    """E9's largest cell as campaigns run it: PLL at n = 2048, 48 lanes,
    uncapped, on the native loop.  The cell interns more than 512
    states, and each pair it has never resolved returns to Python for
    one scalar transition."""

    def run():
        sim = EnsembleSimulator(
            PLLProtocol.for_population(E9_N), E9_N, list(range(E9_LANES))
        )
        outcomes = sim.run_until_stabilized()
        assert sim.telemetry_summary()["loop"] == "native"
        assert len(sim.interner) > 512
        assert all(o.leader_count == 1 for o in outcomes)
        return len(outcomes)

    assert benchmark.pedantic(run, rounds=3) == E9_LANES


def test_slot_lane_throughput(benchmark):
    """The Python loop a lane of a cell without a kernel runs: the
    sorted-slot chain must comfortably beat the Fenwick multiset loop
    it replays."""

    def run():
        lane = SlotLane(PLLProtocol.for_population(N), N, seed=0)
        lane.run(20_000, stop_at_target=False)
        return lane.steps

    assert benchmark(run) == 20_000


def test_native_slot_lane_throughput(benchmark):
    """The same lane on the native loop, as a packed cell runs it: the
    first lane of a fresh cell, so every pair resolution still returns
    to Python."""

    def run():
        protocol = PLLProtocol.for_population(N)
        lane = SlotLane(protocol, N, seed=0, cell=LaneCell(protocol, N))
        assert lane.cell.loop == "native"
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
