"""The shared engine surface, checked on every engine ``build_simulator``
returns: the configuration view agrees with ``state_id_counts``,
``load_counts`` validates the same way everywhere, ``describe`` keeps its
format and ``run`` polls its predicate on the same schedule."""

import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.pll import PLLProtocol
from repro.engine.convergence import SilenceDetector
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.engine.multiset import MultisetSimulator
from repro.engine.simulator import AgentSimulator
from repro.engine.superbatch import SuperBatchSimulator
from repro.engine.surface import EngineSurface
from repro.errors import SimulationError
from repro.orchestration.pool import build_simulator
from repro.schedulers.spec import SchedulerSpec
from repro.schedulers.weighted import (
    WeightedMultisetSimulator,
    WeightedSuperBatchSimulator,
)

N = 64
WEIGHTED = SchedulerSpec.create("weighted", weights={"L": 4.0})

#: (engine, use_kernel, scheduler) -> the class build_simulator returns.
BUILDS = {
    "agent": (("agent", None, None), AgentSimulator),
    "fenwick": (("multiset", False, None), MultisetSimulator),
    "kernel": (("multiset", None, None), KernelMultisetSimulator),
    "superbatch": (("superbatch", None, None), SuperBatchSimulator),
    "weighted-agent": (("agent", None, WEIGHTED), AgentSimulator),
    "weighted-fenwick": (("multiset", False, WEIGHTED), WeightedMultisetSimulator),
    "weighted-kernel": (("multiset", None, WEIGHTED), KernelMultisetSimulator),
    "weighted-superbatch": (
        ("superbatch", None, WEIGHTED),
        WeightedSuperBatchSimulator,
    ),
}


def build(name, seed=1, n=N):
    (engine, use_kernel, scheduler), cls = BUILDS[name]
    sim = build_simulator(
        PLLProtocol.for_population(n),
        n,
        seed,
        engine=engine,
        use_kernel=use_kernel,
        scheduler=scheduler,
    )
    assert type(sim) is cls
    return sim


@pytest.fixture(params=sorted(BUILDS))
def sim(request):
    return build(request.param)


class TestConfigurationView:
    def test_is_an_engine_surface(self, sim):
        assert isinstance(sim, EngineSurface)

    def test_state_counts_and_count_of_agree_with_state_id_counts(self, sim):
        sim.run(3000)
        by_id = sim.state_id_counts()
        state_of = sim.interner.state_of
        assert sum(by_id.values()) == N
        assert sim.state_counts() == {state_of(s): c for s, c in by_id.items()}
        assert list(sim.state_counts()) == [state_of(s) for s in by_id]
        for sid in range(len(sim.interner)):
            assert sim.count_of(state_of(sid)) == by_id.get(sid, 0)
        assert sim.count_of("never-seen") == 0

    def test_describe_keeps_its_format(self, sim):
        sim.run(100)
        text = sim.describe()
        assert re.fullmatch(
            rf"{re.escape(sim.protocol.name)}: n={N} steps={sim.steps} "
            r"\(parallel time \d+\.\d\d\) "
            r"outputs=\{.*\}",
            text,
        )
        assert f"outputs={dict(sim.output_counts)}" in text

    def test_distinct_states_and_parallel_time(self, sim):
        sim.run(640)
        assert sim.distinct_states_seen() == len(sim.interner)
        assert sim.parallel_time == pytest.approx(sim.steps / N)


class TestLoadCounts:
    def test_rejects_a_wrong_total(self, sim):
        initial = sim.protocol.initial_state()
        with pytest.raises(SimulationError, match="sum to"):
            sim.load_counts({initial: N - 1})

    def test_rejects_a_negative_count(self, sim):
        sim.run(500)
        initial = sim.protocol.initial_state()
        other = next(s for s in sim.interner.states() if s != initial)
        with pytest.raises(SimulationError, match="non-negative"):
            sim.load_counts({initial: N + 1, other: -1})

    def test_drops_zero_entries(self, sim):
        sim.run(500)
        initial = sim.protocol.initial_state()
        other = next(s for s in sim.interner.states() if s != initial)
        sim.load_counts({initial: N, other: 0})
        assert sim.state_id_counts() == {sim.interner.id_of(initial): N}
        assert sim.output_counts == {sim.protocol.output(initial): N}
        assert sim.leader_count == sim.output_counts.get("L", 0)


class TestRunPolling:
    def test_until_is_polled_every_check_every_steps(self, sim):
        polls = []
        executed = sim.run(
            250, until=lambda s: polls.append(s.steps) or False, check_every=50
        )
        assert executed == 250 == sim.steps
        if sim.BLOCK_ENGINE:
            # Polled between blocks (a thinned block may accept none);
            # the budget stays exact.
            assert polls[0] == 0 and polls[-1] == 250
            assert polls == sorted(polls)
        else:
            assert polls == [0, 50, 100, 150, 200, 250]

    def test_until_true_before_the_first_step_runs_nothing(self, sim):
        assert sim.run(100, until=lambda s: True) == 0
        assert sim.steps == 0

    def test_multiset_engines_stop_at_the_same_step(self):
        """The two multiset engines run one chain, so a predicate polled
        on the same schedule stops them at the same step."""
        stops = []
        for name in ("fenwick", "kernel"):
            engine = build(name, seed=3, n=128)
            engine.run(
                10**6, until=lambda s: s.leader_count <= 8, check_every=7
            )
            stops.append((engine.steps, engine.leader_count))
        assert stops[0] == stops[1]
        assert stops[0][0] % 7 == 0


def test_superbatch_count_of_a_state_past_the_count_table_is_zero():
    """A state the shared cache interned past the count vector's capacity
    (as detector probes do) is simply absent, not an ``IndexError``."""
    sim = SuperBatchSimulator(PLLProtocol.for_population(64), 64, seed=1)
    sim.run(200)
    capacity = sim._counts.shape[0]
    while len(sim.interner) <= capacity:
        known = len(sim.interner)
        for sid0 in range(known):
            for sid1 in range(known):
                sim.cache.apply(sid0, sid1)
    assert len(sim.interner) > capacity
    last = sim.interner.state_of(len(sim.interner) - 1)
    assert sim.count_of(last) == 0


def test_silence_detector_interns_the_same_states_on_both_multiset_engines():
    """``SilenceDetector.check`` probes in ascending id order, so what
    it interns does not depend on how an engine orders its counts."""
    protocol = PLLProtocol.for_population(16)
    seen = []
    for sim in (
        KernelMultisetSimulator(protocol, 16, seed=2),
        MultisetSimulator(protocol, 16, seed=2, use_kernel=False),
    ):
        detector = SilenceDetector()
        for _ in range(20):
            sim.run(97)
            detector.check(sim)
        seen.append(sim.distinct_states_seen())
    assert seen == [296, 296]


def _load_layers():
    path = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_engine_run():
    """The benchmark's layer tracer wraps ``run``/``run_until_stabilized``
    only where a class defines them in its own body; every engine class
    it labels must still resolve both to a wrapper."""
    layers = _load_layers()
    tracer = layers.LayerTracer(SimpleNamespace(scaled=lambda: 0.0))
    tracer.install()
    try:
        for cls, _label in layers.ENGINE_LABELS:
            for name in ("run", "run_until_stabilized"):
                method = getattr(cls, name, None)
                if method is not None:
                    assert hasattr(method, "__wrapped__"), (cls, name)
    finally:
        tracer.uninstall()
    assert not hasattr(AgentSimulator.run, "__wrapped__")
