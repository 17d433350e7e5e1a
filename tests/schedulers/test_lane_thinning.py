"""Weighted thinning on a standalone :class:`SlotLane`.

The sorted-slot lane is the solo kernel engine's loop, so it thins
proposals itself: a lane built with ``weights`` must realize exactly
the chain :class:`~repro.schedulers.weighted.WeightedMultisetSimulator`
realizes on the Fenwick tree, step for step, across draw refills of
any size, and hand back the uniforms it drew ahead so the generator
ends where the Fenwick path's does.
"""

import pytest

from repro.engine.ensemble import SlotLane
from repro.engine.ensemble.lane import LaneCell
from repro.engine.multiset import DRAW_BATCH_SIZE
from repro.errors import SimulationError
from repro.orchestration.registry import build_protocol
from repro.schedulers.weighted import WeightedMultisetSimulator

N = 64


@pytest.mark.parametrize("name", ["pll", "angluin"])
@pytest.mark.parametrize("weights", [{"L": 4.0}, {"L": 0.25, "F": 2.0}])
@pytest.mark.parametrize("batch_size", [DRAW_BATCH_SIZE, 61])
def test_lane_matches_the_fenwick_engine_step_for_step(name, weights, batch_size):
    lane = SlotLane(
        build_protocol(name, N), N, 5, weights=weights, batch_size=batch_size
    )
    fenwick = WeightedMultisetSimulator(
        build_protocol(name, N), N, weights, seed=5, batch_size=batch_size
    )
    for _ in range(3000):
        assert lane.step() == fenwick.step()
    assert lane.state_counts() == fenwick.state_counts()
    fenwick.run_until_stabilized()
    while lane.lead != 1:
        lane.run(10_000)
    assert lane.steps == fenwick.steps
    assert lane.null_steps == fenwick.null_steps
    assert lane.distinct_states_seen() == fenwick.distinct_states_seen()
    assert lane.state_counts() == fenwick.state_counts()
    lane._rewind_uniforms()
    assert lane.rng.bit_generator.state == fenwick._rng.bit_generator.state


def test_weighted_lanes_do_not_pack():
    protocol = build_protocol("pll", N)
    cell = LaneCell(protocol, N)
    with pytest.raises(SimulationError, match="own cell"):
        SlotLane(protocol, N, 0, cell=cell, weights={"L": 4.0})
