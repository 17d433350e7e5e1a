"""Stabilization detection and the one per-trial stabilization driver.

Leader election stabilizes when the population reaches a configuration in
``S_P``: exactly one agent outputs ``L`` and no schedule can change any
output thereafter (Section 2).  Two detectors cover the two regimes:

* :class:`MonotoneLeaderStabilization` — for protocols whose leader count
  is monotone non-increasing and always positive (every protocol in this
  library; see DESIGN.md Section 3).  For those, the first configuration
  with exactly one leader is already stable, so detection is an O(1)
  counter comparison.
* :class:`SilenceDetector` — protocol-agnostic: checks that no ordered pair
  of *present* states changes anything.  Cost is quadratic in the number of
  distinct present states, so it is meant to be polled sparsely.

:func:`run_until_stabilized` is every solo engine's
``run_until_stabilized`` method: the default budget, the detector
dispatch and the :class:`~repro.errors.ConvergenceError` live here once,
and :func:`run_to_leader_target` owns the monotone fast path's
heartbeat, trace span, phase-series polls, checkpoint saves and stage
profile.  An engine supplies only ``_advance(budget, target)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext

from repro.engine.protocol import LEADER
from repro.errors import ConvergenceError
from repro.telemetry.heartbeat import make_heartbeat
from repro.telemetry.probe import poll_mask
from repro.telemetry.profile import emit_profile
from repro.telemetry.trace import make_tracer

__all__ = [
    "StabilizationDetector",
    "MonotoneLeaderStabilization",
    "SilenceDetector",
    "default_max_steps",
    "output_stable_forever",
    "run_to_leader_target",
    "run_until_stabilized",
    "step_to_leader_target",
]


class StabilizationDetector(ABC):
    """Predicate over a simulator, polled during a run."""

    @abstractmethod
    def check(self, sim) -> bool:
        """Whether the simulator's current configuration counts as stable."""


class MonotoneLeaderStabilization(StabilizationDetector):
    """Stable iff exactly ``target`` leaders exist (monotone protocols)."""

    def __init__(self, target: int = 1) -> None:
        self.target = target

    def check(self, sim) -> bool:
        # The engine's leader counter, the value run_to_leader_target
        # polls; the kernel and block engines would rebuild their whole
        # output tally for ``output_counts``.
        return sim.leader_count == self.target


class SilenceDetector(StabilizationDetector):
    """Stable iff no applicable transition changes any state.

    A configuration is *silent* when for every ordered pair of states
    ``(p, q)`` present in the configuration (with ``p == q`` requiring
    multiplicity at least 2), ``T(p, q) == (p, q)``.  Silence implies
    output stability; it is sufficient but not necessary, which is fine for
    the protocols here whose stable configurations are eventually silent
    only in their output-relevant components.
    """

    def check(self, sim) -> bool:
        # Probing interns the posts, so probe in ascending id order: the
        # interner then grows the same way whatever order the engine
        # keeps its counts in.
        counts = sim.state_id_counts()
        present = sorted(sid for sid, count in counts.items() if count > 0)
        cache = sim.cache
        for sid0 in present:
            for sid1 in present:
                if sid0 == sid1 and counts[sid0] < 2:
                    continue
                if cache.apply(sid0, sid1) != (sid0, sid1):
                    return False
        return True


def default_max_steps(n: int) -> int:
    """The default stabilization budget: ``5000 * n * max(1, lg n)``
    interactions, far past Theorem 1's O(n log n) expectation."""
    return 5000 * n * max(1, n.bit_length())


def run_until_stabilized(
    sim,
    detector: StabilizationDetector | None = None,
    max_steps: int | None = None,
    check_every: int = 1,
) -> int:
    """Run ``sim`` until ``detector`` fires; return its total steps then.

    Every solo engine binds this as its ``run_until_stabilized`` method.
    The default :class:`MonotoneLeaderStabilization` detector (polled
    every step) takes :func:`run_to_leader_target`, which stops at the
    exact interaction whose leader count hits the target; any other
    detector is polled through ``sim.run(..., until=...)``, every
    ``check_every`` steps on the per-interaction engines and at block
    boundaries on the block engine.  Raises
    :class:`~repro.errors.ConvergenceError` if ``max_steps`` (default
    :func:`default_max_steps`) elapses first.
    """
    if detector is None:
        detector = MonotoneLeaderStabilization()
    if max_steps is None:
        max_steps = default_max_steps(sim.n)
    if detector.check(sim):
        return sim.steps
    if isinstance(detector, MonotoneLeaderStabilization) and check_every == 1:
        run_to_leader_target(sim, detector.target, max_steps)
    else:
        sim.run(max_steps, until=detector.check, check_every=check_every)
    if not detector.check(sim):
        raise ConvergenceError(
            f"protocol {sim.protocol.name!r} (n={sim.n}) did not "
            f"stabilize within {max_steps} steps",
            steps=sim.steps,
        )
    return sim.steps


def step_to_leader_target(
    sim, max_steps: int, leader_target: int | None
) -> int:
    """``_advance`` for the engines that run one ``step()`` at a time
    (agent, Fenwick multiset): up to ``max_steps`` interactions,
    stopping at the first whose leader count hits ``leader_target``
    (``None``: no target, a plain ``step()`` loop)."""
    step = sim.step
    if leader_target is None:
        for _ in range(max_steps):
            step()
        return max_steps
    output_counts = sim.output_counts
    executed = 0
    while executed < max_steps:
        step()
        executed += 1
        if output_counts.get(LEADER, 0) == leader_target:
            break
    return executed


def run_to_leader_target(sim, target: int, max_steps: int) -> None:
    """Advance ``sim`` until its leader count hits ``target`` or
    ``max_steps`` interactions elapse.

    ``sim._advance(k, target)`` runs at most ``k`` interactions, stops
    early at the target and returns how many it ran.  The driver cuts
    the budget into segments with one schedule per engine kind:

    * per-interaction engines (``BLOCK_ENGINE`` false: agent and both
      multiset engines) advance ``poll_mask + 1`` steps per segment and
      poll where this call's executed count reaches a multiple of it,
      never at a segment cut short by the budget or the target;
    * the block engine (superbatch) advances the whole remaining
      budget per call — ``_advance`` returns after one block — and polls
      after every block.

    A poll beats the heartbeat, samples the phase series and offers a
    checkpoint save.  Both schedules depend only on the spec and the
    chain, never on the telemetry switch, so the stored series is the
    same with telemetry off or on (DESIGN.md Section 9).
    """
    engine = sim.ENGINE_NAME
    heartbeat = make_heartbeat(
        engine,
        sim.protocol.name,
        sim.n,
        sim.seed,
        max_steps,
        enabled=sim._telemetry,
    )
    series = sim.phase_series
    checkpointer = getattr(sim, "checkpointer", None)
    if sim.BLOCK_ENGINE or (heartbeat is None and series is None):
        # The whole remaining budget per call: one block on a block
        # engine, the whole run on a per-interaction one (nothing to poll).
        mask, segment = 0, max_steps
    else:
        mask = poll_mask(series)
        segment = mask + 1
    profile = sim._profile
    advance = sim._advance
    tracer = make_tracer()
    if tracer is not None:
        profile.tracer = tracer
    trial_span = (
        nullcontext()
        if tracer is None
        else tracer.span(
            "trial",
            cat="trial",
            engine=engine,
            protocol=sim.protocol.name,
            n=sim.n,
            seed=sim.seed,
        )
    )
    try:
        with trial_span:
            if series is not None:
                series.poll(sim.steps, sim.state_counts)
            executed = 0
            while executed < max_steps:
                executed += advance(min(segment, max_steps - executed), target)
                if sim.leader_count == target:
                    break
                if not executed & mask:
                    if heartbeat is not None:
                        heartbeat.maybe_beat(sim.steps)
                    if series is not None:
                        series.poll(sim.steps, sim.state_counts)
                    if checkpointer is not None:
                        checkpointer.maybe_save(sim)
            if series is not None:
                series.finish(sim.steps, sim.state_counts)
    finally:
        profile.tracer = None
    emit_profile(profile, engine, sim.protocol.name, sim.n, sim.seed, sim.steps)


def output_stable_forever(sim) -> bool:
    """Exact check that no reachable successor changes any *output*.

    Explores the reachable configuration space from the simulator's current
    configuration by depth-first search over configurations and verifies
    the output vector never changes.  A configuration is keyed by the
    sorted tuple of its ``n`` agents' state ids — fixed length, so the key
    costs one small sort per edge.  Every explored configuration has the
    start's outputs, so a successor keeps them iff its transition maps
    the pre-states' outputs to the same multiset: one check per distinct
    pair, memoized with the pair's move.  Exponential in general — only
    call this on tiny populations (n <= 6 or so) in tests.
    """
    output = sim.protocol.output
    state_of = sim.interner.state_of
    apply = sim.cache.apply
    #: (pre0, pre1) -> None for a null pair, else (post0, post1).
    moves: dict[tuple[int, int], tuple[int, int] | None] = {}
    start = tuple(sorted(sim.state_id_counts().elements()))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        counts: dict[int, int] = {}
        for sid in node:
            counts[sid] = counts.get(sid, 0) + 1
        for sid0 in counts:
            for sid1 in counts:
                if sid0 == sid1 and counts[sid0] < 2:
                    continue
                pair = (sid0, sid1)
                if pair in moves:
                    move = moves[pair]
                else:
                    move = apply(sid0, sid1)
                    if move == pair:
                        move = None
                    elif sorted(map(output, map(state_of, move))) != sorted(
                        map(output, map(state_of, pair))
                    ):
                        return False
                    moves[pair] = move
                if move is None:
                    continue
                successor = list(node)
                successor.remove(sid0)
                successor.remove(sid1)
                successor += move
                successor.sort()
                key = tuple(successor)
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
    return True
