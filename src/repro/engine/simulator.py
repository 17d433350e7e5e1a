"""Agent-based simulation engine.

:class:`AgentSimulator` executes a population protocol over ``n`` agents
with explicit per-agent identity.  It is the engine of record for anything
that needs to know *which* agent did what: one-way epidemic experiments,
traces and replay, failure injection, and per-agent instrumentation hooks.
For large-``n`` stabilization sweeps, prefer the count-based engine in
:mod:`repro.engine.multiset`, whose step cost does not grow with ``n``.

The hot loop works on interned state ids (ints); transitions are memoized
(:mod:`repro.engine.cache`).  Stabilization of monotone-leader protocols is
detected in O(1) per step via incrementally maintained output counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Sequence

from repro.engine.convergence import run_until_stabilized, step_to_leader_target
from repro.engine.interner import StateInterner
from repro.engine.kernel import make_transition_cache
from repro.engine.protocol import LEADER, Protocol, State
from repro.engine.scheduler import PairScheduler, RandomScheduler
from repro.errors import SimulationError
from repro.telemetry.core import cache_summary, telemetry_enabled
from repro.telemetry.probe import make_phase_series
from repro.telemetry.profile import StageProfile

__all__ = ["AgentSimulator", "Hook"]

#: Hook signature: ``hook(sim, u, v, pre0, pre1, post0, post1)`` where the
#: four trailing arguments are interned state ids (decode via
#: ``sim.interner.state_of``).
Hook = Callable[["AgentSimulator", int, int, int, int, int, int], None]


class AgentSimulator:
    """Execute a protocol over ``n`` identified agents.

    Parameters
    ----------
    protocol:
        The population protocol to run.
    n:
        Population size (at least 2).
    seed:
        Seed for the built-in uniformly random scheduler.  Ignored when an
        explicit ``scheduler`` is supplied.
    scheduler:
        Any object with ``next_pair() -> (u, v)``; defaults to
        :class:`~repro.engine.scheduler.RandomScheduler`.
    cache_entries:
        Bound on the transition memo table.
    use_kernel:
        ``None`` (default) resolves transitions through the compiled
        kernel when the protocol ships one (see
        :mod:`repro.engine.kernel`); ``True``/``False`` force one path.
        Trajectories are identical either way.
    """

    ENGINE_NAME = "agent"
    BLOCK_ENGINE = False

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: int | None = None,
        scheduler: PairScheduler | None = None,
        cache_entries: int = 1 << 20,
        use_kernel: bool | None = None,
        telemetry: bool | None = None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got n={n}")
        self.protocol = protocol
        self.n = n
        self.seed = seed
        self._telemetry = telemetry
        # Stage profile (gated) and phase series (deterministic tier,
        # always on): see DESIGN.md Section 9.
        self._profile = StageProfile(enabled=telemetry_enabled(telemetry))
        self.phase_series = make_phase_series(protocol, n)
        self.interner = StateInterner()
        self.cache = make_transition_cache(
            protocol, self.interner, cache_entries, use_kernel=use_kernel
        )
        if hasattr(self.cache, "profile"):
            self.cache.profile = self._profile
        self.scheduler: PairScheduler = (
            scheduler if scheduler is not None else RandomScheduler(n, seed)
        )
        self.steps = 0
        self._output_of_id: list[str] = []
        self._hooks: list[Hook] = []
        initial_id = self.interner.intern(protocol.initial_state())
        self.states: list[int] = [initial_id] * n
        self.output_counts: Counter[str] = Counter()
        self.output_counts[self._output_for(initial_id)] = n

    # ------------------------------------------------------------------
    # configuration access
    # ------------------------------------------------------------------

    def state_of(self, agent: int) -> State:
        """Decoded state of ``agent``."""
        return self.interner.state_of(self.states[agent])

    def output_of(self, agent: int) -> str:
        """Output symbol of ``agent``."""
        return self._output_for(self.states[agent])

    @property
    def leader_count(self) -> int:
        """Number of agents currently outputting ``L``."""
        return self.output_counts.get(LEADER, 0)

    @property
    def parallel_time(self) -> float:
        """Steps executed divided by ``n`` (the paper's time unit)."""
        return self.steps / self.n

    def configuration(self) -> list[State]:
        """Decoded state of every agent (a copy)."""
        state_of = self.interner.state_of
        return [state_of(sid) for sid in self.states]

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present."""
        return Counter(self.states)

    def state_counts(self) -> Counter[State]:
        """Multiset of decoded states currently present."""
        state_of = self.interner.state_of
        counts: Counter[State] = Counter()
        for sid, count in self.state_id_counts().items():
            counts[state_of(sid)] = count
        return counts

    def agents_with_output(self, symbol: str) -> list[int]:
        """Indices of agents whose output is ``symbol``."""
        output_for = self._output_for
        return [
            agent
            for agent, sid in enumerate(self.states)
            if output_for(sid) == symbol
        ]

    def load_configuration(self, states: Sequence[State]) -> None:
        """Replace the whole configuration (for experiments on ``C_all``).

        The paper analyses executions from arbitrary reachable
        configurations (e.g. Lemma 9/10/12 start anywhere in ``C_all`` or
        ``B_start``); this is the entry point for constructing them.
        """
        if len(states) != self.n:
            raise SimulationError(
                f"configuration has {len(states)} states for n={self.n} agents"
            )
        intern = self.interner.intern
        self.states = [intern(state) for state in states]
        output_for = self._output_for
        self.output_counts = Counter(output_for(sid) for sid in self.states)

    def set_scheduler(self, scheduler: PairScheduler) -> None:
        """Swap the interaction source mid-run.

        Used to model partition-then-heal scenarios: run under a
        :class:`~repro.engine.scheduler.RestrictedScheduler`, then hand the
        population back to the uniformly random scheduler (experiment E13).
        """
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def add_hook(self, hook: Hook) -> None:
        """Attach a per-interaction observer (see :data:`Hook`)."""
        self._hooks.append(hook)

    def remove_hook(self, hook: Hook) -> None:
        self._hooks.remove(hook)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _output_for(self, sid: int) -> str:
        """Output symbol for a state id, via an id-indexed side table."""
        table = self._output_of_id
        if sid >= len(table):
            interner = self.interner
            output = self.protocol.output
            for missing in range(len(table), len(interner)):
                table.append(output(interner.state_of(missing)))
        return table[sid]

    def step(self) -> tuple[int, int]:
        """Execute one interaction; returns the (initiator, responder) pair."""
        u, v = self.scheduler.next_pair()
        states = self.states
        pre0 = states[u]
        pre1 = states[v]
        post0, post1 = self.cache.apply(pre0, pre1)
        if post0 != pre0 or post1 != pre1:
            output_counts = self.output_counts
            output_for = self._output_for
            for pre in (pre0, pre1):
                symbol = output_for(pre)
                remaining = output_counts[symbol] - 1
                if remaining:
                    output_counts[symbol] = remaining
                else:
                    del output_counts[symbol]  # keep the tally zero-free
            output_counts[output_for(post0)] += 1
            output_counts[output_for(post1)] += 1
            states[u] = post0
            states[v] = post1
        self.steps += 1
        if self._hooks:
            for hook in self._hooks:
                hook(self, u, v, pre0, pre1, post0, post1)
        return u, v

    def run(
        self,
        max_steps: int,
        until: Callable[["AgentSimulator"], bool] | None = None,
        check_every: int = 1,
    ) -> int:
        """Run up to ``max_steps`` further steps; stop early if ``until``.

        Returns the number of steps actually executed in this call.  The
        ``until`` predicate is polled every ``check_every`` steps (after the
        step), so expensive predicates can be sampled sparsely.
        """
        executed = 0
        step = self.step
        if until is not None and until(self):
            return 0
        while executed < max_steps:
            step()
            executed += 1
            if until is not None and executed % check_every == 0 and until(self):
                break
        return executed

    #: Stabilization through the shared driver
    #: (:func:`repro.engine.convergence.run_until_stabilized`), advanced
    #: one ``step()`` at a time.
    _advance = step_to_leader_target
    run_until_stabilized = run_until_stabilized

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def distinct_states_seen(self) -> int:
        """Number of distinct states interned so far (Lemma 3 audits)."""
        return len(self.interner)

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        return {
            "engine": "agent",
            "steps": self.steps,
            "distinct_states": len(self.interner),
            "cache": cache_summary(self.cache.stats),
        }

    def phases_json(self) -> str | None:
        """Serialized phase series for the trial store, or ``None``."""
        series = self.phase_series
        return None if series is None else series.to_json()

    def describe(self) -> str:
        """One-line human-readable summary of the simulation."""
        return (
            f"{self.protocol.name}: n={self.n} steps={self.steps} "
            f"(parallel time {self.parallel_time:.2f}) "
            f"outputs={dict(self.output_counts)}"
        )

    @staticmethod
    def outputs_of(configurations: Iterable[State], protocol: Protocol) -> Counter:
        """Tally outputs of a decoded configuration (utility for tests)."""
        return Counter(protocol.output(state) for state in configurations)
