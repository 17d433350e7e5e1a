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
from repro.engine.protocol import Protocol, State
from repro.engine.scheduler import PairScheduler, RandomScheduler
from repro.engine.surface import EngineSurface, run
from repro.errors import SimulationError
from repro.telemetry.core import cache_summary

__all__ = ["AgentSimulator", "Hook"]

#: Hook signature: ``hook(sim, u, v, pre0, pre1, post0, post1)`` where the
#: four trailing arguments are interned state ids (decode via
#: ``sim.interner.state_of``).
Hook = Callable[["AgentSimulator", int, int, int, int, int, int], None]


class AgentSimulator(EngineSurface):
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
        super().__init__(protocol, n, seed, cache_entries, use_kernel, telemetry)
        self.scheduler: PairScheduler = (
            scheduler if scheduler is not None else RandomScheduler(n, seed)
        )
        self.steps = 0
        self._hooks: list[Hook] = []
        self.load_counts({protocol.initial_state(): n})

    # ------------------------------------------------------------------
    # configuration access
    # ------------------------------------------------------------------

    def state_of(self, agent: int) -> State:
        """Decoded state of ``agent``."""
        return self.interner.state_of(self.states[agent])

    def output_of(self, agent: int) -> str:
        """Output symbol of ``agent``."""
        return self._output_for(self.states[agent])

    def configuration(self) -> list[State]:
        """Decoded state of every agent (a copy)."""
        state_of = self.interner.state_of
        return [state_of(sid) for sid in self.states]

    def state_id_counts(self) -> Counter[int]:
        """Multiset of interned state ids currently present."""
        return Counter(self.states)

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
        self.output_counts = Counter(map(self._output_for, self.states))

    def _load_ids(self, by_id: dict[int, int]) -> None:
        """``load_counts``: agents take the states in ``by_id`` order."""
        self.states = []
        for sid, count in by_id.items():
            self.states += [sid] * count
        self.output_counts = Counter(map(self._output_for, self.states))

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

    #: Stabilization through the shared driver
    #: (:func:`repro.engine.convergence.run_until_stabilized`), advanced
    #: one ``step()`` at a time.
    _advance = step_to_leader_target
    run = run
    run_until_stabilized = run_until_stabilized

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def telemetry_summary(self) -> dict:
        """Deterministic counter summary for the trial store."""
        return {
            "engine": "agent",
            "steps": self.steps,
            "distinct_states": len(self.interner),
            "cache": cache_summary(self.cache.stats),
        }

    @staticmethod
    def outputs_of(configurations: Iterable[State], protocol: Protocol) -> Counter:
        """Tally outputs of a decoded configuration (utility for tests)."""
        return Counter(protocol.output(state) for state in configurations)
