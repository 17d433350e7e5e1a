"""The benchmark's four workloads and the checks on their outputs.

A workload runs in two parts.  ``prepare`` is set-up: it builds the
trial specs from the seed and opens whatever the trials write to.
``trial_phase`` is the measured part.  ``check`` runs after the
measurement and decides, per trial, whether the program's output was
correct.

Every call into the program goes through a module attribute
(``pool.run_specs``, ``campaigns.campaign_for``, ...), never through a
name imported into this file, so the wrappers that ``layers.py``
installs on those attributes see every call.
"""

from __future__ import annotations

import math
import os
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, thread_time

from repro.errors import ConvergenceError
from repro.experiments import campaigns
from repro.orchestration import pool
from repro.orchestration import runner as runner_mod
from repro.orchestration import spec as spec_mod
from repro.orchestration import store as store_mod

#: Specs of the E9 campaign re-run solo after the measurement, to check
#: that ensemble lanes wrote the rows a solo run produces.
SOLO_RECHECKS = 3


@dataclass
class TrialRecord:
    """One attempted trial: its outcome, or why it has none."""

    spec: object
    outcome: object = None
    censored_steps: int | None = None
    error: str | None = None

    @property
    def steps(self) -> int:
        if self.outcome is not None:
            return self.outcome.steps
        return self.censored_steps or 0


@dataclass
class PhaseResult:
    """What the measured trial phase did, and what the checks found."""

    records: list[TrialRecord] = field(default_factory=list)
    #: CPU seconds at an idle host's speed (see ``clock.py``).
    cpu_s: float = 0.0
    #: CPU seconds as the thread spent them, calibration included.
    thread_cpu_s: float = 0.0
    wall_s: float = 0.0
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return sum(record.steps for record in self.records)

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.cpu_s

    def fail(self, index: int, reason: str) -> None:
        self.failures.setdefault(index, reason)


class _Workload:
    def trial_phase(self, clock) -> PhaseResult:
        """Run the measured part; CPU and wall time cover exactly it.

        ``clock`` is a running :class:`clock.HostClock`; every CPU time
        of the phase is read from its ``scaled`` clock.
        """
        result = PhaseResult()
        cpu0, thread0, wall0 = clock.scaled(), thread_time(), perf_counter()
        self._run(result)
        result.cpu_s = clock.scaled() - cpu0
        result.thread_cpu_s = thread_time() - thread0
        result.wall_s = perf_counter() - wall0
        return result


class CampaignWorkload(_Workload):
    """A real campaign run at jobs=1 into a fresh trial store.

    The trial phase is ``run_specs`` over the campaign, a second
    ``run_specs`` that must be served entirely from the store, and
    ``CampaignRunner.report``.  The campaign always runs whole: cutting
    it short would change its mix of cells with the speed of the
    machine.
    """

    def __init__(
        self, name: str, campaign_scale: float = 1.0, solo_rechecks: int = 0
    ) -> None:
        self.name = name
        self.campaign_scale = campaign_scale
        self.solo_rechecks = solo_rechecks

    def prepare(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.campaign = campaigns.campaign_for(
            self.name, scale=scale * self.campaign_scale, seed=seed
        )
        self.spec_count = len(self.campaign)
        self.store = store_mod.TrialStore(os.path.join(workdir, "trials.sqlite"))

    def _run(self, result: PhaseResult) -> None:
        trials = self.campaign.trials
        self.first = pool.run_specs(trials, store=self.store, on_failure="quarantine")
        self.replay = pool.run_specs(trials, store=self.store, on_failure="quarantine")
        self.report = runner_mod.CampaignRunner(self.store).report(self.campaign)

    def check(self, result: PhaseResult) -> None:
        """Fill ``result.records``, one per spec, and the failures."""
        outcomes = self.first.outcomes
        result.records = [
            TrialRecord(spec, outcome)
            for spec, outcome in zip(self.campaign.trials, outcomes)
        ]
        stored = sum(outcome is not None for outcome in outcomes)
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                result.fail(index, "trial failed or was quarantined")
            elif outcome.leader_count != 1:
                result.fail(index, f"stabilized with {outcome.leader_count} leaders")
            if self.replay.cached != stored or self.replay.outcomes[index] != outcome:
                result.fail(index, "replay was not an equal cache hit")
            if self.report.outcomes[index] != outcome:
                result.fail(index, "report disagrees with the first pass")
        picks = random.Random(self.seed).sample(
            range(len(outcomes)), min(self.solo_rechecks, len(outcomes))
        )
        for index in picks:
            if pool.execute_trial(result.records[index].spec) != outcomes[index]:
                result.fail(index, "solo re-run disagrees with the stored row")
        self.store.close()


class SoloWorkload(_Workload):
    """Solo PLL trials at one population size, each capped in parallel time.

    The trial phase runs a fixed number of trials, on seeds ``seed``,
    ``seed + 1``, ..., so two commits always measure the same trials.
    A trial that reaches the cap of 2·log2(n) parallel time is censored:
    it counts as correct when it stopped at exactly the cap.
    """

    def __init__(self, log2_n: int, trials: int) -> None:
        self.log2_n = log2_n
        self.trials = trials

    def prepare(self, seed: int, scale: float, workdir: str) -> None:
        shrink = 0 if scale >= 1 else math.ceil(-math.log2(scale))
        log2_n = max(6, self.log2_n - shrink)
        self.n = 1 << log2_n
        self.cap = 2 * log2_n * self.n
        self.specs = spec_mod.trial_specs(
            "pll",
            self.n,
            self.trials,
            base_seed=seed,
            engine="auto",
            max_steps=self.cap,
        )
        self.spec_count = len(self.specs)

    def _run(self, result: PhaseResult) -> None:
        for spec in self.specs:
            record = TrialRecord(spec)
            try:
                record.outcome = pool.execute_trial(spec)
            except ConvergenceError as exc:
                record.censored_steps = exc.steps
            except Exception:
                record.error = traceback.format_exc()
            result.records.append(record)

    def check(self, result: PhaseResult) -> None:
        for index, record in enumerate(result.records):
            if record.error is not None:
                print(record.error, file=sys.stderr)
                result.fail(index, "trial raised")
            elif record.outcome is None:
                if record.censored_steps != self.cap:
                    result.fail(
                        index,
                        f"censored at {record.censored_steps} steps, "
                        f"cap is {self.cap}",
                    )
            elif record.outcome.leader_count != 1:
                result.fail(
                    index, f"stabilized with {record.outcome.leader_count} leaders"
                )


#: Workload name -> factory.  Why each exists is in README.md.
WORKLOADS = {
    "e9-campaign": lambda: CampaignWorkload("E9", solo_rechecks=SOLO_RECHECKS),
    "mixed-campaign": lambda: CampaignWorkload("ESCHED", campaign_scale=6),
    "mid-n-trials": lambda: SoloWorkload(18, trials=2),
    "large-n-trials": lambda: SoloWorkload(20, trials=1),
}
