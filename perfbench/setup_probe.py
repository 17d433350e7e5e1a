"""Set-up probe: run a workload until its first engine is built, then stop.

Prints the CPU seconds this interpreter spent from its start (imports,
spec construction, store creation) up to that first build, rescaled to
an idle host's speed by ``clock.HostClock``, and exits without running
a single interaction.  ``run.py`` starts it in fresh
interpreters and reports the median as ``setup_s``.  The first build is
either ``build_simulator`` or, for campaign cells the pool packs into
ensemble lanes, the ``EnsembleSimulator`` constructor.
"""

from __future__ import annotations

import argparse
import os
import sys

import run
from clock import HostClock


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    run.configure_environment()
    with HostClock() as clock:
        import workloads
        from repro.engine.ensemble import EnsembleSimulator

        def first_build(*_args, **_kwargs):
            print(repr(clock.scaled()), flush=True)
            os._exit(0)

        workloads.pool.build_simulator = first_build
        EnsembleSimulator.__init__ = first_build
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(args.seed, args.scale, args.workdir)
        workload.trial_phase(clock)
    print("error: the workload built no engine", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
