"""Command-line interface.

Eight subcommands::

    repro list                      # enumerate the experiment registry
    repro run E9 [--scale 1.0] [--jobs 4] [--store x.sqlite]
    repro simulate --protocol pll --n 256 [--seed 0] [--engine agent]
    repro campaign run|resume|status|report E1 [--jobs 4] [--store ...]
    repro store merge|status|gc ...    # trial-store maintenance
    repro telemetry report|profile|phases ...  # runtime records
    repro trace export events.jsonl [--out trace.json]   # Perfetto export
    repro bench [--quick] [--check]       # BENCH_engine.json harness

``repro run all`` executes the full per-lemma/per-table sweep (the data
behind EXPERIMENTS.md).  ``repro campaign`` drives the orchestration
subsystem: trials shard across ``--jobs`` worker processes and every
outcome persists to the SQLite trial store (default
``.repro-store.sqlite``), so re-running only executes missing trials and
``resume`` picks up exactly where an interrupted ``run`` stopped.

``repro campaign run --shard <worker>`` joins the *distributed* campaign
fabric instead: the store becomes a directory of per-worker shard
stores, work is claimed through a TTL lease table (a killed worker's
cells are reclaimed by survivors after the TTL), and ``repro store
merge`` deterministically folds the shards into one canonical store.
Every store-reading command accepts either layout — pass the shard root
directory where you would pass a ``.sqlite`` path.

``repro bench`` runs the machine-readable engine benchmark
(:mod:`repro.bench.report`), the same harness CI's bench-smoke job
drives.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.errors import ReproError
from repro.experiments import (
    all_experiments,
    campaign_for,
    campaign_ids,
    make_simulator,
    run_experiment,
)
from repro.orchestration import (
    DEFAULT_STORE_PATH,
    CampaignRunner,
    TrialStore,
    build_protocol,
    is_sharded_root,
    open_store,
    protocol_names,
)
from repro.orchestration.spec import (
    AUTO_ENGINE,
    ENGINES,
    ENSEMBLE_ENGINE,
    TrialOutcome,
)

#: CLI engine choices: the concrete engines, the packed ensemble
#: strategy, and per-``(n, trials)`` resolution.
ENGINE_CHOICES = (*ENGINES, ENSEMBLE_ENGINE, AUTO_ENGINE)

__all__ = ["main", "build_parser"]

#: Protocol factories for `repro simulate`, derived from the registry.
PROTOCOLS = {
    name: (lambda n, _name=name: build_protocol(_name, n))
    for name in protocol_names()
}


def _add_store_flags(parser: argparse.ArgumentParser, default: str | None) -> None:
    parser.add_argument(
        "--store",
        default=default,
        help=(
            "SQLite trial store path"
            + (
                f" (default {DEFAULT_STORE_PATH})"
                if default
                else " (default: no store, trials are not cached)"
            )
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for trial execution (default 1: in-process)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Logarithmic Expected-Time Leader Election in "
            "Population Protocol Model' (Sudo et al., PODC 2019)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the experiment registry")

    run_parser = subparsers.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment", help="experiment id (e.g. E9) or 'all'")
    run_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trial-count scale factor (default 1.0)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="base seed")
    run_parser.add_argument(
        "--out",
        default=None,
        help="also append the rendered report(s) to this file",
    )
    run_parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default=None,
        help=(
            "override the engine for declarative trial batches ('ensemble' "
            "packs same-cell trials into lanes sharing one cache; 'auto' "
            "picks per population size)"
        ),
    )
    run_parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the per-point trial count for declarative batches",
    )
    _add_store_flags(run_parser, default=None)

    sim_parser = subparsers.add_parser(
        "simulate", help="run one protocol to stabilization"
    )
    sim_parser.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="pll"
    )
    sim_parser.add_argument("--n", type=int, default=256, help="population size")
    sim_parser.add_argument("--seed", type=int, default=0)
    sim_parser.add_argument(
        "--engine", choices=ENGINE_CHOICES, default="agent"
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="orchestrate an experiment's trial grid against the trial store",
    )
    actions = campaign_parser.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("run", "execute every trial missing from the store"),
        ("resume", "alias of run: continue an interrupted campaign"),
        ("status", "show cache coverage without executing anything"),
        ("report", "aggregate stored outcomes without executing anything"),
    ):
        action_parser = actions.add_parser(action, help=help_text)
        action_parser.add_argument(
            "experiment",
            help=f"experiment id with a campaign ({', '.join(campaign_ids())})",
        )
        action_parser.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="trial-count scale factor (default 1.0)",
        )
        action_parser.add_argument("--seed", type=int, default=0, help="base seed")
        action_parser.add_argument(
            "--engine",
            choices=ENGINE_CHOICES,
            default=AUTO_ENGINE,
            help=(
                "engine the campaign's trials run on (default auto: "
                "count-level superbatch at production n, batch in the "
                "mid regime, ensemble-dispatched multiset below the "
                "batch crossover)"
            ),
        )
        if action in ("run", "resume"):
            action_parser.add_argument(
                "--retries",
                type=int,
                default=1,
                help=(
                    "solo retry rounds for failed trials before "
                    "quarantining them (default 1)"
                ),
            )
            action_parser.add_argument(
                "--trial-timeout",
                type=float,
                default=None,
                metavar="SECS",
                help=(
                    "per-trial wall-clock timeout in seconds (default: "
                    "unlimited); a timed-out trial is retried, then "
                    "quarantined"
                ),
            )
            action_parser.add_argument(
                "--shard",
                default=None,
                metavar="WORKER",
                help=(
                    "join the distributed campaign fabric as this worker: "
                    "--store becomes a shard-root directory (default "
                    ".repro-store.shards), work is claimed via TTL leases, "
                    "and outcomes land in a private per-worker shard "
                    "(fold with `repro store merge`)"
                ),
            )
            action_parser.add_argument(
                "--lease-ttl",
                type=float,
                default=None,
                metavar="SECS",
                help=(
                    "seconds a sharded worker's work claim survives "
                    "without renewal (default 120); only with --shard"
                ),
            )
        _add_store_flags(action_parser, default=DEFAULT_STORE_PATH)

    store_parser = subparsers.add_parser(
        "store",
        help=(
            "trial-store maintenance: fold shards into the canonical "
            "store (merge), inspect any store layout (status), sweep "
            "orphaned checkpoints and expired leases (gc)"
        ),
    )
    store_actions = store_parser.add_subparsers(dest="action", required=True)
    store_merge = store_actions.add_parser(
        "merge",
        help=(
            "deterministically fold every shard-*.sqlite in a shard root "
            "into canonical.sqlite (idempotent; order-independent; "
            "byte-identical output for identical inputs)"
        ),
    )
    store_merge.add_argument("root", help="shard-root directory")
    store_merge.add_argument(
        "--keep-shards",
        action="store_true",
        help=(
            "leave folded shard files in place (safe mid-campaign: the "
            "merge reads only committed rows)"
        ),
    )
    store_status = store_actions.add_parser(
        "status",
        help=(
            "summarize a store: trials, outstanding failures, journal "
            "mode; per-shard coverage and live leases for shard roots"
        ),
    )
    store_status.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_STORE_PATH,
        help=(
            "store path — a .sqlite file or a shard-root directory "
            f"(default {DEFAULT_STORE_PATH})"
        ),
    )
    store_gc = store_actions.add_parser(
        "gc",
        help=(
            "sweep garbage a crashed worker leaves behind: checkpoint "
            "files whose trial is already stored, interrupted "
            "checkpoint tmp files, and expired lease rows"
        ),
    )
    store_gc.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_STORE_PATH,
        help=(
            "store path — a .sqlite file or a shard-root directory "
            f"(default {DEFAULT_STORE_PATH})"
        ),
    )
    store_gc.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "checkpoint directory to sweep (default: REPRO_CHECKPOINT_DIR "
            "or .repro-checkpoints)"
        ),
    )

    telemetry_parser = subparsers.add_parser(
        "telemetry",
        help=(
            "inspect runtime records: per-cell durations (report), "
            "stage-cost profiles (profile), protocol phase timelines "
            "(phases)"
        ),
    )
    telemetry_actions = telemetry_parser.add_subparsers(
        dest="action", required=True
    )
    telemetry_report = telemetry_actions.add_parser(
        "report",
        help=(
            "aggregate per-(protocol, n, engine) runtime profiles — trial "
            "durations, steps/sec, parallel time/sec, cache hit rates"
        ),
    )
    telemetry_report.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_STORE_PATH,
        help=f"SQLite trial store path (default {DEFAULT_STORE_PATH})",
    )
    telemetry_report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text table; json is machine-readable)",
    )
    telemetry_profile = telemetry_actions.add_parser(
        "profile",
        help=(
            "aggregate profile events from a JSONL event file into the "
            "per-(engine, protocol, n) stage-cost table"
        ),
    )
    telemetry_profile.add_argument(
        "events",
        help="JSONL event file (the REPRO_TELEMETRY_EVENTS target)",
    )
    telemetry_phases = telemetry_actions.add_parser(
        "phases",
        help=(
            "render stored protocol phase timelines (Algorithm 1 phase "
            "occupancy over each trial's steps)"
        ),
    )
    telemetry_phases.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_STORE_PATH,
        help=f"SQLite trial store path (default {DEFAULT_STORE_PATH})",
    )
    telemetry_phases.add_argument(
        "--protocol", default=None, help="only this protocol's trials"
    )
    telemetry_phases.add_argument(
        "--n", type=int, default=None, help="only this population size"
    )
    telemetry_phases.add_argument(
        "--seed", type=int, default=None, help="only this seed"
    )
    telemetry_phases.add_argument(
        "--engine", default=None, help="only this engine's trials"
    )
    telemetry_phases.add_argument(
        "--limit",
        type=int,
        default=4,
        help="render at most this many trials (default 4)",
    )
    telemetry_faults = telemetry_actions.add_parser(
        "faults",
        help=(
            "render stored fault records (injected events with per-fault "
            "recovery times) for faulted trials"
        ),
    )
    telemetry_faults.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_STORE_PATH,
        help=f"SQLite trial store path (default {DEFAULT_STORE_PATH})",
    )
    telemetry_faults.add_argument(
        "--protocol", default=None, help="only this protocol's trials"
    )
    telemetry_faults.add_argument(
        "--n", type=int, default=None, help="only this population size"
    )
    telemetry_faults.add_argument(
        "--seed", type=int, default=None, help="only this seed"
    )
    telemetry_faults.add_argument(
        "--engine", default=None, help="only this engine's trials"
    )
    telemetry_faults.add_argument(
        "--limit",
        type=int,
        default=8,
        help="render at most this many trials (default 8)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="export JSONL trace events for Perfetto / chrome://tracing",
    )
    trace_actions = trace_parser.add_subparsers(dest="action", required=True)
    trace_export = trace_actions.add_parser(
        "export",
        help=(
            "convert a REPRO_TELEMETRY_EVENTS file to Chrome trace-event "
            "JSON (open the result in ui.perfetto.dev)"
        ),
    )
    trace_export.add_argument(
        "events",
        help="JSONL event file written under REPRO_TRACE=1",
    )
    trace_export.add_argument(
        "--out",
        default=None,
        help="output path (default: <events>.trace.json)",
    )

    # Registered so `repro --help` lists it; actual dispatch happens in
    # main() before parse_args (the harness owns its own flags, which
    # argparse's REMAINDER cannot forward when they lead).
    subparsers.add_parser(
        "bench",
        help=(
            "run the engine benchmark harness (writes BENCH_engine.json; "
            "flags are the harness's own: --out, --quick, --check, --seed)"
        ),
    )
    return parser


def _command_list() -> int:
    for experiment_id, (spec, _run) in all_experiments().items():
        print(f"{experiment_id:4s} {spec.paper_artifact:18s} {spec.title}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.experiment.lower() == "all":
        ids = list(all_experiments())
    else:
        ids = [args.experiment]
    store = TrialStore(args.store) if args.store else None
    try:
        for experiment_id in ids:
            result = run_experiment(
                experiment_id,
                scale=args.scale,
                seed=args.seed,
                jobs=args.jobs,
                store=store,
                engine=args.engine,
                trials=args.trials,
            )
            report = result.render()
            print(report)
            print()
            if args.out is not None:
                with open(args.out, "a", encoding="utf-8") as sink:
                    sink.write(report + "\n\n")
    finally:
        if store is not None:
            store.close()
    return 0


def _command_simulate(protocol_name: str, n: int, seed: int, engine: str) -> int:
    protocol = PROTOCOLS[protocol_name](n)
    sim = make_simulator(protocol, n, seed=seed, engine=engine)
    steps = sim.run_until_stabilized()
    print(sim.describe())
    print(
        f"stabilized after {steps} interactions = "
        f"{sim.parallel_time:.2f} parallel time; "
        f"{sim.distinct_states_seen()} distinct states reached"
    )
    return 0


def _progress_printer(stride: int):
    """Progress callback printing every ``stride`` completed trials.

    Stride lines carry elapsed wall-clock and the cumulative interaction
    throughput of the freshly executed trials, and every line flushes
    explicitly — campaigns are exactly the runs that get piped to ``tee``
    or a log file, where block buffering would otherwise sit on hours of
    progress.
    """
    started = time.perf_counter()
    fresh_steps = 0

    def progress(done: int, total: int, outcome: TrialOutcome | None) -> None:
        nonlocal fresh_steps
        if outcome is None:
            print(f"  {done}/{total} trials already cached", flush=True)
            return
        fresh_steps += outcome.steps
        if done % stride == 0 or done == total:
            elapsed = time.perf_counter() - started
            rate = fresh_steps / elapsed if elapsed > 0 else 0.0
            print(
                f"  {done}/{total} trials done in {elapsed:.1f}s"
                f" ({rate:,.0f} steps/s)",
                flush=True,
            )

    return progress


def _command_campaign(args: argparse.Namespace) -> int:
    campaign = campaign_for(
        args.experiment, scale=args.scale, seed=args.seed, engine=args.engine
    )
    if args.action in ("status", "report"):
        # Read-only: inspecting a campaign must not create a store file.
        # open_store routes a directory path to the sharded backend's
        # federated view, so a mid-campaign shard root reports the union
        # of canonical + every worker shard plus live lease holders.
        with open_store(args.store, readonly=True) as store:
            runner = CampaignRunner(store)
            if args.action == "status":
                print(runner.status(campaign).render())
            else:
                print(runner.report(campaign).render())
        return 0
    if getattr(args, "shard", None) is not None:
        return _command_campaign_sharded(args, campaign)
    if getattr(args, "lease_ttl", None) is not None:
        raise ReproError("--lease-ttl only applies with --shard")
    if is_sharded_root(args.store):
        raise ReproError(
            f"{args.store!r} is a shard-root directory; run it with "
            "--shard <worker> (or point --store at a .sqlite file)"
        )
    with TrialStore(args.store) as store:
        stride = max(1, len(campaign) // 10)
        runner = CampaignRunner(
            store,
            jobs=args.jobs,
            progress=_progress_printer(stride),
            retries=args.retries,
            trial_timeout=args.trial_timeout,
        )
        print(
            f"campaign {campaign.name}: {len(campaign)} trials, "
            f"jobs={args.jobs}, store={args.store}"
        )
        try:
            result = runner.run(campaign)
        except KeyboardInterrupt:
            status = runner.status(campaign)
            print()
            print(status.render())
            print("interrupted; `repro campaign resume` will pick up here")
            return 130
        print()
        print(result.render())
    return 0


def _command_campaign_sharded(args: argparse.Namespace, campaign) -> int:
    from repro.orchestration.backend import DEFAULT_SHARD_ROOT
    from repro.orchestration.backend.fabric import run_sharded_campaign
    from repro.orchestration.backend.leases import DEFAULT_LEASE_TTL

    # A sharded campaign's store is a directory; the single-file default
    # path would be wrong, so --shard without --store gets its own root.
    root = (
        DEFAULT_SHARD_ROOT if args.store == DEFAULT_STORE_PATH else args.store
    )
    ttl = DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl
    stride = max(1, len(campaign) // 10)
    print(
        f"campaign {campaign.name}: {len(campaign)} trials, "
        f"worker={args.shard}, jobs={args.jobs}, root={root}, "
        f"lease_ttl={ttl:.0f}s"
    )
    report = run_sharded_campaign(
        campaign.trials,
        root,
        worker=args.shard,
        jobs=args.jobs,
        lease_ttl=ttl,
        progress=_progress_printer(stride),
        retries=args.retries,
        trial_timeout=args.trial_timeout,
    )
    print()
    print(report.render())
    print(
        "fold shards into the canonical store with "
        f"`repro store merge {root}`"
    )
    return 0


def _command_store(args: argparse.Namespace) -> int:
    if args.action == "merge":
        from repro.orchestration.backend.merge import merge_store

        print(merge_store(args.root, keep_shards=args.keep_shards).render())
        return 0
    if args.action == "status":
        return _command_store_status(args)
    return _command_store_gc(args)


def _command_store_status(args: argparse.Namespace) -> int:
    with open_store(args.store, readonly=True) as store:
        trials = len(store)
        failures = store.failures()
        quarantined = sum(1 for row in failures if row["quarantined"])
        print(f"store {args.store}: {trials} trials")
        if failures:
            print(
                f"  failures: {len(failures)} outstanding "
                f"({quarantined} quarantined)"
            )
        coverage = getattr(store, "shard_coverage", None)
        if coverage is None:
            print(f"  journal mode: {store.journal_mode()}")
            return 0
        print("  members:")
        for member in coverage():
            plural = "s" if member.rows != 1 else ""
            print(f"    {member.name}: {member.rows} trial{plural}")
        leases = store.live_leases()
        if leases:
            print(f"  live leases: {len(leases)}")
            for lease in leases:
                print(
                    f"    {lease.spec_hash[:12]} held by {lease.worker}, "
                    f"{max(0.0, lease.remaining()):.0f}s left"
                )
        else:
            print("  live leases: none")
    return 0


def _command_store_gc(args: argparse.Namespace) -> int:
    from repro.faults.checkpoint import checkpoint_dir, sweep_orphans

    with open_store(args.store, readonly=True) as store:
        completed = store.completed_hashes()
        swept_leases = 0
        leases_path = getattr(store, "leases_path", None)
        if leases_path is not None and leases_path.exists():
            from repro.orchestration.backend.leases import LeaseManager

            manager = LeaseManager(leases_path, worker="gc")
            try:
                swept_leases = manager.sweep_expired()
            finally:
                manager.close()
    directory = (
        checkpoint_dir() if args.checkpoint_dir is None else args.checkpoint_dir
    )
    removed = sweep_orphans(completed, directory)
    print(
        f"gc {args.store}: removed {len(removed)} orphaned checkpoint "
        f"file(s) under {directory}"
        + (f", {swept_leases} expired lease row(s)" if swept_leases else "")
    )
    for path in removed:
        print(f"  {path}")
    return 0


def _command_telemetry(args: argparse.Namespace) -> int:
    if args.action == "report":
        # Imported lazily: report aggregation pulls in numpy percentiles
        # the other subcommands never need at startup.
        from repro.telemetry.report import build_report, render_report

        with open_store(args.store, readonly=True) as store:
            print(render_report(build_report(store), fmt=args.format))
        return 0
    if args.action == "profile":
        from repro.telemetry.profile import (
            load_profile_records,
            render_profile_table,
        )

        try:
            records = load_profile_records(args.events)
        except OSError as exc:
            raise ReproError(f"cannot read event file: {exc}") from exc
        print(render_profile_table(records))
        return 0
    if args.action == "faults":
        return _command_telemetry_faults(args)
    return _command_telemetry_phases(args)


def _command_telemetry_faults(args: argparse.Namespace) -> int:
    from repro.faults.report import render_faults

    shown = 0
    with open_store(args.store, readonly=True) as store:
        for row in store.rows():
            if args.protocol is not None and row["protocol"] != args.protocol:
                continue
            if args.n is not None and row["n"] != args.n:
                continue
            if args.seed is not None and row["seed"] != args.seed:
                continue
            if args.engine is not None and row["engine"] != args.engine:
                continue
            if not row["faults"]:
                continue
            if shown:
                print()
            print(
                f"{row['protocol']} n={row['n']:,} seed={row['seed']} "
                f"({row['engine']}, {row['steps']:,} steps)"
            )
            print(render_faults(row["faults"], int(row["n"])))
            shown += 1
            if shown >= args.limit:
                break
    if shown == 0:
        print("no stored fault records match (clean trials carry none)")
    return 0


def _command_telemetry_phases(args: argparse.Namespace) -> int:
    from repro.telemetry.probe import render_phases

    shown = 0
    skipped_without_series = 0
    with open_store(args.store, readonly=True) as store:
        for row in store.rows():
            if args.protocol is not None and row["protocol"] != args.protocol:
                continue
            if args.n is not None and row["n"] != args.n:
                continue
            if args.seed is not None and row["seed"] != args.seed:
                continue
            if args.engine is not None and row["engine"] != args.engine:
                continue
            if not row["phases"]:
                skipped_without_series += 1
                continue
            if shown:
                print()
            print(
                f"{row['protocol']} n={row['n']:,} seed={row['seed']} "
                f"({row['engine']}, {row['steps']:,} steps)"
            )
            print(render_phases(row["phases"]))
            shown += 1
            if shown >= args.limit:
                break
    if shown == 0:
        note = (
            f" ({skipped_without_series} matching trials have no phase "
            "series: probe-less protocol or packed ensemble lanes)"
            if skipped_without_series
            else ""
        )
        print(f"no stored phase timelines match{note}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.telemetry.trace import (
        chrome_trace_events,
        load_events,
        validate_chrome_trace,
    )

    try:
        events = load_events(args.events)
    except OSError as exc:
        raise ReproError(f"cannot read event file: {exc}") from exc
    trace_events = chrome_trace_events(events)
    payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 2
    out = args.out or f"{args.events}.trace.json"
    with open(out, "w", encoding="utf-8") as sink:
        _json.dump(payload, sink)
        sink.write("\n")
    spans = sum(event.get("ph") == "X" for event in trace_events)
    counters = len(trace_events) - spans
    print(
        f"wrote {out}: {spans} spans, {counters} counter samples "
        f"(open in https://ui.perfetto.dev)"
    )
    return 0


def _command_bench(bench_args: list[str]) -> int:
    # Imported lazily: the harness pulls in the benchmark machinery,
    # which the other subcommands never need.
    from repro.bench.report import main as bench_main

    forwarded = list(bench_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return bench_main(forwarded)


def main(argv: Sequence[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["bench"]:
        # Routed before argparse: the harness owns its own flags, and
        # argparse's REMAINDER refuses leading options ("--quick").
        return _command_bench(arguments[1:])
    args = build_parser().parse_args(arguments)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "simulate":
            return _command_simulate(
                args.protocol, args.n, args.seed, args.engine
            )
        if args.command == "campaign":
            return _command_campaign(args)
        if args.command == "store":
            return _command_store(args)
        if args.command == "telemetry":
            return _command_telemetry(args)
        if args.command == "trace":
            return _command_trace(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
