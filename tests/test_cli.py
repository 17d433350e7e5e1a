"""Tests for the command-line interface."""

import pytest

from repro.cli import PROTOCOLS, _engine_line, build_parser, main
from repro.experiments import make_simulator


def assert_quiet_on_closed_pipe(argv):
    """`repro ... | head -1`: the reader goes away before the output is
    written.  No traceback, no exit-time flush error."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E9"])
        assert args.experiment == "E9"
        assert args.scale == 1.0
        assert args.seed == 0

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.protocol == "pll"
        assert args.n == 256
        assert args.engine == "agent"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "nope"])

    def test_run_orchestration_flags(self):
        args = build_parser().parse_args(
            ["run", "E9", "--jobs", "4", "--trials", "8",
             "--engine", "multiset", "--store", "x.sqlite"]
        )
        assert args.jobs == 4
        assert args.trials == 8
        assert args.engine == "multiset"
        assert args.store == "x.sqlite"

    def test_run_defaults_to_no_store_serial(self):
        args = build_parser().parse_args(["run", "E9"])
        assert args.store is None
        assert args.jobs == 1
        assert args.engine is None and args.trials is None

    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "run", "E1"])
        assert args.action == "run"
        assert args.experiment == "E1"
        assert args.store == ".repro-store.sqlite"
        assert args.jobs == 1

    def test_campaign_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_telemetry_report_parser_defaults(self):
        args = build_parser().parse_args(["telemetry", "report"])
        assert args.command == "telemetry"
        assert args.action == "report"
        assert args.store == ".repro-store.sqlite"

    def test_telemetry_report_accepts_store_path(self):
        args = build_parser().parse_args(["telemetry", "report", "x.sqlite"])
        assert args.store == "x.sqlite"

    def test_telemetry_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_telemetry_report_format_flag(self):
        args = build_parser().parse_args(["telemetry", "report"])
        assert args.format == "text"
        args = build_parser().parse_args(
            ["telemetry", "report", "--format", "json"]
        )
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["telemetry", "report", "--format", "yaml"]
            )

    def test_telemetry_profile_parser(self):
        args = build_parser().parse_args(
            ["telemetry", "profile", "events.jsonl"]
        )
        assert args.action == "profile"
        assert args.events == "events.jsonl"

    def test_telemetry_phases_parser_defaults(self):
        args = build_parser().parse_args(["telemetry", "phases"])
        assert args.action == "phases"
        assert args.limit == 4
        assert args.protocol is None and args.n is None

    def test_trace_export_parser(self):
        args = build_parser().parse_args(["trace", "export", "e.jsonl"])
        assert args.command == "trace"
        assert args.action == "export"
        assert args.events == "e.jsonl" and args.out is None

    def test_trace_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_campaign_run_shard_flags(self):
        args = build_parser().parse_args(
            ["campaign", "run", "E1", "--shard", "w1", "--lease-ttl", "30"]
        )
        assert args.shard == "w1"
        assert args.lease_ttl == 30.0

    def test_campaign_run_shard_defaults_off(self):
        args = build_parser().parse_args(["campaign", "run", "E1"])
        assert args.shard is None
        assert args.lease_ttl is None

    def test_store_merge_parser(self):
        args = build_parser().parse_args(["store", "merge", "shards/"])
        assert args.command == "store"
        assert args.action == "merge"
        assert args.root == "shards/"
        assert args.keep_shards is False
        args = build_parser().parse_args(
            ["store", "merge", "shards/", "--keep-shards"]
        )
        assert args.keep_shards is True

    def test_store_status_parser_defaults(self):
        args = build_parser().parse_args(["store", "status"])
        assert args.action == "status"
        assert args.store == ".repro-store.sqlite"
        args = build_parser().parse_args(["store", "status", "shards/"])
        assert args.store == "shards/"

    def test_store_gc_parser_defaults(self):
        args = build_parser().parse_args(["store", "gc"])
        assert args.action == "gc"
        assert args.store == ".repro-store.sqlite"
        assert args.checkpoint_dir is None
        args = build_parser().parse_args(
            ["store", "gc", "x.sqlite", "--checkpoint-dir", "ckpt/"]
        )
        assert args.checkpoint_dir == "ckpt/"

    def test_store_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])


class TestCommands:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E9" in out and "Theorem 1" in out

    def test_run_prints_table(self, capsys):
        assert main(["run", "E3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 2 bound" in out

    def test_simulate_stabilizes(self, capsys):
        assert main(["simulate", "--protocol", "angluin", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "stabilized" in out
        assert "'L': 1" in out

    def test_simulate_rejects_populations_numpy_cannot_sample(self, capsys):
        argv = ["simulate", "--protocol", "pll", "--n", "2000000000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "hypergeometric" in err

    def test_simulate_multiset_engine(self, capsys):
        code = main(
            ["simulate", "--protocol", "pll", "--n", "32", "--engine", "multiset"]
        )
        assert code == 0
        assert "stabilized" in capsys.readouterr().out

    def test_simulate_names_the_engine_auto_resolved(self):
        # The line alone: a whole trial at this size takes too long here.
        n = 1 << 18
        sim = make_simulator(PROTOCOLS["pll"](n), n, seed=0, engine="auto")
        assert _engine_line("auto", sim) == (
            "engine: auto -> superbatch (n >= SUPERBATCH_ENGINE_MIN_N = 262144)"
        )

    @pytest.mark.parametrize("argv", [
        ["simulate", "--engine", "batch"],
        ["run", "E12", "--engine", "batch"],
        ["campaign", "status", "E12", "--engine", "batch"],
    ])
    def test_retired_batch_engine_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batch'" in err
        assert "'multiset'" in err and "'superbatch'" in err

    def test_retired_batch_engine_is_refused_as_campaign_override(self):
        from repro.errors import ExperimentError
        from repro.experiments import campaign_for

        with pytest.raises(ExperimentError, match="retired") as info:
            campaign_for("E12", scale=0.125, engine="batch")
        assert "'multiset'" in str(info.value)
        assert "'superbatch'" in str(info.value)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--protocol", "pll", "--n", "64", "--engine", "agent"],
        ["list"],
    ])
    def test_closed_stdout_pipe_exits_quietly(self, argv):
        assert_quiet_on_closed_pipe(argv)

    @pytest.mark.parametrize(
        "protocol,engine,line",
        [
            ("pll", "multiset", "engine: multiset on the sorted-slot kernel engine"),
            ("fast-nonce", "multiset", "engine: multiset on the Fenwick engine"),
            (
                "pll",
                "auto",
                "engine: auto -> multiset (n < SUPERBATCH_ENGINE_MIN_N = 262144) "
                "on the sorted-slot kernel engine",
            ),
        ],
    )
    def test_simulate_names_the_multiset_engine(self, capsys, protocol, engine, line):
        argv = ["simulate", "--protocol", protocol, "--n", "32", "--engine", engine]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(line + "\n")

    def test_every_registered_protocol_factory_builds(self):
        for name, factory in PROTOCOLS.items():
            protocol = factory(16)
            assert protocol.initial_state() is not None, name

    def test_campaign_run_then_resume_hits_cache(self, capsys, tmp_path):
        store = str(tmp_path / "trials.sqlite")
        argv = ["campaign", "run", "E12", "--scale", "0.125", "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "6 executed" in first
        # Same campaign again: everything is a cache hit.
        assert main(["campaign", "resume", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        assert "6 cached, 0 executed" in second

    def test_campaign_status_and_report(self, capsys, tmp_path):
        import os

        store = str(tmp_path / "trials.sqlite")
        # Read-only actions on a missing store fail cleanly and leave
        # no file behind (a created-empty store would mask path typos).
        assert main(["campaign", "status", "E12", "--scale", "0.125",
                     "--store", store]) == 2
        assert "cannot open trial store" in capsys.readouterr().err
        assert not os.path.exists(store)
        assert main(["campaign", "run", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        assert "6/6" in capsys.readouterr().out
        assert main(["campaign", "report", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "backup-only" in out

    def test_run_with_store_then_campaign_status_complete(
        self, capsys, tmp_path
    ):
        store = str(tmp_path / "trials.sqlite")
        assert main(["run", "E12", "--scale", "0.125", "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        assert "6/6" in capsys.readouterr().out

    def test_run_out_appends_report(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["run", "E3", "--scale", "0.02", "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "Lemma 2" in text
        # Appending: a second run doubles the content.
        assert main(["run", "E3", "--scale", "0.02", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().count("[E3]") == 2

    def test_telemetry_report_after_campaign(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "trials.sqlite")
        assert main(["campaign", "run", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        capsys.readouterr()
        # Default format is the human-readable table.
        assert main(["telemetry", "report", store]) == 0
        table = capsys.readouterr().out
        assert "trials" in table
        assert main(["telemetry", "report", store, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 6
        for cell in payload["cells"]:
            assert cell["timed_trials"] == cell["trials"]
            assert cell["duration_sec"]["p50"] > 0
            assert cell["parallel_time_per_sec"]["p50"] > 0

    def test_telemetry_report_missing_store_fails_cleanly(
        self, capsys, tmp_path
    ):
        import os

        store = str(tmp_path / "missing.sqlite")
        assert main(["telemetry", "report", store]) == 2
        assert "cannot open trial store" in capsys.readouterr().err
        assert not os.path.exists(store)

    def test_traced_campaign_exports_profile_and_phases(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        import repro.engine.kernel as kernel_module
        from repro.telemetry.core import TELEMETRY_ENV
        from repro.telemetry.sink import EVENTS_ENV, QUIET_ENV
        from repro.telemetry.trace import TRACE_ENV

        store = str(tmp_path / "trials.sqlite")
        events = str(tmp_path / "events.jsonl")
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(QUIET_ENV, "1")
        monkeypatch.setenv(EVENTS_ENV, events)
        # Cold compiled kernels: the profile times only calls that fill
        # a kernel's pair universe, and other tests in this process may
        # already have filled the shared ones.
        monkeypatch.setattr(kernel_module, "_SHARED_KERNELS", {})
        assert main(["campaign", "run", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        capsys.readouterr()
        # trace export: validates and writes Chrome trace JSON.
        out = str(tmp_path / "trace.json")
        assert main(["trace", "export", events, "--out", out]) == 0
        assert "spans" in capsys.readouterr().out
        payload = json.loads(open(out).read())
        assert payload["traceEvents"]
        # telemetry profile: aggregates the stage-cost table.
        assert main(["telemetry", "profile", events]) == 0
        table = capsys.readouterr().out
        assert "no profile events" not in table
        assert "profiled" in table
        # telemetry phases: renders stored timelines from the store.
        assert main(["telemetry", "phases", store, "--limit", "1"]) == 0
        assert "samples=" in capsys.readouterr().out

    def test_trace_export_missing_file_fails_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        assert main(["trace", "export", missing]) == 2
        assert "cannot read event file" in capsys.readouterr().err

    def test_telemetry_profile_missing_file_fails_cleanly(
        self, capsys, tmp_path
    ):
        missing = str(tmp_path / "missing.jsonl")
        assert main(["telemetry", "profile", missing]) == 2
        assert "cannot" in capsys.readouterr().err


class TestProgressPrinter:
    def make_outcome(self, steps: int):
        from repro.orchestration.spec import TrialOutcome

        return TrialOutcome(
            seed=0, steps=steps, parallel_time=1.0,
            leader_count=1, distinct_states=4,
        )

    def test_prints_throughput_on_stride_lines(self, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer(stride=2)
        progress(1, 4, self.make_outcome(1000))
        assert capsys.readouterr().out == ""  # off-stride: silent
        progress(2, 4, self.make_outcome(1000))
        line = capsys.readouterr().out
        assert "2/4 trials done" in line
        assert "steps/s" in line and "s (" in line  # elapsed + rate

    def test_final_trial_always_prints(self, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer(stride=10)
        progress(3, 3, self.make_outcome(500))
        assert "3/3 trials done" in capsys.readouterr().out

    def test_cached_trials_reported_without_rate(self, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer(stride=1)
        progress(1, 4, None)
        line = capsys.readouterr().out
        assert "1/4 trials already cached" in line
        assert "steps/s" not in line


class TestStoreCommands:
    """`repro store merge|status|gc` and the sharded campaign flow."""

    def test_lease_ttl_without_shard_is_an_error(self, capsys, tmp_path):
        store = str(tmp_path / "trials.sqlite")
        assert main(["campaign", "run", "E12", "--scale", "0.125",
                     "--store", store, "--lease-ttl", "30"]) == 2
        assert "--shard" in capsys.readouterr().err

    def test_shard_root_without_shard_flag_is_an_error(
        self, capsys, tmp_path
    ):
        root = tmp_path / "shards"
        root.mkdir()
        assert main(["campaign", "run", "E12", "--scale", "0.125",
                     "--store", str(root)]) == 2
        assert "--shard" in capsys.readouterr().err

    def test_sharded_campaign_status_merge_gc_flow(self, capsys, tmp_path):
        root = str(tmp_path / "shards")
        argv = ["campaign", "run", "E12", "--scale", "0.125",
                "--store", root, "--shard", "w1", "--lease-ttl", "30"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "worker w1: 6 executed" in out
        assert "repro store merge" in out

        # Federated status before the merge: the shard root reads as a
        # complete campaign even though canonical.sqlite doesn't exist.
        assert main(["campaign", "status", "E12", "--scale", "0.125",
                     "--store", root]) == 0
        assert "6/6" in capsys.readouterr().out

        assert main(["store", "status", root]) == 0
        status = capsys.readouterr().out
        assert "6 trials" in status
        assert "shard-w1.sqlite" in status
        assert "live leases: none" in status

        assert main(["store", "merge", root]) == 0
        merged = capsys.readouterr().out
        assert "trials:   6" in merged
        import os
        assert os.path.exists(os.path.join(root, "canonical.sqlite"))
        assert not os.path.exists(os.path.join(root, "shard-w1.sqlite"))

        # Post-merge the same commands read the canonical member.
        assert main(["campaign", "report", "E12", "--scale", "0.125",
                     "--store", root]) == 0
        assert "backup-only" in capsys.readouterr().out

        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        (ckpt_dir / "orphan.ckpt12345.tmp").write_bytes(b"partial")
        assert main(["store", "gc", root,
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        assert "1 orphaned checkpoint" in capsys.readouterr().out
        assert list(ckpt_dir.iterdir()) == []

    def test_store_status_on_single_file_store(self, capsys, tmp_path):
        store = str(tmp_path / "trials.sqlite")
        assert main(["campaign", "run", "E12", "--scale", "0.125",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "status", store]) == 0
        out = capsys.readouterr().out
        assert "6 trials" in out
        assert "journal mode: wal" in out

    def test_store_merge_refuses_non_sharded_path(self, capsys, tmp_path):
        assert main(["store", "merge", str(tmp_path / "nope")]) == 2
        assert "not a sharded store" in capsys.readouterr().err


@pytest.fixture(scope="module")
def store_with_batch_row(tmp_path_factory):
    """An E12 campaign store plus one row an older checkout wrote with
    the retired batch engine."""
    from repro.orchestration import TrialOutcome, TrialSpec, TrialStore

    store = str(tmp_path_factory.mktemp("batch-rows") / "trials.sqlite")
    assert main(["campaign", "run", "E12", "--scale", "0.125",
                 "--store", store]) == 0
    # The raw constructor builds the old row's spec, as ``create`` now
    # refuses the engine name.
    old = TrialSpec("pll", 1 << 16, 0, engine="batch")
    with TrialStore(store) as handle:
        handle.put(old, TrialOutcome(0, 1_900_000, 29.0, 1, 310))
    return store


class TestStoredBatchRows:
    """Rows stored under ``engine = 'batch'`` stay readable."""

    def test_batch_specs_keep_their_hashes(self):
        from repro.orchestration import TrialSpec

        # Old rows keep their keys: a batch spec hashes as it always did.
        assert TrialSpec("pll", 256, 0, engine="batch").content_hash() == (
            "7f4405a8297491412e7e7f2ac84dcd8e7afbdae60494418c10ed5570e68e6596"
        )

    def test_campaign_status_reads_the_store(self, capsys, store_with_batch_row):
        capsys.readouterr()
        assert main(["campaign", "status", "E12", "--scale", "0.125",
                     "--store", store_with_batch_row]) == 0
        assert "6/6" in capsys.readouterr().out

    def test_campaign_report_reads_the_store(self, capsys, store_with_batch_row):
        capsys.readouterr()
        assert main(["campaign", "report", "E12", "--scale", "0.125",
                     "--store", store_with_batch_row]) == 0
        assert "backup-only" in capsys.readouterr().out

    def test_telemetry_report_shows_the_batch_cell(
        self, capsys, store_with_batch_row
    ):
        import json

        capsys.readouterr()
        assert main(["telemetry", "report", store_with_batch_row,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 7
        assert any(cell["engine"] == "batch" for cell in payload["cells"])

    @pytest.mark.parametrize("command", [
        ["campaign", "status", "E12", "--scale", "0.125", "--store"],
        ["campaign", "report", "E12", "--scale", "0.125", "--store"],
        ["telemetry", "report"],
        ["telemetry", "phases"],
        ["store", "status"],
    ])
    def test_closed_stdout_pipe_exits_quietly(
        self, command, store_with_batch_row
    ):
        assert_quiet_on_closed_pipe([*command, store_with_batch_row])
