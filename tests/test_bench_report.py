"""Smoke tests for the machine-readable benchmark harness.

:mod:`repro.bench.report` is the scriptable producer of
``BENCH_engine.json`` (CI runs it as ``repro bench --quick --check``);
these tests exercise its measurement, summary, crossover derivation and
gate logic at toy scale so a harness regression fails in the tier-1
suite rather than only in the CI benchmark job.
"""

import json
import math
from pathlib import Path

import pytest

import repro.bench.report as report
from repro.orchestration import spec

REPO_ROOT = Path(__file__).resolve().parent.parent


def tiny_results():
    return [
        report.measure_trial_cell(engine, "pll", 64, seeds=2)
        for engine in report.GRID_ENGINES
    ]


class TestMeasurement:
    def test_trial_cell_records_every_trial(self):
        row = report.measure_trial_cell("superbatch", "pll", 64, seeds=3, seed=5)
        assert row["engine"] == "superbatch"
        assert (row["protocol"], row["n"]) == ("pll", 64)
        assert row["cap_steps"] == report.trial_cap(64) == 2 * 6 * 64
        assert [trial["seed"] for trial in row["trials"]] == [5, 6, 7]
        for trial in row["trials"]:
            assert set(trial) == {
                "seed", "seconds", "steps", "parallel_time",
                "distinct_states", "censored",
            }
            assert trial["seconds"] > 0
            assert 0 < trial["steps"] <= row["cap_steps"]
            assert trial["parallel_time"] == trial["steps"] / 64
            assert trial["distinct_states"] > 1
            # A trial is censored exactly when it ran into the cap.
            assert trial["censored"] == (trial["steps"] == row["cap_steps"])

    def test_cell_rate_is_total_steps_over_total_seconds(self):
        row = report.measure_trial_cell("multiset", "pll", 64, seeds=2)
        steps = sum(trial["steps"] for trial in row["trials"])
        seconds = sum(trial["seconds"] for trial in row["trials"])
        assert row["steps"] == steps
        assert row["seconds"] == pytest.approx(seconds)
        assert row["steps_per_sec"] == pytest.approx(steps / seconds)

    def test_capped_trials_are_censored(self, monkeypatch):
        monkeypatch.setattr(report, "trial_cap", lambda n: 10)
        row = report.measure_trial_cell("multiset", "pll", 64, seeds=2)
        assert all(trial["censored"] for trial in row["trials"])
        assert row["steps"] == 20

    def test_summary_carries_the_engine_ratio(self):
        summary = report.summarize(tiny_results())
        entry = summary["pll/n=64"]
        assert set(entry) == {"multiset", "superbatch", "superbatch_vs_multiset"}
        assert entry["superbatch_vs_multiset"] == pytest.approx(
            entry["superbatch"] / entry["multiset"]
        )


    def test_summary_has_no_ratio_for_a_one_engine_cell(self):
        only = [row for row in tiny_results() if row["engine"] == "multiset"]
        entry = report.summarize(only)["pll/n=64"]
        assert set(entry) == {"multiset"}


class TestEngineRatioGate:
    KEY = "superbatch_vs_multiset"

    def fake_report(self, *cells):
        return {
            "summary": {f"pll/n={n}": {self.KEY: ratio} for n, ratio in cells}
        }

    def test_passes_when_superbatch_is_faster(self):
        fake = self.fake_report((262144, 1.4))
        assert report.check_engine_ratio(fake, "superbatch", "multiset", 1.0) is None

    def test_fails_when_superbatch_is_slower(self):
        fake = self.fake_report((262144, 0.9))
        error = report.check_engine_ratio(fake, "superbatch", "multiset", 1.0)
        assert error is not None and "0.90x" in error

    def test_grades_the_largest_n(self):
        fake = self.fake_report((1024, 9.0), (262144, 0.5))
        assert report.check_engine_ratio(fake, "superbatch", "multiset", 1.0)

    def test_grades_the_largest_cell_with_both_engines(self):
        # A larger cell measured on one engine only carries no ratio;
        # the gate falls back to the largest cell that has one.
        fake = self.fake_report((262144, 1.4))
        fake["summary"]["pll/n=1048576"] = {"multiset": 500.0}
        assert report.check_engine_ratio(fake, "superbatch", "multiset", 1.0) is None
        fake["summary"]["pll/n=262144"][self.KEY] = 0.8
        error = report.check_engine_ratio(fake, "superbatch", "multiset", 1.0)
        assert error is not None and "n=262144" in error

    def test_grades_only_the_check_protocol(self):
        fake = self.fake_report((262144, 1.4))
        fake["summary"]["angluin/n=1048576"] = {self.KEY: 0.1}
        assert report.check_engine_ratio(fake, "superbatch", "multiset", 1.0) is None

    def test_missing_ratio_is_an_error(self):
        error = report.check_engine_ratio(
            {"summary": {}}, "superbatch", "multiset", 1.0
        )
        assert error is not None and self.KEY in error


class TestTrialsSection:
    def tiny_cell(self):
        return report.measure_trials_cell(
            protocol_name="angluin", n=32, trials=6, jobs=1
        )

    def test_measures_every_execution_strategy(self):
        section = self.tiny_cell()
        modes = {(row["mode"], row["engine"]) for row in section["results"]}
        assert modes == {
            ("serial", "multiset"),
            ("pool", "multiset"),
            ("pool", "agent"),
            ("ensemble", "multiset"),
        }
        assert all(row["trials_per_sec"] > 0 for row in section["results"])
        assert section["cell"] == {"protocol": "angluin", "n": 32, "trials": 6}

    def test_strategies_simulate_the_same_chain(self):
        # The gate is an execution-strategy comparison, so the graded
        # rows must have executed identical per-seed trials: same total
        # steps for the serial, pool, and ensemble multiset rows.
        section = self.tiny_cell()
        steps = {
            (row["mode"], row["engine"]): row["total_steps"]
            for row in section["results"]
        }
        assert (
            steps[("ensemble", "multiset")]
            == steps[("pool", "multiset")]
            == steps[("serial", "multiset")]
        )

    def test_ratios_match_the_rows(self):
        section = self.tiny_cell()
        rates = {
            (row["mode"], row["engine"]): row["trials_per_sec"]
            for row in section["results"]
        }
        assert section["ensemble_vs_pool"] == pytest.approx(
            rates[("ensemble", "multiset")] / rates[("pool", "multiset")]
        )
        assert section["ensemble_vs_serial"] == pytest.approx(
            rates[("ensemble", "multiset")] / rates[("serial", "multiset")]
        )


class TestTrialsCheckGate:
    def test_passes_when_ensemble_is_faster(self):
        fake = {"trials": {"cell": {}, "ensemble_vs_serial": 6.0}}
        assert report.check_ensemble_speedup(fake, min_ratio=5.0) is None

    def test_fails_when_ensemble_is_slower(self):
        fake = {
            "trials": {
                "cell": {"protocol": "pll", "n": 4096, "trials": 64},
                "ensemble_vs_serial": 0.8,
            }
        }
        error = report.check_ensemble_speedup(fake, min_ratio=1.0)
        assert error is not None and "0.80x" in error

    def test_missing_section_is_an_error(self):
        error = report.check_ensemble_speedup({"results": []}, 1.0)
        assert error is not None and "no trials section" in error


class TestKernelSection:
    def tiny_cell(self):
        return report.measure_kernel_cell(
            protocol_name="angluin", n=64, trials=4
        )

    def test_measures_both_modes_for_both_engines(self):
        section = self.tiny_cell()
        modes = {(row["engine"], row["mode"]) for row in section["results"]}
        assert modes == {
            ("multiset", "cold-pairs"),
            ("multiset", "trials"),
            ("superbatch", "cold-pairs"),
            ("superbatch", "trials"),
        }
        for row in section["results"]:
            assert row["kernel_vs_cached"] == pytest.approx(
                row["cached_seconds"] / row["kernel_seconds"]
            )

    def test_gate_passes_on_fast_kernels(self):
        fake = {
            "kernel": {
                "cell": {"protocol": "pll", "n": 1024},
                "results": [
                    {"engine": "multiset", "mode": "cold-pairs",
                     "kernel_vs_cached": 3.0},
                    {"engine": "superbatch", "mode": "cold-pairs",
                     "kernel_vs_cached": 2.5},
                ],
            }
        }
        assert report.check_kernel_speedup(fake, min_ratio=2.0) is None

    def test_gate_fails_on_a_slow_engine(self):
        fake = {
            "kernel": {
                "cell": {},
                "results": [
                    {"engine": "multiset", "mode": "cold-pairs",
                     "kernel_vs_cached": 3.0},
                    {"engine": "superbatch", "mode": "cold-pairs",
                     "kernel_vs_cached": 0.7},
                ],
            }
        }
        error = report.check_kernel_speedup(fake, min_ratio=1.0)
        assert error is not None and "superbatch" in error

    def test_missing_section_is_an_error(self):
        error = report.check_kernel_speedup({"results": []}, 1.0)
        assert error is not None and "no kernel section" in error




@pytest.fixture
def tiny_overhead_cell(monkeypatch):
    # An angluin n=256 cell cannot stabilize inside a 2000-step budget,
    # so every run of every section executes the full budget.
    monkeypatch.setattr(report, "OVERHEAD_PROTOCOL", "angluin")
    monkeypatch.setattr(report, "OVERHEAD_N", 256)
    monkeypatch.setattr(report, "OVERHEAD_STEPS_QUICK", 2000)
    for section, (runs, _repeats) in list(report.OVERHEAD_SECTIONS.items()):
        monkeypatch.setitem(report.OVERHEAD_SECTIONS, section, (runs, 2))


class TestOverheadCell:
    RUNS = {
        "telemetry": ["off", "on", "trace"],
        "faults": ["clean", "faulted"],
        "schedulers": ["uniform", "weighted"],
    }

    @pytest.mark.parametrize("section", sorted(RUNS))
    def test_times_every_run_on_the_same_budget(
        self, section, tiny_overhead_cell
    ):
        measured = report.measure_overhead_cell(section, quick=True)
        assert measured["cell"] == {
            "protocol": "angluin",
            "n": 256,
            "engine": "superbatch",
            "max_steps": 2000,
        }
        assert measured["runs"] == self.RUNS[section]
        assert measured["steps"] == 2000
        assert measured["repeats"] == 2
        baseline, *variants = self.RUNS[section]
        assert measured[f"{baseline}_seconds"] > 0
        for variant in variants:
            ratios = measured[f"{variant}_pair_ratios"]
            assert len(ratios) == 2
            assert measured[f"{variant}_overhead_ratio"] == min(ratios)
            assert measured[f"{variant}_steps_per_sec"] > 0

    def test_section_records_its_workload(self, tiny_overhead_cell):
        faults = report.measure_overhead_cell("faults", quick=True)
        assert faults["plan"]
        schedulers = report.measure_overhead_cell("schedulers", quick=True)
        assert schedulers["weights"] == {"L": 1.0}

    def test_unequal_budgets_are_an_error(self, monkeypatch):
        def runs(protocol_name, n, steps, seed):
            return {"base": lambda: (1.0, 10), "variant": lambda: (1.0, 11)}, {}

        monkeypatch.setitem(report.OVERHEAD_SECTIONS, "faults", (runs, 1))
        with pytest.raises(RuntimeError, match="different budgets"):
            report.measure_overhead_cell("faults")

    def test_every_gate_names_a_measured_run(self):
        for section, variant, _max_ratio in report.OVERHEAD_GATES:
            assert variant in self.RUNS[section][1:]
        assert set(report.OVERHEAD_SECTIONS) == set(self.RUNS)


class TestOverheadGate:
    GATES = [(section, variant) for section, variant, _ in report.OVERHEAD_GATES]

    def fake_report(self, section, variant, ratio):
        return {
            section: {
                "cell": {"protocol": "pll", "n": 1_000_000,
                         "engine": "superbatch"},
                "steps": 2_000_000,
                "runs": ["base", variant],
                f"{variant}_overhead_ratio": ratio,
            }
        }

    @pytest.mark.parametrize("section,variant", GATES)
    def test_passes_under_the_ceiling(self, section, variant):
        fake = self.fake_report(section, variant, 1.01)
        assert report.check_overhead(fake, section, variant, 1.02) is None

    @pytest.mark.parametrize("section,variant", GATES)
    def test_fails_over_the_ceiling(self, section, variant):
        fake = self.fake_report(section, variant, 2.5)
        error = report.check_overhead(fake, section, variant, 2.0)
        assert error is not None and "2.500x" in error and "base" in error

    @pytest.mark.parametrize("section,variant", GATES)
    def test_missing_section_is_an_error(self, section, variant):
        error = report.check_overhead({"results": []}, section, variant, 2.0)
        assert error is not None and f"no {section} section" in error

    def test_missing_ratio_is_an_error(self):
        fake = self.fake_report("telemetry", "on", 1.0)
        error = report.check_overhead(fake, "telemetry", "trace", 2.0)
        assert error is not None and "trace_overhead_ratio" in error

    def test_thresholds_are_the_documented_ones(self):
        assert report.OVERHEAD_GATES == (
            ("telemetry", "on", 1.02),
            ("telemetry", "trace", 2.0),
            ("faults", "faulted", 1.05),
            ("schedulers", "weighted", 1.10),
        )
        assert (
            report.MIN_SUPERBATCH_RATIO,
            report.MIN_TRIALS_RATIO,
            report.MIN_KERNEL_RATIO,
        ) == (1.0, 1.0, 1.0)
        repeats = {
            section: repeats
            for section, (_runs, repeats) in report.OVERHEAD_SECTIONS.items()
        }
        assert repeats == {"telemetry": 9, "faults": 7, "schedulers": 7}


def rows(*cells):
    """results rows from (n, {engine: rate}) cells."""
    return [
        {"engine": engine, "protocol": "pll", "n": n, "steps_per_sec": rate}
        for n, rates in cells
        for engine, rate in rates.items()
    ]


def trial_row(engine, n, *trials):
    """A whole-trial grid row from (seconds, steps) trials."""
    seconds = sum(trial[0] for trial in trials)
    steps = sum(trial[1] for trial in trials)
    return {
        "engine": engine,
        "protocol": "pll",
        "n": n,
        "cap_steps": report.trial_cap(n),
        "trials": [
            {"seed": seed, "seconds": secs, "steps": count,
             "parallel_time": count / n, "distinct_states": 300,
             "censored": count == report.trial_cap(n)}
            for seed, (secs, count) in enumerate(trials)
        ],
        "seconds": seconds,
        "steps": steps,
        "steps_per_sec": steps / seconds,
    }


class TestDeriveCrossovers:
    def test_crossover_between_two_measured_sizes(self):
        # Whole trials: multiset still wins at 2^16, superbatch clears
        # the margin from 2^17 up, so the regime starts at 2^17.
        record = {
            "results": [
                trial_row("multiset", 1 << 16, (1.9, 2_000_000), (2.1, 2_097_152)),
                trial_row("superbatch", 1 << 16, (2.6, 1_300_000), (2.8, 2_097_152)),
                trial_row("multiset", 1 << 17, (5.0, 4_456_448), (3.0, 2_000_000)),
                trial_row("superbatch", 1 << 17, (3.5, 4_456_448), (2.0, 2_500_000)),
                trial_row("multiset", 1 << 18, (12.0, 9_437_184), (8.0, 5_000_000)),
                trial_row("superbatch", 1 << 18, (7.0, 9_437_184), (4.0, 5_000_000)),
            ]
        }
        assert report.derive_crossovers(record) == 1 << 17

    def test_win_must_hold_at_every_larger_n(self):
        # A win at mid n that collapses at large n does not move the
        # threshold down: auto must not route big sweeps to a loser.
        record = {
            "results": rows(
                (1024, {"multiset": 100.0, "superbatch": 150.0}),
                (65536, {"multiset": 500.0, "superbatch": 300.0}),
                (1 << 20, {"multiset": 400.0, "superbatch": 1600.0}),
            )
        }
        assert report.derive_crossovers(record) == 1 << 20

    def test_noise_level_wins_do_not_extend_the_regime(self):
        # Engine resolution feeds spec content hashes: a 2% win at one
        # grid size must not re-route that size; only wins clearing the
        # SUPERBATCH_WIN_MARGIN (1.1x) move the boundary down.
        record = {
            "results": rows(
                (65536, {"multiset": 944.0, "superbatch": 963.0}),
                (1 << 20, {"multiset": 700.0, "superbatch": 2600.0}),
            )
        }
        assert report.SUPERBATCH_WIN_MARGIN == 1.1
        assert report.derive_crossovers(record) == 1 << 20

    def test_quick_reports_derive_nothing(self):
        record = {
            "quick": True,
            "results": rows((1 << 18, {"multiset": 100.0, "superbatch": 900.0})),
        }
        assert report.derive_crossovers(record) is None

    def test_none_when_superbatch_never_wins(self):
        record = {"results": rows((1024, {"multiset": 500.0, "superbatch": 100.0}))}
        assert report.derive_crossovers(record) is None

    def test_none_without_superbatch_rows(self):
        record = {"results": rows((1 << 18, {"multiset": 500.0}))}
        assert report.derive_crossovers(record) is None

    def test_smallest_measured_n_when_superbatch_always_wins(self):
        record = {
            "results": rows(
                (1024, {"multiset": 100.0, "superbatch": 150.0}),
                (1 << 18, {"multiset": 400.0, "superbatch": 1600.0}),
            )
        }
        assert report.derive_crossovers(record) == 1024

    def test_none_for_empty_or_alien_reports(self):
        assert report.derive_crossovers({}) is None
        alien = {"results": [{"protocol": "angluin"}]}
        assert report.derive_crossovers(alien) is None

    def test_ignores_malformed_rows(self):
        record = {
            "results": rows((1 << 18, {"multiset": 100.0, "superbatch": 800.0}))
            + [
                {"engine": "superbatch", "protocol": "pll", "n": "not-a-number"},
                {"engine": "multiset", "protocol": "pll", "n": 1 << 18},
                {"engine": None, "protocol": "pll", "n": 1 << 18,
                 "steps_per_sec": 1e9},
            ]
        }
        assert report.derive_crossovers(record) == 1 << 18


class TestCommittedRecord:
    def committed(self):
        return json.loads((REPO_ROOT / "BENCH_engine.json").read_text())

    def test_committed_record_derives_autos_constant(self):
        # The constant auto resolves engines with is code; the committed
        # full-grid record must still measure it.
        record = self.committed()
        assert record["schema"] == report.SCHEMA == "repro-bench-engine/10"
        assert record["quick"] is False
        assert report.derive_crossovers(record) == spec.SUPERBATCH_ENGINE_MIN_N
        assert report.check_crossovers(record) is None

    def test_grid_has_measured_cells_on_both_sides(self):
        measured = {row["n"] for row in self.committed()["results"]}
        assert min(measured) < spec.SUPERBATCH_ENGINE_MIN_N <= max(measured)

    def test_record_measures_the_full_grid_on_both_engines(self):
        record = self.committed()
        measured = {
            (row["protocol"], row["n"], row["engine"])
            for row in record["results"]
        }
        assert measured == {
            (protocol_name, n, engine)
            for protocol_name, sizes in report.FULL_GRID
            for n in sizes
            for engine in report.GRID_ENGINES
        }

    def test_cells_are_whole_capped_trials(self):
        for row in self.committed()["results"]:
            assert row["engine"] in report.GRID_ENGINES
            assert len(row["trials"]) >= 3
            assert row["cap_steps"] == report.trial_cap(row["n"])
            assert row["steps"] == sum(t["steps"] for t in row["trials"])
            assert row["steps_per_sec"] == pytest.approx(
                row["steps"] / sum(t["seconds"] for t in row["trials"])
            )
            for trial in row["trials"]:
                assert trial["steps"] <= row["cap_steps"]
                assert trial["censored"] == (trial["steps"] == row["cap_steps"])

    def test_gate_fails_when_the_record_disagrees(self):
        record = self.committed()
        for row in record["results"]:
            if row["engine"] == "superbatch":
                row["steps_per_sec"] = 1.0
        error = report.check_crossovers(record)
        assert error is not None and "crossover None" in error

    def test_gate_skips_quick_records(self, capsys):
        assert report.check_crossovers({"quick": True, "results": []}) is None
        assert "skipped" in capsys.readouterr().out


class TestEndToEnd:
    def test_quick_check_writes_every_section_and_runs_every_gate(
        self, tmp_path, monkeypatch, capsys, tiny_overhead_cell
    ):
        # Shrink every cell so the smoke test stays in tier-1 budget.
        monkeypatch.setattr(report, "QUICK_GRID", (("pll", (64,)),))
        monkeypatch.setattr(report, "TRIAL_SEEDS", 2)
        monkeypatch.setattr(report, "TRIALS_PROTOCOL", "angluin")
        monkeypatch.setattr(report, "TRIALS_N", 32)
        monkeypatch.setattr(report, "TRIALS_COUNT", 6)
        monkeypatch.setattr(report, "TRIALS_POOL_JOBS", 1)
        monkeypatch.setattr(report, "KERNEL_PROTOCOL", "angluin")
        monkeypatch.setattr(report, "KERNEL_N", 32)
        monkeypatch.setattr(report, "KERNEL_TRIALS", 4)
        # Toy-scale timings are noise, so the gates run at thresholds
        # every measured ratio clears; the real ones are pinned in
        # TestOverheadGate.test_thresholds_are_the_documented_ones.
        for name in ("MIN_SUPERBATCH_RATIO", "MIN_TRIALS_RATIO",
                     "MIN_KERNEL_RATIO"):
            monkeypatch.setattr(report, name, 0.0)
        monkeypatch.setattr(
            report,
            "OVERHEAD_GATES",
            tuple((s, v, math.inf) for s, v, _ in report.OVERHEAD_GATES),
        )
        out = tmp_path / "BENCH_engine.json"
        assert report.main(["--quick", "--check", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench-engine/10"
        assert payload["quick"] is True
        assert {
            "results", "summary", "trial_seeds", "trial_cap", "trials",
            "kernel", "telemetry", "faults", "schedulers",
        } <= set(payload)
        assert payload["trial_seeds"] == 2
        engines = {row["engine"] for row in payload["results"]}
        assert engines == {"multiset", "superbatch"}
        assert all(len(row["trials"]) == 2 for row in payload["results"])
        assert payload["telemetry"]["on_overhead_ratio"] > 0
        assert payload["telemetry"]["trace_overhead_ratio"] > 0
        assert payload["faults"]["faulted_overhead_ratio"] > 0
        assert payload["schedulers"]["weighted_overhead_ratio"] > 0
        assert payload["trials"]["ensemble_vs_serial"] > 0
        assert payload["kernel"]["results"]
        stdout = capsys.readouterr().out
        assert stdout.count("check ok:") == 7
        assert "check skipped: crossovers" in stdout

    def test_check_fails_on_a_missed_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(report, "MIN_TRIALS_RATIO", math.inf)
        fake = {"quick": True, "summary": {}, "trials": {
            "cell": {}, "ensemble_vs_serial": 2.0}}
        errors = report.run_checks(fake)
        assert any("ensemble is 2.00x" in error for error in errors)
        assert any("no kernel section" in error for error in errors)
