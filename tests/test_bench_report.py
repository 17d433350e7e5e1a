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
    rows = []
    for engine in ("agent", "multiset", "batch"):
        for use_kernel in (False, True):
            rows.append(
                report.measure_engine(
                    engine, "angluin", 64, 2000, use_kernel=use_kernel
                )
            )
    return rows


class TestMeasurement:
    def test_measure_engine_reports_throughput_and_cache(self):
        row = report.measure_engine("batch", "angluin", 64, 2000)
        assert row["engine"] == "batch"
        assert row["steps"] == 2000
        assert row["transitions"] == "kernel"  # angluin compiles one
        assert row["steps_per_sec"] > 0
        assert 0.0 <= row["cache"]["hit_rate"] <= 1.0
        assert row["cache"]["hits"] + row["cache"]["misses"] >= 0

    def test_measure_engine_can_force_the_cached_path(self):
        row = report.measure_engine(
            "multiset", "angluin", 64, 2000, use_kernel=False
        )
        assert row["transitions"] == "cached"

    def test_summary_contains_cross_engine_ratios(self):
        summary = report.summarize(tiny_results())
        entry = summary["angluin/n=64"]
        assert set(entry) >= {
            "agent",
            "multiset",
            "batch",
            "batch_vs_multiset",
            "batch_vs_agent",
            "kernel_vs_cached",
        }
        assert entry["batch_vs_multiset"] == pytest.approx(
            entry["batch"] / entry["multiset"]
        )
        assert set(entry["kernel_vs_cached"]) == {"agent", "multiset", "batch"}

    def test_summary_engine_rates_are_the_kernel_rows(self):
        rows = tiny_results()
        summary = report.summarize(rows)
        kernel_rate = next(
            row["steps_per_sec"]
            for row in rows
            if row["engine"] == "multiset" and row["transitions"] == "kernel"
        )
        assert summary["angluin/n=64"]["multiset"] == kernel_rate


class TestEngineRatioGate:
    def fake_report(self, key, *cells):
        return {
            "summary": {f"pll/n={n}": {key: ratio} for n, ratio in cells}
        }

    def test_passes_when_batch_is_faster(self):
        fake = self.fake_report("batch_vs_multiset", (64, 2.0))
        assert report.check_engine_ratio(fake, "batch", "multiset", 1.0) is None

    def test_fails_when_batch_is_slower(self):
        fake = self.fake_report("batch_vs_multiset", (64, 0.9))
        error = report.check_engine_ratio(fake, "batch", "multiset", 1.0)
        assert error is not None and "0.90x" in error

    def test_grades_the_largest_n(self):
        fake = self.fake_report("batch_vs_multiset", (64, 2.0), (1024, 0.5))
        assert report.check_engine_ratio(fake, "batch", "multiset", 1.0)

    def test_superbatch_passes_and_fails_on_its_ratio(self):
        fake = self.fake_report("superbatch_vs_batch", (262144, 3.0))
        assert report.check_engine_ratio(fake, "superbatch", "batch", 1.0) is None
        error = report.check_engine_ratio(fake, "superbatch", "batch", 5.0)
        assert error is not None and "3.00x" in error

    def test_grades_the_largest_cell_with_both_engines(self):
        fake = self.fake_report(
            "superbatch_vs_batch", (1024, 9.0), (100_000_000, 0.5)
        )
        assert report.check_engine_ratio(fake, "superbatch", "batch", 1.0)

    def test_missing_ratio_is_an_error(self):
        error = report.check_engine_ratio({"summary": {}}, "superbatch", "batch", 1.0)
        assert error is not None and "superbatch_vs_batch" in error


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
            ("batch", "cold-pairs"),
            ("batch", "trials"),
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
                    {"engine": "batch", "mode": "cold-pairs",
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
                    {"engine": "batch", "mode": "cold-pairs",
                     "kernel_vs_cached": 0.7},
                ],
            }
        }
        error = report.check_kernel_speedup(fake, min_ratio=1.0)
        assert error is not None and "batch" in error

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
            report.MIN_BATCH_RATIO,
            report.MIN_SUPERBATCH_RATIO,
            report.MIN_TRIALS_RATIO,
            report.MIN_KERNEL_RATIO,
        ) == (1.0, 1.0, 1.0, 1.0)
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


class TestDeriveCrossovers:
    def test_smallest_n_where_batch_stays_fastest(self):
        record = {
            "results": rows(
                (1024, {"agent": 500.0, "multiset": 200.0, "batch": 100.0}),
                (65536, {"agent": 500.0, "multiset": 200.0, "batch": 800.0}),
                (1_000_000, {"agent": 400.0, "multiset": 200.0, "batch": 1600.0}),
            )
        }
        assert report.derive_crossovers(record)[0] == 65536

    def test_batch_win_must_hold_at_every_larger_n(self):
        # A win at mid n that collapses at large n does not move the
        # threshold down: auto must not route big sweeps to a loser.
        record = {
            "results": rows(
                (1024, {"agent": 100.0, "batch": 150.0}),
                (65536, {"agent": 500.0, "batch": 300.0}),
                (1_000_000, {"agent": 400.0, "batch": 1600.0}),
            )
        }
        assert report.derive_crossovers(record)[0] == 1_000_000

    def test_superbatch_rows_do_not_erase_the_batch_regime(self):
        # The batch crossover grades batch against the per-interaction
        # engines only: superbatch out-running batch at the top of the
        # grid must not push the batch threshold upward.
        record = {
            "results": rows(
                (1024, {"agent": 500.0, "batch": 100.0, "superbatch": 50.0}),
                (65536, {"agent": 300.0, "batch": 800.0, "superbatch": 700.0}),
                (1_000_000, {"agent": 200.0, "batch": 900.0, "superbatch": 5000.0}),
            )
        }
        assert report.derive_crossovers(record) == (65536, 1_000_000)

    def test_quick_reports_derive_nothing(self):
        record = {
            "quick": True,
            "results": rows(
                (16384, {"agent": 100.0, "batch": 800.0, "superbatch": 900.0}),
            ),
        }
        assert report.derive_crossovers(record) == (None, None)

    def test_none_when_batch_never_wins(self):
        record = {"results": rows((1024, {"agent": 500.0, "batch": 100.0}))}
        assert report.derive_crossovers(record) == (None, None)

    def test_none_for_empty_or_alien_reports(self):
        assert report.derive_crossovers({}) == (None, None)
        alien = {"results": [{"protocol": "angluin"}]}
        assert report.derive_crossovers(alien) == (None, None)

    def test_ignores_malformed_rows(self):
        record = {
            "results": rows((65536, {"agent": 100.0, "batch": 800.0}))
            + [
                {"engine": "batch", "protocol": "pll", "n": "not-a-number"},
                {"engine": "agent", "protocol": "pll", "n": 65536},
                {"engine": None, "protocol": "pll", "n": 65536,
                 "steps_per_sec": 1e9},
            ]
        }
        assert report.derive_crossovers(record)[0] == 65536

    def test_kernel_rows_win_over_cached_rows(self):
        # auto builds the kernel path, so its rate is the one graded.
        record = {
            "results": [
                {"engine": "multiset", "protocol": "pll", "n": 65536,
                 "transitions": "kernel", "steps_per_sec": 900.0},
                {"engine": "multiset", "protocol": "pll", "n": 65536,
                 "transitions": "cached", "steps_per_sec": 100.0},
                {"engine": "batch", "protocol": "pll", "n": 65536,
                 "transitions": "cached", "steps_per_sec": 500.0},
            ]
        }
        assert report.derive_crossovers(record)[0] is None

    def test_superbatch_must_beat_every_other_engine(self):
        # Beating batch alone is not enough: a cell where the multiset
        # engine still wins keeps the threshold above it.
        record = {
            "results": rows(
                (65536, {"multiset": 900.0, "batch": 800.0, "superbatch": 850.0}),
                (1_000_000, {"multiset": 700.0, "batch": 1400.0, "superbatch": 3000.0}),
            )
        }
        assert report.derive_crossovers(record)[1] == 1_000_000

    def test_none_without_superbatch_rows(self):
        record = {"results": rows((1_000_000, {"agent": 1.0, "batch": 2.0}))}
        assert report.derive_crossovers(record)[1] is None

    def test_noise_level_wins_do_not_extend_the_regime(self):
        # Engine resolution feeds spec content hashes: a 2% win at one
        # grid size must not re-route that size; only wins clearing the
        # SUPERBATCH_WIN_MARGIN (1.1x) move the boundary down.
        record = {
            "results": rows(
                (65536, {"batch": 944.0, "superbatch": 963.0}),
                (1_000_000, {"batch": 1845.0, "superbatch": 4160.0}),
            )
        }
        assert report.SUPERBATCH_WIN_MARGIN == 1.1
        assert report.derive_crossovers(record)[1] == 1_000_000


class TestCommittedRecord:
    def committed(self):
        return json.loads((REPO_ROOT / "BENCH_engine.json").read_text())

    def test_committed_record_derives_autos_constants(self):
        # The constants auto resolves engines with are code; the
        # committed full-grid record must still measure them.
        assert report.derive_crossovers(self.committed()) == (
            spec.BATCH_ENGINE_MIN_N,
            spec.SUPERBATCH_ENGINE_MIN_N,
        )
        assert report.check_crossovers(self.committed()) is None

    def test_gate_fails_when_the_record_disagrees(self):
        record = self.committed()
        for row in record["results"]:
            if row["engine"] == "superbatch":
                row["steps_per_sec"] = 1.0
        error = report.check_crossovers(record)
        assert error is not None and "(65536, None)" in error

    def test_gate_skips_quick_records(self, capsys):
        assert report.check_crossovers({"quick": True, "results": []}) is None
        assert "skipped" in capsys.readouterr().out


class TestEndToEnd:
    def test_quick_check_writes_every_section_and_runs_every_gate(
        self, tmp_path, monkeypatch, capsys, tiny_overhead_cell
    ):
        # Shrink every cell so the smoke test stays in tier-1 budget.
        monkeypatch.setattr(report, "QUICK_GRID", (("pll", (64,)),))
        monkeypatch.setattr(report, "QUICK_STEPS", 2000)
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
        for name in ("MIN_BATCH_RATIO", "MIN_SUPERBATCH_RATIO",
                     "MIN_TRIALS_RATIO", "MIN_KERNEL_RATIO"):
            monkeypatch.setattr(report, name, 0.0)
        monkeypatch.setattr(
            report,
            "OVERHEAD_GATES",
            tuple((s, v, math.inf) for s, v, _ in report.OVERHEAD_GATES),
        )
        out = tmp_path / "BENCH_engine.json"
        assert report.main(["--quick", "--check", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench-engine/9"
        assert payload["quick"] is True
        assert {
            "results", "summary", "steps_per_cell", "trials", "kernel",
            "telemetry", "faults", "schedulers",
        } <= set(payload)
        engines = {row["engine"] for row in payload["results"]}
        assert engines == {"agent", "multiset", "batch", "superbatch"}
        # Kernel-compiled cells carry both transition paths.
        paths = {(row["engine"], row["transitions"]) for row in payload["results"]}
        assert ("multiset", "kernel") in paths and ("multiset", "cached") in paths
        assert payload["telemetry"]["on_overhead_ratio"] > 0
        assert payload["telemetry"]["trace_overhead_ratio"] > 0
        assert payload["faults"]["faulted_overhead_ratio"] > 0
        assert payload["schedulers"]["weighted_overhead_ratio"] > 0
        assert payload["trials"]["ensemble_vs_serial"] > 0
        assert payload["kernel"]["results"]
        stdout = capsys.readouterr().out
        assert stdout.count("check ok:") == 8
        assert "check skipped: crossovers" in stdout

    def test_check_fails_on_a_missed_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(report, "MIN_TRIALS_RATIO", math.inf)
        fake = {"quick": True, "summary": {}, "trials": {
            "cell": {}, "ensemble_vs_serial": 2.0}}
        errors = report.run_checks(fake)
        assert any("ensemble is 2.00x" in error for error in errors)
        assert any("no kernel section" in error for error in errors)
