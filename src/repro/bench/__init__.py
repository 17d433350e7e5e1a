"""Benchmark harnesses importable as part of the package.

:mod:`repro.bench.report` is the machine-readable engine benchmark
(the producer of ``BENCH_engine.json``); ``repro bench`` runs it from
the CLI.
"""

__all__ = ["report"]
