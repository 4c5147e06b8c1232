"""Shared configuration for the paper-reproduction benchmarks.

``bench_experiments.py`` runs every experiment of ``repro.bench`` at full
size, each regenerating one table or figure of the evaluation.  Run them
with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the reproduced tables/series; each experiment also
writes its data to ``results/<name>.json``.
"""

from __future__ import annotations

from pathlib import Path

import pytest


def pytest_configure(config):
    # The experiments are end-to-end simulations, not micro-benchmarks; one
    # round each is what we want from pytest-benchmark.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False


def pytest_sessionfinish(session, exitstatus):
    # Normalise everything this run wrote under results/ into the unified
    # bench-summary schema (git SHA + flattened headline metrics), so the
    # perf trajectory accumulates one comparable record per benchmark run.
    # See repro.bench.regression for the schema and the baseline diff.
    results = Path("results")
    if not results.is_dir():
        return
    from repro.bench.regression import summary_from_results_dir, write_summary

    summary = summary_from_results_dir(str(results))
    if summary.get("benches"):
        write_summary(summary, str(results / "BENCH_summary.json"))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
