"""Shared configuration for the paper-reproduction benchmarks.

``bench_experiments.py`` runs every experiment of ``repro.bench`` at full
size, each regenerating one table or figure of the evaluation.  Run them
with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the reproduced tables/series; each experiment also
writes its data to ``results/<name>.json``.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # The experiments are end-to-end simulations, not micro-benchmarks; one
    # round each is what we want from pytest-benchmark.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
