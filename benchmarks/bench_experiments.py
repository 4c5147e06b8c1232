"""The experiment suite: every registered experiment, at full size.

One parametrised test instead of a wrapper per experiment.  Each case goes
through the same runner as ``python -m repro.bench <name>``: run, check
every claim (a violated one fails the case, naming the claim), regenerate
``results/<name>.json``, print the tables (``-s`` shows them).
"""

from __future__ import annotations

import pytest

from repro.bench.experiment import experiments, run_experiment

EXPERIMENTS = experiments()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment(name, run_once):
    run_once(run_experiment, EXPERIMENTS[name])
