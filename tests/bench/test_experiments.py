"""The experiment harness itself: registry, runner, and claim checks.

Every registered experiment runs once at quick size through the one runner
(``repro.bench.experiment.run_experiment``) in a scratch directory, then:
its payload must be JSON, the run must have written only ``*.quick.json``
files — never a committed results name — and a result doctored to
contradict a headline claim must make ``check`` raise naming that claim.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
from pathlib import Path

import pytest

from repro.bench import operator_fusion
from repro.bench.__main__ import main
from repro.bench.experiment import (
    ClaimViolated,
    Experiment,
    claim,
    experiments,
    run_experiment,
)

EXPERIMENTS = experiments()
REPO = Path(__file__).resolve().parents[2]


def _set(target, **fields):
    for name, value in fields.items():
        setattr(target, name, value)


#: name -> (doctor the result in place, a fragment of the claim that must fail).
DOCTORED = {
    "ablation_datastop": (
        lambda r: _set(r, index_entries=0), "maintains an extra index"),
    "chaos_soak": (
        lambda r: next(iter(r.values())).arms["resilient"].audit.update(lost=1),
        "no_lost_writes"),
    "failover_slo": (
        lambda r: r.audit.update(lost=3), "no acknowledged write is lost"),
    "fig10_11_scadr_scaling": (
        lambda r: _set(r.points[-1], p99_latency_ms=1e6),
        "latency is independent of scale"),
    "fig12_executors": (
        lambda r: _set(r[0], p99_latency_ms=0.0), "Parallel beats Simple beats Lazy"),
    "fig1_scaling_classes": (
        lambda r: r.accepted_by_piql.update(class3_users_by_hometown=True),
        "admits exactly the class I and II"),
    "fig6_heatmap": (
        lambda r: r.cells_seconds[0].__setitem__(0, 9.0), "slower than the smallest"),
    "fig7_intersection": (
        lambda r: _set(r.points[1], bounded_operations=51), "within its bound of 50"),
    "fig8_9_tpcw_scaling": (
        lambda r: _set(r.points[-1], throughput=r.points[0].throughput),
        "grows with every cluster size"),
    "operator_fusion": (
        lambda r: r["simulated"]["micro"]["search_by_author_wi"].update(
            dereference_rounds=1 + 3 * r["config"]["micro_executions"]),
        "2 dereference rounds per execution"),
    "pipelined_interactions": (
        lambda r: r["closed_loop"]["serial"].update(coalesced_reads=1.0),
        "coalescing fires only in the pipelined arm"),
    "serving_slo": (
        lambda r: _set(r.reports["admission"].admission, shed=0), "sheds load"),
    "storage_engine": (
        lambda r: r["recovery"].update(lost=1), "survives crash + recover"),
    "table1_prediction": (lambda r: r.pop(), "sixteen read queries"),
    "trace_smoke": (
        lambda r: r["summary"].update(bound_violations=1),
        "exceeded its static bound"),
    "view_maintenance": (
        lambda r: r["correctness"].update(best_sellers_mismatches=1),
        "equal offline recomputation"),
}


def test_registry_matches_the_committed_results():
    assert set(DOCTORED) == set(EXPERIMENTS)
    for name in EXPERIMENTS:
        assert (REPO / "results" / f"{name}.json").is_file(), name
    # No committed summary without an experiment behind it.  What git tracks,
    # not what the directory holds: quick, detail and example outputs are
    # gitignored and may be lying around.
    tracked = subprocess.run(
        ["git", "ls-files", "results"], cwd=REPO, capture_output=True, text=True
    )
    if tracked.returncode == 0 and tracked.stdout:
        assert {Path(line).stem for line in tracked.stdout.splitlines()} == set(
            EXPERIMENTS
        )
    for name, experiment in EXPERIMENTS.items():
        assert experiment.name == name
        for part in ("run", "payload", "check"):
            assert callable(getattr(experiment, part)), (name, part)
        assert experiment.render is None or callable(experiment.render)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_quick_run_checks_saves_quick_files_and_catches_a_doctored_result(
    name, tmp_path, monkeypatch, capsys
):
    experiment = EXPERIMENTS[name]
    monkeypatch.chdir(tmp_path)
    # Tier-1 must not depend on how busy the box is: the two host-clock
    # budgets are the CI smoke's and the benchmarks job's to enforce.
    monkeypatch.setattr(operator_fusion, "QUICK_BUDGET_FACTOR", 1e6)
    # One seed is enough here (and exercises the override the CLI's --seeds uses).
    seeds = [11] if hasattr(experiment.quick, "seeds") else None
    result = run_experiment(experiment, quick=True, seeds=seeds)

    written = sorted(os.listdir(tmp_path / "results"))
    assert f"{name}.quick.json" in written
    assert all(file.endswith(".quick.json") for file in written), written
    saved = json.loads((tmp_path / "results" / f"{name}.quick.json").read_text())
    assert saved == json.loads(json.dumps(experiment.payload(result), default=str))
    assert capsys.readouterr().out.strip()  # the tables were rendered

    experiment.check(result)  # holds as run ...
    doctor, fragment = DOCTORED[name]
    doctor(result)
    with pytest.raises(ClaimViolated) as violated:  # ... and not once doctored
        experiment.check(result)
    assert fragment in violated.value.claim


class TestRunner:
    def _experiment(self, **overrides) -> Experiment:
        fields = dict(
            name="toy",
            config={"size": 10},
            quick={"size": 1},
            run=lambda config: {"simulated": {"size": config["size"]}, "wall": 0.5},
            payload=copy.deepcopy,
            check=lambda result: claim("toy: sizes are positive",
                                       result["simulated"]["size"] > 0),
            render=lambda result: f"size {result['simulated']['size']}",
        )
        fields.update(overrides)
        return Experiment(**fields)

    def test_full_run_writes_the_committed_name(self, tmp_path):
        run_experiment(self._experiment(), directory=str(tmp_path))
        assert os.listdir(tmp_path) == ["toy.json"]

    def test_a_failed_claim_keeps_the_committed_name_but_leaves_the_evidence(
        self, tmp_path, capsys
    ):
        broken = self._experiment(
            run=lambda config: {"simulated": {"size": 0}},
            details=lambda result: {"toy.detail": {"why": "evidence"}},
        )
        with pytest.raises(ClaimViolated, match="sizes are positive"):
            run_experiment(broken, directory=str(tmp_path))
        # Full size: only a passing run may replace the committed summary.
        assert os.listdir(tmp_path) == ["toy.detail.json"]
        assert "size 0" in capsys.readouterr().out  # the tables still render
        with pytest.raises(ClaimViolated, match="sizes are positive"):
            run_experiment(broken, quick=True, directory=str(tmp_path))
        # Quick size: the report of a failing smoke is the one that gets read.
        assert sorted(os.listdir(tmp_path)) == [
            "toy.detail.json", "toy.detail.quick.json", "toy.quick.json",
        ]

    def test_pinned_numbers_must_reproduce_the_committed_file(self, tmp_path):
        pinned = self._experiment(pinned="simulated")
        run_experiment(pinned, directory=str(tmp_path))  # nothing committed yet
        drifted = self._experiment(
            pinned="simulated",
            run=lambda config: {"simulated": {"size": 11}, "wall": 9.9},
        )
        with pytest.raises(ClaimViolated, match="reproduce the committed"):
            run_experiment(drifted, directory=str(tmp_path))
        # The unpinned part (host clock) may move, and quick runs never compare.
        run_experiment(
            self._experiment(
                pinned="simulated",
                run=lambda config: {"simulated": {"size": 10}, "wall": 9.9},
            ),
            directory=str(tmp_path),
        )
        run_experiment(drifted, quick=True, directory=str(tmp_path))

    def test_command_line_reports_the_violated_claim(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig1_scaling_classes", "--quick"]) == 0
        with pytest.raises(SystemExit):  # not an experiment that runs per seed
            main(["fig1_scaling_classes", "--quick", "--seeds", "1,2"])
        monkeypatch.setitem(
            main.__globals__, "run_experiment",
            lambda *args: claim("toy: always fails", False),
        )
        assert main(["fig1_scaling_classes", "--quick"]) == 1
        assert "toy: always fails" in capsys.readouterr().err
