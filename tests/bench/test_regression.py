"""Tests for the bench-regression gate: the quick suite against its baseline."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.bench import regression

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_summary.json"
)


def committed_baseline():
    return json.loads(BASELINE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One run of the real suite, with telemetry written as CI writes it."""
    telemetry = tmp_path_factory.mktemp("quick") / "telemetry_quick.json"
    return regression.run_quick_suite(telemetry_path=str(telemetry)), telemetry


def test_quick_suite_reproduces_the_committed_baseline(quick_run):
    # Simulated time and seeded RNG: on unchanged code every number repeats
    # bit for bit, so the only accepted difference is none.
    summary, _ = quick_run
    differences = regression.diff(summary, committed_baseline())
    assert differences == [], "\n".join(differences)


def test_quick_suite_writes_its_telemetry_artifact(quick_run):
    summary, telemetry = quick_run
    artifact = json.loads(telemetry.read_text(encoding="utf-8"))
    assert artifact["schema"] == "fleet-telemetry/v1"
    assert float(artifact["scrapes"]) == (
        summary["benches"]["quick_serving"]["telemetry_scrapes"]
    )


def test_quick_suite_reports_only_floats(quick_run):
    # Every metric is a float, so a written baseline reads back as the same
    # type and an int/float or bool/float pair can never mask a change.
    summary, _ = quick_run
    for metrics in summary["benches"].values():
        assert {type(value) for value in metrics.values()} == {float}


class TestCommittedBaseline:
    def test_holds_schema_and_the_four_benches_only(self):
        baseline = committed_baseline()
        assert set(baseline) == {"schema", "benches"}
        assert baseline["schema"] == regression.SCHEMA
        assert set(baseline["benches"]) == {
            "quick_query",
            "quick_serving",
            "quick_storage",
            "quick_chaos",
        }

    def test_every_value_is_a_finite_float(self):
        # A NaN never equals itself, so one would fail the gate forever.
        for metrics in committed_baseline()["benches"].values():
            for value in metrics.values():
                assert type(value) is float and math.isfinite(value)

    def test_rewriting_it_changes_no_byte(self, tmp_path, monkeypatch):
        # Re-baselining unchanged numbers must not churn the committed file.
        monkeypatch.setattr(
            regression, "run_quick_suite", lambda telemetry_path=None: committed_baseline()
        )
        path = tmp_path / "baseline.json"
        assert regression.main(["--write-baseline", str(path)]) == 0
        assert path.read_bytes() == BASELINE.read_bytes()


def summary_of(benches, schema=regression.SCHEMA):
    return {"schema": schema, "benches": benches}


class TestDiff:
    def test_equal_summaries_have_no_difference(self):
        summary = summary_of({"b": {"p99_ms": 10.0, "runs": 50.0}})
        assert regression.diff(summary, copy.deepcopy(summary)) == []

    def test_a_schema_change_is_a_difference(self):
        current = summary_of({"b": {"p99_ms": 10.0}})
        baseline = summary_of({"b": {"p99_ms": 10.0}}, schema="bench-summary/v0")
        assert regression.diff(current, baseline) == [
            "schema: baseline bench-summary/v0, current bench-summary/v1"
        ]

    def test_a_missing_bench_lists_each_of_its_metrics(self):
        current = summary_of({})
        baseline = summary_of({"gone": {"p99_ms": 1.5, "runs": 2.0}})
        assert regression.diff(current, baseline) == [
            "gone.p99_ms: baseline 1.5, current absent",
            "gone.runs: baseline 2.0, current absent",
        ]

    def test_a_new_metric_is_a_difference(self):
        current = summary_of({"b": {"p99_ms": 10.0, "fresh": 3.0}})
        baseline = summary_of({"b": {"p99_ms": 10.0}})
        assert regression.diff(current, baseline) == [
            "b.fresh: baseline absent, current 3.0"
        ]

    def test_an_improvement_is_a_difference_too(self):
        current = summary_of({"b": {"p99_ms": 1.0}})
        baseline = summary_of({"b": {"p99_ms": 10.0}})
        assert regression.diff(current, baseline) == [
            "b.p99_ms: baseline 10.0, current 1.0"
        ]

    def test_differences_are_sorted_by_name(self):
        current = summary_of({"z": {"a": 1.0}, "a": {"z": 1.0, "b": 1.0}})
        baseline = summary_of({"z": {"a": 2.0}, "a": {"z": 2.0, "b": 2.0}})
        names = [line.split(":")[0] for line in regression.diff(current, baseline)]
        assert names == ["a.b", "a.z", "z.a"]

    def test_a_json_round_trip_is_exact(self):
        # The gate compares a live run against a JSON file, so every float
        # must survive being written and read back to the last bit.
        awkward = [0.1 + 0.2, 5e-324, 1e308, math.nextafter(1.6, math.inf), -0.0]
        summary = summary_of({"b": {str(i): v for i, v in enumerate(awkward)}})
        written = json.dumps(summary, indent=2, sort_keys=True)
        assert regression.diff(summary, json.loads(written)) == []


SUMMARY = {
    "schema": regression.SCHEMA,
    "benches": {
        "quick_query": {"mean_latency_ms": 4.272902630721568, "runs": 50.0},
        "quick_serving": {"p99_ms": 83.16462159618432},
    },
}


def one_ulp_up(benches):
    benches["quick_query"]["mean_latency_ms"] = math.nextafter(
        benches["quick_query"]["mean_latency_ms"], math.inf
    )


def drop_metric(benches):
    del benches["quick_serving"]["p99_ms"]


def add_bench(benches):
    benches["quick_extra"] = {"runs": 1.0}


class TestCli:
    """The CI contract, over a stubbed suite: exit 1 on any difference."""

    @pytest.fixture(autouse=True)
    def stub_suite(self, monkeypatch):
        self.telemetry_paths = []

        def suite(telemetry_path=None):
            self.telemetry_paths.append(telemetry_path)
            return copy.deepcopy(SUMMARY)

        monkeypatch.setattr(regression, "run_quick_suite", suite)

    def test_identical_baseline_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "baseline.json")
        telemetry = str(tmp_path / "telemetry.json")
        assert regression.main(["--write-baseline", path]) == 0
        assert json.loads(Path(path).read_text(encoding="utf-8")) == SUMMARY
        assert regression.main(["--baseline", path, "--telemetry-out", telemetry]) == 0
        assert "ok: every metric equals" in capsys.readouterr().out
        assert self.telemetry_paths == [None, telemetry]

    @pytest.mark.parametrize(
        "edit, named",
        [
            (one_ulp_up, "quick_query.mean_latency_ms"),
            (drop_metric, "quick_serving.p99_ms"),
            (add_bench, "quick_extra.runs"),
        ],
    )
    def test_any_difference_exits_one_and_names_it(
        self, tmp_path, capsys, edit, named
    ):
        baseline = copy.deepcopy(SUMMARY)
        edit(baseline["benches"])
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert regression.main(["--baseline", str(path)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"{named}: baseline ")

    def test_one_ulp_is_printed_with_both_values(self, tmp_path, capsys):
        baseline = copy.deepcopy(SUMMARY)
        one_ulp_up(baseline["benches"])
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert regression.main(["--baseline", str(path)]) == 1
        assert capsys.readouterr().out == (
            "quick_query.mean_latency_ms: baseline 4.2729026307215685, "
            "current 4.272902630721568\n"
        )

    def test_every_difference_gets_its_own_line(self, tmp_path, capsys):
        baseline = copy.deepcopy(SUMMARY)
        for edit in (one_ulp_up, drop_metric, add_bench):
            edit(baseline["benches"])
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert regression.main(["--baseline", str(path)]) == 1
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert names == [
            "quick_extra.runs",
            "quick_query.mean_latency_ms",
            "quick_serving.p99_ms",
        ]

    def test_write_baseline_forwards_the_telemetry_path(self, tmp_path):
        telemetry = str(tmp_path / "telemetry.json")
        path = str(tmp_path / "baseline.json")
        assert regression.main(
            ["--write-baseline", path, "--telemetry-out", telemetry]
        ) == 0
        assert self.telemetry_paths == [telemetry]

    def test_a_mode_is_required(self):
        with pytest.raises(SystemExit):
            regression.main([])

    def test_the_two_modes_exclude_each_other(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        with pytest.raises(SystemExit):
            regression.main(["--baseline", path, "--write-baseline", path])
        assert self.telemetry_paths == []
