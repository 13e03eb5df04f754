"""Reduced-size runs of every workload, untraced and traced, end to end."""

import json

import pytest

import run
import workloads

# cheap cli-cap cases, including the one whose correct exit code is 2
CHEAP_CASES = ("verify-integrality-type1-3", "theta-1x10", "demo-poset-6")
REDUCED = {
    "cli-cap": [],
    "demo-sweep": ["--size", "3"],
    "warm-session": ["--queries", "150"],
}


@pytest.fixture
def cheap_cli(monkeypatch):
    monkeypatch.setattr(workloads, "CLI_CASES", tuple(c for c in workloads.CLI_CASES if c[0] in CHEAP_CASES))


def bench(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)] + REDUCED[workload]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_is_correct_and_reports_every_metric(capsys, cheap_cli, workload):
    text, result = bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the six end-to-end metrics of the summary: four gated, p99 and fail_ratio reported
    for name in [name for name, _ in run.END_TO_END + run.REPORTED] + ["fail_ratio"]:
        assert any(line.split()[:1] == [name] for line in text), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_traced_run_adds_up(capsys, cheap_cli, workload):
    text, result = bench(capsys, workload, trace=1)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in run.tracing.LAYERS) + metrics["harness.self_s"]
    assert layer_sum == pytest.approx(metrics["traced.wall_s"], rel=0.02)
    assert metrics["trace_overhead"] > 0
    if workload == "warm-session":
        assert metrics["demos.self_s"] == 0
    if workload == "cli-cap":
        assert all(metrics[f"cli.{case}_s"] > 0 for case in CHEAP_CASES)


def test_without_the_program_it_fails_without_a_result(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "demo-sweep", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
