"""Correctness checks, inputs and counters of the benchmark."""

import json
import os

import counters
import run
import workloads


def test_tampered_cli_digest_counts_as_failure():
    golden = workloads.load_cli_golden()
    case = "log-zetaQ"
    good = golden[case]["stdout_sha256"]
    assert workloads.cli_failure(case, 0, good, golden) is None
    tampered = {**golden, case: {"exit": 0, "stdout_sha256": "0" * 64}}
    assert workloads.cli_failure(case, 0, good, tampered) is not None
    assert workloads.cli_failure(case, 1, good, golden) is not None
    assert workloads.cli_failure("verify-integrality-type1-3", 0, golden["verify-integrality-type1-3"]["stdout_sha256"], golden)


def test_tampered_warm_digest_counts_as_failure():
    import qshuffle

    session = workloads.WarmSession(qshuffle)
    stream = workloads.warm_stream(seed=7, count=30)
    results = [session.run(session.prepare(table, key)) for table, key in stream]
    golden = workloads.load_warm_golden()
    assert workloads.warm_failures(session, stream, results, golden) == 0

    tampered = dict(golden)
    first = stream[0]
    tampered[first] = "ffffffff" if golden[first] != "ffffffff" else "00000000"
    hits = sum(1 for query in stream if query == first)
    assert workloads.warm_failures(session, stream, results, tampered) == hits

    failed = object()
    assert workloads.warm_failures(session, stream, [failed] + results[1:], golden, failed) == 1


def test_warm_golden_covers_every_query_table():
    golden = workloads.load_warm_golden()
    for table in workloads.WARM_TABLES:
        assert all((table, key) in golden for key in workloads.table_keys(table))


def test_inputs_have_the_stated_sizes():
    assert len(workloads.NONEMPTY) == 1023
    assert len(workloads.PAIRS) == 4097
    graphs, posets = workloads.sweep_inputs()
    assert len(graphs) == 1100
    assert len(posets) == 4474
    assert workloads.warm_stream(5, 50) == workloads.warm_stream(5, 50)
    assert workloads.warm_stream(5, 50) != workloads.warm_stream(6, 50)


def test_missing_counters_are_absent_not_raised():
    table = {
        "present": ("len", [("elements", "_antipode_cache")]),
        "renamed": ("misses", [("compositions", "_no_such_table")]),
        "gone_module": ("hits", [("no_such_module", "_cache")]),
        "partly": ("misses", [("demos", "_graph_coproduct"), ("demos", "_no_such_table")]),
    }
    values = counters.read(counters=table)
    assert isinstance(values["present"], int)
    assert values["renamed"] is None
    assert values["gone_module"] is None
    assert isinstance(values["partly"], int)


def test_counter_delta_keeps_sizes_and_differences_hits():
    before = {"compositions.shuffle_hits": 5, "elements.antipode_memo": 3}
    after = {"compositions.shuffle_hits": 9, "elements.antipode_memo": 4, "demos.coloring_misses": None}
    assert counters.delta(before, after) == {
        "compositions.shuffle_hits": 4,
        "elements.antipode_memo": 4,
        "demos.coloring_misses": None,
    }


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(run.HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
