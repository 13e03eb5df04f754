"""One measured process of the benchmark: a demo sweep, a warm session, or a traced CLI call.

run.py starts this script in a fresh interpreter for every measured
process, so each starts with cold caches, as a user's process would.  It
writes one JSON result to ``--out`` and, when ``--spans`` is given, the
layer spans of its traced pass to that path.  Untraced passes are paced
(``pace.py``): their times are reported at nominal host speed.

    python3 perfbench/child.py demo-sweep --out r.json [--spans s.bin] [--size 5]
    python3 perfbench/child.py warm-session --seed 1 --seconds 20 --out r.json [--spans s.bin] [--queries 5000]
    python3 perfbench/child.py cli --case log-zetaQ --out r.json --spans s.bin

The package is imported from ``src/`` of the working directory (run.py
sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource

import counters
import pace as pacing
import tracer as tracing
import workloads

FAILED = object()
MAX_ERRORS_KEPT = 5


def timed_pass(ops, call, tracer=None):
    """Run call on every op, timing each; an op that raises is recorded as failed.

    The record holds the pass's wall time, each op's time in ms and, under
    ``spans``, each op's start and end for pacing.
    """
    clock = pacing.clock
    spans, results, errors = [], [], []
    if tracer is not None:
        tracer.start()
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            result = call(op)
        except Exception as exc:  # a failing op is counted, never fatal
            result = FAILED
            errors.append(repr(exc))
        spans.append((t0, clock()))
        results.append(result)
    wall = clock() - start
    if tracer is not None:
        tracer.stop()
    return {"wall": wall, "op_ms": [(b - a) * 1000 for a, b in spans], "spans": spans}, results, errors


def paced(record, scaler) -> dict:
    """A pass record at nominal host speed: its wall is the sum of its rescaled ops."""
    ops = [scaler.scale(a, b) for a, b in record["spans"]]
    return {"wall": sum(ops), "op_ms": [t * 1000 for t in ops], "raw_wall": record["wall"]}


def unpaced(record) -> dict:
    return {"wall": record["wall"], "op_ms": record["op_ms"]}


def traced(run_pass, spans_path: str):
    """run_pass(tracer) under a freshly installed tracer; spans written to spans_path."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = run_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    return outcome


def demo_sweep(args) -> dict:
    import qshuffle as qs

    graph_inputs, poset_inputs = workloads.sweep_inputs(args.size)
    bases = [qs.builtin(name) for name in workloads.SWEEP_BASES]
    ops = [("graph", qs.SmallGraph(n, edges)) for n, edges in graph_inputs]
    ops += [("poset", qs.SmallPoset(n, rel)) for n, rel in poset_inputs]

    def call(op):
        kind, label = op
        if kind == "graph":
            return [qs.graph_infchar_two_ways(label, f) for f in bases]
        return [qs.eta_check(label)]

    def run_pass(tracer=None):
        return timed_pass(ops, call, tracer)

    before = counters.read()
    if args.spans:
        record, results, errors = traced(run_pass, args.spans)
        record = unpaced(record)
    else:
        pace = pacing.Pace()
        pace.start()
        record, results, errors = run_pass()
        pace.stop()
        record = paced(record, pace.scaler())
    after = counters.read()
    # each op computes its value two independent ways; a failure is any disagreement
    failed = sum(1 for r in results if r is FAILED or any(a != b for a, b in r))
    return {
        "passes": [record],
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:MAX_ERRORS_KEPT],
        "counters": counters.delta(before, after),
    }


def warm_session(args) -> dict:
    import qshuffle as qs

    clock = pacing.clock
    session = workloads.WarmSession(qs)
    stream = workloads.warm_stream(args.seed, args.queries)
    ops = [session.prepare(table, key) for table, key in stream]
    golden = workloads.load_warm_golden()
    attempted = failed = 0
    errors: list[str] = []

    def check(results, pass_errors):
        nonlocal attempted, failed
        attempted += len(results)
        errors.extend(pass_errors)
        failed += workloads.warm_failures(session, stream, results, golden, FAILED)

    def run_pass(tracer=None):
        return timed_pass(ops, session.run, tracer)

    # a traced run is not paced: its timings are compared with each other only
    pace = None if args.spans else pacing.Pace()
    if pace:
        pace.start()
    start = clock()
    _, results, pass_errors = run_pass()
    warmup = (start, clock())
    check(results, pass_errors)

    passes = []
    measure_start = clock()
    while workloads.another_pass(len(passes), clock() - measure_start, 0 if args.spans else args.seconds):
        record, results, pass_errors = run_pass()
        passes.append(record)
        check(results, pass_errors)

    if pace:
        pace.stop()
        scaler = pace.scaler()
        out = {"warmup_s": scaler.scale(*warmup), "passes": [paced(p, scaler) for p in passes]}
    else:
        out = {"warmup_s": warmup[1] - warmup[0], "passes": [unpaced(p) for p in passes]}
    if args.spans:
        before = counters.read()
        record, results, pass_errors = traced(run_pass, args.spans)
        out["counters"] = counters.delta(before, counters.read())
        out["traced"] = unpaced(record)
        check(results, pass_errors)
    out.update(attempted=attempted, failed=failed, errors=errors[:MAX_ERRORS_KEPT])
    return out


def cli_call(args) -> dict:
    import qshuffle.cli as cli

    (argv,) = [argv for name, argv, _ in workloads.CLI_CASES if name == args.case]
    buffer = io.StringIO()

    def run_pass(tracer):
        # cli.run is looked up at call time, after the tracer has wrapped it
        with contextlib.redirect_stdout(buffer):
            record, results, errors = timed_pass([list(argv)], lambda a: cli.run(a), tracer)
        return record, results[0], errors

    before = counters.read()
    record, exit_code, errors = traced(run_pass, args.spans)
    return {
        "passes": [unpaced(record)],
        "exit": None if exit_code is FAILED else exit_code,
        "stdout_sha256": workloads.sha256_text(buffer.getvalue()),
        "errors": errors,
        "counters": counters.delta(before, counters.read()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = {mode: sub.add_parser(mode) for mode in ("demo-sweep", "warm-session", "cli")}
    for s in modes.values():
        s.add_argument("--out", required=True)
        s.add_argument("--spans", default=None)
    modes["demo-sweep"].add_argument("--size", type=int, default=workloads.SWEEP_SIZE)
    modes["warm-session"].add_argument("--seed", type=int, default=1)
    modes["warm-session"].add_argument("--seconds", type=float, default=20.0)
    modes["warm-session"].add_argument("--queries", type=int, default=workloads.WARM_QUERIES)
    modes["cli"].add_argument("--case", required=True)
    args = parser.parse_args(argv)
    run = {"demo-sweep": demo_sweep, "warm-session": warm_session, "cli": cli_call}[args.mode]
    result = run(args)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
