"""qshuffle benchmark: the batch CLI at its degree cap, the demo sweep, and a warm library session.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 perfbench/run.py --workload cli-cap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one summary each

Workloads (one process at a time; every measured process is fresh, so its
caches start cold, as a CLI user's do):

* ``cli-cap``: fifteen ``python -m qshuffle.cli`` invocations near the
  degree cap of 10, one process each.  The algebra kernel (compositions,
  elements, characters, functionals) does most of the work.
* ``demo-sweep``: every labelled graph on at most 5 vertices through the
  two-way chromatic check (type1 and type2), then every labelled poset on
  at most 5 elements through the eta check, in one process.  The demos
  layer and the universal evaluator do most of the work.
* ``warm-session``: a seeded stream of library queries over compositions of
  size at most 10, run once to fill the caches and then timed query by
  query.  The same layers as cli-cap, read from their memos.

With ``--trace 0`` the end-to-end metrics are measured: set-up time
(interpreter start plus ``import qshuffle``, median of several; for
warm-session plus its cache-filling pass), the wall time of the op list
and the per-op median latency (median over the passes that fit in
``--seconds``; an op is an invocation for cli-cap, a graph or poset for
demo-sweep, a query for warm-session) and peak RSS; the per-op p99 is
printed alongside.  Every timed process is paced (``pace.py``), and its
times are reported at nominal host speed.  With ``--trace 1`` one untraced
and one traced pass give per-layer self time and calls, cache counters and
the tracing overhead.  Every output is checked (golden digests, or the two
ways of the demo checks); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile

import counters
import pace as pacing
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PACE = os.path.join(HERE, "pace.py")
OUT_DIR = ".perfbench_out"
WORKLOADS = ("cli-cap", "demo-sweep", "warm-session")
HASH_SEED = "0"
SETUP_REPEATS = 11
CHILD_TIMEOUT = 170

# the end-to-end metrics of BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
# printed in the summary but not in the result: on cli-cap the p99 is the
# single slowest invocation, whose run-to-run spread is wider than any bound
REPORTED = (("op_p99_ms", "ms"),)
PER_LAYER = (
    tuple((f"{layer}.{stat}", unit) for layer in tracing.LAYERS for stat, unit in (("self_s", "s"), ("calls", "count")))
    + (("harness.self_s", "s"), ("traced.wall_s", "s"), ("trace_overhead", "ratio"))
    + tuple((name, "count") for name in counters.COUNTERS)
    + tuple((f"cli.{case}_s", "s") for case, _, _ in workloads.CLI_CASES)
)


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def spawn(argv, env, out_dir) -> tuple[subprocess.CompletedProcess | None, float]:
    """Run one process to its end; its outcome (None on timeout) and wall time.

    Its stdout and stderr go to files, not pipes: a paced process takes a
    timer signal every few ms, and a signal that interrupts a large write to
    a pipe can cut the output short.  The end is waited for on a pidfd, so
    the wall time is not rounded up to a polling interval.
    """
    with tempfile.TemporaryFile(dir=out_dir) as out, tempfile.TemporaryFile(dir=out_dir) as err:
        start = pacing.clock()
        with subprocess.Popen(argv, env=env, stdout=out, stderr=err) as proc:
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ended, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT)
                    wall = pacing.clock() - start
                finally:
                    os.close(pidfd)
            finally:
                if proc.poll() is None:  # timed out, or the benchmark is stopping
                    proc.kill()
        if not ended:
            return None, wall
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(argv, proc.returncode, out.read(), err.read()), wall


def spawn_paced(args, env, out_dir) -> tuple[subprocess.CompletedProcess | None, float, float]:
    """Run ``python <args>`` paced; its outcome, wall time less the probes, and wall time at nominal speed."""
    fd, samples = tempfile.mkstemp(suffix=".pace", dir=out_dir)
    os.close(fd)
    start = pacing.clock()
    proc, wall = spawn([sys.executable, PACE, samples, *args], env, out_dir)
    try:
        scaler = pacing.Pace.load(samples).scaler()
    except (OSError, ValueError):
        # no samples: the process died before it wrote them, and counts as failed
        return proc, wall, wall
    finally:
        os.remove(samples)
    return proc, wall - scaler.probe_time(start, start + wall), scaler.scale(start, start + wall)


def run_child(mode: str, out_dir: str, env, args=(), spans=False) -> tuple[dict, str | None, float]:
    """Start child.py in a fresh interpreter; its JSON result, span file and wall time."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=out_dir)
    os.close(fd)
    argv = [sys.executable, CHILD, mode, "--out", out, *map(str, args)]
    span_path = None
    if spans:
        span_path = out[: -len(".json")] + ".spans"
        argv += ["--spans", span_path]
    proc, wall = spawn(argv, env, out_dir)
    if proc is None or proc.returncode != 0:
        tail = "timed out" if proc is None else proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"child {mode} failed: {tail}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), span_path, wall


def measure_setup(env, out_dir) -> list[float]:
    """Fresh interpreter plus ``import qshuffle`` at nominal speed, after one untimed import compiles the bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc, _, scaled = spawn_paced(["-c", "import qshuffle"], env, out_dir)
        if proc is None or proc.returncode != 0:
            raise BenchError("cannot import qshuffle from src/: " + ("" if proc is None else proc.stderr.decode()[-2000:]))
        if i:
            times.append(scaled)
    return times


def layer_metrics(span_files, traced_wall: float, overhead: float) -> dict:
    """Per-layer self time and calls summed over span files, plus the trace totals."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for path in span_files:
        t, c = tracing.self_times(*tracing.load(path))
        for layer, value in t.items():
            totals[layer] = totals.get(layer, 0.0) + value
        for layer, value in c.items():
            calls[layer] = calls.get(layer, 0) + value
        os.remove(path)
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = totals.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["harness.self_s"] = totals.get(tracing.HARNESS, 0.0)
    out["traced.wall_s"] = traced_wall
    out["trace_overhead"] = overhead
    return out


def add_counters(total: dict, part: dict) -> None:
    """Sum counters over processes; a counter absent everywhere stays None."""
    for name, value in part.items():
        if value is not None:
            total[name] = (total.get(name) or 0) + value
        else:
            total.setdefault(name, None)


# -- workloads -----------------------------------------------------------


def cli_pass(seed: int, env, golden: dict, out_dir) -> dict:
    """Every cli-cap invocation once, each in a fresh paced ``python -m qshuffle.cli``.

    ``walls`` are at nominal host speed, ``raw_walls`` as measured, less the probes.
    """
    walls, raw_walls, failures = {}, {}, []
    for case, argv, _ in workloads.cli_order(seed):
        proc, raw_walls[case], walls[case] = spawn_paced(["-m", "qshuffle.cli", *argv], env, out_dir)
        if proc is None:
            failures.append(f"{case}: timed out")
            continue
        why = workloads.cli_failure(case, proc.returncode, workloads.sha256_bytes(proc.stdout), golden)
        if why:
            failures.append(why)
    return {"walls": walls, "raw_walls": raw_walls, "failures": failures}


def run_cli_cap(args, env, out_dir) -> dict:
    golden = workloads.load_cli_golden()
    if args.trace:
        plain = cli_pass(args.seed, env, golden, out_dir)
        failures = list(plain["failures"])
        spans, traced_wall, traced_process_wall, layer_counters = [], 0.0, 0.0, {}
        for case, _, _ in workloads.cli_order(args.seed):
            result, span_path, wall = run_child("cli", out_dir, env, ["--case", case], spans=True)
            spans.append(span_path)
            traced_wall += result["passes"][0]["wall"]
            traced_process_wall += wall
            add_counters(layer_counters, result["counters"])
            why = workloads.cli_failure(case, result["exit"], result["stdout_sha256"], golden)
            if why:
                failures.append(why)
        metrics = layer_metrics(spans, traced_wall, traced_process_wall / sum(plain["raw_walls"].values()))
        metrics.update(layer_counters)
        for case, wall in plain["walls"].items():
            metrics[f"cli.{case}_s"] = wall
        n = 2 * len(workloads.CLI_CASES)
        return {"attempted": n, "failed": len(failures), "errors": failures, "layers": metrics}

    setup = measure_setup(env, out_dir)
    passes, failures = [], []
    start = pacing.clock()
    while workloads.another_pass(len(passes), pacing.clock() - start, args.seconds):
        one = cli_pass(args.seed, env, golden, out_dir)
        passes.append(
            {
                "wall": sum(one["walls"].values()),
                "op_ms": [w * 1000 for w in one["walls"].values()],
                "raw_wall": sum(one["raw_walls"].values()),
            }
        )
        failures += one["failures"]
    return {
        "attempted": sum(len(p["op_ms"]) for p in passes),
        "failed": len(failures),
        "errors": failures,
        "setup": setup,
        "passes": passes,
    }


def run_demo_sweep(args, env, out_dir) -> dict:
    child_args = ["--size", args.size]
    if args.trace:
        plain, _, _ = run_child("demo-sweep", out_dir, env, child_args)
        traced, span_path, _ = run_child("demo-sweep", out_dir, env, child_args, spans=True)
        plain_wall, traced_wall = plain["passes"][0]["wall"], traced["passes"][0]["wall"]
        metrics = layer_metrics([span_path], traced_wall, traced_wall / plain_wall)
        metrics.update(traced["counters"])
        return {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "errors": plain["errors"] + traced["errors"],
            "layers": metrics,
        }

    setup = measure_setup(env, out_dir)
    passes, attempted, failed, errors = [], 0, 0, []
    start = pacing.clock()
    while workloads.another_pass(len(passes), pacing.clock() - start, args.seconds):
        result, _, _ = run_child("demo-sweep", out_dir, env, child_args)
        passes += result["passes"]
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]
    return {"attempted": attempted, "failed": failed, "errors": errors, "setup": setup, "passes": passes}


def run_warm_session(args, env, out_dir) -> dict:
    child_args = ["--seed", args.seed, "--queries", args.queries, "--seconds", args.seconds]
    if args.trace:
        result, span_path, _ = run_child("warm-session", out_dir, env, child_args, spans=True)
        traced_wall = result["traced"]["wall"]
        metrics = layer_metrics([span_path], traced_wall, traced_wall / result["passes"][0]["wall"])
        metrics.update(result["counters"])
        return {"attempted": result["attempted"], "failed": result["failed"], "errors": result["errors"], "layers": metrics}

    setup = measure_setup(env, out_dir)
    result, _, _ = run_child("warm-session", out_dir, env, child_args)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        # a session pays its cache-filling pass before its first warm answer
        "setup": [s + result["warmup_s"] for s in setup],
        "warmup_s": result["warmup_s"],
        "passes": result["passes"],
    }


RUNNERS = {"cli-cap": run_cli_cap, "demo-sweep": run_demo_sweep, "warm-session": run_warm_session}


# -- reporting -----------------------------------------------------------


def end_to_end(raw: dict) -> dict:
    """The end-to-end metrics of one run: timings at nominal host speed, medians over the passes."""
    passes = raw["passes"]
    return {
        "setup_s": statistics.median(raw["setup"]),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": statistics.median(statistics.median(p["op_ms"]) for p in passes),
        "op_p99_ms": statistics.median(percentile(p["op_ms"], 99) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def describe(workload: str, raw: dict, metrics: dict, trace: bool) -> list[str]:
    """Human-readable lines: each metric with its unit and sample count."""
    spec = PER_LAYER if trace else END_TO_END
    lines = [f"== {workload}"]
    if trace:
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + metrics["harness.self_s"]
        lines.append(f"   layer self times + harness.self_s = {layer_sum:.4f} s against traced.wall_s {metrics['traced.wall_s']:.4f} s")
        absent = [name for name in counters.COUNTERS if raw["layers"].get(name) is None]
        if absent:
            lines.append(f"   absent counters (reported as 0): {', '.join(absent)}")
        notes = {}
    else:
        ops = len(raw["passes"][0]["op_ms"])
        passes = f"median of {len(raw['passes'])} passes of {ops} ops"
        measured = statistics.median(p["raw_wall"] for p in raw["passes"])
        lines.append(f"   timings at nominal host speed; the passes took {measured:.4g} s as measured (median)")
        notes = {
            "setup_s": f"median of {len(raw['setup'])} set-ups" + (" plus the cache-filling pass" if "warmup_s" in raw else ""),
            "wall_s": passes,
            "op_p50_ms": passes,
            "op_p99_ms": passes + ", nearest rank",
            "peak_rss_mb": "max over processes",
        }
    for name, unit in spec + (() if trace else REPORTED):
        note = f"  ({notes[name]})" if name in notes else ""
        value = metrics[name]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        lines.append(f"   {name:<44} {shown} {unit}{note}")
    ratio = raw["failed"] / raw["attempted"]
    lines.append(f"   {'fail_ratio':<44} {ratio:>14.6g} ratio  ({raw['failed']} of {raw['attempted']} ops)")
    for why in raw["errors"][:5]:
        lines.append(f"   failure: {why}")
    return lines


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else unknown."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def run_workload(args) -> int:
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        raw = RUNNERS[args.workload](args, env, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    spec = PER_LAYER if args.trace else END_TO_END
    measured = raw["layers"] if args.trace else end_to_end(raw)
    # a counter whose memo no longer exists is None: named by describe(), reported as 0
    metrics = {name: measured.get(name) or 0 for name, _ in spec + (() if args.trace else REPORTED)}
    print("\n".join(describe(args.workload, raw, metrics, args.trace)))
    print("env " + json.dumps(environment(args.seed)))
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS stays per workload."""
    common = ["--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace, "--queries", args.queries, "--size", args.size]
    for workload in WORKLOADS:
        code = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload, *map(str, common)], check=False).returncode
        if code:
            return code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--queries", type=int, default=workloads.WARM_QUERIES, help="warm-session stream length")
    parser.add_argument("--size", type=int, default=workloads.SWEEP_SIZE, help="demo-sweep maximum graph and poset size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qshuffle", "__init__.py")):
        print("error: run from the root of a qshuffle checkout (src/qshuffle is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
