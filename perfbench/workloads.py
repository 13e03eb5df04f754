"""Inputs, operations and correctness checks of the benchmark workloads.

Every input is generated here from the workload seed with the benchmark's
own enumerations; the library only receives the finished inputs.  Results
are checked against digests recorded from the reference implementation
(``golden/``, written by ``make_golden.py``) or, for the demo sweep,
against the second of two independent computations.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import combinations, product as iter_product

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
CLI_GOLDEN = os.path.join(GOLDEN_DIR, "cli_cap.json")
WARM_GOLDEN = os.path.join(GOLDEN_DIR, "warm_session.json")

MAX_DEGREE = 10
DIGEST_HEX = 8

def another_pass(done: int, elapsed: float, seconds: float) -> bool:
    """Whether to start another pass: always a first one, then only while a
    pass of the mean length so far still ends within ``seconds``."""
    return done == 0 or elapsed * (done + 1) / done <= seconds


# -- cli-cap -------------------------------------------------------------

ONES10 = ",".join(["1"] * 10)
# (case name, argv after ``python -m qshuffle.cli``, expected exit code)
CLI_CASES = (
    ("verify-qps-type2-7", ("verify", "--suite", "qps", "--basis", "type2", "--degree", "7"), 0),
    ("verify-antipode-9", ("verify", "--suite", "antipode", "--degree", "9"), 0),
    ("verify-theta-eigen-9", ("verify", "--suite", "theta-eigen", "--degree", "9"), 0),
    ("verify-fg-roundtrip-type1-10", ("verify", "--suite", "fg-roundtrip", "--basis", "type1", "--degree", "10"), 0),
    ("verify-integrality-combinatorial-10", ("verify", "--suite", "integrality", "--basis", "combinatorial", "--degree", "10"), 0),
    # a known counterexample: exit 2 with a witness is the correct answer
    ("verify-integrality-type1-3", ("verify", "--suite", "integrality", "--basis", "type1", "--degree", "3"), 2),
    ("verify-shuffle-character-type1-9", ("verify", "--suite", "shuffle-character", "--basis", "type1", "--degree", "9"), 0),
    ("table-type1-10", ("table", "--basis", "type1", "--degree", "10"), 0),
    ("convert-type2-1x10", ("convert", "--basis", "type2", "--comp", ONES10), 0),
    ("exp-g-type1", ("exp", "--functional", "g:type1", "--degree", "10"), 0),
    ("log-zetaQ", ("log", "--functional", "zetaQ", "--degree", "10"), 0),
    ("psi-qsym-1x10", ("psi", "--hopf", "qsym", "--input", ONES10), 0),
    ("theta-1x10", ("theta", "--comp", ONES10), 0),
    ("demo-graph-C7", ("demo-graph", "--input", "7; 1-2,2-3,3-4,4-5,5-6,6-7,1-7"), 0),
    ("demo-poset-6", ("demo-poset", "--input", "6; 1<2,1<3,2<4,3<5,4<6"), 0),
)


def cli_order(seed: int) -> list[tuple]:
    """The cases in a seeded order; each runs in its own process, so only the order varies."""
    cases = list(CLI_CASES)
    random.Random(seed).shuffle(cases)
    return cases


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def cli_failure(case: str, exit_code: int, stdout_sha: str, golden: dict) -> str | None:
    """Why one invocation's outcome is wrong, or None when it matches the golden record."""
    expected = golden.get(case)
    if expected is None:
        return f"{case}: no golden record"
    if exit_code != expected["exit"]:
        return f"{case}: exit {exit_code}, expected {expected['exit']}"
    if stdout_sha != expected["stdout_sha256"]:
        return f"{case}: stdout differs from the golden output"
    return None


# -- compositions, graphs and posets, enumerated independently ------------


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n as tuples, lexicographic on parts."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


NONEMPTY = [c for n in range(1, MAX_DEGREE + 1) for c in compositions(n)]
PAIRS = [(a, b) for a in NONEMPTY for n in range(1, MAX_DEGREE - sum(a) + 1) for b in compositions(n)]


def graph_edge_lists(max_vertices: int) -> list[tuple[int, tuple]]:
    """Every labelled simple graph on at most max_vertices vertices, as (n, edges)."""
    out = []
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            out.append((n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)))
    return out


def poset_relations(max_elements: int) -> list[tuple[int, tuple]]:
    """Every labelled poset on at most max_elements elements, as (n, strict pairs)."""
    out = []
    for n in range(max_elements + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for states in iter_product((0, 1, 2), repeat=len(pairs)):
            rel = {(a, b) if s == 1 else (b, a) for (a, b), s in zip(pairs, states) if s}
            if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
                out.append((n, tuple(sorted(rel))))
    return out


# -- demo-sweep ----------------------------------------------------------

SWEEP_SIZE = 5
SWEEP_BASES = ("type1", "type2")


def sweep_inputs(size: int = SWEEP_SIZE):
    """Every graph, then every poset, smallest first.

    The sweep is the complete set, so the seed does not change it; a seeded
    order was tried and moved op_p50_ms by up to a third between seeds,
    because earlier ops fill the coproduct caches that later ones read.
    """
    return graph_edge_lists(size), poset_relations(size)


# -- warm-session --------------------------------------------------------

WARM_QUERIES = 5000
WARM_BASES = ("type1", "type2")
# one table of golden digests per query kind and basis
WARM_TABLES = (
    "qps_expand/type1",
    "qps_expand/type2",
    "basis_contract/type1",
    "basis_contract/type2",
    "theta/M",
    "product/M",
    "product/X",
    "antipode/M",
    "antipode/X",
)
WARM_KINDS = ("qps_expand", "basis_contract", "theta", "product", "antipode")


def table_keys(table: str) -> list:
    """The query universe of one table, in golden order."""
    return PAIRS if table.startswith("product/") else NONEMPTY


def warm_stream(seed: int, count: int = WARM_QUERIES) -> list[tuple[str, tuple]]:
    """count queries (table, key), split evenly over the kinds and their tables.

    Within a table the keys are a systematic sample of its universe, which
    is ordered by size: one seeded key from each of equal consecutive
    blocks.  The seed changes every input, but each stream holds the same
    spread of sizes, so its cost hardly depends on the seed.
    """
    rng = random.Random(seed)
    per_kind = [count // len(WARM_KINDS) + (i < count % len(WARM_KINDS)) for i in range(len(WARM_KINDS))]
    out = []
    for kind, kind_count in zip(WARM_KINDS, per_kind):
        tables = [t for t in WARM_TABLES if t.startswith(kind + "/")]
        for j, table in enumerate(tables):
            k = kind_count // len(tables) + (j < kind_count % len(tables))
            keys = table_keys(table)
            for i in range(k):
                lo, hi = i * len(keys) // k, (i + 1) * len(keys) // k
                out.append((table, keys[rng.randrange(lo, max(hi, lo + 1))]))
    rng.shuffle(out)
    return out


class WarmSession:
    """The state a library user holds across queries, and one query's call.

    The library is reached through the package namespace at call time, so a
    tracer installed after construction sees every call.
    """

    def __init__(self, qs):
        self.qs = qs
        self.f = {b: qs.builtin(b) for b in WARM_BASES}
        self.g = {b: qs.f_to_g(self.f[b]) for b in WARM_BASES}

    def prepare(self, table: str, key):
        """Build the inputs of one query (outside any timed region)."""
        qs = self.qs
        kind, _, basis = table.partition("/")
        if kind == "product":
            a, b = key
            return kind, basis, (qs.GradedElement.basis_element(basis, a), qs.GradedElement.basis_element(basis, b))
        if kind == "theta":
            return kind, basis, (qs.GradedElement.basis_element(basis, key),)
        return kind, basis, (qs.Composition(key),)

    def run(self, prepared):
        kind, basis, args = prepared
        qs = self.qs
        if kind == "qps_expand":
            return qs.qps_expand(self.f[basis], *args)
        if kind == "basis_contract":
            return qs.basis_contract(self.g[basis], *args)
        if kind == "theta":
            return qs.theta(*args)
        if kind == "product":
            return qs.product(*args)
        return qs.antipode_by_recursion(basis, *args)

    def digest(self, result) -> str:
        """Short digest of a result: CLI text for elements, sorted items for coordinates."""
        if isinstance(result, dict):
            text = ";".join(f"{list(k)}:{v}" for k, v in sorted((tuple(k), v) for k, v in result.items()))
        else:
            text = self.qs.format_element(result)
        return sha256_text(text)[:DIGEST_HEX]


def warm_failures(session: WarmSession, stream, results, golden: dict, failed=None) -> int:
    """How many results are missing (failed) or disagree with their golden digest."""
    return sum(
        1
        for query, result in zip(stream, results)
        if result is failed or session.digest(result) != golden.get(query)
    )


def load_warm_golden(path: str = WARM_GOLDEN) -> dict[tuple[str, tuple], str]:
    """Map (table, key) to the recorded digest."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for table, digests in data["tables"].items():
        for i, key in enumerate(table_keys(table)):
            out[(table, key)] = digests[i * DIGEST_HEX : (i + 1) * DIGEST_HEX]
    return out


def load_cli_golden(path: str = CLI_GOLDEN) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
