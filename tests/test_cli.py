"""Command line interface: outputs, formats, exit codes."""

import ast
import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

import oracles
from qshuffle import characters, cli, demos, elements, verify
from qshuffle.cli import MAX_DEGREE, SUITES, run
from qshuffle.compositions import MAX_DIGITS, MAX_SHOWN, Composition, quasi_shuffle
from qshuffle.elements import MONOMIAL, WORD, GradedElement
from qshuffle.errors import EngineError
from qshuffle.functionals import MAX_BITS, Functional

REPO_ROOT = Path(__file__).resolve().parent.parent


def subprocess_env():
    """Environment for a child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text(capsys):
    code, out, err = invoke(capsys, "expand", "--basis", "type1", "--comp", "2,1")
    assert code == 0
    assert out == "M[2,1] + 1/3 M[3]\n"
    assert err == ""


def test_expand_shuffle_kind(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--basis", "type2", "--comp", "1,1", "--kind", "shuffle"
    )
    assert code == 0
    assert out == "M[1,1] + 1/2 M[2]\n"


def test_expand_json(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--basis", "type1", "--comp", "2,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "M"
    assert data["terms"] == [
        {"comp": [2, 1], "coef": "1"},
        {"comp": [3], "coef": "1/3"},
    ]


def test_expand_csv(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--basis", "type1", "--comp", "2,1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["comp", "coef"], ["2,1", "1"], ["3", "1/3"]]


def test_expand_empty_composition(capsys):
    code, out, _ = invoke(capsys, "expand", "--basis", "type2", "--comp", "-")
    assert code == 0
    assert out == "M[-]\n"


def test_convert(capsys):
    code, out, _ = invoke(
        capsys, "convert", "--basis", "type1", "--comp", "2,1", "--kind", "shuffle"
    )
    assert code == 0
    assert out == "X(type1)[2,1] - 1/3 X(type1)[3]\n"
    code, out, _ = invoke(capsys, "convert", "--basis", "type1", "--comp", "2,1")
    assert code == 0
    assert out == "P(type1)[2,1] - 1/3 P(type1)[3]\n"


def test_table_csv(capsys):
    code, out, _ = invoke(
        capsys, "table", "--basis", "type2", "--degree", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["alpha", "1,1", "2"], ["1,1", "2", "1"], ["2", "0", "1"]]


def test_table_json(capsys):
    code, out, _ = invoke(
        capsys, "table", "--basis", "type2", "--degree", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == ["1,1,1", "1,2", "2,1", "3"]
    assert len(data["rows"]) == 4
    # unitriangular after aut scaling: diagonal entries are the aut counts
    assert data["rows"][0][0] == "6"
    assert data["rows"][3][3] == "1"


def test_table_text_aligned(capsys):
    code, out, _ = invoke(capsys, "table", "--basis", "type1", "--degree", "2")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 3
    assert all(" | " in line for line in lines)


def test_degree_cap(capsys):
    code, _, err = invoke(capsys, "table", "--basis", "type2", "--degree", "11")
    assert code == 1
    assert f"between 1 and {MAX_DEGREE}" in err
    code, _, _ = invoke(capsys, "table", "--basis", "type2", "--degree", "0")
    assert code == 1


def test_verify_qps_passes(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "qps", "--basis", "type2", "--degree", "4"
    )
    assert code == 0
    assert out.count("[PASS]") == 3
    assert "[FAIL]" not in out


def test_verify_integrality_fails_for_type1(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "integrality", "--basis", "type1", "--degree", "3"
    )
    assert code == 2
    assert out == (
        "[FAIL] monomial coefficients in Z>=0 through degree 3: aut(C[1,2]) f(C[1,2], C[3]) = 2/3\n"
        "integrality for type1: 1 checks, 1 failed\n"
    )


def test_verify_shuffle_character_reports_its_first_failing_pair(capsys, monkeypatch):
    # no basis the CLI accepts fails the suite, so resolve to type2 with f(C[1,1]) = 1
    type2 = characters.builtin("type2")
    one_one = Composition((1, 1))
    broken = Functional(1, lambda comp: Fraction(1) if comp == one_one else type2(comp), name="type2")
    monkeypatch.setattr(verify, "resolve_basis", lambda spec: broken)
    code, out, err = invoke(capsys, "verify", "--suite", "shuffle-character", "--basis", "type2", "--degree", "3")
    assert (code, err) == (2, "")
    assert out == (
        "[FAIL] f(a)f(b) = sum over shuffles through degree 3: pair alpha=C[1], beta=C[1]: got 2, expected 1\n"
        "shuffle-character for type2: 1 checks, 1 failed\n"
    )


def test_verify_integrality_passes_for_combinatorial(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "integrality", "--basis", "combinatorial", "--degree", "5"
    )
    assert code == 0
    assert "[PASS]" in out


def test_verify_remaining_suites(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "antipode", "--degree", "5")
    assert code == 0
    assert out.count("[PASS]") == 3
    code, out, _ = invoke(capsys, "verify", "--suite", "theta-eigen", "--degree", "4")
    assert code == 0
    assert out.count("[PASS]") == 2
    code, out, _ = invoke(
        capsys, "verify", "--suite", "fg-roundtrip", "--basis", "even-odd", "--degree", "5"
    )
    assert code == 0
    code, out, _ = invoke(
        capsys, "verify", "--suite", "shuffle-character", "--basis", "type1", "--degree", "5"
    )
    assert code == 0
    assert set(SUITES) == {
        "shuffle-character",
        "qps",
        "antipode",
        "theta-eigen",
        "integrality",
        "fg-roundtrip",
    }


def test_verify_theta_eigen_rejects_other_basis(capsys):
    code, _, err = invoke(
        capsys, "verify", "--suite", "theta-eigen", "--basis", "type1", "--degree", "4"
    )
    assert code == 1
    assert "even-odd" in err


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_each_suite_applies_its_basis_rule(capsys, name):
    rule, _ = verify.SUITES[name]

    def with_basis(*basis):
        code, out, err = invoke(capsys, "verify", "--suite", name, "--degree", "2", *basis)
        return code if code != 1 else err

    if rule == verify.REQUIRED:
        assert with_basis() == "error: --basis is required for this command\n"
        assert with_basis("--basis", "type2") in (0, 2)
    elif rule is None:
        assert with_basis() in (0, 2)
        assert with_basis("--basis", "type2") == f"error: --basis does not apply to --suite {name}\n"
    else:
        assert with_basis() in (0, 2) and with_basis("--basis", rule) in (0, 2)
        assert with_basis("--basis", "type2") == (
            f"error: {name} runs on the {rule} basis; drop --basis or pass {rule}\n"
        )


def test_theta_command(capsys):
    code, out, _ = invoke(capsys, "theta", "--comp", "1,1")
    assert code == 0
    assert out == "4 M[1,1] + 2 M[2]\n"
    elem = json.dumps({"basis": "M", "terms": [{"comp": [1], "coef": "3"}]})
    code, out, _ = invoke(capsys, "theta", "--elem", elem)
    assert code == 0
    assert out == "6 M[1]\n"


def test_exp_command(capsys):
    code, out, _ = invoke(capsys, "exp", "--functional", "xiS", "--degree", "3")
    assert code == 0
    assert "X[1,1] -> 1/2" in out
    assert "X[1,1,1] -> 1/6" in out
    assert "X[-] -> 1" in out


def test_log_command(capsys):
    code, out, _ = invoke(capsys, "log", "--functional", "zetaQ", "--degree", "3")
    assert code == 0
    assert "M[1,1] -> -1/2" in out
    assert "M[2] -> 1" in out


def test_exp_log_preconditions_exit_one(capsys):
    code, _, err = invoke(capsys, "exp", "--functional", "zetaQ", "--degree", "3")
    assert code == 1
    assert err.startswith("error:")
    code, _, _ = invoke(capsys, "log", "--functional", "xiS", "--degree", "3")
    assert code == 1


def test_exp_of_g_matches_expand(capsys):
    # exp over the type2 infinitesimal values reproduces the zetaQ character
    code, out, _ = invoke(capsys, "exp", "--functional", "g:type2", "--degree", "4")
    assert code == 0
    assert "M[1] -> 1" in out
    assert "M[1,1] -> 0" in out
    assert "M[4] -> 1" in out


def test_exp_log_json_and_csv_leave_out_zero_values(capsys):
    # the text form lists every composition, M[-] -> 0 among them; json and csv read like an element
    code, out, _ = invoke(capsys, "log", "--functional", "zetaQ", "--degree", "2")
    assert code == 0
    assert out == "M[-] -> 0\nM[1] -> 1\nM[1,1] -> -1/2\nM[2] -> 1\n"
    code, out, _ = invoke(capsys, "log", "--functional", "zetaQ", "--degree", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "basis": "M",
        "terms": [{"comp": [1], "coef": "1"}, {"comp": [1, 1], "coef": "-1/2"}, {"comp": [2], "coef": "1"}],
    }
    code, out, _ = invoke(capsys, "log", "--functional", "zetaQ", "--degree", "2", "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["comp", "coef"], ["1", "1"], ["1,1", "-1/2"], ["2", "1"]]
    code, out, _ = invoke(capsys, "exp", "--functional", "xiS", "--degree", "2", "--format", "json")
    assert code == 0
    assert [term["comp"] for term in json.loads(out)["terms"]] == [[], [1], [1, 1], [2]]


def test_log_of_a_basis_character(capsys):
    code, out, _ = invoke(capsys, "log", "--functional", "f:type1", "--degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "X[-] -> 0",
        "X[1] -> 1",
        "X[1,1] -> 0",
        "X[2] -> 1",
        "X[1,1,1] -> 0",
        "X[1,2] -> 1/6",
        "X[2,1] -> -1/6",
        "X[3] -> 1",
    ]


def test_unknown_functional_exits_one(capsys):
    code, out, err = invoke(capsys, "log", "--functional", "bogus", "--degree", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error: unknown functional 'bogus'; known: zetaQ, barZetaQ, xiS, nuQ, eta, counit, f:<basis>, g:<basis>\n"
    )


def test_theta_needs_comp_or_elem(capsys):
    assert invoke(capsys, "theta") == (1, "", "error: provide --comp or --elem\n")


def test_phi_graph(capsys):
    code, out, _ = invoke(capsys, "phi", "--hopf", "graph", "--input", "2; 1-2")
    assert code == 0
    assert out == "2 M[1,1]\n"


def test_phi_poset(capsys):
    code, out, _ = invoke(capsys, "phi", "--hopf", "poset", "--input", "2; 1<2")
    assert code == 0
    assert out == "M[1,1] + M[2]\n"


def test_phi_qsym(capsys):
    code, out, _ = invoke(capsys, "phi", "--hopf", "qsym", "--input", "2,1")
    assert code == 0
    assert out == "M[2,1]\n"
    code, out, _ = invoke(
        capsys, "phi", "--hopf", "qsym", "--char", "nuQ", "--input", "1"
    )
    assert code == 0
    assert out == "2 M[1]\n"
    code, _, err = invoke(capsys, "phi", "--hopf", "qsym", "--char", "bogus", "--input", "1")
    assert code == 1
    assert "--char" in err


def test_psi_commands(capsys):
    code, out, _ = invoke(capsys, "psi", "--hopf", "sh", "--input", "2,1")
    assert code == 0
    assert out == "X[2,1]\n"
    code, out, _ = invoke(capsys, "psi", "--hopf", "qsym", "--input", "1,1")
    assert code == 0
    assert out == "X[1,1] - 1/2 X[2]\n"
    code, out, _ = invoke(capsys, "psi", "--hopf", "poset", "--input", "2; 1<2")
    assert code == 0
    code, out, _ = invoke(
        capsys, "psi", "--hopf", "graph", "--input", "2; 1-2", "--basis", "type2"
    )
    assert code == 0


def test_phi_and_psi_on_qsym_and_sh_print_the_oracle_images(capsys):
    # phi/psi --hopf qsym|sh run the coarsening walk; the generic evaluator on deconcatenation is its oracle
    from qshuffle.characters import BUILTIN_NAMES, builtin, f_to_g
    from qshuffle.compositions import compositions_up_to
    from qshuffle.elements import format_element
    from qshuffle.universal import canonical, universal_to_qsym, universal_to_sh
    from oracles import qsym_provider

    commands = [
        (("phi", "--hopf", "qsym", "--char", name), universal_to_qsym(qsym_provider(), canonical(name)))
        for name in ("zetaQ", "barZetaQ", "nuQ", "counit")
    ]
    commands += [
        (("psi", "--hopf", "qsym", "--basis", name), universal_to_sh(qsym_provider(), f_to_g(builtin(name))))
        for name in BUILTIN_NAMES
    ]
    commands.append((("psi", "--hopf", "sh"), universal_to_sh(qsym_provider(), canonical("xiS"))))
    for alpha in compositions_up_to(4):
        text = alpha.to_text()
        for argv, oracle in commands:
            assert invoke(capsys, *argv, "--input", text) == (0, format_element(oracle(alpha)) + "\n", ""), (argv, text)
        # theta is the universal morphism of QSym with nuQ
        assert invoke(capsys, "theta", "--comp", text) == invoke(capsys, "phi", "--hopf", "qsym", "--char", "nuQ", "--input", text)
        # xiS and eta are 0 at the unit, so neither is a character
        for name in ("xiS", "eta"):
            got = invoke(capsys, "phi", "--hopf", "qsym", "--char", name, "--input", text)
            assert got == (1, "", "error: zeta(unit) = 0, expected 1\n")


def test_psi_graph_takes_every_basis_spec(capsys):
    graph = ("psi", "--hopf", "graph", "--input", "3; 1-2")
    expected = invoke(capsys, *graph, "--basis", "reverse-combinatorial")
    assert expected == (0, "6 X[1,1,1] - X[1,2] - X[2,1]\n", "")
    assert invoke(capsys, *graph, "--basis", "order:1,2,3") == expected
    assert invoke(capsys, *graph, "--basis", "order:2,1,3") == expected
    code, out, err = invoke(capsys, *graph, "--basis", "bogus")
    assert (code, out) == (1, "")
    assert err == (
        "error: unknown basis 'bogus'; known: type1, type2, even-odd, combinatorial, "
        "reverse-combinatorial, prefix-sum:<tau values>, order:<permutation>\n"
    )


def test_demo_graph(capsys):
    code, out, _ = invoke(capsys, "demo-graph", "--input", "3; 1-2,2-3")
    assert code == 0
    assert "chromatic polynomial: k^3 - 2k^2 + k" in out
    assert "match: yes" in out
    assert "6 M[1,1,1] + M[1,2] + M[2,1]" in out


def test_demo_poset(capsys):
    code, out, _ = invoke(capsys, "demo-poset", "--input", "3; 1<2,1<3")
    assert code == 0
    assert "match: yes" in out
    assert "eta pairing: 1" in out
    code, out, _ = invoke(capsys, "demo-poset", "--input", "2;")
    assert code == 0
    assert "eta pairing: 0" in out
    assert "unique minimal element indicator: 0" in out


@pytest.mark.parametrize(
    "argv",
    [("demo-poset",), ("phi", "--hopf", "poset"), ("psi", "--hopf", "poset")],
    ids=("demo-poset", "phi", "psi"),
)
def test_cyclic_poset_covers_name_the_cycle(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--input", "3; 1<2,2<1")
    assert (code, out, err) == (1, "", "error: cover relations contain a cycle through 1\n")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = invoke(
        capsys, "expand", "--basis", "type1", "--comp", "2,1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "M[2,1] + 1/3 M[3]\n"


_TABLE_BASES = (
    "type1", "type2", "even-odd", "combinatorial", "reverse-combinatorial", "prefix-sum:1,1/2,3", "order:2,1,3"
)


@pytest.fixture
def repeated_tables(monkeypatch):
    """The table command set up to run many times in one test: each row's expansion memoized, and one parser.

    run() builds the same parser every time, which costs more than a table of degree 7.
    """
    for name in ("qps_expand", "basis_expand"):
        monkeypatch.setattr(cli, name, lru_cache(maxsize=None)(getattr(characters, name)))
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    return parser


# --kind qps only on the bases that are normalized; order:2,1,3 is through degree 3, and refuses parts past 3
@pytest.mark.parametrize(
    "basis, kind", [(b, k) for b in _TABLE_BASES for k in ("qps", "shuffle") if k == "shuffle" or b[0] != "p"]
)
def test_streamed_tables_match_the_whole_text_oracle(capsys, tmp_path, repeated_tables, basis, kind):
    # degrees 0-7 in each format, on stdout and through --out: the oracle's bytes, or its one error line with no
    # output and an --out file left as it was
    target = tmp_path / "table.out"
    for degree, fmt in product(range(8), ("text", "csv", "json")):
        argv = ["table", "--basis", basis, "--kind", kind, "--degree", str(degree), "--format", fmt]
        try:
            expected = (0, oracles.table_output(repeated_tables.parse_args(argv)), "")
        except (cli.CliUsageError, EngineError, ValueError) as exc:
            expected = (1, "", f"error: {exc}\n")
        assert invoke(capsys, *argv) == expected
        target.write_bytes(b"before")
        code, out, err = invoke(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (expected[0], "", expected[2])
        assert target.read_bytes() == (expected[1].encode() if code == 0 else b"before")


def test_the_table_at_the_cap_is_written_within_a_bounded_traced_peak(repeated_tables):
    # the peak of making and writing the output, with the expansions made before tracing starts: held whole, the
    # text table peaked at 16.6 MiB, csv at 4.4 and json at 7.6 (17.4, 5.2 and 8.4 with the expansions made
    # under the trace); written as it is made, text and csv peak at about 2.4 MiB, and json is still one text
    argv = ["table", "--basis", "type1", "--degree", "10", "--format"]
    peaks = {}
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        assert run(argv + ["csv"]) == 0
        for fmt in ("text", "csv", "json"):
            tracemalloc.start()
            try:
                assert run(argv + [fmt]) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
    assert peaks["text"] < 6 and peaks["csv"] < 6 and peaks["json"] < 10, peaks


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=("buffered", "unbuffered"))
def test_a_reader_that_closes_early_ends_the_command_with_exit_1_and_no_traceback(unbuffered):
    # the type1 table at degree 9 is 1.3 MB, far more than a pipe holds, so its writer meets the closed pipe;
    # unbuffered, one large write used to be cut short without an error, and buffered it ended in a traceback
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "qshuffle.cli", "table", "--basis", "type1", "--degree", "9"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.endswith(b" 9\n") and first.count(b" | ") == 256
    assert (code, err) == (1, b"")


def test_psi_of_a_graph_forms_each_coproduct_once(capsys):
    # the induced subgraphs of the 10-cycle give 221 distinct nonempty labels, each read by both Phi and Psi
    before = demos._graph_coproduct.cache_info().misses
    cycle = "10; 1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,1-10"
    code, out, _ = invoke(capsys, "psi", "--hopf", "graph", "--input", cycle)
    assert code == 0 and out.startswith("3628800 X[1,1,1,1,1,1,1,1,1,1] - 403200 X[1,1,1,1,1,1,1,1,2] ")
    assert demos._graph_coproduct.cache_info().misses - before == 221


@pytest.mark.parametrize("target", ["missing/result.txt", "."], ids=("missing-parent", "directory"))
def test_out_path_that_cannot_be_written_is_an_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = invoke(capsys, "expand", "--basis", "type1", "--comp", "2,1", "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write --out {str(path)!r}: ") and err.count("\n") == 1


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "expand", "--basis", "type1")
    assert code == 1
    assert "required" in err
    code, _, err = invoke(capsys, "expand", "--basis", "nope", "--comp", "1")
    assert code == 1
    code, _, err = invoke(capsys, "expand", "--basis", "type1", "--comp", "2,x")
    assert code == 1
    code, _, err = invoke(capsys, "no-such-command")
    assert code == 1
    code, _, err = invoke(capsys, "verify", "--suite", "bogus", "--degree", "4")
    assert code == 1


@pytest.mark.parametrize(
    "parts, shown",
    [("[1.9, true]", "1.9"), ("[2.0]", "2.0"), ("[true, 1]", "True"), ('["1", "1"]', "'1'")],
    ids=("float-and-bool", "float", "bool", "str"),
)
def test_theta_elem_rejects_non_int_parts(capsys, parts, shown):
    elem = '{"basis":"M","terms":[{"comp":%s,"coef":"1"}]}' % parts
    code, out, err = invoke(capsys, "theta", "--elem", elem)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and shown in err


def _theta_of_coef(coef: str) -> tuple[str, ...]:
    return ("theta", "--elem", '{"basis":"M","terms":[{"comp":[1],"coef":%s}]}' % coef)


@pytest.mark.parametrize(
    "argv, shown",
    [
        (_theta_of_coef("0.1"), "0.1"),
        (_theta_of_coef("true"), "True"),
        (_theta_of_coef('"1/0"'), "'1/0'"),
        (_theta_of_coef('"1e-99999999"'), "'1e-99999999'"),
        (("expand", "--basis", "prefix-sum:1/0", "--comp", "1"), "'1/0'"),
        (("expand", "--basis", "prefix-sum:1e-99999999", "--comp", "1"), "'1e-99999999'"),
    ],
    ids=("float", "bool", "zero-denominator", "exponent", "prefix-sum-zero-denominator", "prefix-sum-exponent"),
)
def test_inexact_rationals_are_rejected(capsys, argv, shown):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and shown in err


@pytest.mark.parametrize(
    "elem, shown",
    [
        ("[]", "element must be a JSON object, got []"),
        ('"x"', "element must be a JSON object, got 'x'"),
        ('{"basis":"M"}', "element is missing ['terms']"),
        ('{"terms":[]}', "element is missing ['basis']"),
        ('{"basis":"M","terms":{}}', "'terms' must be a JSON list, got {}"),
        ('{"basis":"M","terms":[5]}', "term must be a JSON object, got 5"),
        ('{"basis":"M","terms":[{"comp":[1]}]}', "term is missing ['coef']"),
        ('{"basis":"M","terms":[{"comp":5,"coef":"1"}]}', "'comp' must be a JSON list, got 5"),
        ('{"basis":"M","terms":[{"comp":[3],"coef":"1","comp":[2]}]}', "key 'comp' is repeated"),
        ('{"basis":"M","terms":[{"comp":[3],"coef":"1"}],"terms":[]}', "key 'terms' is repeated"),
        ('{"basis":"M","terms":[{"comp":[3],"coef":"1"}],"basis":"X"}', "key 'basis' is repeated"),
    ],
    ids=(
        "list", "string", "no-terms", "no-basis", "terms-object", "term-int", "no-coef", "comp-int", "repeated-comp",
        "repeated-terms", "repeated-basis",
    ),
)
def test_malformed_elem_json_is_rejected(capsys, elem, shown):
    code, out, err = invoke(capsys, "theta", "--elem", elem)
    assert (code, out) == (1, "")
    assert err == f"error: bad element JSON: {shown}\n"


@pytest.mark.parametrize("opening", ["[", '{"basis":'], ids=("lists", "objects"))
def test_deeply_nested_elem_is_rejected_in_one_line(capsys, opening):
    code, out, err = invoke(capsys, "theta", "--elem", opening * 100_000)
    assert (code, out, err) == (1, "", "error: bad element JSON: nested too deeply\n")


LONG = "1" * 5000
CAPPED = f"a number has 5000 characters; numbers are capped at {MAX_DIGITS}"


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("expand", "--basis", "type1", "--comp", LONG), "bad composition part"),
        (("expand", "--basis", "type1", "--comp", f"1,{LONG}"), "bad composition part"),
        (("expand", "--basis", f"prefix-sum:{LONG}", "--comp", "1"), CAPPED),
        (("expand", "--basis", f"prefix-sum:1,{LONG}/3", "--comp", "1"), "numbers are capped"),
        (("expand", "--basis", f"order:{LONG}", "--comp", "1"), "order entries must be"),
        (("demo-poset", "--input", f"{LONG}; 1<2"), "bad count"),
        (("demo-poset", "--input", f"3; 1<{LONG}"), "bad pair"),
        (("phi", "--hopf", "graph", "--input", f"3; {LONG}-2"), "bad pair"),
        (_theta_of_coef(f'"{LONG}"'), f"bad element JSON: {CAPPED}"),
        (_theta_of_coef(LONG), f"bad element JSON: {CAPPED}"),
        (_theta_of_coef(f'"-{LONG[:-1]}"'), f"bad element JSON: {CAPPED}"),
        (("theta", "--elem", '{"basis":"M","terms":[{"comp":[%s],"coef":1}]}' % LONG), f"bad element JSON: {CAPPED}"),
    ],
    ids=(
        "comp", "comp-second-part", "prefix-sum", "prefix-sum-fraction", "order", "poset-count", "poset-pair",
        "graph-pair", "coef-text", "coef-int", "coef-negative-text", "comp-in-elem",
    ),
)
def test_numbers_past_the_digit_cap_are_rejected_in_the_projects_terms(capsys, argv, shown):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and shown in err
    assert "set_int_max_str_digits" not in err and "4300" not in err


def test_numbers_at_the_digit_cap_are_accepted(capsys):
    # theta(M[1]) = 2 M[1]
    at_cap = "1" * MAX_DIGITS
    for coef in (f'"{at_cap}"', at_cap, f'"{at_cap[:-2]}/3"'):
        code, out, _ = invoke(capsys, *_theta_of_coef(coef))
        assert code == 0 and out.endswith(" M[1]\n"), coef
    assert invoke(capsys, *_theta_of_coef(at_cap))[1] == "2" * MAX_DIGITS + " M[1]\n"
    code, out, _ = invoke(capsys, "expand", "--basis", f"prefix-sum:{at_cap}", "--comp", "1", "--kind", "shuffle")
    assert (code, out) == (0, f"1/{at_cap} M[1]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--basis", "type1", "--comp", "9" * 5000),
        ("expand", "--basis", "order:" + "9" * 5000),
        ("demo-poset", "--input", "9" * 5000 + "; 1<2"),
        ("phi", "--hopf", "graph", "--input", "3; " + "9" * 5000 + "-2"),
        ("table", "--basis", "type1", "--degree", "9" * 5000),
    ],
    ids=("comp", "order", "poset-count", "graph-pair", "degree"),
)
def test_an_over_long_numeral_is_named_by_its_length_not_echoed(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert f"a number has 5000 characters; numbers are capped at {MAX_DIGITS}" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("expand", "--basis", "type1", "--comp", "1," * 3000 + "x"), "bad composition part 'x' in a text of 6001 characters"),
        (("phi", "--hopf", "graph", "--input", "3; " + "1-2," * 3000 + "x-1"), "bad pair 'x-1' in a text of 12006 characters"),
    ],
    ids=("comp", "graph-pairs"),
)
def test_a_long_text_around_a_bad_piece_is_named_by_its_length(capsys, argv, expected):
    assert invoke(capsys, *argv) == (1, "", f"error: {expected}\n")


def test_short_bad_inputs_are_still_quoted(capsys):
    assert invoke(capsys, "table", "--basis", "type1", "--degree", "x")[2] == "error: argument --degree: invalid int value: 'x'\n"
    comp = "1," * 99 + "x"  # 199 characters, under the cap on quoted texts
    assert invoke(capsys, "expand", "--basis", "type1", "--comp", comp)[2] == f"error: bad composition part 'x' in {comp!r}\n"


def _elem(**fields) -> str:
    return json.dumps({"basis": "M", "terms": [], **fields})


NINES = "9" * (MAX_DIGITS - 1)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("theta", "--elem", json.dumps([1] * 30_000)), "element must be a JSON object, got a list of 30000 entries"),
        (("theta", "--elem", '{"basis":"M","terms":[],"%s":1}' % ("k" * 100_000)), "unknown keys a list of 1 entry;"),
        (("theta", "--elem", _elem(terms="t" * 300)), "'terms' must be a JSON list, got a text of 300 characters"),
        (("theta", "--elem", _elem(terms=[{"comp": [1], "coef": [1] * 30_000}])), "1.5): a list of 30000 entries"),
        (("theta", "--elem", _elem(terms=[{"comp": ["p" * 30_000], "coef": "1"}])), "ints, got a text of 30000 characters"),
        (("theta", "--elem", _elem(terms=[{"comp": [1] * 20_000, "coef": "1"}] * 2)), "a list of 20000 entries is listed"),
        (("expand", "--basis", "order:" + ",".join(["1"] * 50_000), "--comp", "1"), "got a list of 50000 entries"),
        (("expand", "--basis", "order:" + "x" * 999, "--comp", "1"), "got a text of 999 characters"),
        (("theta", "--elem", _elem(basis="b" * 30_000)), "theta acts on the 'M' basis, got a text of 30000 characters"),
        (("theta", "--comp", NINES), "--comp has size a number of 999 digits; sizes are capped"),
        (("theta", "--elem", _elem(terms=[{"comp": [int(NINES)], "coef": "1"}])), "size a number of 999 digits;"),
        (("phi", "--hopf", "graph", "--input", f"{NINES}; "), "--input has size a number of 999 digits;"),
        (("phi", "--hopf", "graph", "--input", f"3; 1-{NINES}"), "pair 1-a number of 999 digits outside 1..3"),
        (("phi", "--hopf", "graph", "--input", f"3; {NINES}-{NINES}"), "of 999 digits has equal ends"),
        (("theta", "--elem", '{"basis": 5, "terms": []}'), "bad element JSON: 'basis' must be a JSON string, got 5"),
        (("theta", "--elem", _elem(basis=None, terms=[{"comp": [1], "coef": "1"}])), "JSON string, got None"),
        (("theta", "--elem", _elem(basis=["M" * 300])), "'basis' must be a JSON string, got a list of 1 entry"),
        (("theta", "--comp", "1", "--out", "no-such-dir/" + "x" * 5000), "cannot write --out a text of 5012 characters: "),
        # each control character quotes as four, so the text is short but its quote is not
        (("expand", "--basis", "type1", "--comp", "\x01" * 150), "part a text of 150 characters in a text of 150"),
    ],
    ids=(
        "elem-list", "unknown-key", "terms-text", "coef-list", "comp-text-part", "listed-twice", "order-entries",
        "order-text", "theta-basis", "comp-size", "elem-size", "graph-count", "graph-pair", "graph-equal-ends",
        "basis-int", "basis-null", "basis-list", "out-path", "comp-control-characters",
    ),
)
def test_outside_values_and_numbers_in_messages_are_bounded(capsys, argv, expected):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200 and expected in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("expand", "--basis", "y" * 3000, "--comp", "1"), "error: unknown basis a text of 3000 characters; known: "),
        (("exp", "--functional", "q:" + "y" * 3000, "--degree", "2"), "error: unknown functional a text of 3002 characters; "),
        (("exp", "--functional", "f:" + "y" * 3000, "--degree", "2"), "error: unknown basis a text of 3000 characters; "),
        (("table", "--basis", "type1", "--degree", "9" * MAX_DIGITS), "got a number of 1000 digits\n"),
        (("table", "--basis", "prefix-sum:1," + "7" * MAX_DIGITS, "--degree", "2"), "f((2)) = a number of 1001 digits, expected 1"),
    ],
    ids=("basis", "functional", "functional-basis", "degree", "not-normalized"),
)
def test_long_names_and_numbers_in_messages_are_named_by_their_length(capsys, argv, expected):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200 and expected in err


def test_short_names_and_numbers_in_messages_are_printed_whole(capsys):
    assert invoke(capsys, "expand", "--basis", "y", "--comp", "1")[2].startswith("error: unknown basis 'y'; known: ")
    assert invoke(capsys, "exp", "--functional", "q:y", "--degree", "2")[2].startswith("error: unknown functional 'q:y'; ")
    assert invoke(capsys, "table", "--basis", "type1", "--degree", "11")[2] == (
        f"error: --degree must be between 1 and {MAX_DEGREE}, got 11\n"
    )
    assert invoke(capsys, "table", "--basis", "prefix-sum:1,2", "--degree", "2")[2] == "error: f((2)) = 1/2, expected 1\n"
    # a value of MAX_SHOWN characters is still printed whole, and one character more is not
    tau = "1" * (MAX_SHOWN - 2)
    assert invoke(capsys, "table", "--basis", f"prefix-sum:1,{tau}", "--degree", "2")[2] == (
        f"error: f((2)) = 1/{tau}, expected 1\n"
    )
    assert invoke(capsys, "table", "--basis", f"prefix-sum:1,{tau}1", "--degree", "2")[2] == (
        f"error: f((2)) = a number of {MAX_SHOWN} digits, expected 1\n"
    )


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter prints ints of any length")
def test_an_output_number_past_the_interpreters_digit_limit_names_its_table_cell(capsys, tmp_path):
    # 1/(6 tau^5) at tau = <860 sevens> has more digits than str(int) prints, and fewer bits than a value may have
    assert sys.get_int_max_str_digits() == 4300
    basis = "prefix-sum:" + "7" * 860
    code, out, err = invoke(capsys, "table", "--basis", basis, "--degree", "5", "--kind", "shuffle")
    assert (code, out) == (1, "")
    assert err == (
        "error: the table cell at alpha=C[1,1,1,1,1], beta=C[1,1,3] has more than 4300 digits, too many to print\n"
    )
    # every cell is printed before the first line is written, so an existing --out file is left as it was
    target = tmp_path / "table.out"
    target.write_bytes(b"an earlier table\n")
    argv = ("table", "--basis", basis, "--degree", "5", "--kind", "shuffle", "--out", str(target))
    assert invoke(capsys, *argv) == (1, "", err)
    assert target.read_bytes() == b"an earlier table\n"
    # five prefix sums of 1000 digits pass MAX_BITS in f itself, before any cell is printed
    sevens = "7" * MAX_DIGITS
    basis = f"prefix-sum:1,{sevens},3,{sevens},5/{'3' * (MAX_DIGITS - 2)}"
    code, out, err = invoke(capsys, "table", "--basis", basis, "--degree", "10", "--kind", "shuffle")
    assert (code, out, err) == (1, "", f"error: the value at C[2,1,1,1,1] has more than {MAX_BITS} bits\n")


# tau values of 1000 digits, within the numeral cap, whose f <-> g solve and series grow without bound
_WIDE_BASIS = f"prefix-sum:1,{'7' * MAX_DIGITS},3,{'7' * MAX_DIGITS},5/{'3' * (MAX_DIGITS - 2)},1,1,1,1,1"
_ONES = ",".join(["1"] * MAX_DEGREE)


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--basis", _WIDE_BASIS, "--comp", _ONES, "--kind", "shuffle"),
        ("psi", "--hopf", "qsym", "--basis", _WIDE_BASIS, "--input", _ONES),
        ("exp", "--functional", f"g:{_WIDE_BASIS}", "--degree", str(MAX_DEGREE)),
        ("log", "--functional", f"f:{_WIDE_BASIS}", "--degree", str(MAX_DEGREE)),
        ("verify", "--suite", "fg-roundtrip", "--basis", _WIDE_BASIS, "--degree", str(MAX_DEGREE)),
        ("verify", "--suite", "shuffle-character", "--basis", _WIDE_BASIS, "--degree", str(MAX_DEGREE)),
    ],
    ids=("convert", "psi", "exp", "log", "fg-roundtrip", "shuffle-character"),
)
def test_values_past_the_bit_bound_end_the_run_in_one_line(capsys, argv):
    # each ran for over a minute, or passed after 11 s, before values were bounded
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200 and f"has more than {MAX_BITS} bits" in err, err
    assert time.perf_counter() - start < 30


def test_exact_rationals_are_accepted(capsys):
    # theta(M[1]) = 2 M[1]
    for coef, expected in (('"1/3"', "2/3 M[1]\n"), ('"3"', "6 M[1]\n"), ("3", "6 M[1]\n"), ('"-1.5"', "-3 M[1]\n")):
        assert invoke(capsys, *_theta_of_coef(coef))[:2] == (0, expected), coef
    code, out, _ = invoke(capsys, "expand", "--basis", "prefix-sum:1,4,9", "--comp", "1,2", "--kind", "shuffle")
    assert (code, out) == (0, "1/4 M[1,2] + 1/5 M[3]\n")


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("expand", "--basis", "type2", "--comp", "\u0661,\u0662"), "bad composition part '\u0661'"),
        (("demo-poset", "--input", "\u0663; 1<2"), "bad count"),
        (("demo-graph", "--input", "3; 1-2,,2-3"), "bad pair ''"),
        (("demo-graph", "--input", "3; 1-2,"), "bad pair ''"),
        (("expand", "--basis", "order:+2,1", "--comp", "1"), "'+2'"),
        (("expand", "--basis", "order:2,,1", "--comp", "1"), "''"),
        (("expand", "--basis", "order:2,1,", "--comp", "1"), "''"),
        (("expand", "--basis", "order:\u0662,1", "--comp", "1"), "'\u0662'"),
        (("expand", "--basis", "prefix-sum:1,,2", "--comp", "1"), "''"),
        (("table", "--basis", "type2", "--degree", "\u0662"), "'\u0662'"),
        (("table", "--basis", "type2", "--degree", " +2"), "' +2'"),
        (("table", "--basis", "type2", "--degree", "+2"), "'+2'"),
    ],
    ids=(
        "comp-arabic-indic", "poset-count-arabic-indic", "graph-empty-pair", "graph-trailing-comma",
        "order-sign", "order-empty", "order-trailing-comma", "order-arabic-indic", "prefix-sum-empty",
        "degree-arabic-indic", "degree-space-sign", "degree-sign",
    ),
)
def test_text_entries_are_ascii_digits_and_never_empty(capsys, argv, shown):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and shown in err


def test_ascii_entries_are_accepted(capsys):
    code, out, _ = invoke(capsys, "expand", "--basis", "order: 2, 1", "--comp", " 1 , 1 ")
    assert (code, out) == (0, "2 M[1,1] + M[2]\n")
    code, out, _ = invoke(capsys, "phi", "--hopf", "graph", "--input", "2;")
    assert (code, out) == (0, "2 M[1,1] + M[2]\n")


def test_reads_stop_where_the_parent_kernel_stopped(capsys):
    # for coarsening (3) the scale g((3)) is read before any block, and it is
    # past the declared tau bound; a walk that multiplied blocks first would
    # report the zero prefix sum of f((1,2)) instead
    code, out, err = invoke(capsys, "convert", "--basis", "prefix-sum:-1,1", "--comp", "1,2", "--kind", "shuffle")
    assert (code, out, err) == (1, "", "error: part 3 exceeds declared tau bound 2\n")


@pytest.mark.parametrize(
    "basis, comp, message",
    [
        ("prefix-sum:2", "1", "f((1)) = 1/2, expected 1"),
        ("prefix-sum:-1,1", "1,2", "f((1)) = -1, expected 1"),
        (_WIDE_BASIS, _ONES, f"f((2)) = a number of {MAX_DIGITS + 1} digits, expected 1"),
    ],
    ids=("half", "negative", "wide"),
)
def test_convert_to_power_sums_needs_a_normalized_basis(capsys, basis, comp, message):
    # P_alpha = aut(alpha) X_alpha is a power sum basis only for a normalized f: convert refuses the rest as expand does
    for command in ("expand", "convert"):
        assert invoke(capsys, command, "--basis", basis, "--comp", comp) == (1, "", f"error: {message}\n"), command


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--basis", "type2", "--comp", ",".join(["1"] * 22)),
        ("expand", "--basis", "type1", "--comp", "11"),
        ("convert", "--basis", "type2", "--comp", ",".join(["1"] * 11)),
        ("theta", "--comp", "5,6"),
        ("theta", "--elem", '{"basis":"M","terms":[{"comp":[1],"coef":"1"},{"comp":[4,7],"coef":"2"}]}'),
        ("psi", "--hopf", "qsym", "--input", "5,6"),
        ("phi", "--hopf", "qsym", "--input", "11"),
    ],
)
def test_compositions_above_the_cap_are_rejected(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"sizes are capped at {MAX_DEGREE}" in err


def test_compositions_at_the_cap_are_accepted(capsys):
    code, out, _ = invoke(capsys, "expand", "--basis", "type2", "--comp", "10")
    assert (code, out) == (0, "M[10]\n")
    code, out, _ = invoke(capsys, "theta", "--elem", '{"basis":"M","terms":[{"comp":[4,6],"coef":"1"}]}')
    assert code == 0


def _chain(top: int, size: int) -> str:
    """The poset literal ``size; 1<2,...,(top-1)<top``."""
    return f"{size}; " + ",".join(f"{i}<{i + 1}" for i in range(1, top))


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("phi", "--hopf", "graph", "--input", "99999999999999999999; 1-2"), f"sizes are capped at {MAX_DEGREE}"),
        (("psi", "--hopf", "graph", "--input", "11; 1-2"), f"sizes are capped at {MAX_DEGREE}"),
        (("demo-graph", "--input", "11; 1-12"), f"sizes are capped at {MAX_DEGREE}"),
        (("phi", "--hopf", "poset", "--input", _chain(11, 11)), f"sizes are capped at {MAX_DEGREE}"),
        (("demo-poset", "--input", _chain(160, 5)), "outside 1..5"),
        (("psi", "--hopf", "poset", "--input", _chain(160, 5)), "outside 1..5"),
    ],
    ids=("phi-graph-huge", "psi-graph-11", "demo-graph-11", "phi-poset-11", "demo-poset-out-of-range", "psi-poset-out-of-range"),
)
def test_literals_beyond_the_cap_are_rejected_at_once(capsys, argv, shown):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    # the out-of-range chains used to take their transitive closure first: about 12 s
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and shown in err


def test_literals_at_the_cap_are_accepted(capsys):
    code, out, _ = invoke(capsys, "phi", "--hopf", "graph", "--input", "10; 1-2")
    assert code == 0
    assert out.startswith("3628800 M[1,1,1,1,1,1,1,1,1,1] + 1774080 M[1,1,1,1,1,1,1,1,2] + ")
    code, out, _ = invoke(capsys, "demo-poset", "--input", _chain(10, 10))
    assert code == 0
    assert "match: yes" in out


@pytest.mark.parametrize(
    "elem, shown",
    [
        ('{"basis":"M","terms":[{"comp":[1],"coef":"1"},{"comp":[1],"coef":"2"}]}', "[1] is listed twice"),
        ('{"basis":"M","terms":[{"comp":[1],"coef":"1","extra":0}]}', "['extra']"),
        ('{"basis":"M","terms":[{"comp":[1],"coef":"1"}],"x":1}', "['x']"),
    ],
    ids=("repeated-composition", "unknown-term-key", "unknown-top-level-key"),
)
def test_theta_elem_rejects_repeats_and_unknown_keys(capsys, elem, shown):
    code, out, err = invoke(capsys, "theta", "--elem", elem)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad element JSON: ") and shown in err


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("verify", "--suite", "antipode", "--basis", "nonsense", "--degree", "2"), "--basis"),
        (("psi", "--hopf", "sh", "--input", "2,1", "--basis", "type1"), "--basis"),
        (("psi", "--hopf", "poset", "--input", "2; 1<2", "--basis", "type1"), "--basis"),
        (("phi", "--hopf", "graph", "--input", "2; 1-2", "--char", "zetaQ"), "--char"),
        (("phi", "--hopf", "poset", "--input", "2; 1<2", "--char", "zetaQ"), "--char"),
        (("phi", "--hopf", "qsym", "--input", "2,1", "--basis", "type1"), "--basis"),
        (("theta", "--comp", "5,5", "--elem", '{"basis":"M","terms":[{"comp":[1],"coef":"1"}]}'), "--comp"),
        (("theta", "--comp", "1", "--elem", ""), "--comp"),
    ],
    ids=(
        "verify-antipode-basis",
        "psi-sh-basis",
        "psi-poset-basis",
        "phi-graph-char",
        "phi-poset-char",
        "phi-basis",
        "theta-comp-and-elem",
        "theta-comp-and-empty-elem",
    ),
)
def test_flags_a_command_ignores_are_rejected(capsys, argv, shown):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and shown in err


def test_verify_fg_roundtrip_reports_the_first_mismatch(capsys, monkeypatch):
    # no basis the CLI accepts breaks the round trip, so break g_to_f at [1,1]
    real = verify.g_to_f

    def off_at_11(g):
        back = real(g)
        return lambda comp: back(comp) + (1 if comp == (1, 1) else 0)

    monkeypatch.setattr(verify, "g_to_f", off_at_11)
    code, out, err = invoke(capsys, "verify", "--suite", "fg-roundtrip", "--basis", "type1", "--degree", "3")
    assert code == 2
    assert out.splitlines() == [
        "[FAIL] g_to_f(f_to_g(f)) = f through degree 3: alpha=C[1,1]: 3/2 != 1/2",
        "fg-roundtrip: 1 checks, 1 failed",
    ]


def test_verify_fg_roundtrip_catches_a_wrong_closed_form(capsys, monkeypatch):
    # f_to_g serves type1 from its closed form; with the sign dropped, the solve back to f disagrees
    def unsigned(alpha):
        return Fraction(alpha[-1], alpha.size)

    make, _ = characters._BUILTINS["type1"]
    monkeypatch.setitem(characters._BUILTINS, "type1", (make, unsigned))
    # a fresh memo of the served forms, so the wrong one is built here and dropped with the patch
    fresh = lru_cache(maxsize=None)(characters._closed_form_dual.__wrapped__)
    monkeypatch.setattr(characters, "_closed_form_dual", fresh)
    code, out, err = invoke(capsys, "verify", "--suite", "fg-roundtrip", "--basis", "type1", "--degree", "3")
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "[FAIL] g_to_f(f_to_g(f)) = f through degree 3: alpha=C[1,1]: -1/2 != 1/2",
        "fg-roundtrip: 1 checks, 1 failed",
    ]


def test_verify_antipode_reports_a_wrong_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(verify, "antipode_word", lambda h: h)
    code, out, err = invoke(capsys, "verify", "--suite", "antipode", "--degree", "3")
    assert code == 2
    assert out.splitlines() == [
        "[FAIL] word closed form = recursion through degree 3: alpha=C[1]",
        "[PASS] antipode axiom in basis M through degree 3",
        "[PASS] antipode axiom in basis X through degree 3",
        "antipode: 3 checks, 1 failed",
    ]


@pytest.mark.parametrize(
    "basis, lines",
    [
        (
            MONOMIAL,
            [
                "[PASS] word closed form = recursion through degree 3",
                "[FAIL] antipode axiom in basis M through degree 3: alpha=C[1]",
                "[PASS] antipode axiom in basis X through degree 3",
                "antipode: 3 checks, 1 failed",
            ],
        ),
        (
            WORD,
            [
                "[FAIL] word closed form = recursion through degree 3: alpha=C[1]",
                "[PASS] antipode axiom in basis M through degree 3",
                "[FAIL] antipode axiom in basis X through degree 3: alpha=C[1]",
                "antipode: 3 checks, 2 failed",
            ],
        ),
    ],
    ids=(MONOMIAL, WORD),
)
def test_verify_antipode_reports_a_wrong_recursion(capsys, monkeypatch, basis, lines):
    # S doubled on one basis breaks its axiom, S(1) b + S(b) 1 = 0, at b = [1]; the suite
    # takes S in M from the closed form of antipode_monomial and S in X from the recursion
    if basis == MONOMIAL:
        real_monomial = verify.antipode_monomial
        unit = GradedElement.unit(MONOMIAL)
        monkeypatch.setattr(verify, "antipode_monomial", lambda h: h if h == unit else real_monomial(h).scaled(2))
    else:
        real = verify.antipode_by_recursion

        def doubled(b, comp):
            image = real(b, comp)
            return image.scaled(2) if b == basis and comp else image

        monkeypatch.setattr(verify, "antipode_by_recursion", doubled)
    code, out, err = invoke(capsys, "verify", "--suite", "antipode", "--degree", "3")
    assert code == 2
    assert out.splitlines() == lines


def test_verify_antipode_catches_a_wrong_product_rule(capsys, monkeypatch):
    # merged words counted twice: S in M comes from its closed form, the antipode of the true
    # product, so the axiom fails at the first merged word, M[1] M[1]
    def merged_twice(a, b):
        return {w: m * (2 if len(w) < len(a) + len(b) else 1) for w, m in quasi_shuffle(a, b).items()}

    monkeypatch.setitem(elements._PRODUCT_RULES, MONOMIAL, merged_twice)
    monkeypatch.setattr(elements, "_antipode_cache", {})
    code, out, err = invoke(capsys, "verify", "--suite", "antipode", "--degree", "5")
    assert code == 2
    assert out.splitlines() == [
        "[PASS] word closed form = recursion through degree 5",
        "[FAIL] antipode axiom in basis M through degree 5: alpha=C[1,1]",
        "[PASS] antipode axiom in basis X through degree 5",
        "antipode: 3 checks, 1 failed",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "antipode", "--degree", "2"),
        ("demo-graph", "--input", "2; 1-2"),
        ("demo-poset", "--input", "2; 1<2"),
    ],
)
def test_text_only_commands_reject_other_formats(capsys, argv):
    code, text_out, _ = invoke(capsys, *argv)
    assert code == 0
    assert invoke(capsys, *argv, "--format", "text")[:2] == (0, text_out)
    for fmt in ("json", "csv"):
        code, out, err = invoke(capsys, *argv, "--format", fmt)
        assert code == 1
        assert out == ""
        assert "--format" in err


def test_console_script_entry():
    # Run the [project.scripts] target the way the installed wrapper does, so
    # the test needs no install and still fails if the entry is broken.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qshuffle"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "expand", "--basis", "type1", "--comp", "2,1"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "M[2,1] + 1/3 M[3]\n"


def test_imports_only_the_standard_library():
    # -S leaves site-packages off the path, so an import of an installed package fails too
    code = (
        "import sys; import qshuffle, qshuffle.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['__main__', 'qshuffle']\n"


def test_library_modules_import_no_private_names_from_each_other():
    # the two product tables stay importable by name for the benchmark's cache counters
    pinned = {("compositions", "_quasi_shuffle_pairs"), ("compositions", "_shuffle_pairs")}
    found = []
    for path in sorted((REPO_ROOT / "src" / "qshuffle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    (path.name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and (node.module, alias.name) not in pinned
                ]
    assert found == []


def test_library_modules_read_no_private_attributes_of_each_others_names():
    # Name._x, where Name comes from another module of the package, reaches into that module's internals
    found = []
    for path in sorted((REPO_ROOT / "src" / "qshuffle").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        found += [
            (path.name, node.lineno, f"{node.value.id}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
            and node.attr.startswith("_") and not node.attr.startswith("__")
        ]
    assert found == []


def test_only_the_report_sweep_makes_a_check_result():
    # a check enters a report one way: VerifyReport.sweep names it and records its first witness or None,
    # so no other code of the package reads the name CheckResult outside a type annotation
    found = []

    def walk(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        named = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if named == "CheckResult" and (path.name, scope) != ("verify.py", "VerifyReport.sweep"):
            found.append((path.name, node.lineno, scope))
        annotations = {getattr(node, "annotation", None), getattr(node, "returns", None)}
        for child in ast.iter_child_nodes(node):
            if child not in annotations:
                walk(child, path, scope)

    for path in sorted((REPO_ROOT / "src" / "qshuffle").glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    assert found == []


def test_algebra_layers_import_no_verification_code():
    # verify builds on the algebra, never the other way round
    found = []
    for layer in ("compositions", "elements", "functionals", "characters", "universal", "demos"):
        path = REPO_ROOT / "src" / "qshuffle" / f"{layer}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(layer, name) for name in names if "verify" in name.split(".")]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for its imports in a fresh process; the package's records need neither module
    code = "import sys; before = set(sys.modules); import qshuffle.cli; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "qshuffle.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_records_are_read_only_values():
    # each record, built positionally and by keyword: equal fields give equal records, and no field can be assigned
    from qshuffle.characters import OrderedPartitionSpec, builtin
    from qshuffle.compositions import EMPTY, CompositionStats
    from qshuffle.universal import HopfProvider
    from qshuffle.verify import CheckResult, IntegralityWitness, Violation, VerifyReport
    from oracles import qsym_provider

    alpha, beta = Composition((1, 2)), Composition((3,))
    coproduct, degree = qsym_provider().coproduct, qsym_provider().degree
    records = [
        (CompositionStats(2, 8), CompositionStats(aut_count=2, z_value=8)),
        (OrderedPartitionSpec(abs, abs, builtin), OrderedPartitionSpec(classify=abs, class_key=abs, character_for=builtin)),
        (HopfProvider(coproduct, degree, EMPTY), HopfProvider(coproduct=coproduct, degree=degree, unit_label=EMPTY)),
        (CheckResult("c", None), CheckResult(name="c", witness=None)),
        (VerifyReport("t", []), VerifyReport(title="t")),
        (Violation("product", alpha, beta, 1, 2), Violation(kind="product", alpha=alpha, beta=beta, expected=1, actual=2)),
        (IntegralityWitness(alpha, beta, Fraction(2, 3)), IntegralityWitness(alpha=alpha, beta=beta, value=Fraction(2, 3))),
    ]
    fields = ["aut_count", "max_part", "unit_label", "witness", "title", "actual", "value"]
    for (positional, by_keyword), field in zip(records, fields):
        assert positional == by_keyword, type(positional).__name__
        with pytest.raises(AttributeError):
            setattr(positional, field, getattr(positional, field))
        assert positional == by_keyword
    assert OrderedPartitionSpec(abs, abs, builtin).max_part is None
    assert str(records[-1][0]) == "aut(C[1,2]) f(C[1,2], C[3]) = 2/3"
    # equal providers hash equal, so they key one dict entry; a report equals no tuple of its fields
    provider, same = records[2]
    assert hash(provider) == hash(same) and len({provider: 1, same: 2}) == 1
    report = VerifyReport("t", [CheckResult("c", None)])
    assert report != ("t", report.checks) and ("t", report.checks) != report
    # each repr names its fields
    assert repr(provider) == f"HopfProvider(coproduct={coproduct!r}, degree={degree!r}, unit_label=C[-])"
    assert repr(report) == "VerifyReport(title='t', checks=[CheckResult(name='c', witness=None)])"
    # a provider keeps an instance __dict__, so code that wraps the functions an object holds reaches them
    assert {"coproduct", "degree", "unit_label"} <= set(vars(qsym_provider()))


def test_all_lists_importable_names_and_no_modules():
    import qshuffle

    assert len(set(qshuffle.__all__)) == len(qshuffle.__all__)
    for name in qshuffle.__all__:
        assert not isinstance(getattr(qshuffle, name), type(qshuffle)), name


def _library_references() -> set[str]:
    """The names and attribute names that the package's modules, __init__ aside, read outside their own definitions.

    A name a function binds itself (an argument or an assignment) is its local, not a reference.
    """
    found = set()

    def walk(node, enclosing, local):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.FunctionDef):
            args = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            stored = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            local = local | args | stored
        if isinstance(node, ast.Name) and node.id not in local | enclosing:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing, local)

    for path in (REPO_ROOT / "src" / "qshuffle").glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), frozenset(), frozenset())
    return found


def _kept(obj) -> bool:
    doc = inspect.getdoc(getattr(obj, "__func__", obj)) or ""
    return any(line.startswith("Kept:") for line in doc.splitlines())


def test_every_public_name_has_a_caller_or_a_kept_reason():
    import qshuffle

    classes = (
        "Composition", "GradedElement", "TensorElement", "Functional", "CharacterPowerEvaluator",
        "SmallGraph", "SmallPoset",
    )
    public = [(name, getattr(qshuffle, name)) for name in qshuffle.__all__]
    for cls in (getattr(qshuffle, name) for name in classes):
        # the class's own methods and properties and those of its bases in the package, not tuple's or object's
        for base in cls.__mro__:
            if base.__module__.startswith("qshuffle."):
                public += [(f"{cls.__name__}.{n}", obj) for n, obj in vars(base).items() if not n.startswith("_")]
    assert len(public) > len(qshuffle.__all__)
    references = _library_references()
    uncalled = [(label, obj) for label, obj in public if label.rpartition(".")[2] not in references]
    assert [label for label, obj in uncalled if not _kept(obj)] == []
    # the Kept: lines only get fewer; a method both demo classes inherit from one base is one line
    assert len({getattr(obj, "__func__", obj) for label, obj in uncalled if _kept(obj)}) <= 9


def test_demo_graph_at_the_cap_finishes():
    # the edgeless graph on 10 vertices has the most stable-set partitions of any graph
    proc = subprocess.run(
        [sys.executable, "-m", "qshuffle.cli", "demo-graph", "--input", "10; "],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "chromatic polynomial: k^10" in lines
    assert "match: yes" in lines


def test_module_invocation_matches_script():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from qshuffle.cli import run; raise SystemExit(run(['theta', '--comp', '2,1']))",
        ],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "-2 M[3]\n"
