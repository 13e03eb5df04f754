"""Command line interface: outputs, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qshuffle import cli
from qshuffle.cli import MAX_DEGREE, SUITES, run
from qshuffle.elements import MONOMIAL, WORD

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
    assert "[FAIL]" in out
    assert "aut(C[1,2]) f(C[1,2], C[3]) = 2/3" in out


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = invoke(
        capsys, "expand", "--basis", "type1", "--comp", "2,1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "M[2,1] + 1/3 M[3]\n"


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


def test_exact_rationals_are_accepted(capsys):
    # theta(M[1]) = 2 M[1]
    for coef, expected in (('"1/3"', "2/3 M[1]\n"), ('"3"', "6 M[1]\n"), ("3", "6 M[1]\n"), ('"-1.5"', "-3 M[1]\n")):
        assert invoke(capsys, *_theta_of_coef(coef))[:2] == (0, expected), coef
    code, out, _ = invoke(capsys, "expand", "--basis", "prefix-sum:1,4,9", "--comp", "1,2", "--kind", "shuffle")
    assert (code, out) == (0, "1/4 M[1,2] + 1/5 M[3]\n")


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
    real = cli.g_to_f

    def off_at_11(g):
        back = real(g)
        return lambda comp: back(comp) + (1 if comp == (1, 1) else 0)

    monkeypatch.setattr(cli, "g_to_f", off_at_11)
    code, out, err = invoke(capsys, "verify", "--suite", "fg-roundtrip", "--basis", "type1", "--degree", "3")
    assert code == 2
    assert out.splitlines() == [
        "[FAIL] g_to_f(f_to_g(f)) = f through degree 3: alpha=C[1,1]: 3/2 != 1/2",
        "fg-roundtrip: 1 checks, 1 failed",
    ]


def test_verify_antipode_reports_a_wrong_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(cli, "antipode_word", lambda h: h)
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
    # S doubled on one basis breaks its axiom, S(1) b + S(b) 1 = 0, at b = [1]
    real = cli.antipode_by_recursion

    def doubled(b, comp):
        image = real(b, comp)
        return image.scaled(2) if b == basis and comp else image

    monkeypatch.setattr(cli, "antipode_by_recursion", doubled)
    code, out, err = invoke(capsys, "verify", "--suite", "antipode", "--degree", "3")
    assert code == 2
    assert out.splitlines() == lines


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
