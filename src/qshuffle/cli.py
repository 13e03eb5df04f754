"""Batch command line for the engine.

Subcommands expand bases, convert monomials into derived bases, export
change-of-basis tables, run verification suites, and apply the canonical
maps (theta, phi, psi, convolution exp and log) and the two demo algebras.
All output is exact rational text, JSON, or CSV; identical invocations
produce identical bytes.  Exit codes: 0 on success, 1 on a parse or usage
problem, 2 when a verification found a counterexample (printed witness).
Each handler returns its output, one text or an iterable of lines, and its
exit code; run() writes the output as it comes, in the one place output is
written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from . import demos
from .characters import basis_contract, basis_expand, f_to_g, qps_expand, require_normalized, resolve_basis
from .compositions import (
    EMPTY, Composition, check_length, compositions_of, compositions_up_to, is_numeral, shown, shown_number, stats
)
from .elements import GradedElement, MONOMIAL, WORD, coarsening_sum, format_element
from .errors import EngineError
from .functionals import exp_functional, log_functional
from .universal import (
    CANONICAL_NAMES, HopfProvider, canonical, char_to_infchar, require_unit_value, theta, universal_to_qsym,
    universal_to_sh
)
from .verify import REQUIRED, SUITES

MAX_DEGREE = 10


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _add_common(
    sub, handler, *, basis=False, comp=False, degree=None, kind=False, elem=False,
    formats=("text", "json", "csv"),
):
    sub.set_defaults(handler=handler)
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if basis:
        sub.add_argument("--basis", default=None, help="basis registry name")
    if comp:
        sub.add_argument("--comp", default=None, help="composition, e.g. 2,1,3 or - for empty")
    if degree is not None:
        required = degree == "required"
        sub.add_argument("--degree", type=_degree_arg, required=required, default=(None if required else degree))
    if kind:
        sub.add_argument("--kind", choices=("qps", "shuffle"), default="qps")
    if elem:
        sub.add_argument("--elem", default=None, help="element as JSON text")


def build_parser() -> _Parser:
    parser = _Parser(prog="qshuffle", description="exact quasisymmetric/shuffle calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("expand", help="print P_alpha or X_alpha in the monomial basis")
    _add_common(s, _cmd_expand, basis=True, comp=True, kind=True)

    s = sub.add_parser("convert", help="print M_alpha over a derived basis")
    _add_common(s, _cmd_convert, basis=True, comp=True, kind=True)

    s = sub.add_parser("table", help="full change-of-basis matrix for one degree")
    _add_common(s, _cmd_table, basis=True, degree="required", kind=True)

    s = sub.add_parser("verify", help="run a verification suite")
    _add_common(s, _cmd_verify, basis=True, degree=6, formats=("text",))
    s.add_argument("--suite", choices=SUITES, required=True)

    s = sub.add_parser("theta", help="apply the canonical projection theta")
    _add_common(s, _cmd_theta, comp=True, elem=True)

    for name, noun, apply in (("exp", "exponential", exp_functional), ("log", "logarithm", log_functional)):
        s = sub.add_parser(name, help=f"convolution {noun} of a functional")
        _add_common(s, partial(_cmd_exp_log, apply=apply), degree=6)
        s.add_argument("--functional", required=True, help="canonical name, f:<basis>, or g:<basis>")

    s = sub.add_parser("phi", help="universal morphism into the quasisymmetric algebra")
    _add_common(s, partial(_cmd_morphism, flag="char"))
    s.add_argument("--hopf", choices=[name for name, entry in HOPF_INPUTS.items() if entry.phi], required=True)
    s.add_argument("--input", required=True, help="graph/poset literal or composition text")
    s.add_argument("--char", default=None, help="canonical character name (qsym only)")

    s = sub.add_parser("psi", help="universal morphism into the shuffle algebra")
    _add_common(s, partial(_cmd_morphism, flag="basis"), basis=True)
    s.add_argument("--hopf", choices=list(HOPF_INPUTS), required=True)
    s.add_argument("--input", required=True, help="graph/poset literal or composition text")

    s = sub.add_parser("demo-graph", help="chromatic two-way check for one graph")
    _add_common(s, _cmd_demo_graph, basis=True, formats=("text",))
    s.add_argument("--input", required=True, help="graph literal, e.g. '3; 1-2,2-3'")

    s = sub.add_parser("demo-poset", help="ideal-flag check for one poset")
    _add_common(s, _cmd_demo_poset, formats=("text",))
    s.add_argument("--input", required=True, help="poset literal, e.g. '3; 1<2,1<3'")

    return parser


def _degree_arg(text: str) -> int:
    """--degree as ASCII digits; int() alone would also take signs, spaces and other scripts.

    An over-long text is named by its length instead of being echoed.
    """
    try:
        check_length(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    if not is_numeral(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}")
    return int(text)


def _check_degree(degree: int) -> int:
    if not (1 <= degree <= MAX_DEGREE):
        raise CliUsageError(f"--degree must be between 1 and {MAX_DEGREE}, got {shown_number(degree)}")
    return degree


def _check_size(comp: Composition, what: str) -> Composition:
    if comp.size > MAX_DEGREE:
        raise CliUsageError(f"{what} has size {shown_number(comp.size)}; sizes are capped at {MAX_DEGREE}")
    return comp


def _parse_comp(text: str, flag: str) -> Composition:
    return _check_size(Composition.from_text(text), flag)


def _parse_literal(parse, text: str):
    """A graph or poset --input through parse, its size capped before parse takes any closure."""
    count = text.partition(";")[0].strip()
    if is_numeral(count) and int(count) > MAX_DEGREE:
        raise CliUsageError(f"--input has size {shown_number(int(count))}; sizes are capped at {MAX_DEGREE}")
    return parse(text)


def _canonical_char(name: str):
    """The canonical functional that --char names, refused unless it is 1 at the unit, as a character is."""
    if name not in CANONICAL_NAMES:
        raise CliUsageError(f"--char must be one of {', '.join(CANONICAL_NAMES)}")
    char = canonical(name)
    require_unit_value(char, EMPTY, MONOMIAL)
    return char


class _HopfInput(NamedTuple):
    """One --hopf name: its --input parser under the size cap, and the morphisms of phi and psi.

    Each is (the default of the command's flag, or None where the flag does not apply, and the maker that
    returns the label -> image map for the flag's value); phi is None where phi does not apply.  Graph and
    poset phi are the morphisms demos holds; QSym's and Sh's are the coarsening walk, elements.coarsening_sum.
    """

    parse: Callable[[str], object]
    phi: tuple | None
    psi: tuple


def _graph_psi(basis: str):
    """Psi of the graph infinitesimal character of basis, g o Phi for the no-edges character.

    Phi and Psi both read one provider, whose coproduct memo lives as long as
    this Psi: each label's coproduct is formed once, where demos.graph_infchar
    and a second provider would form it once per morphism.
    """
    graphs = demos.graph_provider()
    provider = HopfProvider(lru_cache(maxsize=None)(graphs.coproduct), graphs.degree, graphs.unit_label)
    xi = char_to_infchar(universal_to_qsym(provider, demos.zeta_no_edges), resolve_basis(basis))
    return universal_to_sh(provider, xi)


_COMP_INPUT = partial(_parse_comp, flag="--input")
HOPF_INPUTS = {
    "graph": _HopfInput(
        partial(_parse_literal, demos.SmallGraph.from_text), (None, lambda _: demos.chromatic_symmetric),
        ("type1", _graph_psi),
    ),
    "poset": _HopfInput(
        partial(_parse_literal, demos.SmallPoset.from_cover_text), (None, lambda _: demos.kp_generating_function),
        (None, lambda _: universal_to_sh(demos.poset_provider(), demos.xi_unique_min)),
    ),
    "qsym": _HopfInput(
        _COMP_INPUT,
        ("zetaQ", lambda name: partial(coarsening_sum, MONOMIAL, _canonical_char(name))),
        ("type2", lambda basis: partial(coarsening_sum, WORD, f_to_g(resolve_basis(basis)))),
    ),
    "sh": _HopfInput(_COMP_INPUT, None, (None, lambda _: partial(coarsening_sum, WORD, canonical("xiS")))),
}


def _need(value, flag: str):
    if value is None:
        raise CliUsageError(f"{flag} is required for this command")
    return value


def _refuse(value, flag: str, context: str) -> None:
    """A flag that the command would ignore is an error, not a silent no-op."""
    if value is not None:
        raise CliUsageError(f"{flag} does not apply to {context}")


def _write(output, stream) -> None:
    """One text, with a newline written after it unless it ends in one, or each line of an iterable as it comes."""
    if isinstance(output, str):
        stream.write(output)
        if not output.endswith("\n"):
            stream.write("\n")
    else:
        stream.writelines(output)


def _emit(output, out_path: str | None) -> None:
    """output to --out, opened only now, or to stdout, flushed so that a closed pipe raises here."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                _write(output, fh)
        except OSError as exc:
            raise CliUsageError(f"cannot write --out {shown(out_path)}: {exc.strerror}")
    else:
        _write(output, sys.stdout)
        sys.stdout.flush()


def _printed(value, what, *args) -> str:
    """str(value), or one error naming the output, what(*args), past the interpreter's digit limit."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CliUsageError(f"{what(*args)} has more than {limit} digits, too many to print")


class _Echo:
    """The file of a csv writer whose writerow returns each formatted row, since it returns what write returns."""

    def write(self, line: str) -> str:
        return line


def _csv(header: list[str], rows):
    """The header and then each row as csv lines, each formatted as it is read."""
    return map(csv.writer(_Echo(), lineterminator="\n").writerow, chain([header], rows))


def _element_payload(elem: GradedElement, fmt: str) -> str | Iterable[str]:
    for comp, coef in elem.terms.items():
        _printed(coef, "the coefficient of {} in basis {}".format, comp, elem.basis)
    if fmt == "json":
        return elem.to_json()
    if fmt == "csv":
        return _csv(["comp", "coef"], ([comp.to_text(), str(elem.terms[comp])] for comp in elem.support()))
    return format_element(elem)


def _functional_payload(side: str, values: dict[Composition, Fraction], fmt: str) -> str | Iterable[str]:
    """values in canonical order, the empty composition first."""
    if fmt == "text":
        for comp, value in values.items():
            _printed(value, "the value at {}".format, comp)
        return "\n".join(f"{side}[{comp.to_text()}] -> {value}" for comp, value in values.items())
    return _element_payload(GradedElement(side, values), fmt)


def _resolve_functional(name: str):
    """Returns (side basis tag, Functional) for the exp/log registry."""
    if name in CANONICAL_NAMES:
        side = WORD if name == "xiS" else MONOMIAL
        return side, canonical(name)
    if name.startswith("f:"):
        return WORD, resolve_basis(name[2:])
    if name.startswith("g:"):
        return MONOMIAL, f_to_g(resolve_basis(name[2:]))
    raise CliUsageError(
        f"unknown functional {shown(name)}; known: {', '.join(CANONICAL_NAMES)}, f:<basis>, g:<basis>"
    )


def _parse_element(args) -> GradedElement:
    if getattr(args, "elem", None) is not None:
        _refuse(args.comp, "--comp", "--elem")
        try:
            elem = GradedElement.from_json(args.elem)
        except ValueError as exc:
            raise CliUsageError(f"bad element JSON: {exc}")
        except RecursionError:
            # json.loads recurses once per nesting level, so the interpreter's recursion limit bounds the depth
            raise CliUsageError("bad element JSON: nested too deeply")
        for comp in elem.terms:
            _check_size(comp, "a term of --elem")
        return elem
    if getattr(args, "comp", None) is not None:
        return GradedElement.basis_element(MONOMIAL, _parse_comp(args.comp, "--comp"))
    raise CliUsageError("provide --comp or --elem")


def _basis_args(args):
    """The --basis character f and the expansion that --kind names: qps_expand or basis_expand, bound to f."""
    f = resolve_basis(_need(args.basis, "--basis"))
    return f, partial(qps_expand if args.kind == "qps" else basis_expand, f)


def _basis_comp_args(args):
    return *_basis_args(args), _parse_comp(_need(args.comp, "--comp"), "--comp")


def _cmd_expand(args) -> tuple[str | Iterable[str], int]:
    _, expand, alpha = _basis_comp_args(args)
    return _element_payload(expand(alpha), args.format), 0


def _cmd_convert(args) -> tuple[str | Iterable[str], int]:
    f, _, alpha = _basis_comp_args(args)
    if args.kind == "shuffle":
        return _element_payload(GradedElement(f"X({args.basis})", basis_contract(f_to_g(f), alpha)), args.format), 0
    require_normalized(f, alpha.size)  # P_beta = aut(beta) X_beta is a power sum basis only for a normalized f
    terms = {beta: Fraction(coef, stats(beta).aut_count) for beta, coef in basis_contract(f_to_g(f), alpha).items()}
    return _element_payload(GradedElement(f"P({args.basis})", terms), args.format), 0


def _cmd_table(args) -> tuple[str | Iterable[str], int]:
    """The change-of-basis matrix, each row kept as its nonzero cells' texts by column index.

    Every cell goes through _printed in row-major order before any line is
    made, so a cell past the digit limit leaves stdout empty and --out
    untouched.  json is one text, each row's list of cells made as the row
    is printed; text and csv are lines, made as they are written, each row
    filled from one shared zero cell.
    """
    _, expand = _basis_args(args)
    degree = _check_degree(args.degree)
    comps = list(compositions_of(degree))
    cell = "the table cell at alpha={}, beta={}".format
    rows = []
    for alpha in comps:
        terms = expand(alpha).terms
        row = {j: _printed(terms[beta], cell, alpha, beta) for j, beta in enumerate(comps) if beta in terms}
        rows.append(_row_cells(row, "0", len(comps)) if args.format == "json" else row)
    labels = [c.to_text() for c in comps]
    if args.format == "json":
        return json.dumps(
            {"basis": args.basis, "kind": args.kind, "degree": degree, "order": labels, "rows": rows},
            separators=(", ", ": "),
        ), 0
    if args.format == "csv":
        dense_rows = ([label] + _row_cells(row, "0", len(comps)) for label, row in zip(labels, rows))
        return _csv(["alpha"] + labels, dense_rows), 0
    width = max([len(s) for row in rows for s in row.values()] + [len(label) for label in labels] + [1])
    return _text_table(labels, rows, width), 0


def _row_cells(row: dict[int, str], zero: str, size: int, width: int = 1) -> list[str]:
    """The size cells of a table row: its texts by column index, right-aligned to width, and zero in every other."""
    cells = [zero] * size
    for j, text in row.items():
        cells[j] = text.rjust(width)
    return cells


def _text_table(labels: list[str], rows: list[dict[int, str]], width: int):
    """The text table's lines: the labels, then each row under its label, every cell right-aligned to width."""
    yield " | ".join([" " * width] + [label.rjust(width) for label in labels]) + "\n"
    zero = "0".rjust(width)
    for label, row in zip(labels, rows):
        yield label.rjust(width) + " | " + " | ".join(_row_cells(row, zero, len(labels), width)) + "\n"


def _cmd_verify(args) -> tuple[str, int]:
    degree = _check_degree(args.degree)
    rule, run_suite = SUITES[args.suite]
    if rule is None:
        _refuse(args.basis, "--basis", f"--suite {args.suite}")
    elif rule == REQUIRED:
        _need(args.basis, "--basis")
    elif args.basis not in (None, rule):
        raise CliUsageError(f"{args.suite} runs on the {rule} basis; drop --basis or pass {rule}")
    report = run_suite(args.basis, degree)
    return report.render(), 0 if report.passed else 2


def _cmd_theta(args) -> tuple[str | Iterable[str], int]:
    return _element_payload(theta(_parse_element(args)), args.format), 0


def _cmd_exp_log(args, apply) -> tuple[str | Iterable[str], int]:
    degree = _check_degree(args.degree)
    side, functional = _resolve_functional(args.functional)
    result = apply(functional)
    values = {comp: result(comp) for comp in compositions_up_to(degree)}
    return _functional_payload(side, values, args.format), 0


def _cmd_morphism(args, flag) -> tuple[str | Iterable[str], int]:
    """phi or psi on the --hopf entry: refuse a flag that does not apply, parse --input, then make the morphism."""
    entry = HOPF_INPUTS[args.hopf]
    default, make = getattr(entry, args.command)
    value = getattr(args, flag)
    if default is None:
        _refuse(value, f"--{flag}", f"--hopf {args.hopf}")
    h = entry.parse(args.input)
    return _element_payload(make(value or default)(h), args.format), 0


def _demo_report(lines: list[str], left, right) -> tuple[str, int]:
    """The demo's lines, then whether its two computations match: exit code 0 if they do, 2 if not."""
    match = left == right
    return "\n".join(lines + [f"match: {'yes' if match else 'NO'}"]), 0 if match else 2


def _cmd_demo_graph(args) -> tuple[str, int]:
    g = HOPF_INPUTS["graph"].parse(args.input)
    f = resolve_basis(args.basis or "type1")
    coeffs = demos.chromatic_polynomial(g)
    x_g = demos.chromatic_symmetric(g)
    from_poly, from_infchar = demos.graph_infchar_two_ways(g, f)
    lines = [
        f"graph: {g.to_text()}",
        f"chromatic polynomial: {demos.format_polynomial(coeffs)}",
        f"chromatic symmetric function: {format_element(x_g)}",
        f"linear coefficient from the polynomial: {from_poly}",
        f"linear coefficient as infinitesimal character ({f.name}): {from_infchar}",
    ]
    return _demo_report(lines, from_poly, from_infchar)


def _cmd_demo_poset(args) -> tuple[str, int]:
    p = HOPF_INPUTS["poset"].parse(args.input)
    k_p = demos.kp_generating_function(p)
    eta_value, indicator = demos.eta_check(p)
    lines = [
        f"poset: {p.to_text()}",
        f"ideal-flag generating function: {format_element(k_p)}",
        f"eta pairing: {eta_value}",
        f"unique minimal element indicator: {indicator}",
    ]
    return _demo_report(lines, eta_value, indicator)


def run(argv=None) -> int:
    """Parse argv, run its command, and write the command's output in the one place output is written."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output, code = args.handler(args)
        _emit(output, args.out)
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): stdout's file descriptor now writes to os.devnull,
        # so the interpreter's flush at exit does not raise again, and the command ends with exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (CliUsageError, EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
