"""Batch command line for the engine.

Subcommands expand bases, convert monomials into derived bases, export
change-of-basis tables, run verification suites, and apply the canonical
maps (theta, phi, psi, convolution exp and log) and the two demo algebras.
All output is exact rational text, JSON, or CSV; identical invocations
produce identical bytes.  Exit codes: 0 on success, 1 on a parse or usage
problem, 2 when a verification found a counterexample (printed witness).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import partial

from . import demos
from .characters import (
    basis_contract,
    basis_expand,
    builtin,
    check_integral_nonneg,
    f_to_g,
    g_to_f,
    qps_expand,
    resolve_basis,
    verify_qps,
)
from .compositions import Composition, compositions_of, compositions_up_to, deconcatenations, stats
from .elements import (
    GradedElement,
    MONOMIAL,
    WORD,
    _accumulate_times,
    antipode_by_recursion,
    antipode_word,
    format_element,
)
from .errors import EngineError
from .functionals import exp_functional, is_character, log_functional
from .report import VerifyReport
from .universal import (
    CANONICAL_NAMES,
    canonical,
    qsym_provider,
    sh_provider,
    theta,
    theta_eigencheck,
    universal_to_qsym,
    universal_to_sh,
)

MAX_DEGREE = 10
SUITES = ("shuffle-character", "qps", "antipode", "theta-eigen", "integrality", "fg-roundtrip")


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
        sub.add_argument(
            "--degree", type=int, required=required, default=(None if required else degree)
        )
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

    s = sub.add_parser("exp", help="convolution exponential of a functional")
    _add_common(s, partial(_cmd_exp_log, apply=exp_functional), degree=6)
    s.add_argument("--functional", required=True, help="canonical name, f:<basis>, or g:<basis>")

    s = sub.add_parser("log", help="convolution logarithm of a functional")
    _add_common(s, partial(_cmd_exp_log, apply=log_functional), degree=6)
    s.add_argument("--functional", required=True, help="canonical name, f:<basis>, or g:<basis>")

    s = sub.add_parser("phi", help="universal morphism into the quasisymmetric algebra")
    _add_common(s, _cmd_phi)
    s.add_argument("--hopf", choices=("graph", "poset", "qsym"), required=True)
    s.add_argument("--input", required=True, help="graph/poset literal or composition text")
    s.add_argument("--char", default=None, help="canonical character name (qsym only)")

    s = sub.add_parser("psi", help="universal morphism into the shuffle algebra")
    _add_common(s, _cmd_psi, basis=True)
    s.add_argument("--hopf", choices=("graph", "poset", "qsym", "sh"), required=True)
    s.add_argument("--input", required=True, help="graph/poset literal or composition text")

    s = sub.add_parser("demo-graph", help="chromatic two-way check for one graph")
    _add_common(s, _cmd_demo_graph, basis=True, formats=("text",))
    s.add_argument("--input", required=True, help="graph literal, e.g. '3; 1-2,2-3'")

    s = sub.add_parser("demo-poset", help="ideal-flag check for one poset")
    _add_common(s, _cmd_demo_poset, formats=("text",))
    s.add_argument("--input", required=True, help="poset literal, e.g. '3; 1<2,1<3'")

    return parser


def _check_degree(degree: int) -> int:
    if degree is None:
        raise CliUsageError("--degree is required")
    if not (1 <= degree <= MAX_DEGREE):
        raise CliUsageError(f"--degree must be between 1 and {MAX_DEGREE}, got {degree}")
    return degree


def _check_size(comp: Composition, what: str) -> Composition:
    if comp.size > MAX_DEGREE:
        raise CliUsageError(f"{what} has size {comp.size}; sizes are capped at {MAX_DEGREE}")
    return comp


def _parse_comp(text: str, flag: str) -> Composition:
    return _check_size(Composition.from_text(text), flag)


def _parse_literal(parse, text: str):
    """A graph or poset --input through parse, its size capped before parse takes any closure."""
    count = text.partition(";")[0].strip()
    if count.isdigit() and int(count) > MAX_DEGREE:
        raise CliUsageError(f"--input has size {int(count)}; sizes are capped at {MAX_DEGREE}")
    return parse(text)


def _need(value, flag: str):
    if value is None:
        raise CliUsageError(f"{flag} is required for this command")
    return value


def _refuse(value, flag: str, context: str) -> None:
    """A flag that the command would ignore is an error, not a silent no-op."""
    if value is not None:
        raise CliUsageError(f"{flag} does not apply to {context}")


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _element_payload(elem: GradedElement, fmt: str) -> str:
    if fmt == "json":
        return elem.to_json()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["comp", "coef"])
        for comp in elem.support():
            writer.writerow([comp.to_text(), str(elem.terms[comp])])
        return buf.getvalue()
    return format_element(elem)


def _functional_payload(side: str, values: dict[Composition, Fraction], fmt: str) -> str:
    elem = GradedElement(side, values)
    if fmt == "text":
        lines = [f"{side}[{comp.to_text()}] -> {values.get(comp, Fraction(0))}" for comp in sorted(values, key=lambda c: (c.size, tuple(c)))]
        return "\n".join(lines) if lines else "0"
    return _element_payload(elem, fmt)


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
        f"unknown functional {name!r}; known: {', '.join(CANONICAL_NAMES)}, f:<basis>, g:<basis>"
    )


def _parse_element(args) -> GradedElement:
    if getattr(args, "elem", None) is not None:
        _refuse(args.comp, "--comp", "--elem")
        try:
            elem = GradedElement.from_json(args.elem)
        except (ValueError, KeyError, TypeError) as exc:
            raise CliUsageError(f"bad element JSON: {exc}")
        for comp in elem.terms:
            _check_size(comp, "a term of --elem")
        return elem
    if getattr(args, "comp", None) is not None:
        return GradedElement.basis_element(MONOMIAL, _parse_comp(args.comp, "--comp"))
    raise CliUsageError("provide --comp or --elem")


def _cmd_expand(args) -> int:
    f = resolve_basis(_need(args.basis, "--basis"))
    alpha = _parse_comp(_need(args.comp, "--comp"), "--comp")
    elem = qps_expand(f, alpha) if args.kind == "qps" else basis_expand(f, alpha)
    _emit(_element_payload(elem, args.format), args.out)
    return 0


def _cmd_convert(args) -> int:
    f = resolve_basis(_need(args.basis, "--basis"))
    alpha = _parse_comp(_need(args.comp, "--comp"), "--comp")
    g = f_to_g(f)
    coords = basis_contract(g, alpha)
    if args.kind == "qps":
        tag = f"P({args.basis})"
        terms = {beta: Fraction(coef, stats(beta).aut_count) for beta, coef in coords.items()}
    else:
        tag = f"X({args.basis})"
        terms = coords
    _emit(_element_payload(GradedElement(tag, terms), args.format), args.out)
    return 0


def _cmd_table(args) -> int:
    f = resolve_basis(_need(args.basis, "--basis"))
    degree = _check_degree(args.degree)
    comps = list(compositions_of(degree))
    rows = []
    for alpha in comps:
        terms = (qps_expand(f, alpha) if args.kind == "qps" else basis_expand(f, alpha)).terms
        rows.append([str(terms[beta]) if beta in terms else "0" for beta in comps])
    labels = [c.to_text() for c in comps]
    if args.format == "json":
        payload = json.dumps(
            {"basis": args.basis, "kind": args.kind, "degree": degree, "order": labels, "rows": rows},
            separators=(", ", ": "),
        )
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alpha"] + labels)
        for label, row in zip(labels, rows):
            writer.writerow([label] + row)
        payload = buf.getvalue()
    else:
        width = max(
            [len(s) for row in rows for s in row] + [len(label) for label in labels] + [1]
        )
        head = " | ".join(label.rjust(width) for label in [" " * width] + labels)
        lines = [head]
        for label, row in zip(labels, rows):
            lines.append(" | ".join(s.rjust(width) for s in [label] + row))
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0


def _verify_fg_roundtrip(f, degree: int) -> VerifyReport:
    report = VerifyReport("fg-roundtrip")
    back = g_to_f(f_to_g(f))

    def mismatch(comp: Composition) -> str | None:
        return None if back(comp) == f(comp) else f"alpha={comp}: {back(comp)} != {f(comp)}"

    report.sweep(f"g_to_f(f_to_g(f)) = f through degree {degree}", compositions_up_to(degree), mismatch)
    return report


def _verify_antipode(degree: int) -> VerifyReport:
    report = VerifyReport("antipode")
    comps = compositions_up_to(degree)

    def closed_form(comp: Composition) -> str | None:
        elem = GradedElement.basis_element(WORD, comp)
        return None if antipode_word(elem) == antipode_by_recursion(WORD, comp) else f"alpha={comp}"

    def axiom(basis: str, comp: Composition) -> str | None:
        target = GradedElement.unit(basis) if not comp else GradedElement.zero(basis)
        acc = {}
        for left, right in deconcatenations(comp):
            _accumulate_times(acc, antipode_by_recursion(basis, left), ((right, 1),))
        return None if GradedElement(basis, acc) == target else f"alpha={comp}"

    report.sweep(f"word closed form = recursion through degree {degree}", comps, closed_form)
    for basis in (MONOMIAL, WORD):
        report.sweep(f"antipode axiom in basis {basis} through degree {degree}", comps, partial(axiom, basis))
    return report


def _cmd_verify(args) -> int:
    degree = _check_degree(args.degree)
    suite = args.suite
    if suite == "antipode":
        _refuse(args.basis, "--basis", "--suite antipode")
        report = _verify_antipode(degree)
    elif suite == "theta-eigen":
        if args.basis not in (None, "even-odd"):
            raise CliUsageError("theta-eigen runs on the even-odd basis; drop --basis or pass even-odd")
        report = theta_eigencheck(None, degree)
    else:
        f = resolve_basis(_need(args.basis, "--basis"))
        if suite == "shuffle-character":
            ok, violation = is_character(f, degree, WORD)
            report = VerifyReport(f"shuffle-character for {args.basis}")
            report.add(
                f"f(a)f(b) = sum over shuffles through degree {degree}",
                ok,
                None if ok else str(violation),
            )
        elif suite == "qps":
            report = verify_qps(f, degree)
        elif suite == "integrality":
            ok, witness = check_integral_nonneg(f, degree)
            report = VerifyReport(f"integrality for {args.basis}")
            report.add(
                f"monomial coefficients in Z>=0 through degree {degree}",
                ok,
                None if ok else str(witness),
            )
        else:  # fg-roundtrip; argparse admits only SUITES
            report = _verify_fg_roundtrip(f, degree)
    _emit(report.render(), args.out)
    return 0 if report.passed else 2


def _cmd_theta(args) -> int:
    elem = _parse_element(args)
    _emit(_element_payload(theta(elem), args.format), args.out)
    return 0


def _cmd_exp_log(args, apply) -> int:
    degree = _check_degree(args.degree)
    side, functional = _resolve_functional(args.functional)
    result = apply(functional)
    values = {comp: result(comp) for comp in compositions_up_to(degree)}
    _emit(_functional_payload(side, values, args.format), args.out)
    return 0


def _cmd_phi(args) -> int:
    if args.hopf != "qsym":
        _refuse(args.char, "--char", f"--hopf {args.hopf}")
    if args.hopf == "graph":
        g = _parse_literal(demos.SmallGraph.from_text, args.input)
        elem = universal_to_qsym(demos.graph_provider(), demos.zeta_no_edges, g)
    elif args.hopf == "poset":
        p = _parse_literal(demos.SmallPoset.from_cover_text, args.input)
        elem = universal_to_qsym(demos.poset_provider(), demos.zeta_ones, p)
    else:
        char_name = args.char or "zetaQ"
        if char_name not in CANONICAL_NAMES:
            raise CliUsageError(f"--char must be one of {', '.join(CANONICAL_NAMES)}")
        h = _parse_comp(args.input, "--input")
        elem = universal_to_qsym(qsym_provider(), canonical(char_name), h)
    _emit(_element_payload(elem, args.format), args.out)
    return 0


def _cmd_psi(args) -> int:
    if args.hopf in ("sh", "poset"):
        _refuse(args.basis, "--basis", f"--hopf {args.hopf}")
    if args.hopf == "graph":
        g = _parse_literal(demos.SmallGraph.from_text, args.input)
        xi = demos.graph_infchar(builtin(args.basis or "type1"))
        elem = universal_to_sh(demos.graph_provider(), xi, g)
    elif args.hopf == "poset":
        p = _parse_literal(demos.SmallPoset.from_cover_text, args.input)
        elem = universal_to_sh(demos.poset_provider(), demos.xi_unique_min, p)
    elif args.hopf == "sh":
        h = _parse_comp(args.input, "--input")
        elem = universal_to_sh(sh_provider(), canonical("xiS"), h)
    else:
        f = resolve_basis(args.basis or "type2")
        h = _parse_comp(args.input, "--input")
        elem = universal_to_sh(qsym_provider(), f_to_g(f), h)
    _emit(_element_payload(elem, args.format), args.out)
    return 0


def _cmd_demo_graph(args) -> int:
    g = _parse_literal(demos.SmallGraph.from_text, args.input)
    f = resolve_basis(args.basis or "type1")
    coeffs = demos.chromatic_polynomial(g)
    x_g = demos.chromatic_symmetric(g)
    from_poly, from_infchar = demos.graph_infchar_two_ways(g, f)
    match = from_poly == from_infchar
    lines = [
        f"graph: {g.to_text()}",
        f"chromatic polynomial: {demos.format_polynomial(coeffs)}",
        f"chromatic symmetric function: {format_element(x_g)}",
        f"linear coefficient from the polynomial: {from_poly}",
        f"linear coefficient as infinitesimal character ({f.name}): {from_infchar}",
        f"match: {'yes' if match else 'NO'}",
    ]
    _emit("\n".join(lines), args.out)
    return 0 if match else 2


def _cmd_demo_poset(args) -> int:
    p = _parse_literal(demos.SmallPoset.from_cover_text, args.input)
    k_p = demos.kp_generating_function(p)
    eta_value, indicator = demos.eta_check(p)
    match = eta_value == indicator
    lines = [
        f"poset: {p.to_text()}",
        f"ideal-flag generating function: {format_element(k_p)}",
        f"eta pairing: {eta_value}",
        f"unique minimal element indicator: {indicator}",
        f"match: {'yes' if match else 'NO'}",
    ]
    _emit("\n".join(lines), args.out)
    return 0 if match else 2


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (CliUsageError, EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(run())
