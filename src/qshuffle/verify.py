"""Exhaustive verification: the suites of ``qshuffle verify`` and the predicates behind them.

Every check is an exhaustive search: it walks its cases in canonical order
and stops at the first counterexample, the witness, or finds none.
``first_witness`` is that search.  A predicate returns its witness or None,
and ``VerifyReport.sweep``, the only way into a report, records a named
search as one check.  ``SUITES`` maps each suite name to its ``--basis``
rule and its body.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from .characters import (
    basis_expand, even_odd_character, f_to_g, g_to_f, qps_expand, require_normalized, resolve_basis
)
from .compositions import (
    Composition, Record, coarsening_products, compositions_up_to, deconcatenations, pairs_up_to, partitions_of,
    rational, rearrangements, shuffle, stats,
)
from .elements import (
    GradedElement, MONOMIAL, WORD, accumulate_product, add_terms, antipode_by_recursion, antipode_monomial,
    antipode_word, coproduct, finished, power_sum, product, product_rule,
)
from .functionals import Functional
from .universal import theta


def first_witness(cases: Iterable, witness_of: Callable):
    """The first non-None witness_of(case) over cases in order; None when every case holds."""
    for case in cases:
        witness = witness_of(case)
        if witness is not None:
            return witness
    return None


class CheckResult(NamedTuple):
    """One named check of a report: its name and str(its first witness), None when it passed; read-only."""

    name: str
    witness: str | None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def line(self) -> str:
        if self.passed:
            return f"[PASS] {self.name}"
        suffix = f": {self.witness}" if self.witness else ""
        return f"[FAIL] {self.name}{suffix}"


class VerifyReport(Record):
    """A titled list of CheckResults, filled by sweep and rendered as one line per check plus a verdict.

    A compositions.Record of title and checks: assigning or deleting either
    raises AttributeError, and two reports are equal when both are.  It is
    not hashable, as its list of checks grows.
    """

    _fields = __slots__ = ("title", "checks")
    __hash__ = None

    def __init__(self, title: str, checks: list[CheckResult] | None = None):
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "checks", [] if checks is None else checks)

    def sweep(self, name: str, cases: Iterable, witness_of: Callable) -> None:
        """Add the check name: it passes when no case has a witness and fails showing str(the first) otherwise."""
        witness = first_witness(cases, witness_of)
        self.checks.append(CheckResult(name, None if witness is None else str(witness)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        out = [c.line() for c in self.checks]
        n_fail = sum(1 for c in self.checks if not c.passed)
        verdict = "all passed" if n_fail == 0 else f"{n_fail} failed"
        out.append(f"{self.title}: {len(self.checks)} checks, {verdict}")
        return "\n".join(out)


class Violation(NamedTuple):
    """First failure found by a predicate sweep, as a read-only record."""

    kind: str
    alpha: Composition | None
    beta: Composition | None
    expected: Fraction
    actual: Fraction

    def __str__(self) -> str:
        if self.kind == "value-at-empty":
            return f"value at empty composition is {self.actual}, expected {self.expected}"
        return f"pair alpha={self.alpha}, beta={self.beta}: got {self.actual}, expected {self.expected}"


def _product_witness(phi: Functional, rule, value_at_empty: int, case) -> Violation | None:
    """At the case None, the unit, phi must be value_at_empty.  At a pair, phi(alpha beta) must be
    phi(alpha) phi(beta) for a character (value 1 at empty), 0 for an infinitesimal one (value 0).
    """
    if case is None:
        holds = phi.value_at_empty == value_at_empty
        return None if holds else Violation("value-at-empty", None, None, Fraction(value_at_empty), phi.value_at_empty)
    alpha, beta = case
    lhs = sum(mult * phi(word) for word, mult in rule(alpha, beta).items())
    rhs = phi(alpha) * phi(beta) if value_at_empty else Fraction(0)
    return None if lhs == rhs else Violation("product", alpha, beta, rhs, lhs)


def _product_check(phi: Functional, max_degree: int, basis: str, value_at_empty: int):
    """The cases (the unit, then the pairs up to max_degree) and witness_of; the rule is read before any value."""
    witness_of = partial(_product_witness, phi, product_rule(basis), value_at_empty)
    return chain((None,), pairs_up_to(max_degree)), witness_of


def is_character(phi: Functional, max_degree: int, basis: str = "M") -> Violation | None:
    """Multiplicative with value 1 at the unit, checked exhaustively: the first violation, or None.

    Products are taken in the stated basis, the pairs swept in canonical order up to total degree max_degree.
    In the word basis this is the shuffle-character property f(alpha) f(beta) = sum of f over the shuffles.
    Kept: the public form of the check that the shuffle-character suite sweeps.
    """
    return first_witness(*_product_check(phi, max_degree, basis, 1))


def is_infinitesimal_character(phi: Functional, max_degree: int, basis: str = "M") -> Violation | None:
    """Vanishes at the unit and on every product of positive-degree elements; the first violation, or None.

    Kept: the g side of the paper's characterization of shuffle characters, for a suite that checks it.
    """
    return first_witness(*_product_check(phi, max_degree, basis, 0))


class IntegralityWitness(NamedTuple):
    """A coarsening beta of alpha at which aut(alpha) f(alpha, beta), the value, is not in Z>=0."""

    alpha: Composition
    beta: Composition
    value: Fraction

    def __str__(self) -> str:
        return f"aut({self.alpha}) f({self.alpha}, {self.beta}) = {self.value}"


def _integrality_witness(f: Functional, alpha: Composition) -> IntegralityWitness | None:
    """The first coarsening beta of alpha at which aut(alpha) f(alpha, beta) is not in Z>=0, or None."""
    aut = stats(alpha).aut_count
    for beta, num, den in coarsening_products(f, alpha):
        value = rational(aut * num, den)
        if value.denominator != 1 or value < 0:
            return IntegralityWitness(alpha, beta, value)
    return None


def _integrality_check(f: Functional, max_degree: int):
    """The cases (the nonempty compositions up to max_degree) and the witness of each; f must be normalized."""
    require_normalized(f, max_degree)
    return compositions_up_to(max_degree)[1:], partial(_integrality_witness, f)


def check_integral_nonneg(f: Functional, max_degree: int) -> IntegralityWitness | None:
    """Do all monomial coefficients of the P_alpha lie in the nonnegative integers?

    Sweeps aut(alpha) f(alpha, beta) over refinement pairs up to max_degree; the first witness, or None.
    Kept: the public form of the check that the integrality suite sweeps.
    """
    return first_witness(*_integrality_check(f, max_degree))


# ---------------------------------------------------------------------------
# suites


def verify_qps(f: Functional, max_degree: int) -> VerifyReport:
    """Check the three power sum axioms exhaustively through max_degree.

    (i) products against z-scaled shuffles for |alpha|+|beta| <= max_degree,
    (ii) deconcatenation coproducts with z-value scalings for |alpha| <=
    max_degree, (iii) rearrangement classes summing to p_lambda for
    partitions of n <= max_degree.
    """
    label = f.name or "f"
    report = VerifyReport(f"qps axioms for {label}")
    # P_alpha for each composition once; the memo goes when the sweep ends
    qps = lru_cache(maxsize=None)(partial(qps_expand, f))

    def product_rule(pair) -> str | None:
        # z_{alpha+beta} P_alpha P_beta = z_alpha z_beta (the sum of P over the shuffles), compared in ints
        alpha, beta = pair
        lhs = product(qps(alpha), qps(beta)).terms
        acc = {}
        for gamma, mult in shuffle(alpha, beta).items():
            add_terms(acc, qps(gamma).terms.items(), mult)
        rhs = finished(acc)
        z_lhs, z_rhs = stats(alpha + beta).z_value, stats(alpha).z_value * stats(beta).z_value
        holds = lhs.keys() == rhs.keys() and all(
            z_lhs * v.numerator * rhs[comp].denominator == z_rhs * rhs[comp].numerator * v.denominator
            for comp, v in lhs.items()
        )
        return None if holds else f"alpha={alpha}, beta={beta}"

    def coproduct_rule(alpha: Composition) -> str | None:
        # z_left z_right (the (cl, cr) term of Delta P_alpha) = z_alpha P_left[cl] P_right[cr], compared in ints;
        # |cl| = |left| fixes the split, so no pair comes from two splits
        z_alpha = stats(alpha).z_value
        lhs = coproduct(qps(alpha)).terms
        matched = 0
        for left, right in deconcatenations(alpha):
            z_split = stats(left).z_value * stats(right).z_value
            for cl, vl in qps(left).terms.items():
                for cr, vr in qps(right).terms.items():
                    v = lhs.get((cl, cr))
                    if v is None or (
                        z_split * v.numerator * vl.denominator * vr.denominator
                        != z_alpha * vl.numerator * vr.numerator * v.denominator
                    ):
                        return f"alpha={alpha}"
                    matched += 1
        return None if matched == len(lhs) else f"alpha={alpha}"

    def refinement_rule(lam: Composition) -> str | None:
        total = finished(add_terms({}, chain.from_iterable(qps(alpha).terms.items() for alpha in rearrangements(lam))))
        return None if total == power_sum(lam).terms else f"lambda={lam}"

    report.sweep(f"product rule through degree {max_degree}", pairs_up_to(max_degree), product_rule)
    report.sweep(
        f"coproduct rule through degree {max_degree}", compositions_up_to(max_degree), coproduct_rule
    )
    partitions = (lam for n in range(1, max_degree + 1) for lam in partitions_of(n))
    report.sweep(f"power sum refinement through degree {max_degree}", partitions, refinement_rule)
    return report


def theta_eigencheck(f_even: Functional | None, max_degree: int) -> VerifyReport:
    """Verify theta acts on an even-odd shuffle basis with eigenvalues 2^length.

    The basis comes from the character that sends an even-then-odd
    composition to f_even on its even block over odds-factorial, zero
    elsewhere; f_even = None takes the stock 1/length!.  X_alpha with all
    parts odd must be an eigenvector with eigenvalue 2^length; all other
    X_alpha must map to zero.
    """
    f = even_odd_character(f_even=f_even)
    label = "stock" if f_even is None else (f_even.name or "custom")
    report = VerifyReport(f"theta eigencheck (even block: {label})")
    # disjoint case lists, so each X_alpha is expanded and mapped once
    odd, other = [], []
    for alpha in compositions_up_to(max_degree):
        (odd if all(p % 2 == 1 for p in alpha) else other).append(alpha)

    def eigen_witness(alpha: Composition) -> str | None:
        x_alpha = basis_expand(f, alpha)
        return None if theta(x_alpha) == x_alpha.scaled(Fraction(2) ** alpha.length) else f"alpha={alpha}"

    def zero_witness(alpha: Composition) -> str | None:
        return None if theta(basis_expand(f, alpha)).is_zero() else f"alpha={alpha}"

    report.sweep(f"odd-part X_alpha scale by 2^length through degree {max_degree}", odd, eigen_witness)
    report.sweep(f"other X_alpha map to zero through degree {max_degree}", other, zero_witness)
    return report


def _shuffle_character(basis: str, degree: int) -> VerifyReport:
    report = VerifyReport(f"shuffle-character for {basis}")
    report.sweep(
        f"f(a)f(b) = sum over shuffles through degree {degree}", *_product_check(resolve_basis(basis), degree, WORD, 1)
    )
    return report


def _integrality(basis: str, degree: int) -> VerifyReport:
    report = VerifyReport(f"integrality for {basis}")
    report.sweep(
        f"monomial coefficients in Z>=0 through degree {degree}", *_integrality_check(resolve_basis(basis), degree)
    )
    return report


def _fg_roundtrip(basis: str, degree: int) -> VerifyReport:
    f = resolve_basis(basis)
    report = VerifyReport("fg-roundtrip")
    back = g_to_f(f_to_g(f))

    def mismatch(comp: Composition) -> str | None:
        return None if back(comp) == f(comp) else f"alpha={comp}: {back(comp)} != {f(comp)}"

    report.sweep(f"g_to_f(f_to_g(f)) = f through degree {degree}", compositions_up_to(degree), mismatch)
    return report


def _antipode(_basis: None, degree: int) -> VerifyReport:
    report = VerifyReport("antipode")
    comps = compositions_up_to(degree)

    def closed_form(comp: Composition) -> str | None:
        elem = GradedElement.basis_element(WORD, comp)
        return None if antipode_word(elem) == antipode_by_recursion(WORD, comp) else f"alpha={comp}"

    def axiom(basis: str, image, comp: Composition) -> str | None:
        # the recursion builds S from m (S (x) id) Delta, so in X that side holds by construction;
        # check m (id (x) S) Delta, summed as S(right) left since both wired products commute
        target = GradedElement.unit(basis) if not comp else GradedElement.zero(basis)
        acc = {}
        for left, right in deconcatenations(comp):
            accumulate_product(acc, image(right), ((left, 1),))
        return None if finished(acc) == target.terms else f"alpha={comp}"

    # S in M by its closed form, each image built once (the memo goes when the sweep ends); S in X by the recursion
    def monomial_image(comp: Composition) -> GradedElement:
        return antipode_monomial(GradedElement.basis_element(MONOMIAL, comp))

    images = {MONOMIAL: lru_cache(maxsize=None)(monomial_image), WORD: partial(antipode_by_recursion, WORD)}
    report.sweep(f"word closed form = recursion through degree {degree}", comps, closed_form)
    for basis, image in images.items():
        report.sweep(f"antipode axiom in basis {basis} through degree {degree}", comps, partial(axiom, basis, image))
    return report


# a suite's --basis rule: REQUIRED, None for a suite that takes no basis, or the one basis it runs on
REQUIRED = "required"
# suite name -> (its --basis rule, its body: run(basis text or None, degree) -> VerifyReport)
SUITES = {
    "shuffle-character": (REQUIRED, _shuffle_character),
    "qps": (REQUIRED, lambda basis, degree: verify_qps(resolve_basis(basis), degree)),
    "antipode": (None, _antipode),
    "theta-eigen": ("even-odd", lambda basis, degree: theta_eigencheck(None, degree)),
    "integrality": (REQUIRED, _integrality),
    "fg-roundtrip": (REQUIRED, _fg_roundtrip),
}
