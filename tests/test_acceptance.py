"""Acceptance gate: eleven exact-arithmetic criteria, one printed line each.

Every check is exact equality on Fractions; no tolerances anywhere.  Each
test prints a single [PASS]/[FAIL] line (bypassing capture) and then
asserts, so a full run shows eleven lines in order.
"""

import random
import time
from fractions import Fraction
from math import factorial, prod

import pytest

from qshuffle.characters import (
    BUILTIN_NAMES,
    _triangular_dual,
    builtin,
    f_to_g,
    g_to_f,
    order_basis_character,
    prefix_sum_character,
    qps_expand,
)
from qshuffle.compositions import (
    Composition,
    compositions_of,
    compositions_up_to,
    partitions_of,
    quasi_shuffle,
    rearrangements,
)
from qshuffle import elements
from qshuffle.demos import all_graphs, all_posets, eta_check, graph_infchar_two_ways
from qshuffle.elements import (
    MONOMIAL,
    WORD,
    GradedElement,
    antipode_by_recursion,
    antipode_word,
    coproduct,
    counit,
    power_sum,
    product,
)
from qshuffle.functionals import Functional, exp_functional, log_functional
from qshuffle.universal import canonical, infchar_to_char, universal_to_sh
from qshuffle.verify import check_integral_nonneg, is_character, theta_eigencheck, verify_qps

from oracles import even_odd_g, expand_polynomial, nu_via_convolution, polynomial_product, qsym_provider

C = Composition
SEED = 20260823


@pytest.fixture
def announce(capsys):
    def emit(number, label, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}{tail}")

    return emit


def _random_orders(count=3, width=7):
    rng = random.Random(SEED)
    return [rng.sample(range(1, width + 1), width) for _ in range(count)]


def test_criterion_01_shuffle_character_axioms(announce):
    started = time.time()
    bases = [builtin(name) for name in BUILTIN_NAMES]
    bases.append(prefix_sum_character(lambda n: Fraction(n * n), name="prefix-sum:squares"))
    bases.extend(order_basis_character(order) for order in _random_orders())
    failures = []
    for f in bases:
        violation = is_character(f, 8, WORD)
        if violation is not None:
            failures.append(f"{f.name}: {violation}")
    detail = f"9 bases, pairs to degree 8, {time.time() - started:.1f}s"
    announce(1, "shuffle-character axioms", not failures, "; ".join(failures) or detail)
    assert not failures, failures


def test_criterion_02_qps_axioms(announce):
    failures = []
    for name in ("type1", "type2", "even-odd", "combinatorial"):
        f = builtin(name)
        report = verify_qps(f, 6)
        if not report.passed:
            failures.append(f"{name}: {report.render()}")
        # the refinement axiom further out: the P_alpha over the rearrangements of lambda sum to p_lambda
        for n in range(1, 9):
            for lam in partitions_of(n):
                total = sum((qps_expand(f, alpha) for alpha in rearrangements(lam)), GradedElement.zero(MONOMIAL))
                if total != power_sum(lam):
                    failures.append(f"{name}: power sum refinement fails at lambda={lam}")
    perturbed = Functional(
        1,
        lambda c: Fraction(1) if c == C((1, 1)) else builtin("type2")(c),
        name="perturbed-type2",
    )
    negative = verify_qps(perturbed, 4)
    witnesses = [check.witness for check in negative.checks if not check.passed]
    if negative.passed or not witnesses:
        failures.append("perturbed character was not caught")
    ok = not failures
    detail = (
        f"4 bases to degree 6, partitions to 8; negative control witness: {witnesses[0]}"
        if witnesses
        else ""
    )
    announce(2, "quasisymmetric power sum axioms", ok, "; ".join(failures) or detail)
    assert ok, failures


def test_criterion_03_fg_roundtrip_and_closed_forms(announce):
    failures = []
    for name in BUILTIN_NAMES:
        f = builtin(name)
        back = g_to_f(f_to_g(f))
        for comp in compositions_up_to(7):
            if back(comp) != f(comp):
                failures.append(f"roundtrip {name} at {comp}")
                break
    # the closed forms against the triangular solve they stand in for in f_to_g
    for name in ("type1", "type2"):
        g, served = _triangular_dual(builtin(name), 0, "g"), f_to_g(builtin(name))
        for comp in compositions_up_to(10):
            if comp and g(comp) != served(comp):
                failures.append(f"closed form {name} at {comp}")
                break
    announce(3, "f/g inversion and closed forms to degree 7", not failures, "; ".join(failures))
    assert not failures, failures


def _antipode_axiom_failure(basis: str, max_degree: int) -> str | None:
    """The first composition where the antipode axiom fails in basis, or None."""
    for comp in compositions_up_to(max_degree):
        h = GradedElement.basis_element(basis, comp)
        acc = GradedElement.zero(basis)
        # the recursion defines S by m (S (x) id) Delta = counit, so check the other side,
        # m (id (x) S) Delta, as S(right) left: both wired products commute
        for (left, right), coef in coproduct(h).terms.items():
            acc = acc + product(
                antipode_by_recursion(basis, right),
                GradedElement.basis_element(basis, left),
            ).scaled(coef)
        if acc != GradedElement.unit(basis).scaled(counit(h)):
            return f"axiom in {basis} at {comp}"
    return None


def test_criterion_04_antipode(announce):
    failures = []
    for comp in compositions_up_to(7):
        word = GradedElement.basis_element(WORD, comp)
        if antipode_word(word) != antipode_by_recursion(WORD, comp):
            failures.append(f"closed form vs recursion at {comp}")
            break
    failures += filter(None, (_antipode_axiom_failure(basis, 6) for basis in (MONOMIAL, WORD)))
    announce(4, "antipode closed form (deg 7) and axiom (deg 6)", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_04_catches_a_wrong_product_rule(monkeypatch):
    # merged words counted twice: the recursion still defines some S, but S is no antipode
    def merged_twice(a, b):
        return {w: m * (2 if len(w) < len(a) + len(b) else 1) for w, m in quasi_shuffle(a, b).items()}

    monkeypatch.setitem(elements._PRODUCT_RULES, MONOMIAL, merged_twice)
    monkeypatch.setattr(elements, "_antipode_cache", {})
    assert _antipode_axiom_failure(MONOMIAL, 6) == "axiom in M at C[1,1,1,2]"


def test_criterion_05_nu_convolution_vs_closed_form(announce):
    closed = canonical("nuQ")
    by_convolution = nu_via_convolution(7)
    bad = [
        comp
        for comp in compositions_up_to(7)
        if by_convolution(comp) != closed(comp)
    ]
    announce(
        5,
        "nu as convolution equals closed form to degree 7",
        not bad,
        "; ".join(str(comp) for comp in bad[:3]),
    )
    assert not bad, bad


def test_criterion_06_theta_eigenbasis(announce):
    started = time.time()
    failures = []
    for label, f_even in (
        ("stock 1/length!", None),
        ("even-part prefix-sum", prefix_sum_character(lambda n: Fraction(n), name="even-prefix")),
    ):
        report = theta_eigencheck(f_even, 6)
        if not report.passed:
            failures.append(f"{label}: {report.render()}")
    detail = f"two even-block characters, degree 6, {time.time() - started:.1f}s"
    announce(6, "theta eigenbasis", not failures, "; ".join(failures) or detail)
    assert not failures, failures


def _series_quotient(numer, denom, order):
    # long division of power series given as ascending coefficient lists
    out = []
    for m in range(order + 1):
        a_m = numer[m] if m < len(numer) else Fraction(0)
        acc = sum(
            (out[j] * denom[m - j] for j in range(max(0, m - len(denom) + 1), m)),
            Fraction(0),
        )
        out.append((a_m - acc) / denom[0])
    return out


def test_criterion_07_even_odd_g(announce):
    failures = []
    g = f_to_g(builtin("even-odd"))
    for comp in compositions_up_to(7):
        if comp and comp.size % 2 == 1 and g(comp) != even_odd_g(comp):
            failures.append(f"solve vs closed form at {comp}")
            break
    oracle = _series_quotient([Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)], 9)
    for m in range(1, 10):
        combinatorial_sum = Fraction(0)
        for beta in compositions_of(m):
            if all(p % 2 == 1 for p in beta):
                combinatorial_sum += Fraction((-2) ** beta.length, prod(beta) * factorial(beta.length))
        if combinatorial_sum != 2 * Fraction((-1) ** m):
            failures.append(f"series coefficient at m={m}: {combinatorial_sum}")
        if combinatorial_sum != oracle[m]:
            failures.append(f"long-division oracle disagrees at m={m}")
    announce(
        7,
        "even-odd g closed form (odd degree <= 7) and series identity (m <= 9)",
        not failures,
        "; ".join(failures),
    )
    assert not failures, failures


def test_criterion_08_integrality(announce):
    failures = []
    passing = [builtin("combinatorial"), builtin("reverse-combinatorial")]
    passing.extend(order_basis_character(order) for order in _random_orders())
    for f in passing:
        witness = check_integral_nonneg(f, 7)
        if witness is not None:
            failures.append(f"{f.name}: unexpected witness {witness}")
    witnesses = []
    for name in ("type1", "type2"):
        witness = check_integral_nonneg(builtin(name), 7)
        if witness is None or witness.value.denominator == 1:
            failures.append(f"{name}: expected a non-integer witness, got {witness}")
        else:
            witnesses.append(f"{name}: {witness}")
    announce(
        8,
        "integrality of order bases to degree 7 with rational counterwitnesses",
        not failures,
        "; ".join(failures) or "; ".join(witnesses),
    )
    assert not failures, failures


def test_criterion_09_exp_log(announce):
    rng = random.Random(SEED)
    table = {
        comp: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for comp in compositions_up_to(7)
        if comp
    }
    xi = Functional(0, lambda comp: table.get(comp, Fraction(0)))
    zeta = Functional(1, lambda comp: table.get(comp, Fraction(0)))
    failures = []
    log_exp = log_functional(exp_functional(xi))
    exp_log = exp_functional(log_functional(zeta))
    for comp in compositions_up_to(6):
        if log_exp(comp) != xi(comp):
            failures.append(f"log(exp(xi)) at {comp}")
            break
        if exp_log(comp) != zeta(comp):
            failures.append(f"exp(log(zeta)) at {comp}")
            break
    for label, functional in (("xiS", canonical("xiS")), ("pseudorandom", xi)):
        through_basis = infchar_to_char(universal_to_sh(qsym_provider(), functional), builtin("type2"))
        direct = exp_functional(functional)
        for comp in compositions_up_to(6):
            if through_basis(comp) != direct(comp):
                failures.append(f"infchar_to_char vs exp ({label}) at {comp}")
                break
    announce(
        9,
        "exp/log inverse to degree 6; factorial-basis bijection is exp",
        not failures,
        "; ".join(failures),
    )
    assert not failures, failures


def test_criterion_10_demos(announce):
    started = time.time()
    failures = []
    characters = (builtin("type1"), builtin("type2"))
    graphs = 0
    for n in range(6):
        for g in all_graphs(n):
            graphs += 1
            for f in characters:
                from_poly, from_infchar = graph_infchar_two_ways(g, f)
                if from_poly != from_infchar:
                    failures.append(f"graph {g} with {f.name}")
    posets = 0
    for n in range(6):
        for p in all_posets(n):
            posets += 1
            eta_value, indicator = eta_check(p)
            if eta_value != indicator:
                failures.append(f"poset {p}")
    detail = f"{graphs} graphs x2 characters, {posets} posets, {time.time() - started:.1f}s"
    announce(10, "graph and poset demos on <= 5 points", not failures, "; ".join(failures[:3]) or detail)
    assert not failures, failures


def test_criterion_11_quasi_shuffle_oracle(announce):
    failures = []
    for total in range(2, 7):
        for a in range(1, total):
            for alpha in compositions_of(a):
                for beta in compositions_of(total - a):
                    num_vars = alpha.length + beta.length
                    poly = polynomial_product(
                        expand_polynomial(GradedElement.basis_element(MONOMIAL, alpha), num_vars),
                        expand_polynomial(GradedElement.basis_element(MONOMIAL, beta), num_vars),
                    )
                    derived = {}
                    for gamma in compositions_of(total):
                        if gamma.length > num_vars:
                            continue
                        padded = tuple(gamma) + (0,) * (num_vars - gamma.length)
                        coef = poly.get(padded, Fraction(0))
                        if coef:
                            derived[gamma] = coef
                    if derived != {k: Fraction(v) for k, v in quasi_shuffle(alpha, beta).items()}:
                        failures.append(f"({alpha}, {beta})")
    announce(
        11,
        "quasi-shuffle constants equal polynomial truncation to degree 6",
        not failures,
        "; ".join(failures[:3]),
    )
    assert not failures, failures
