"""Shuffle characters, the f/g triangular calculus, and the power sum bases."""

import re
from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest

from qshuffle.characters import (
    BUILTIN_NAMES,
    OrderedPartitionSpec,
    _triangular_dual,
    basis_contract,
    basis_expand,
    builtin,
    even_odd_character,
    f_to_g,
    g_to_f,
    normalize,
    order_basis_character,
    ordered_partition_character,
    prefix_sum_character,
    qps_expand,
    require_normalized,
    resolve_basis,
    single,
)
from qshuffle.compositions import EMPTY, Composition, compositions_up_to, stats
from qshuffle import verify
from qshuffle.elements import MONOMIAL, WORD, GradedElement, TensorElement, coproduct, format_element
from qshuffle.functionals import Functional, exp_functional, log_functional
from qshuffle.universal import canonical
from qshuffle.verify import check_integral_nonneg, is_character, verify_qps
from qshuffle.errors import NotNormalized, PartOutOfRange, SingularCharacter, ZeroPrefixSum

import oracles
from oracles import EvenSizeUnsupported, convolve, even_odd_g, extend_over_refinement, is_normalized

C = Composition


def M(*parts):
    return GradedElement.basis_element(MONOMIAL, parts)


def test_character_data_basics():
    calls = []

    def fn(comp):
        calls.append(comp)
        return Fraction(1, len(comp))

    f = Functional(1, fn, name="probe")
    assert f(EMPTY) == 1
    assert f(C((2, 1))) == Fraction(1, 2)
    f(C((2, 1)))
    assert calls.count(C((2, 1))) == 1  # memoized
    g = Functional(0, fn)
    assert g(EMPTY) == 0


@pytest.mark.parametrize("name", ("type1", "type2"))
def test_solved_duals_are_plain_functionals(name):
    f = builtin(name)
    g = f_to_g(f)
    assert g.value_at_empty == 0
    assert g_to_f(g).value_at_empty == 1
    # g is an infinitesimal character as it stands: no wrapper between it and the calculus
    identity = convolve(g, canonical("counit"))
    roundtrip = log_functional(exp_functional(g))
    for comp in compositions_up_to(7):
        assert identity(comp) == g(comp), comp
        assert roundtrip(comp) == g(comp), comp


def test_pair_is_product_over_blocks():
    f = builtin("type2")
    assert extend_over_refinement(f, C((1, 1, 2, 1)), C((2, 3))) == f(C((1, 1))) * f(C((2, 1)))
    assert extend_over_refinement(f, C((3,)), C((3,))) == 1
    assert extend_over_refinement(f, EMPTY, EMPTY) == 1


def test_builtin_values_frozen():
    type1 = builtin("type1")
    assert type1(C((1, 2))) == Fraction(2, 3)
    assert type1(C((2, 1))) == Fraction(1, 3)
    assert type1(C((1, 1, 2))) == Fraction(1, 4)
    type2 = builtin("type2")
    assert type2(C((2, 1))) == Fraction(1, 2)
    assert type2(C((1, 1, 1))) == Fraction(1, 6)
    eo = builtin("even-odd")
    assert eo(C((2, 1))) == 1
    assert eo(C((1, 2))) == 0
    assert eo(C((2, 4, 1, 1))) == Fraction(1, 4)
    assert eo(C((2, 1, 4))) == 0
    comb = builtin("combinatorial")
    assert comb(C((2, 1))) == 1
    assert comb(C((1, 2))) == 0
    assert comb(C((2, 2, 1))) == Fraction(1, 2)
    rcomb = builtin("reverse-combinatorial")
    assert rcomb(C((1, 2))) == 1
    assert rcomb(C((2, 1))) == 0
    assert rcomb(C((1, 1, 2))) == Fraction(1, 2)


def test_type1_closed_form():
    # p(alpha) / pi(alpha), the normalized inverse-prefix-product character
    type1 = builtin("type1")
    for comp in compositions_up_to(7):
        assert type1(comp) == Fraction(prod(comp), prod(accumulate(comp)))


def test_combinatorial_is_inverse_aut_on_sorted():
    comb = builtin("combinatorial")
    rcomb = builtin("reverse-combinatorial")
    for comp in compositions_up_to(7):
        if list(comp) == sorted(comp, reverse=True):
            assert comb(comp) == Fraction(1, stats(comp).aut_count)
        else:
            assert comb(comp) == 0
        assert rcomb(comp) == comb(comp.reverse())


def test_all_builtins_are_normalized_shuffle_characters():
    for name in BUILTIN_NAMES:
        f = builtin(name)
        assert is_normalized(f, 7), name
        assert is_character(f, 6, WORD) is None, name


def test_prefix_sum_character_values():
    f = prefix_sum_character(lambda n: Fraction(n * n))
    assert f(C((1, 2))) == Fraction(1, 5)
    assert f(C((2, 1, 1))) == Fraction(1, 4 * 5 * 6)
    assert f(EMPTY) == 1
    assert is_character(f, 6, WORD) is None


def test_prefix_sum_zero_raises():
    f = prefix_sum_character(lambda n: Fraction(1) if n == 1 else Fraction(-1))
    with pytest.raises(ZeroPrefixSum):
        f(C((1, 2)))


def test_integer_ratio_values_match_the_fraction_oracles():
    # int, fractional and negative tau, denominators that join and leave the running sum
    specs = ("prefix-sum:1,2,3,4,5,6,7,8", "prefix-sum:1/2,3,-2/3,5/4,7,2,1/3,3", "prefix-sum:2/3,1/3,5/6,-1/2")
    for spec in specs:
        values = [Fraction(v) for v in spec.partition(":")[2].split(",")]
        f, expected = resolve_basis(spec), oracles.prefix_sum_character(lambda n, values=values: values[n - 1])
        for comp in compositions_up_to(8):
            if max(comp, default=0) > len(values):
                continue
            try:
                want = expected(comp)
            except ZeroPrefixSum as exc:
                with pytest.raises(ZeroPrefixSum, match=f"^{re.escape(str(exc))}$"):
                    f(comp)
                continue
            value = f(comp)
            assert value == want and type(value) is Fraction, (spec, comp)
            fixed = normalize(f)(comp)
            assert fixed == want / oracles.diagonal(expected, comp) and type(fixed) is Fraction, (spec, comp)


def test_integer_ratio_rewrite_raises_at_the_same_composition_with_the_same_text():
    # the prefix (1,2) of tau-values 1 and -1 sums to 0, for every composition starting with it
    f, expected = resolve_basis("prefix-sum:1,-1"), oracles.prefix_sum_character(lambda n: (1, -1)[n - 1])
    for comp in (C((1, 2)), C((1, 2, 1)), C((1, 2, 2))):
        with pytest.raises(ZeroPrefixSum, match=r"^prefix C\[1,2\] has tau-sum 0$"):
            f(comp)
        with pytest.raises(ZeroPrefixSum, match=r"^prefix C\[1,2\] has tau-sum 0$"):
            expected(comp)
    assert f(C((2,))) == -1 and f(C((1, 1))) == Fraction(1, 2)
    with pytest.raises(ZeroPrefixSum, match=r"^prefix C\[2,1\] has tau-sum 0$"):
        f(C((2, 1, 2)))
    # f((2)) = 0 and f((3)) = 0: the first zero part in reading order is named, by the solve and by normalize
    singular = Functional(1, lambda comp: Fraction(0) if comp in (C((2,)), C((3,))) else Fraction(1, len(comp)))
    for comp, part in ((C((1, 3, 2)), 3), (C((2, 3)), 2), (C((1, 1, 2)), 2)):
        message = rf"^f\(\({part}\)\) = 0$"
        with pytest.raises(SingularCharacter, match=message):
            oracles.diagonal(singular, comp)
        with pytest.raises(SingularCharacter, match=message):
            normalize(singular)(comp)
        with pytest.raises(SingularCharacter, match=message):
            f_to_g(singular)(comp)


def test_order_basis_character():
    f = order_basis_character([2, 1, 3])
    assert f(C((2, 1, 3))) == 1
    assert f(C((1, 2))) == 0
    assert f(C((2, 2, 1))) == Fraction(1, 2)
    assert f(C((2, 2))) == Fraction(1, 2)
    with pytest.raises(PartOutOfRange):
        f(C((4,)))
    with pytest.raises(ValueError):
        order_basis_character([1, 3])
    assert order_basis_character(["2", "1", "3"])(C((2, 2, 1))) == Fraction(1, 2)
    # the axiom sweep needs the order declared out to the largest part touched
    wide = order_basis_character([2, 1, 3, 5, 4, 6])
    assert is_character(wide, 6, WORD) is None


@pytest.mark.parametrize("order", [[True, 2.0], [2, 1.0], [True, 2], ["+2", "1"], ["2", ""], ["\u0662", "1"]])
def test_order_basis_character_rejects_coercible_entries(order):
    with pytest.raises(ValueError, match="order entries must be ints or ASCII digits"):
        order_basis_character(order)


def test_ordered_partition_spec_custom():
    # residue classes mod 2 with both class characters the 1/length! one
    type2 = builtin("type2")
    spec = OrderedPartitionSpec(
        classify=lambda p: p % 2,
        class_key=lambda cls: cls,
        character_for=lambda cls: type2,
    )
    f = ordered_partition_character(spec)
    assert f(C((2, 1))) == 1
    assert f(C((2, 2, 1, 1))) == Fraction(1, 4)
    assert f(C((1, 2))) == 0
    assert is_character(f, 6, WORD) is None


def test_is_shuffle_character_negative():
    table = {C((1, 1)): Fraction(1, 3)}
    f = Functional(1, lambda comp: table.get(comp, builtin("type2")(comp)))
    violation = is_character(f, 4, WORD)
    assert (violation.alpha, violation.beta) == (C((1,)), C((1,)))
    assert violation.actual == Fraction(2, 3)
    assert violation.expected == 1


def test_normalize():
    raw = prefix_sum_character(lambda n: Fraction(n), name="raw")
    for comp in compositions_up_to(6):
        assert raw(comp) == Fraction(1, prod(accumulate(comp)))
    fixed = normalize(raw)
    assert is_normalized(fixed, 7)
    for comp in compositions_up_to(6):
        assert fixed(comp) == builtin("type1")(comp)
    singular = Functional(1, lambda comp: Fraction(0) if comp == C((2,)) else Fraction(1))
    with pytest.raises(SingularCharacter):
        normalize(singular)(C((2, 1)))


def test_qps_requires_normalized():
    raw = prefix_sum_character(lambda n: Fraction(n))
    with pytest.raises(NotNormalized):
        qps_expand(raw, C((2, 1)))
    with pytest.raises(NotNormalized, match=re.escape("f((2)) = 1/2, expected 1")):
        require_normalized(raw, 3)


def test_single_part_compositions_are_shared():
    assert single(3) is single(3) == C((3,))
    # a bool equals its int; with the int's entry cached, True is still refused like any other non-int part
    assert single(1) == C((1,))
    with pytest.raises(ValueError, match="got True"):
        single(True)


def test_qps_expand_frozen():
    assert format_element(qps_expand(builtin("type1"), C((2, 1)))) == "M[2,1] + 1/3 M[3]"
    assert qps_expand(builtin("type1"), C((1, 2))) == M(1, 2) + M(3).scaled(Fraction(2, 3))
    assert qps_expand(builtin("type2"), C((1, 1))) == M(1, 1).scaled(2) + M(2)
    assert qps_expand(builtin("type2"), EMPTY) == GradedElement.unit(MONOMIAL)
    # aut scaling shows up for repeated parts
    assert qps_expand(builtin("type2"), C((1, 1, 1))) == (
        M(1, 1, 1).scaled(6) + M(2, 1).scaled(3) + M(1, 2).scaled(3) + M(3)
    )


def test_basis_expand_and_contract_are_inverse():
    for name in ("type1", "type2", "combinatorial"):
        f = builtin(name)
        g = f_to_g(f)
        for alpha in compositions_up_to(6):
            # expand X_alpha over M, then contract each M back over X
            acc: dict[Composition, Fraction] = {}
            for beta, coef in basis_expand(f, alpha).terms.items():
                for gamma, c2 in basis_contract(g, beta).items():
                    acc[gamma] = acc.get(gamma, Fraction(0)) + coef * c2
            acc = {k: v for k, v in acc.items() if v != 0}
            assert acc == {alpha: Fraction(1)}, (name, alpha)


def test_f_to_g_closed_forms():
    # the triangular solve, the generic route, is the oracle of the closed forms f_to_g serves
    for name in ("type1", "type2"):
        g = _triangular_dual(builtin(name), 0, "g")
        served = f_to_g(builtin(name))
        for comp in compositions_up_to(10):
            if comp:
                assert g(comp) == served(comp), (name, comp)
    g_eo = f_to_g(builtin("even-odd"))
    for comp in compositions_up_to(10):
        if comp and comp.size % 2 == 1:
            assert g_eo(comp) == even_odd_g(comp), comp


def test_f_to_g_serves_one_shared_closed_form_per_stock_instance():
    for name in ("type1", "type2"):
        g = f_to_g(builtin(name))
        assert g is f_to_g(builtin(name))
        assert (g.name, g.value_at_empty) == (f"g[{name}]", 0)
        solved = _triangular_dual(builtin(name), 0, "g")
        for comp in compositions_up_to(6):
            assert type(g(comp)) is Fraction and g(comp) == solved(comp), comp
    # even-odd has a closed form at odd sizes only, so each call solves afresh
    assert f_to_g(builtin("even-odd")) is not f_to_g(builtin("even-odd"))


def test_f_to_g_solves_for_an_equal_valued_spec():
    # prefix-sum:1,...,1 has the values of type2 through the sizes it declares, but is not the stock instance
    g_type2 = f_to_g(builtin("type2"))
    for declared in (1, 8):
        spec = "prefix-sum:" + ",".join(["1"] * declared)
        f = resolve_basis(spec)
        g = f_to_g(f)
        assert g is not g_type2 and g is not f_to_g(f)
        assert g.name == f"g[{spec}]"
        for comp in compositions_up_to(declared):
            assert g(comp) == g_type2(comp), (spec, comp)
    # a character that only shares a stock name is solved too
    namesake = prefix_sum_character(lambda n: Fraction(2), name="type2")
    assert f_to_g(namesake)(C((1,))) == 2


def test_closed_form_g_frozen():
    g1, g2 = f_to_g(builtin("type1")), f_to_g(builtin("type2"))
    assert g1(C((2, 1))) == Fraction(-1, 3)
    assert g1(C((3,))) == 1
    assert g2(C((2, 1))) == Fraction(-1, 2)
    assert g2(C((1, 1, 1))) == Fraction(1, 3)
    assert even_odd_g(C((2, 1))) == -1
    assert even_odd_g(C((1, 2))) == 0
    assert even_odd_g(C((2, 2, 1))) == 1
    with pytest.raises(EvenSizeUnsupported):
        even_odd_g(C((1, 3)))


def test_closed_form_g_on_the_empty_composition():
    assert f_to_g(builtin("type1"))(EMPTY) == 0
    assert f_to_g(builtin("type2"))(EMPTY) == 0
    with pytest.raises(EvenSizeUnsupported):
        even_odd_g(EMPTY)


def test_builtin_registry():
    assert BUILTIN_NAMES == ("type1", "type2", "even-odd", "combinatorial", "reverse-combinatorial")
    for name in BUILTIN_NAMES:
        assert builtin(name) is builtin(name)
        assert builtin(name).name == name
        assert resolve_basis(name) is builtin(name)
    with pytest.raises(ValueError) as excinfo:
        builtin("bogus")
    assert str(excinfo.value) == (
        "unknown basis 'bogus'; known: type1, type2, even-odd, combinatorial, reverse-combinatorial"
    )
    with pytest.raises(ValueError) as excinfo:
        resolve_basis("bogus")
    assert str(excinfo.value) == (
        "unknown basis 'bogus'; known: type1, type2, even-odd, combinatorial, reverse-combinatorial, "
        "prefix-sum:<tau values>, order:<permutation>"
    )


def test_fg_roundtrip_builtins():
    for name in BUILTIN_NAMES:
        f = builtin(name)
        back = g_to_f(f_to_g(f))
        for comp in compositions_up_to(6):
            assert back(comp) == f(comp), (name, comp)


def test_gf_roundtrip_from_g_side():
    g = f_to_g(builtin("even-odd"))
    back = f_to_g(g_to_f(g))
    for comp in compositions_up_to(6):
        assert back(comp) == g(comp), comp


def test_triangular_system_holds():
    # sum over coarsenings of f(alpha, beta) g(beta) is 1 on single parts, else 0
    from qshuffle.compositions import coarsenings

    for name in ("type1", "even-odd"):
        f = builtin(name)
        g = f_to_g(f)
        for alpha in compositions_up_to(6):
            if not alpha:
                continue
            total = sum(extend_over_refinement(f, alpha, beta) * g(beta) for beta in coarsenings(alpha))
            assert total == (1 if alpha.length == 1 else 0), (name, alpha)


def test_verify_qps_passes_for_builtins():
    for name in BUILTIN_NAMES:
        report = verify_qps(builtin(name), 4)
        assert report.passed, report.render()
        assert len(report.checks) == 3


def test_verify_qps_negative_control():
    table = {C((1, 1)): Fraction(1)}
    broken = Functional(
        1, lambda comp: table.get(comp, builtin("type2")(comp)), name="perturbed"
    )
    report = verify_qps(broken, 4)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert all(c.witness for c in failing)
    assert "[FAIL]" in report.render()
    # each check reports its first witness in canonical order
    assert report.render().splitlines() == [
        "[FAIL] product rule through degree 4: alpha=C[1], beta=C[1]",
        "[PASS] coproduct rule through degree 4",
        "[FAIL] power sum refinement through degree 4: lambda=C[1,1]",
        "qps axioms for perturbed: 3 checks, 2 failed",
    ]


def test_verify_qps_coproduct_rule_reports_a_wrong_coproduct(monkeypatch):
    # no character breaks the coproduct rule, so break the coproduct: a wrong value, a missing pair, an extra pair
    wrong = {
        "value": lambda h: coproduct(h).scaled(2),
        "missing": lambda h: TensorElement(
            MONOMIAL, {(left, right): v for (left, right), v in coproduct(h).terms.items() if right or not left}
        ),
        "extra": lambda h: coproduct(h) + TensorElement(MONOMIAL, {(C((7,)), EMPTY): 1}),
    }
    for kind, witness in (("value", "alpha=C[-]"), ("missing", "alpha=C[1]"), ("extra", "alpha=C[-]")):
        monkeypatch.setattr(verify, "coproduct", wrong[kind])
        check = verify_qps(builtin("type2"), 3).checks[1]
        assert (check.passed, check.witness) == (False, witness), kind


def test_render_report_lines():
    report = verify_qps(builtin("type2"), 3)
    text = report.render()
    assert text.count("[PASS]") == 3
    assert "qps axioms" in text


def test_integrality_positive():
    for name in ("combinatorial", "reverse-combinatorial"):
        assert check_integral_nonneg(builtin(name), 6) is None, name
    assert check_integral_nonneg(order_basis_character([3, 1, 2, 6, 5, 4]), 6) is None


def test_integrality_negative_frozen():
    witness = check_integral_nonneg(builtin("type1"), 4)
    assert witness.alpha == C((1, 2)) and witness.beta == C((3,))
    assert witness.value == Fraction(2, 3)
    assert str(witness) == "aut(C[1,2]) f(C[1,2], C[3]) = 2/3"
    witness = check_integral_nonneg(builtin("type2"), 4)
    assert witness.value.denominator > 1


def test_resolve_basis():
    assert resolve_basis("type1") is builtin("type1")
    f = resolve_basis("prefix-sum:1,4,9")
    assert f(C((1, 2))) == Fraction(1, 5)
    with pytest.raises(PartOutOfRange):
        f(C((4,)))
    g = resolve_basis("order:2,1,3")
    assert g(C((2, 1, 3))) == 1
    with pytest.raises(ValueError):
        resolve_basis("nope")
    with pytest.raises(ValueError):
        resolve_basis("prefix-sum:")


def test_even_odd_with_custom_even_part():
    custom = even_odd_character(f_even=prefix_sum_character(lambda n: Fraction(n)))
    # even block gets the inverse prefix product, odd block the 1/length!
    assert custom(C((2, 4, 1, 1))) == Fraction(1, 2 * 6) * Fraction(1, 2)
    assert custom(C((1, 2))) == 0
    assert is_character(custom, 6, WORD) is None
