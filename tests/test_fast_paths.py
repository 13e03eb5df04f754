"""Every fast path against the slow code it replaced (kept in ``oracles``).

The kernel builds compositions derived from valid ones without checking
their parts again, so the invariant that makes this safe is tested here
too: every composition an enumeration returns is a real ``Composition``
whose parts are ``int``s >= 1.  Likewise every element coefficient is in
the normal form of ``elements``: an ``int``, or a ``Fraction`` that is not
one, while functional values stay ``Fraction``.
"""

from fractions import Fraction

import pytest

from qshuffle.characters import (
    BUILTIN_NAMES,
    CLOSED_FORM_G_NAMES,
    basis_contract,
    basis_expand,
    builtin,
    f_to_g,
    g_to_f,
    normalize,
    qps_expand,
    resolve_basis,
)
from qshuffle.compositions import (
    EMPTY,
    Composition,
    block_product,
    coarsening_splits,
    coarsenings,
    compositions_of,
    compositions_up_to,
    deconcatenations,
    extend_over_refinement,
    nonempty_splits,
    pairs_up_to,
    product_sum,
    quasi_shuffle,
    rearrangements,
    refinement_split,
    shuffle,
)
from qshuffle.elements import (
    MONOMIAL,
    WORD,
    GradedElement,
    TensorElement,
    accumulate_product,
    antipode_by_recursion,
    product,
)
from qshuffle.functionals import exp_functional, log_functional
from qshuffle.universal import theta

import oracles

DEGREE = 8
# a prefix-sum basis with non-integer tau, raw and normalized (qps_expand needs f((n)) = 1)
RAW_PREFIX_SUM = resolve_basis("prefix-sum:1/2,3,-2/3,5/4,7,2,1/3,3")
NORMALIZED_BASES = [*map(builtin, BUILTIN_NAMES), normalize(RAW_PREFIX_SUM)]
BASES = [*NORMALIZED_BASES, RAW_PREFIX_SUM]


def assert_valid(comp):
    assert type(comp) is Composition, comp
    assert all(type(p) is int and p >= 1 for p in comp), comp


def test_antipode_accumulation_matches_element_arithmetic():
    for basis in (MONOMIAL, WORD):
        for comp in compositions_up_to(DEGREE):
            assert antipode_by_recursion(basis, comp) == oracles.antipode_by_recursion(basis, comp)


def test_accumulate_product_matches_chained_products():
    elems = [
        GradedElement(MONOMIAL, {(1,): Fraction(2), (2, 1): Fraction(-1, 3)}),
        GradedElement(MONOMIAL, {(): Fraction(5), (1, 1): Fraction(1, 2)}),
        GradedElement(MONOMIAL, {(3,): Fraction(7)}),
    ]
    for basis in (MONOMIAL, WORD):
        elems_b = [GradedElement(basis, e.terms) for e in elems]
        acc = {}
        chained = GradedElement.zero(basis)
        for a in elems_b:
            for b in elems_b:
                accumulate_product(acc, a, b)
                chained = chained + product(a, b)
        assert GradedElement(basis, acc) == chained


def test_theta_accumulation_matches_chained_sums():
    for n in range(6):
        for alpha in compositions_of(n):
            x_alpha = GradedElement(
                MONOMIAL, {beta: Fraction(len(beta), 1 + sum(beta)) for beta in coarsenings(alpha)}
            )
            assert theta(x_alpha) == oracles.theta(x_alpha)


def test_coarsening_splits_match_mask_merging_and_refinement_split():
    for comp in compositions_up_to(DEGREE):
        pairs = coarsening_splits(comp)
        assert [beta for beta, _ in pairs] == oracles.coarsenings(comp) == coarsenings(comp)
        for beta, blocks in pairs:
            assert blocks == refinement_split(comp, beta)


@pytest.mark.parametrize("name", CLOSED_FORM_G_NAMES)
def test_block_products_match_refinement_search(name):
    f = builtin(name)
    g = f_to_g(f)
    for comp in compositions_up_to(7):
        for beta, blocks in coarsening_splits(comp):
            for fn in (f, g):
                expected = oracles.extend_over_refinement(fn, comp, beta)
                assert block_product(fn, blocks) == expected
                assert extend_over_refinement(fn, comp, beta) == expected
    assert block_product(f, ()) == 1


def test_enumerations_return_valid_compositions():
    for comp in compositions_up_to(DEGREE):
        assert_valid(comp)
        assert_valid(comp.reverse())
        assert_valid(comp.sorted_partition())
        assert_valid(comp + comp)
        assert_valid((1,) + comp)
        for beta in coarsenings(comp):
            assert_valid(beta)
            for block in refinement_split(comp, beta):
                assert_valid(block)
        for beta, blocks in coarsening_splits(comp):
            assert_valid(beta)
            for block in blocks:
                assert_valid(block)
        for left, right in deconcatenations(comp):
            assert_valid(left)
            assert_valid(right)
        for blocks in nonempty_splits(comp):
            for block in blocks:
                assert_valid(block)
        for other in rearrangements(comp):
            assert_valid(other)


def test_products_return_valid_compositions():
    for total in range(DEGREE + 1):
        for a in range(total + 1):
            for alpha in compositions_of(a):
                for beta in compositions_of(total - a):
                    for rule in (shuffle, quasi_shuffle):
                        for word, mult in rule(alpha, beta).items():
                            assert_valid(word)
                            assert type(mult) is int and mult >= 1


def test_element_keys_are_compositions():
    elem = GradedElement(MONOMIAL, {(2, 1): 1, EMPTY: 2})
    for comp in elem.terms:
        assert_valid(comp)
    with pytest.raises(ValueError):
        GradedElement(MONOMIAL, {(1.5,): 1})
    with pytest.raises(ValueError):
        GradedElement(MONOMIAL, {(True,): 1})
    tensor = TensorElement(MONOMIAL, {((1,), EMPTY): 1, (Composition((2,)), (1, 1)): 3})
    for left, right in tensor.terms:
        assert_valid(left)
        assert_valid(right)
    with pytest.raises(ValueError):
        TensorElement(MONOMIAL, {((1,), ("1",)): 1})


def assert_normal(terms):
    bad = [v for v in terms.values() if not (type(v) is int or (type(v) is Fraction and v.denominator > 1))]
    assert not bad, bad[:3]


def test_element_coefficients_are_in_normal_form():
    comps = compositions_up_to(DEGREE)
    for basis in (MONOMIAL, WORD):
        for comp in comps:
            assert_normal(antipode_by_recursion(basis, comp).terms)
        unit = {comp: GradedElement.basis_element(basis, comp) for comp in comps}
        for alpha, beta in pairs_up_to(DEGREE):
            assert_normal(product(unit[alpha], unit[beta]).terms)
        # rational coefficients whose products sum to integers
        x = {comp: GradedElement(basis, basis_expand(builtin("type2"), comp).terms) for comp in compositions_up_to(5)}
        for alpha, beta in pairs_up_to(5):
            assert_normal(product(x[alpha], x[beta]).terms)
    for comp in comps:
        assert_normal(theta(GradedElement.basis_element(MONOMIAL, comp)).terms)
    for f in BASES:
        g = f_to_g(f)
        for comp in comps:
            assert_normal(basis_expand(f, comp).terms)
            assert_normal(basis_contract(g, comp))
            if f in NORMALIZED_BASES:
                assert_normal(qps_expand(f, comp).terms)


def test_constructors_apply_the_normal_form():
    half = Fraction(1, 2)
    elem = GradedElement(
        MONOMIAL, [((1,), half), ((1,), half), ((2,), True), ((3,), "6/4"), ((4,), Fraction(8, 4))]
    )
    assert elem.terms == {(1,): 1, (2,): 1, (3,): Fraction(3, 2), (4,): 2}
    assert_normal(elem.terms)
    assert_normal(elem.scaled(Fraction(2, 3)).terms)
    assert_normal(TensorElement(MONOMIAL, {((1,), EMPTY): half}).scaled(2).terms)
    assert type(GradedElement.basis_element(WORD, (2, 1)).coefficient((2, 1))) is int
    assert type(elem.coefficient((5,))) is int
    with pytest.raises(TypeError):
        GradedElement(MONOMIAL, {(1,): 0.5})


def test_product_sum_is_one_normal_form_value():
    f = builtin("type2")
    halves = [(Fraction(1, 2), ()), (Fraction(1, 2), ())]
    assert product_sum(f, halves) == 1 and type(product_sum(f, halves)) is int
    assert product_sum(f, []) == 0 and type(product_sum(f, [])) is int
    assert product_sum(f, [(3, (Composition((1, 1)),))]) == Fraction(3, 2)

    def stops_at_zero(block):
        if block == (9,):
            raise AssertionError("called past a zero factor")
        return Fraction(0) if block == (1,) else Fraction(1, 3)

    blocks = (Composition((2,)), Composition((1,)), Composition((9,)))
    assert product_sum(stops_at_zero, [(1, blocks), (0, blocks[2:])]) == 0
    assert block_product(stops_at_zero, blocks) == 0


@pytest.mark.parametrize("f", BASES, ids=lambda f: f.name)
def test_transfers_match_the_fraction_oracles(f):
    g, oracle_g = f_to_g(f), oracles.f_to_g(f)
    pairs = [
        (g, oracle_g),
        (g_to_f(g), oracles.g_to_f(oracle_g)),
        (exp_functional(g), oracles.exp_functional(oracle_g)),
        (log_functional(f), oracles.log_functional(f)),
    ]
    for comp in compositions_up_to(DEGREE):
        for fast, slow in pairs:
            value = fast(comp)
            assert type(value) is Fraction and value == slow(comp), comp
        for _, blocks in coarsening_splits(comp):
            assert block_product(f, blocks) == oracles.block_product(f, blocks)
