"""Every fast path against the slow code it replaced (kept in ``oracles``).

The kernel builds compositions derived from valid ones without checking
their parts again, so the invariant that makes this safe is tested here
too: every composition an enumeration returns is a real ``Composition``
whose parts are ``int``s >= 1.
"""

from fractions import Fraction

import pytest

from qshuffle.characters import CLOSED_FORM_G_NAMES, builtin, f_to_g
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
from qshuffle.universal import theta

import oracles

DEGREE = 8


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
