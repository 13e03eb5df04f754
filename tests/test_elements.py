"""Graded elements, products, coproducts, antipodes, polynomial truncation."""

from fractions import Fraction

import pytest

from qshuffle.compositions import EMPTY, Composition, compositions_of, compositions_up_to
from qshuffle.elements import (
    MONOMIAL,
    WORD,
    GradedElement,
    TensorElement,
    antipode_by_recursion,
    antipode_monomial,
    antipode_word,
    coproduct,
    counit,
    format_element,
    power_sum,
    product,
)
from qshuffle.errors import BasisMismatch, DegreeMismatch, NotAPartition

from oracles import delta_alpha, expand_polynomial, polynomial_product, tensor_outer

C = Composition


def M(*parts):
    return GradedElement.basis_element(MONOMIAL, parts)


def X(*parts):
    return GradedElement.basis_element(WORD, parts)


def test_constructor_prunes_and_validates():
    elem = GradedElement(MONOMIAL, {C((2,)): Fraction(0), C((1, 1)): Fraction(3)})
    assert elem.support() == [C((1, 1))]
    assert elem.coefficient(C((2,))) == 0
    assert GradedElement.zero(WORD).is_zero()
    assert GradedElement.unit(MONOMIAL).coefficient(EMPTY) == 1
    with pytest.raises(AttributeError):
        elem.basis = WORD
    # one normal form for both classes: repeated keys summed, a sum that
    # cancels dropped, keys made Compositions, from pairs or from a dict
    for cls, key in ((GradedElement, lambda c: c), (TensorElement, lambda c: (c, (1,)))):
        pairs = [(key([2]), 1), (key((1, 1)), 3), (key((2,)), -1), (key([1, 1]), "1/2"), (key((3,)), 0)]
        # a dict cannot repeat a key, but (2,) and range(2, 3) name one composition
        as_dict = {key((2,)): 1, key(range(2, 3)): -1, key((1, 1)): Fraction(7, 2), key((3,)): 0}
        for terms in (pairs, as_dict):
            elem = cls(MONOMIAL, terms)
            assert elem.terms == {key(C((1, 1))): Fraction(7, 2)}
            comps = list(elem.terms) if cls is GradedElement else [c for pair in elem.terms for c in pair]
            assert all(type(c) is Composition for c in comps)


def test_arithmetic_and_grading():
    a = M(2, 1) + M(3).scaled(Fraction(1, 3))
    assert a.coefficient(C((2, 1))) == 1
    assert a.coefficient(C((3,))) == Fraction(1, 3)
    assert (a - a).is_zero()
    assert (-a) + a == GradedElement.zero(MONOMIAL)
    assert a.degrees() == [3]
    assert a.homogeneous_degree() == 3
    b = a + M(1)
    assert b.degrees() == [1, 3]
    assert b.homogeneous_degree() is None
    assert b.homogeneous_component(1) == M(1)
    assert b.homogeneous_component(2).is_zero()
    assert 2 * M(1) == M(1) + M(1)
    with pytest.raises(BasisMismatch):
        M(1) + X(1)


def test_format_element():
    assert format_element(M(2, 1) + M(3).scaled(Fraction(1, 3))) == "M[2,1] + 1/3 M[3]"
    assert format_element(GradedElement.zero(MONOMIAL)) == "0"
    assert format_element(GradedElement.unit(WORD)) == "X[-]"
    assert format_element(M(2) - M(1, 1)) == "-M[1,1] + M[2]"
    assert format_element(M(1).scaled(Fraction(-2, 3))) == "-2/3 M[1]"


def test_json_roundtrip():
    a = M(2, 1).scaled(Fraction(-5, 7)) + M(3) + GradedElement.unit(MONOMIAL)
    data = a.to_json_dict()
    assert data["basis"] == "M"
    assert GradedElement.from_json_dict(data) == a
    assert GradedElement.from_json(a.to_json()) == a
    coefs = {tuple(t["comp"]): t["coef"] for t in data["terms"]}
    assert coefs[(2, 1)] == "-5/7"


def test_monomial_product_examples():
    assert product(M(1), M(1)) == M(1, 1).scaled(2) + M(2)
    assert product(M(2), M(1)) == M(2, 1) + M(1, 2) + M(3)
    assert product(M(1), GradedElement.unit(MONOMIAL)) == M(1)
    assert M(1) * M(1) == M(1, 1).scaled(2) + M(2)


def test_word_product_examples():
    assert product(X(1), X(1)) == X(1, 1).scaled(2)
    assert product(X(1, 2), X(2)) == X(1, 2, 2).scaled(2) + X(2, 1, 2)
    with pytest.raises(BasisMismatch):
        product(M(1), X(1))


def test_products_associative_and_commutative():
    for basis, mk in ((MONOMIAL, M), (WORD, X)):
        triples = [
            ((1,), (2,), (1, 1)),
            ((2, 1), (1,), (1,)),
            ((1, 1), (2,), (2,)),
        ]
        for pa, pb, pc in triples:
            a, b, c = mk(*pa), mk(*pb), mk(*pc)
            assert product(product(a, b), c) == product(a, product(b, c))
            assert product(a, b) == product(b, a)


def test_monomial_product_matches_polynomial_truncation():
    # oracle: quasi-shuffle of monomial functions is plain polynomial product
    pairs = [
        (a, b)
        for total in range(2, 7)
        for i in range(1, total)
        for a in compositions_of(i)
        for b in compositions_of(total - i)
    ]
    for alpha, beta in pairs:
        num_vars = alpha.length + beta.length
        lhs = expand_polynomial(
            product(
                GradedElement.basis_element(MONOMIAL, alpha),
                GradedElement.basis_element(MONOMIAL, beta),
            ),
            num_vars,
        )
        rhs = polynomial_product(
            expand_polynomial(GradedElement.basis_element(MONOMIAL, alpha), num_vars),
            expand_polynomial(GradedElement.basis_element(MONOMIAL, beta), num_vars),
        )
        assert lhs == rhs


def test_expand_polynomial_small():
    assert expand_polynomial(M(1), 2) == {(1, 0): 1, (0, 1): 1}
    assert expand_polynomial(M(2, 1), 2) == {(2, 1): 1}
    assert expand_polynomial(M(1, 1), 1) == {}
    assert expand_polynomial(GradedElement.unit(MONOMIAL), 3) == {(0, 0, 0): 1}


def test_coproduct_examples():
    got = coproduct(M(2, 1))
    expected = (
        tensor_outer(GradedElement.unit(MONOMIAL), M(2, 1))
        + tensor_outer(M(2), M(1))
        + tensor_outer(M(2, 1), GradedElement.unit(MONOMIAL))
    )
    assert got == expected
    assert counit(M(2, 1)) == 0
    assert counit(GradedElement.unit(WORD)) == 1
    assert counit(GradedElement.unit(MONOMIAL) + M(1).scaled(5)) == 1


def _triple_left(h):
    # (coproduct x id) applied to coproduct(h), as a dict over triples
    acc = {}
    for (l, r), coef in coproduct(h).terms.items():
        inner = coproduct(GradedElement.basis_element(h.basis, l))
        for (a, b), c2 in inner.terms.items():
            key = (a, b, r)
            acc[key] = acc.get(key, Fraction(0)) + coef * c2
    return {k: v for k, v in acc.items() if v != 0}


def _triple_right(h):
    acc = {}
    for (l, r), coef in coproduct(h).terms.items():
        inner = coproduct(GradedElement.basis_element(h.basis, r))
        for (a, b), c2 in inner.terms.items():
            key = (l, a, b)
            acc[key] = acc.get(key, Fraction(0)) + coef * c2
    return {k: v for k, v in acc.items() if v != 0}


def test_coproduct_coassociative():
    for basis in (MONOMIAL, WORD):
        for comp in compositions_up_to(6):
            h = GradedElement.basis_element(basis, comp)
            assert _triple_left(h) == _triple_right(h)


def test_coproduct_multiplicative():
    # Delta(ab) = Delta(a) Delta(b), the bialgebra compatibility
    pairs = [
        (a, b)
        for total in range(2, 7)
        for i in range(1, total)
        for a in compositions_of(i)
        for b in compositions_of(total - i)
    ]
    for basis in (MONOMIAL, WORD):
        for alpha, beta in pairs:
            a = GradedElement.basis_element(basis, alpha)
            b = GradedElement.basis_element(basis, beta)
            assert coproduct(product(a, b)) == coproduct(a) * coproduct(b)


def test_counit_axiom():
    for basis in (MONOMIAL, WORD):
        for comp in compositions_up_to(6):
            h = GradedElement.basis_element(basis, comp)
            left = GradedElement.zero(basis)
            right = GradedElement.zero(basis)
            for (l, r), coef in coproduct(h).terms.items():
                left = left + GradedElement.basis_element(basis, r).scaled(
                    coef * counit(GradedElement.basis_element(basis, l))
                )
                right = right + GradedElement.basis_element(basis, l).scaled(
                    coef * counit(GradedElement.basis_element(basis, r))
                )
            assert left == h
            assert right == h


def test_delta_alpha_examples():
    got = delta_alpha(M(1, 1, 2, 1), C((2, 3)))
    assert got == [((C((1, 1)), C((2, 1))), Fraction(1))]
    mixed = M(1, 1, 2) + M(2, 2).scaled(3)
    assert delta_alpha(mixed, C((2, 2))) == [
        ((C((1, 1)), C((2,))), Fraction(1)),
        ((C((2,)), C((2,))), Fraction(3)),
    ]
    assert delta_alpha(M(3), C((1, 2))) == []
    with pytest.raises(DegreeMismatch):
        delta_alpha(M(2, 1), C((2, 2)))


def test_delta_alpha_totals():
    # summing the projections over all alpha of a fixed length recovers the
    # iterated deconcatenation: each index splits once per coarsening mask
    for comp in compositions_of(5):
        total = 0
        for alpha in compositions_of(5):
            total += sum(1 for _ in delta_alpha(M(*comp), alpha))
        assert total == 2 ** (comp.length - 1)


def test_antipode_word_closed_form():
    assert antipode_word(X(1, 2)) == X(2, 1)
    assert antipode_word(X(3)) == -X(3)
    assert antipode_word(GradedElement.unit(WORD)) == GradedElement.unit(WORD)
    with pytest.raises(BasisMismatch):
        antipode_word(M(1))


def test_antipode_word_matches_recursion():
    for comp in compositions_up_to(7):
        closed = antipode_word(GradedElement.basis_element(WORD, comp))
        recursed = antipode_by_recursion(WORD, comp)
        assert closed == recursed


def test_antipode_monomial_examples():
    assert antipode_monomial(M(1, 1)) == M(1, 1) + M(2)
    assert antipode_monomial(M(2)) == -M(2)
    assert antipode_monomial(M(2, 1)) == M(1, 2) + M(3)
    with pytest.raises(BasisMismatch):
        antipode_monomial(X(1))


def test_antipode_axiom_both_bases():
    # convolution of S with the identity is the unit times the counit
    for basis in (MONOMIAL, WORD):
        for comp in compositions_up_to(6):
            h = GradedElement.basis_element(basis, comp)
            acc = GradedElement.zero(basis)
            for (l, r), coef in coproduct(h).terms.items():
                s_left = antipode_by_recursion(basis, l)
                acc = acc + product(s_left, GradedElement.basis_element(basis, r)).scaled(coef)
            expected = GradedElement.unit(basis).scaled(counit(h))
            assert acc == expected


def test_antipode_is_involutive_here():
    # both algebras are commutative, so S o S is the identity
    for basis in (MONOMIAL, WORD):
        for comp in compositions_up_to(6):
            once = antipode_by_recursion(basis, comp)
            twice = GradedElement.zero(basis)
            for beta, coef in once.terms.items():
                twice = twice + antipode_by_recursion(basis, beta).scaled(coef)
            assert twice == GradedElement.basis_element(basis, comp)


def test_tensor_element_evaluate():
    t = coproduct(M(1, 1))
    # pair the counit against the coefficient of M[1,1]
    val = t.evaluate(
        lambda comp: Fraction(1) if comp == EMPTY else Fraction(0),
        lambda comp: Fraction(1) if comp == C((1, 1)) else Fraction(0),
    )
    assert val == 1


def test_power_sum():
    assert power_sum(C((2,))) == M(2)
    assert power_sum(C((2, 1))) == M(2, 1) + M(1, 2) + M(3)
    assert power_sum(EMPTY) == GradedElement.unit(MONOMIAL)
    with pytest.raises(NotAPartition):
        power_sum(C((1, 2)))
