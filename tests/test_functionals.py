"""Dual-side calculus: convolution, inverses, exp, log, bracket."""

import random
from fractions import Fraction
from math import factorial

import pytest

from qshuffle.compositions import EMPTY, Composition, compositions_of, compositions_up_to
from qshuffle.elements import MONOMIAL, WORD, GradedElement
from qshuffle.errors import BasisMismatch, NonvanishingAtEmpty, WrongValueAtEmpty
from qshuffle.functionals import Functional, exp_functional, log_functional
from qshuffle.universal import canonical, universal_to_qsym
from qshuffle.verify import is_character, is_infinitesimal_character

import oracles
from oracles import NotInvertible, convolve, functional_inverse, lie_bracket, qsym_provider

C = Composition
DEGREE = 6


def _random_functional(seed, value_at_empty):
    rng = random.Random(seed)
    table = {
        comp: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        for comp in compositions_up_to(DEGREE + 1)
        if comp
    }
    return Functional(Fraction(value_at_empty), lambda comp: table.get(comp, Fraction(0)))


def test_functional_call_and_elements():
    zeta = canonical("zetaQ")
    assert zeta(EMPTY) == 1
    assert zeta(C((4,))) == 1
    assert zeta(C((2, 1))) == 0
    assert zeta((3,)) == 1  # coerced
    elem = GradedElement.basis_element(MONOMIAL, (2,)).scaled(3) + GradedElement.unit(MONOMIAL)
    assert oracles.of_element(zeta, elem) == 4
    assert repr(zeta) == "<zetaQ: empty -> 1>"
    assert repr(Functional(0, lambda c: 0)) == "<functional: empty -> 0>"


def test_floats_and_text_are_refused_not_converted():
    # a float or a text, at the empty composition or from the function, raises TypeError naming the composition
    for bad in (0.1, 0.5, 1.0, "1/3", "1"):
        with pytest.raises(TypeError, match=r"not an exact rational: .* \(at C\[-\]\)"):
            Functional(bad, lambda comp: 1)
        phi = Functional(1, lambda comp: bad)
        with pytest.raises(TypeError, match=r"not an exact rational: .* \(at C\[2,1\]\)"):
            phi(C((2, 1)))
    # ints, bools and Fractions are kept as Fractions
    phi = Functional(True, lambda comp: Fraction(len(comp), 2) if len(comp) > 1 else len(comp))
    assert [type(v) for v in (phi.value_at_empty, phi(C((3,))), phi(C((1, 1))))] == [Fraction] * 3
    assert (phi.value_at_empty, phi(C((3,))), phi(C((1, 1, 1)))) == (1, 1, Fraction(3, 2))


def test_dense_vectors_read_each_value_once_through_call():
    # the values at compositions_of(n) as int numerators over their lcm, built once per degree
    computed = []

    class Counted(Functional):
        __slots__ = ("called",)

        def __call__(self, comp):
            self.called.append(comp)
            return super().__call__(comp)

    def fn(c):
        computed.append(c)
        return Fraction(c[0], c.length) if c.length > 1 else 0

    f = Counted(Fraction(2, 3), fn)
    object.__setattr__(f, "called", [])  # a Functional is read-only once made
    assert f(C((2, 1))) == 1
    f.called.clear()
    computed.clear()
    numerators, common = f.dense(3)
    # each composition of 3 went through __call__ once, and the memoised value at C[2,1] was not computed again
    assert f.called == list(compositions_of(3))
    assert computed == [c for c in compositions_of(3) if c != C((2, 1))]
    assert all(type(num) is int for num in numerators) and common == 6
    assert [Fraction(num, common) for num in numerators] == [Fraction(1, 3), Fraction(1, 2), 1, 0]
    # a second pairing at the same degree calls nothing
    morphism = universal_to_qsym(qsym_provider(), canonical("zetaQ"))
    first = morphism.pair(f, C((1, 2)))
    f.called.clear()
    assert morphism.pair(f, C((1, 2))) == first and f.called == []
    assert type(first) is Fraction and first == oracles.of_element(f, morphism(C((1, 2))))
    # the degree-0 vector is [value_at_empty]
    f.called.clear()
    numerators, common = f.dense(0)
    assert [Fraction(num, common) for num in numerators] == [f.value_at_empty] and f.called == [EMPTY]


def test_convolution_unit():
    eps = canonical("counit")
    phi = _random_functional(11, 1)
    for comp in compositions_up_to(DEGREE):
        assert convolve(eps, phi)(comp) == phi(comp)
        assert convolve(phi, eps)(comp) == phi(comp)


def test_convolution_associative():
    a = _random_functional(1, 1)
    b = _random_functional(2, 0)
    c = _random_functional(3, 2)
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    for comp in compositions_up_to(DEGREE):
        assert left(comp) == right(comp)


def test_convolution_example():
    zeta = canonical("zetaQ")
    sq = convolve(zeta, zeta)
    assert sq(EMPTY) == 1
    # deconcatenations of (3): (- , 3), (3, -), each contributing 1 * 1
    assert sq(C((3,))) == 2
    # of (1,1): only the middle cut pairs two single-part prefixes
    assert sq(C((1, 1))) == 1
    assert sq(C((2, 1))) == 1
    assert sq(C((1, 1, 1))) == 0


def test_inverse_is_two_sided():
    eps = canonical("counit")
    for value_at_empty in (1, -3, Fraction(2, 5)):
        phi = _random_functional(7, value_at_empty)
        inv = functional_inverse(phi)
        left = convolve(inv, phi)
        right = convolve(phi, inv)
        for comp in compositions_up_to(DEGREE):
            assert left(comp) == eps(comp)
            assert right(comp) == eps(comp)


def test_inverse_requires_unit_value():
    with pytest.raises(NotInvertible):
        functional_inverse(_random_functional(8, 0))


def test_inverse_of_zeta_is_antipode_composite():
    # phi^{-1} = phi o S for a character
    from qshuffle.elements import antipode_by_recursion

    zeta = canonical("zetaQ")
    inv = functional_inverse(zeta)
    for comp in compositions_up_to(DEGREE):
        assert inv(comp) == oracles.of_element(zeta, antipode_by_recursion(MONOMIAL, comp))


def test_exp_log_preconditions():
    with pytest.raises(NonvanishingAtEmpty):
        exp_functional(_random_functional(4, 1))
    with pytest.raises(WrongValueAtEmpty):
        log_functional(_random_functional(5, 0))


def test_exp_log_roundtrip():
    xi = _random_functional(9, 0)
    back = log_functional(exp_functional(xi))
    for comp in compositions_up_to(DEGREE):
        assert back(comp) == xi(comp)
    zeta = _random_functional(10, 1)
    forward = exp_functional(log_functional(zeta))
    for comp in compositions_up_to(DEGREE):
        assert forward(comp) == zeta(comp)


def test_exp_by_convolution_powers():
    # exp(xi) agrees with the truncated convolution series sum xi^{*k} / k!
    xi = _random_functional(12, 0)
    ex = exp_functional(xi)
    for comp in compositions_up_to(DEGREE):
        power = canonical("counit")
        total = Fraction(0)
        for k in range(comp.length + 1):
            total += power(comp) / factorial(k)
            power = convolve(power, xi)
        assert ex(comp) == total


def test_log_of_zeta_example():
    val = log_functional(canonical("zetaQ"))
    assert val(C((1, 1))) == Fraction(-1, 2)
    assert val(C((2,))) == 1
    assert val(EMPTY) == 0


def test_exp_of_xi_example():
    val = exp_functional(canonical("xiS"))
    assert val(C((1, 1))) == Fraction(1, 2)
    assert val(C((3,))) == 1
    assert val(C((2, 1))) == Fraction(1, 2)
    assert val(C((1, 1, 1))) == Fraction(1, 6)


def test_exp_sends_infinitesimal_to_character():
    # eta vanishes on quasi-shuffle products, so its exp multiplies over them
    eta = canonical("eta")
    assert is_infinitesimal_character(eta, DEGREE, MONOMIAL) is None
    assert is_character(exp_functional(eta), DEGREE, MONOMIAL) is None
    xi = canonical("xiS")
    assert is_infinitesimal_character(xi, DEGREE, WORD) is None
    assert is_character(exp_functional(xi), DEGREE, WORD) is None


def test_log_sends_character_to_infinitesimal():
    zeta = canonical("zetaQ")
    assert is_character(zeta, DEGREE, MONOMIAL) is None
    assert is_infinitesimal_character(log_functional(zeta), DEGREE, MONOMIAL) is None


def test_character_detection_negative():
    bad = Functional(Fraction(1), lambda comp: Fraction(1))
    violation = is_character(bad, 4, MONOMIAL)
    assert violation.kind == "product"
    # M[1] M[1] = 2 M[1,1] + M[2] evaluates to 3 but 1*1 = 1
    assert violation.alpha == C((1,)) and violation.beta == C((1,))
    assert (violation.expected, violation.actual) == (1, 3)
    assert "C[1]" in str(violation)


def test_infinitesimal_detection_negative():
    bad = Functional(Fraction(0), lambda comp: Fraction(1))
    violation = is_infinitesimal_character(bad, 4, WORD)
    assert violation.kind == "product"


def test_product_sweep_needs_a_product_rule_from_the_first_pair():
    zeta = canonical("zetaQ")
    # the rule is read before any value, so a basis without a product is refused at every degree,
    # ahead of a wrong value at empty and at degree 1, which has no pair to multiply
    for degree in (1, 2):
        for check in (is_character, is_infinitesimal_character):
            with pytest.raises(BasisMismatch, match=r"^no product rule for basis 'P'$"):
                check(zeta, degree, "P")


def test_value_at_empty_violations():
    violation = is_character(_random_functional(13, 0), 3, MONOMIAL)
    assert violation.kind == "value-at-empty"
    assert str(violation) == "value at empty composition is 0, expected 1"
    violation = is_infinitesimal_character(_random_functional(14, 1), 3, WORD)
    assert violation.kind == "value-at-empty"
    assert str(violation) == "value at empty composition is 1, expected 0"


def test_lie_bracket_is_commutator_and_alternating():
    a = _random_functional(21, 0)
    b = _random_functional(22, 0)
    br = lie_bracket(a, b)
    for comp in compositions_up_to(DEGREE):
        assert br(comp) == convolve(a, b)(comp) - convolve(b, a)(comp)
    self_bracket = lie_bracket(a, a)
    for comp in compositions_up_to(DEGREE):
        assert self_bracket(comp) == 0


def test_lie_bracket_jacobi():
    a = _random_functional(31, 0)
    b = _random_functional(32, 0)
    c = _random_functional(33, 0)
    total = (
        lie_bracket(a, lie_bracket(b, c)),
        lie_bracket(b, lie_bracket(c, a)),
        lie_bracket(c, lie_bracket(a, b)),
    )
    for comp in compositions_up_to(5):
        assert sum(t(comp) for t in total) == 0


def test_bracket_of_infinitesimals_is_infinitesimal():
    eta = canonical("eta")
    other = log_functional(canonical("zetaQ"))
    br = lie_bracket(eta, other)
    assert is_infinitesimal_character(br, 5, MONOMIAL) is None
