"""Universal morphisms, canonical functionals, theta, character bijections."""

import re
import sys
from fractions import Fraction

import pytest

from qshuffle.characters import (
    BUILTIN_NAMES, basis_contract, basis_expand, builtin, f_to_g, g_to_f, normalize, prefix_sum_character, qps_expand
)
from qshuffle.compositions import EMPTY, Composition, compositions_of, compositions_up_to, deconcatenations
from qshuffle.demos import SmallPoset, all_graphs, all_posets, graph_provider, poset_provider
from qshuffle.elements import (
    MONOMIAL,
    WORD,
    GradedElement,
    antipode_by_recursion,
    antipode_monomial,
    antipode_word,
    coproduct,
    format_element,
    linear_image,
    product,
    product_rule,
)
from qshuffle.errors import (
    BasisMismatch,
    NotACharacter,
    NotAnInfinitesimalCharacter,
    NotNormalized,
)
from qshuffle.functionals import Functional, exp_functional, log_functional
from qshuffle.universal import (
    CANONICAL_NAMES,
    CharacterPowerEvaluator,
    HopfProvider,
    canonical,
    char_to_infchar,
    infchar_to_char,
    theta,
    universal_to_qsym,
    universal_to_sh,
)
from qshuffle.verify import VerifyReport, is_character, theta_eigencheck

from oracles import nu_via_convolution, power_value, qsym_provider

C = Composition


def M(*parts):
    return GradedElement.basis_element(MONOMIAL, parts)


def X(*parts):
    return GradedElement.basis_element(WORD, parts)


def test_provider_shape():
    q = qsym_provider()
    assert q.degree(C((2, 1))) == 3
    assert q.unit_label == EMPTY
    delta = dict(q.coproduct(C((2, 1))))
    assert delta == {
        (EMPTY, C((2, 1))): 1,
        (C((2,)), C((1,))): 1,
        (C((2, 1)), EMPTY): 1,
    }


def test_power_evaluator_values():
    zeta, q = canonical("zetaQ"), qsym_provider()
    assert power_value(q, zeta, C((2, 1)), (2, 1)) == 1
    assert power_value(q, zeta, C((2, 1)), (1, 2)) == 0
    assert power_value(q, zeta, C((2, 1)), (3,)) == 0
    assert power_value(q, zeta, C((3,)), (3,)) == 1
    assert power_value(q, zeta, C((2, 1)), ()) == 0
    assert power_value(q, zeta, EMPTY, ()) == 1
    # wrong total degree projects to nothing
    assert power_value(q, zeta, C((2, 1)), (2, 2)) == 0
    # the morphism collects these values over the compositions of the degree
    phi = CharacterPowerEvaluator(q, zeta, MONOMIAL)
    assert phi(C((2, 1))) == M(2, 1)
    assert phi(EMPTY) == GradedElement.unit(MONOMIAL)


def test_universal_identity_maps():
    phi = universal_to_qsym(qsym_provider(), canonical("zetaQ"))
    psi = universal_to_sh(qsym_provider(), canonical("xiS"))
    for comp in compositions_up_to(6):
        assert phi(comp) == M(*comp)
        assert psi(comp) == X(*comp)


def test_universal_on_qsym_example():
    xi = log_functional(canonical("zetaQ"))
    got = universal_to_sh(qsym_provider(), xi)(C((1, 1)))
    assert got == X(1, 1) - X(2).scaled(Fraction(1, 2))
    assert format_element(got) == "X[1,1] - 1/2 X[2]"


def test_universal_morphisms_of_qsym_are_the_basis_expansions():
    # the paper's theorem on QSym itself: Phi_f(M_alpha) is X^f_alpha in the monomial basis, and
    # Psi_g(x_alpha) for g = f_to_g(f) is its contraction, on all five stock bases through size 8;
    # the coarsening walk behind basis_expand and basis_contract is the one implementation of these maps in the
    # library, so the generic evaluator on deconcatenation holds it to them, with the six canonical functionals too
    into_m = [builtin(name) for name in BUILTIN_NAMES] + [canonical(n) for n in ("zetaQ", "barZetaQ", "nuQ", "counit")]
    into_x = [f_to_g(builtin(name)) for name in BUILTIN_NAMES] + [canonical(n) for n in ("xiS", "eta")]
    cases = [(universal_to_qsym, f, lambda f, alpha: basis_expand(f, alpha).terms) for f in into_m]
    cases += [(universal_to_sh, g, basis_contract) for g in into_x]
    for make, phi, walk in cases:
        morphism = make(qsym_provider(), phi)
        for alpha in compositions_up_to(8):
            assert morphism(alpha).terms == walk(phi, alpha), (phi.name, alpha)


def test_universal_is_algebra_map_here():
    # on QSym with zetaQ the map is the identity, so in particular it
    # carries quasi-shuffle products to quasi-shuffle products
    phi = universal_to_qsym(qsym_provider(), canonical("zetaQ"))
    for alpha in compositions_of(2):
        for beta in compositions_of(2):
            assert linear_image(product(M(*alpha), M(*beta)), phi) == product(phi(alpha), phi(beta))


def test_universal_preconditions():
    # phi's value at the unit is checked when the morphism is made, before any label
    with pytest.raises(NotACharacter):
        universal_to_qsym(qsym_provider(), canonical("xiS"))
    with pytest.raises(NotAnInfinitesimalCharacter):
        universal_to_sh(qsym_provider(), canonical("zetaQ"))
    with pytest.raises(BasisMismatch):
        CharacterPowerEvaluator(qsym_provider(), canonical("zetaQ"), "P")


def test_float_values_are_refused_on_the_first_label():
    # the unit value is checked exactly when the morphism is made; the table reads every other value exactly
    reads = []

    def floats(unit_value):
        def phi(label):
            reads.append(label)
            return unit_value if label in (EMPTY, SmallPoset(0)) else 1.0

        return phi

    cases = [
        (universal_to_qsym, qsym_provider(), 1, C((2, 1))),
        (universal_to_sh, qsym_provider(), 0, C((1,))),
        (universal_to_qsym, poset_provider(), 1, SmallPoset(2, [(1, 2)])),
        (universal_to_sh, poset_provider(), 0, SmallPoset(1)),
    ]
    for make, provider, unit_value, label in cases:
        reads.clear()
        morphism = make(provider, floats(unit_value))
        assert len(reads) == 1
        with pytest.raises(TypeError, match="not an exact rational: 1.0"):
            morphism(label)
        # refused at the first value of positive degree the table read
        assert len(reads) == 2 and provider.degree(reads[1]) > 0
        # a float at the unit, equal in value to the exact one, is refused when the morphism is made
        with pytest.raises(TypeError, match=re.escape(f"not an exact rational: {float(unit_value)} (at ")):
            make(provider, lambda label: float(unit_value))
    # so is a float coefficient of the provider's coproduct
    halves = HopfProvider(lambda label: [(pair, 0.5) for pair in deconcatenations(label)], qsym_provider().degree, EMPTY)
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        universal_to_qsym(halves, canonical("zetaQ"))(C((2, 1)))


def test_text_values_are_refused_not_parsed():
    # a value of phi, or a coproduct coefficient, that is text raises TypeError naming its label
    def text(unit_value):
        return lambda label: unit_value if label in (EMPTY, SmallPoset(0)) else "1/2"

    cases = [
        (universal_to_qsym, qsym_provider(), 1, C((2, 1)), "C[2]"),
        (universal_to_sh, qsym_provider(), 0, C((1,)), "C[1]"),
        (universal_to_qsym, poset_provider(), 1, SmallPoset(2, [(1, 2)]), str(SmallPoset(1))),
        (universal_to_sh, poset_provider(), 0, SmallPoset(1), str(SmallPoset(1))),
    ]
    for make, provider, unit_value, label, first_read in cases:
        with pytest.raises(TypeError, match=re.escape(f"not an exact rational: '1/2' (at {first_read})")):
            make(provider, text(unit_value))(label)
    ones = HopfProvider(lambda label: [(pair, "1") for pair in deconcatenations(label)], qsym_provider().degree, EMPTY)
    with pytest.raises(TypeError, match=re.escape("not an exact rational: '1' (at C[2,1])")):
        universal_to_qsym(ones, canonical("zetaQ"))(C((2, 1)))


def _unit_value(value):
    """phi with value at the unit label, and 1 everywhere else."""
    return lambda label: value if label == EMPTY else 1


_LONG = "x" * 100_000
_LONG_TAG = GradedElement(_LONG, {(1,): 1})
_PAST = f"a number of more than {sys.get_int_max_str_digits()} digits"
# label a of degree 2 whose one coproduct term has a left factor of degree 10**5000
_HUGE_LEFT_DEGREE = HopfProvider(lambda label: [(("l", "r"), 1)], {"u": 0, "a": 2, "l": 10**5000, "r": 5}.get, "u")


def _graded(**degrees):
    """A provider whose labels have these degrees, each label's coproduct the one term (l, r)."""
    return HopfProvider(lambda label: [(("l", "r"), 1)], degrees.get, "u")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GradedElement(MONOMIAL, {(1,): [1] * 20000}), TypeError,
         "not an exact rational: a list of 20000 entries (at C[1])"),
        (lambda: M(1).scaled([1] * 20000), TypeError, "not an exact rational: a list of 20000 entries (at 'scalar')"),
        (lambda: universal_to_qsym(qsym_provider(), _unit_value(1.0)), TypeError, "not an exact rational: 1.0 (at C[-])"),
        (lambda: universal_to_sh(qsym_provider(), _unit_value(0.0)), TypeError, "not an exact rational: 0.0 (at C[-])"),
        (lambda: universal_to_qsym(qsym_provider(), _unit_value("1")), TypeError, "not an exact rational: '1' (at C[-])"),
        (lambda: universal_to_qsym(qsym_provider(), _unit_value(10**5000)), NotACharacter,
         f"zeta(unit) = {_PAST}, expected 1"),
        (lambda: universal_to_sh(qsym_provider(), _unit_value(10**5000)), NotAnInfinitesimalCharacter,
         f"xi(unit) = {_PAST}, expected 0"),
        (lambda: prefix_sum_character(lambda n: 0.1)((1,)), TypeError, "not an exact rational: 0.1 (at 1)"),
        (lambda: prefix_sum_character(lambda n: "1")((2, 1)), TypeError, "not an exact rational: '1' (at 2)"),
        (lambda: builtin(_LONG), ValueError, f"unknown basis a text of 100000 characters; known: {', '.join(BUILTIN_NAMES)}"),
        (lambda: canonical(_LONG), ValueError,
         f"unknown canonical functional a text of 100000 characters; known: {', '.join(CANONICAL_NAMES)}"),
        (lambda: CharacterPowerEvaluator(qsym_provider(), canonical("zetaQ"), _LONG), BasisMismatch,
         "a universal morphism maps into 'M' or 'X', got a text of 100000 characters"),
        (lambda: product_rule(_LONG), BasisMismatch, "no product rule for basis a text of 100000 characters"),
        (lambda: _LONG_TAG + M(1), BasisMismatch, "a text of 100000 characters vs M"),
        (lambda: M(1) - _LONG_TAG, BasisMismatch, "M vs a text of 100000 characters"),
        (lambda: product(_LONG_TAG, M(1)), BasisMismatch, "a text of 100000 characters vs M"),
        (lambda: coproduct(_LONG_TAG), BasisMismatch, "no coproduct for basis a text of 100000 characters"),
        (lambda: antipode_word(_LONG_TAG), BasisMismatch,
         "closed-form word antipode needs basis 'X', got a text of 100000 characters"),
        (lambda: antipode_by_recursion(_LONG, (1,)), BasisMismatch, "no antipode for basis a text of 100000 characters"),
        (lambda: antipode_monomial(_LONG_TAG), BasisMismatch,
         "monomial antipode needs basis 'M', got a text of 100000 characters"),
        (lambda: Functional(1, lambda comp: 0.5)((1,) * 100_000), TypeError,
         "not an exact rational: 0.5 (at a Composition of 100000 entries)"),
        (lambda: Composition([-10**5000]), ValueError, f"composition parts must be positive ints, got {_PAST}"),
        (lambda: universal_to_qsym(_HUGE_LEFT_DEGREE, _unit_value(1))("a"), ValueError,
         f"the coproduct of 'a' (degree 2) has a term of degrees {_PAST} and 5"),
        # a right factor of degree -1 passes the grading check, -1 = 2 - 3
        (lambda: universal_to_qsym(_graded(u=0, a=2, l=3, r=-1), _unit_value(1))("a"), ValueError,
         "the degree of 'r' must be an int >= 0, got -1"),
        (lambda: universal_to_qsym(_graded(u=0, a=2.0), _unit_value(1))("a"), ValueError,
         "the degree of 'a' must be an int >= 0, got 2.0"),
        (lambda: universal_to_qsym(_graded(u=0, a=2.0), _unit_value(1)).pair(canonical("eta"), "a"), ValueError,
         "the degree of 'a' must be an int >= 0, got 2.0"),
        (lambda: universal_to_qsym(_graded(u=0, a=True), _unit_value(1))("a"), ValueError,
         "the degree of 'a' must be an int >= 0, got True"),
        (lambda: universal_to_qsym(HopfProvider(lambda label: [], lambda label: -1, "u"), _unit_value(1))(_LONG),
         ValueError, "the degree of a text of 100000 characters must be an int >= 0, got -1"),
        (lambda: universal_to_qsym(_graded(u=0, a=2, l=-1, r=3), _unit_value(1))("a"), ValueError,
         "the coproduct of 'a' (degree 2) has a term of degrees -1 and 3"),
        (lambda: setattr(qsym_provider(), _LONG, 1), AttributeError, "HopfProvider.a text of 100000 characters is read-only"),
        (lambda: delattr(VerifyReport("t"), _LONG), AttributeError, "VerifyReport.a text of 100000 characters is read-only"),
        (lambda: setattr(VerifyReport("t"), "a\nb", 1), AttributeError, "VerifyReport.'a\\nb' is read-only"),
        # a name or tag longer than MAX_NAME (80) is named by its kind and length, so a message quoting two is short
        (lambda: setattr(qsym_provider(), "x" * 190, 1), AttributeError, "HopfProvider.a text of 190 characters is read-only"),
        (lambda: GradedElement("a" * 200, {(1,): 1}) + GradedElement("b" * 200, {(1,): 1}), BasisMismatch,
         "a text of 200 characters vs a text of 200 characters"),
        (lambda: M(1) + GradedElement(("t",) * 30, {(1,): 1}), BasisMismatch, "M vs a tuple of 150 characters"),
    ],
    ids=[
        "coefficient", "scalar", "unit-float-qsym", "unit-float-sh", "unit-text", "unit-huge-qsym", "unit-huge-sh",
        "tau-float", "tau-text", "builtin", "canonical", "evaluator-basis", "product-rule", "add", "subtract",
        "product", "coproduct", "antipode-word", "antipode-by-recursion", "antipode-monomial", "functional-at",
        "composition-part", "provider-degree", "negative-degree", "float-degree", "float-degree-pair", "bool-degree",
        "long-label-degree", "negative-left-degree", "provider-read-only", "report-read-only", "two-line-name",
        "mid-length-name", "two-long-tags", "long-tuple-tag",
    ],
)
def test_outside_values_end_in_their_own_one_line_error(call, error, message):
    # each quoted its value whole, accepted it, or raised another error, before every value went through
    # exact_value and every quote through shown
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message and len(message) < 200 and "\n" not in message


def test_short_values_print_as_before_and_exact_units_are_kept():
    with pytest.raises(ValueError, match=re.escape(f"unknown basis 'nope'; known: {', '.join(BUILTIN_NAMES)}")):
        builtin("nope")
    # exact unit values are taken as they are, a bool as an int
    assert universal_to_qsym(qsym_provider(), _unit_value(True))(C((2,))) == M(2)
    assert universal_to_sh(qsym_provider(), _unit_value(Fraction(0)))(C((2,))) == GradedElement(WORD, {(2,): 1})
    # a short attribute name stays bare in the read-only error
    for record in (qsym_provider(), VerifyReport("t")):
        with pytest.raises(AttributeError) as raised:
            record.x = 1
        assert str(raised.value) == f"{type(record).__name__}.x is read-only"


def test_integral_fraction_values_of_phi_give_normal_form_images():
    # phi = Fraction(2, 1) off the unit: every coefficient comes back an int, equal to the image of phi = 2
    for provider, labels in (
        (qsym_provider(), compositions_up_to(5)),
        (graph_provider(), [g for n in range(5) for g in all_graphs(n)]),
        (poset_provider(), [p for n in range(5) for p in all_posets(n)]),
    ):
        for make, unit_value in ((universal_to_qsym, 1), (universal_to_sh, 0)):

            def two(label, kind=int):
                return kind(2) if provider.degree(label) else kind(unit_value)

            morphism, in_ints = make(provider, lambda label: two(label, Fraction)), make(provider, two)
            for label in labels:
                image = morphism(label)
                assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in image.terms.values())
                assert image == in_ints(label) and not image.is_zero(), label


def test_canonical_values_frozen():
    zeta = canonical("zetaQ")
    assert [zeta(C((n,))) for n in (1, 2, 3)] == [1, 1, 1]
    assert zeta(C((1, 1))) == 0
    bar = canonical("barZetaQ")
    assert bar(C((2,))) == 1
    assert bar(C((3,))) == -1
    assert bar(C((1, 1))) == 0
    assert bar(EMPTY) == 1
    xi = canonical("xiS")
    assert xi(C((5,))) == 1
    assert xi(C((1, 2))) == 0
    assert xi(EMPTY) == 0
    eta = canonical("eta")
    assert eta(C((2, 1))) == -1
    assert eta(C((3,))) == 3
    assert eta(C((1, 1, 2))) == 2
    with pytest.raises(ValueError):
        canonical("nope")
    assert len(CANONICAL_NAMES) == 6


def test_canonical_registry():
    assert CANONICAL_NAMES == ("zetaQ", "barZetaQ", "xiS", "nuQ", "eta", "counit")
    for name in CANONICAL_NAMES:
        assert canonical(name) is not canonical(name)
        assert canonical(name).name == name
    counit = canonical("counit")
    assert counit(EMPTY) == 1
    assert [counit(comp) for comp in compositions_up_to(4)[1:]] == [0] * 15
    with pytest.raises(ValueError) as excinfo:
        canonical("nope")
    assert str(excinfo.value) == (
        "unknown canonical functional 'nope'; known: zetaQ, barZetaQ, xiS, nuQ, eta, counit"
    )


def test_nu_closed_form_frozen():
    nu = canonical("nuQ")
    assert nu(EMPTY) == 1
    assert nu(C((1,))) == 2
    assert nu(C((2,))) == 0
    assert nu(C((3,))) == 2
    assert nu(C((1, 1))) == 2
    assert nu(C((2, 1))) == -2
    assert nu(C((1, 2))) == 0
    assert nu(C((2, 2, 1))) == 2


def test_nu_convolution_matches_closed_form():
    nu = canonical("nuQ")
    by_convolution = nu_via_convolution(6)
    for comp in compositions_up_to(6):
        assert by_convolution(comp) == nu(comp), comp


def test_nu_is_a_character():
    assert is_character(canonical("nuQ"), 5, MONOMIAL) is None


def test_theta_frozen_values():
    assert theta(M(1)) == M(1).scaled(2)
    assert theta(M(2)).is_zero()
    assert theta(M(1, 1)) == M(1, 1).scaled(4) + M(2).scaled(2)
    assert theta(M(2, 1)) == -M(3).scaled(2)
    assert theta(M(1, 1, 1)) == (
        M(1, 1, 1).scaled(8) + M(1, 2).scaled(4) + M(2, 1).scaled(4) + M(3).scaled(2)
    )
    assert theta(GradedElement.unit(MONOMIAL)) == GradedElement.unit(MONOMIAL)
    with pytest.raises(BasisMismatch):
        theta(X(1))


def test_theta_is_linear_and_degreewise():
    h = M(1).scaled(3) + M(2, 1)
    assert theta(h) == theta(M(1)).scaled(3) + theta(M(2, 1))


def test_theta_is_an_algebra_morphism():
    for alpha in compositions_up_to(4):
        for beta in compositions_up_to(4):
            if not alpha or not beta:
                continue
            assert theta(product(M(*alpha), M(*beta))) == product(theta(M(*alpha)), theta(M(*beta)))


def test_theta_eigencheck_stock():
    report = theta_eigencheck(None, 5)
    assert report.passed, report.render()
    assert len(report.checks) == 2
    assert report.render().count("[PASS]") == 2


def test_theta_eigencheck_custom_even_block():
    f_even = prefix_sum_character(lambda n: Fraction(n), name="even-prefix")
    report = theta_eigencheck(f_even, 5)
    assert report.passed, report.render()


def test_infchar_to_char_is_exp_for_factorial_basis():
    xi = canonical("xiS")
    zeta = infchar_to_char(universal_to_sh(qsym_provider(), xi), builtin("type2"))
    expected = exp_functional(xi)
    for comp in compositions_up_to(6):
        assert zeta(comp) == expected(comp), comp


def test_char_to_infchar_is_log_for_factorial_basis():
    zeta = canonical("zetaQ")
    xi = char_to_infchar(universal_to_qsym(qsym_provider(), zeta), builtin("type2"))
    expected = log_functional(zeta)
    for comp in compositions_up_to(6):
        assert xi(comp) == expected(comp), comp


def test_char_bijection_roundtrip_other_bases():
    for name in ("type1", "even-odd"):
        f = builtin(name)
        xi = canonical("xiS")
        zeta = infchar_to_char(universal_to_sh(qsym_provider(), xi), f)
        back = char_to_infchar(universal_to_qsym(qsym_provider(), zeta), f)
        for comp in compositions_up_to(5):
            assert back(comp) == xi(comp), (name, comp)


def test_char_bijection_roundtrip_from_char_side():
    f = builtin("type1")
    zeta = canonical("zetaQ")
    xi = char_to_infchar(universal_to_qsym(qsym_provider(), zeta), f)
    back = infchar_to_char(universal_to_sh(qsym_provider(), xi), f)
    for comp in compositions_up_to(5):
        assert back(comp) == zeta(comp), comp


def test_char_bijection_preconditions():
    with pytest.raises(NotAnInfinitesimalCharacter):
        infchar_to_char(universal_to_sh(qsym_provider(), canonical("zetaQ")), builtin("type2"))
    with pytest.raises(NotACharacter):
        char_to_infchar(universal_to_qsym(qsym_provider(), canonical("xiS")), builtin("type2"))
    raw = prefix_sum_character(lambda n: Fraction(n))
    psi = universal_to_sh(qsym_provider(), canonical("xiS"))
    mapped = infchar_to_char(psi, raw)
    with pytest.raises(NotNormalized):
        mapped(C((2,)))
    # f o Psi reads a word image and g o Phi a monomial one; the other basis is refused
    phi = universal_to_qsym(qsym_provider(), canonical("zetaQ"))
    with pytest.raises(BasisMismatch):
        infchar_to_char(phi, builtin("type1"))
    with pytest.raises(BasisMismatch):
        char_to_infchar(psi, builtin("type1"))


def test_transfers_evaluate_each_label_once():
    base = qsym_provider()
    seen = []
    provider = HopfProvider(base.coproduct, lambda label: seen.append(label) or base.degree(label), base.unit_label)
    for transfer, morphism in (
        (infchar_to_char, universal_to_sh(provider, canonical("eta"))),
        (char_to_infchar, universal_to_qsym(provider, canonical("zetaQ"))),
    ):
        fn = transfer(morphism, builtin("type1"))
        label = C((2, 1, 1))
        value = fn(label)
        calls = len(seen)
        assert calls > 0
        assert fn(label) == value
        assert len(seen) == calls, transfer.__name__


def test_a_coproduct_term_off_the_grading_is_refused():
    # label b of degree 3 with a term (a, a), a of degree 1: the degrees 1 + 1 do not add up to 3, which used to
    # write a's table into the wrong block (<M[1,1,1] + M[3]>); c of degree 3 on the right of a in the coproduct
    # of a degree-2 label ran past the end of the table
    degrees = {"e": 0, "a": 1, "b": 3, "c": 3, "d": 2}
    terms = {
        "e": [(("e", "e"), 1)],
        "a": [(("e", "a"), 1), (("a", "e"), 1)],
        "b": [(("e", "b"), 1), (("a", "a"), 1), (("b", "e"), 1)],
        "c": [(("e", "c"), 1), (("c", "e"), 1)],
        "d": [(("e", "d"), 1), (("a", "c"), 1), (("d", "e"), 1)],
    }
    provider = HopfProvider(terms.__getitem__, degrees.__getitem__, "e")
    for make, phi in ((universal_to_qsym, lambda label: 1), (universal_to_sh, lambda label: int(label != "e"))):
        morphism = make(provider, phi)
        for label, left, right in (("b", 1, 1), ("d", 1, 3)):
            n = degrees[label]
            message = f"the coproduct of '{label}' (degree {n}) has a term of degrees {left} and {right}"
            with pytest.raises(ValueError, match=re.escape(message)):
                morphism(label)
            with pytest.raises(ValueError, match=re.escape(message)):
                morphism.pair(canonical("zetaQ"), label)
        # a provider that keeps the grading still maps
        assert morphism("a") == GradedElement.basis_element(morphism.basis, (1,))


def test_degrees_are_read_once_per_table():
    # a label's degree is kept with its table: calling the morphism or pairing with it again reads no degree,
    # and a right factor whose table is made is not asked its degree again
    base, seen = qsym_provider(), []
    provider = HopfProvider(base.coproduct, lambda label: seen.append(label) or base.degree(label), base.unit_label)
    morphism = universal_to_qsym(provider, canonical("zetaQ"))
    label = C((2, 1, 1))
    image = morphism(label)
    assert image == basis_expand(canonical("zetaQ"), label)
    seen.clear()
    assert morphism(label) == image and morphism.pair(canonical("eta"), label) == 1 and seen == []
    # (3,1,1) shares the right factors (1,1), (1) and the unit with (2,1,1), whose tables keep their degrees: only
    # the label and the left factors of its terms -|(3,1,1), (3)|(1,1), (3,1)|(1) and (3,1,1)|- are read
    assert morphism(C((3, 1, 1))) == basis_expand(canonical("zetaQ"), (3, 1, 1))
    assert seen == [C((3, 1, 1)), EMPTY, C((3,)), C((3, 1)), C((3, 1, 1))]


def _graph_evaluator():
    return universal_to_qsym(graph_provider(), lambda g: int(not g.edges))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: M(1, 1).scaled(2), "terms"),
        (lambda: coproduct(M(2, 1)), "basis"),
        (qsym_provider, "degree"),
        (lambda: VerifyReport("t"), "checks"),
        (_graph_evaluator, "phi"),
        (lambda: builtin("type1"), "value_at_empty"),
        (lambda: canonical("zetaQ"), "_memo"),
    ],
    ids=["element", "tensor", "provider", "report", "evaluator", "functional", "functional-memo"],
)
def test_every_read_only_object_refuses_assignment_and_deletion(make, field):
    # the one rule of compositions.ReadOnly: `del elem.terms` used to succeed and leave an element whose repr
    # raised, an evaluator's phi could be swapped under its tables, and builtin("type1") rewritten for the process
    obj = make()
    value = getattr(obj, field)
    for change in (lambda: setattr(obj, field, None), lambda: delattr(obj, field)):
        with pytest.raises(AttributeError) as raised:
            change()
        message = str(raised.value)
        assert message == f"{type(obj).__name__}.{field} is read-only" and len(message) < 200
    assert getattr(obj, field) is value


def test_the_old_holes_stay_closed():
    elem = M(1, 1).scaled(2)
    with pytest.raises(AttributeError, match=r"^GradedElement\.terms is read-only$"):
        del elem.terms
    assert repr(elem) == "<2 M[1,1]>"
    evaluator = _graph_evaluator()
    edge = all_graphs(2)[-1]
    assert format_element(evaluator(edge)) == "2 M[1,1]"
    with pytest.raises(AttributeError, match=r"^CharacterPowerEvaluator\.phi is read-only$"):
        evaluator.phi = lambda g: 1
    assert evaluator(edge) == _graph_evaluator()(edge)
    with pytest.raises(AttributeError, match=r"^Functional\.value_at_empty is read-only$"):
        builtin("type1").value_at_empty = 0
    assert builtin("type1").value_at_empty == 1 and builtin("type1").name == "type1"


def test_functionals_and_evaluators_compare_and_hash_as_themselves():
    # memos keyed on functionals (demos.graph_infchar, characters._closed_form_dual) keep equal-looking ones apart
    first, second = Functional(1, abs, name="f"), Functional(1, abs, name="f")
    assert first == first and first != second and len({first: 1, second: 2}) == 2
    assert hash(first) == object.__hash__(first)
    left, right = _graph_evaluator(), _graph_evaluator()
    assert left == left and left != right and hash(left) == object.__hash__(left)
    # a report compares by its fields but is unhashable, as its list of checks grows
    with pytest.raises(TypeError):
        hash(VerifyReport("t"))


_NOT_FUNCTIONALS = [lambda comp: Fraction(1, 10), lambda comp: 0.1, lambda comp: "1", "type1", None]


@pytest.mark.parametrize(
    "entry, call",
    [
        ("basis_expand", lambda f: basis_expand(f, (1,))),
        ("basis_contract", lambda f: basis_contract(f, (1,))),
        ("qps_expand", lambda f: qps_expand(f, (1,))),
        ("f_to_g", f_to_g),
        ("g_to_f", g_to_f),
        ("normalize", normalize),
        ("exp_functional", exp_functional),
        ("log_functional", log_functional),
    ],
)
def test_entries_that_take_a_functional_refuse_anything_else(entry, call):
    # basis_expand(lambda c: 0.1, (1,)) used to return <3602879701896397/36028797018963968 M[1]>, and a text value
    # ended in a bare AttributeError; an exact-valued plain function is refused as well, once per call
    for value in _NOT_FUNCTIONALS:
        with pytest.raises(TypeError) as raised:
            call(value)
        message = str(raised.value)
        kind = type(value).__name__
        assert message == f"{entry} takes a Functional, got an object of type {kind}" and len(message) < 200


def test_linear_image_is_in_the_basis_of_the_images():
    # psi maps QSym into the shuffle algebra: its extension to M[1,1] used to come back tagged M
    psi = universal_to_sh(qsym_provider(), canonical("xiS"))
    assert psi(C((1, 1))) == X(1, 1)
    assert linear_image(M(1, 1), psi) == X(1, 1)
    assert linear_image(M(1, 1) + M(2).scaled(3), psi) == X(1, 1) + X(2).scaled(3)
    # the image of zero stays in h's basis, and images in two bases are refused
    assert linear_image(GradedElement.zero(MONOMIAL), psi) == GradedElement.zero(MONOMIAL)
    with pytest.raises(BasisMismatch, match="^X vs M$"):
        linear_image(M(1) + M(2), lambda comp: X(*comp) if comp == C((1,)) else M(*comp))
    # the maps from M to M are unchanged
    h = M(2, 1) + M(1).scaled(Fraction(1, 2))
    assert theta(h).basis == antipode_monomial(h).basis == MONOMIAL
