"""Every fast path against the slow code it replaced (kept in ``oracles``).

The kernel builds compositions derived from valid ones without checking
their parts again, so the invariant that makes this safe is tested here
too: every composition an enumeration returns is a real ``Composition``
whose parts are ``int``s >= 1.  Likewise every element coefficient is in
the normal form of ``elements``: an ``int``, or a ``Fraction`` that is not
one, while functional values stay ``Fraction``.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from qshuffle.characters import (
    BUILTIN_NAMES,
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
    coarsening_products,
    coarsenings,
    compositions_of,
    compositions_up_to,
    deconcatenations,
    nonempty_splits,
    pairs_up_to,
    quasi_shuffle,
    rational_sum,
    rearrangements,
    shuffle,
)
from qshuffle.demos import (
    SmallPoset,
    _chromatic_evaluator,
    _graph_coproduct,
    _induced_table,
    _inside,
    _kp_evaluator,
    _poset_coproduct,
    _split_coproduct,
    all_graphs,
    all_posets,
    chromatic_symmetric,
    graph_infchar,
    graph_provider,
    kp_generating_function,
    poset_provider,
    xi_unique_min,
    zeta_no_edges,
    zeta_ones,
)
from qshuffle.elements import (
    MONOMIAL,
    WORD,
    GradedElement,
    TensorElement,
    accumulate_product,
    antipode_by_recursion,
    antipode_monomial,
    antipode_word,
    coproduct,
    product,
)
from qshuffle.errors import NotACharacter, NotAnInfinitesimalCharacter
from qshuffle.functionals import Functional, exp_functional, log_functional
from qshuffle.universal import (
    CharacterPowerEvaluator, canonical, theta, universal_to_qsym, universal_to_sh,
)
from qshuffle.verify import check_integral_nonneg

import oracles
from oracles import qsym_provider

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
                accumulate_product(acc, a, b.terms.items())
                chained = chained + product(a, b)
        assert GradedElement(basis, acc) == chained


def test_theta_accumulation_matches_chained_sums():
    for n in range(6):
        for alpha in compositions_of(n):
            x_alpha = GradedElement(
                MONOMIAL, {beta: Fraction(len(beta), 1 + sum(beta)) for beta in coarsenings(alpha)}
            )
            assert theta(x_alpha) == oracles.theta(x_alpha)


def _primes():
    n = 2
    while True:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


def test_coarsening_walk_matches_mask_merging_and_refinement_split():
    # every block content gets its own prime, so a product names the blocks it multiplied
    primes, prime_of = _primes(), {}

    def prime(block):
        if block not in prime_of:
            prime_of[block] = next(primes)
        return prime_of[block]

    for comp in compositions_up_to(10):
        read = []

        def spy(block):
            assert_valid(block)
            read.append(block)
            return Fraction(prime(block))

        terms = list(coarsening_products(spy, comp))
        betas = [beta for beta, _, _ in terms]
        assert betas == oracles.coarsenings(comp) == coarsenings(comp)
        assert betas == [beta for beta, _ in oracles.coarsening_splits(comp)]
        first_reads = {}
        for beta, num, den in terms:
            blocks = oracles.refinement_split(comp, beta)
            assert den == 1 and num == prod(prime(block) for block in blocks), (comp, beta)
            start = 0
            for block in blocks:
                first_reads.setdefault((start, start + len(block)), block)
                start += len(block)
        # each block is read once, in the order the coarsenings first reach it
        assert read == list(first_reads.values()), comp


def test_results_share_their_coarsening_objects():
    # a held set of results keys its terms on one object per coarsening, not one per result
    g = f_to_g(builtin("type1"))
    for comp in compositions_of(6):
        assert all(a is b for a, b in zip(coarsenings(comp), basis_contract(g, comp)))
        assert all(a is b for a, b in zip(basis_contract(g, comp), basis_contract(g, comp)))


@pytest.mark.parametrize("name", ("type1", "type2", "even-odd"))
def test_block_products_match_refinement_search(name):
    f = builtin(name)
    g = f_to_g(f)
    for comp in compositions_up_to(7):
        for fn in (f, g):
            products = {beta: Fraction(num, den) for beta, num, den in coarsening_products(fn, comp)}
            for beta in oracles.coarsenings(comp):
                expected = oracles.extend_over_refinement(fn, comp, beta)
                assert products.get(beta, 0) == expected
    assert list(coarsening_products(f, EMPTY)) == [(EMPTY, 1, 1)]


def test_enumerations_return_valid_compositions():
    for comp in compositions_up_to(DEGREE):
        assert_valid(comp)
        assert_valid(comp.reverse())
        assert_valid(comp + comp)
        assert_valid((1,) + comp)
        for beta in coarsenings(comp):
            assert_valid(beta)
            for block in oracles.refinement_split(comp, beta):
                assert_valid(block)
        for beta, _, _ in coarsening_products(lambda block: assert_valid(block) or 1, comp):
            assert_valid(beta)
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
    # text goes through parse_rational's grammar, so no exponent, padding or digit separator
    for text in ("1e3", " 3 ", "1_000"):
        with pytest.raises(ValueError):
            GradedElement(MONOMIAL, {(1,): text})
        with pytest.raises(ValueError):
            elem.scaled(text)


def test_trusted_results_match_the_validating_path():
    # every producer that stores its terms unchecked, on every composition through DEGREE
    type1, raw = builtin("type1"), RAW_PREFIX_SUM
    for comp in compositions_up_to(DEGREE):
        m, w = GradedElement.basis_element(MONOMIAL, comp), GradedElement.basis_element(WORD, comp)
        x, y = basis_expand(type1, comp), basis_expand(raw, comp)
        results = [m, w, x, y, theta(m), theta(y), antipode_monomial(m), antipode_monomial(y), antipode_word(w)]
        results += [antipode_by_recursion(basis, comp) for basis in (MONOMIAL, WORD)]
        results += [qps_expand(f, comp) for f in NORMALIZED_BASES]
        # sums that cancel, negation, and scalings that make Fractions integral or zero
        results += [x + y, x - y, x - x, -y, y.scaled(Fraction(3, 2)), y.scaled(4), x.scaled(0)]
        dx, dy = coproduct(x), coproduct(y)
        results += [dx, dy, dx + dy, dy - dy, -dy, dy.scaled(Fraction(2, 3)), dy.scaled(0)]
        for elem in results:
            assert oracles.validates_unchanged(elem), elem
    for alpha, beta in pairs_up_to(DEGREE):
        for basis in (MONOMIAL, WORD):
            a, b = GradedElement.basis_element(basis, alpha), GradedElement.basis_element(basis, beta)
            assert oracles.validates_unchanged(product(a, b))
        assert oracles.validates_unchanged(product(basis_expand(raw, alpha), basis_expand(raw, beta)))


def test_coarsening_products_read_order_and_normal_form():
    log = []

    def fn(block):
        log.append(("fn", block))
        return Fraction(0) if block == (2,) else Fraction(1, sum(block))

    def scale(beta):
        log.append(("scale", beta))
        return 0 if beta == (6,) else Fraction(2, 3)

    terms = list(coarsening_products(fn, Composition((1, 2, 3)), scale))
    assert log == [
        # scale first; the zero factor fn((2,)) stops (1,2,3) before its block (3,)
        ("scale", (1, 2, 3)), ("fn", (1,)), ("fn", (2,)),
        # (1,) was read for (1,2,3), so it is not read again
        ("scale", (1, 5)), ("fn", (2, 3)),
        ("scale", (3, 3)), ("fn", (1, 2)), ("fn", (3,)),
        # a zero scale reads no block
        ("scale", (6,)),
    ]
    assert [(beta, Fraction(num, den)) for beta, num, den in terms] == [
        ((1, 5), Fraction(2, 15)),
        ((3, 3), Fraction(2, 27)),
    ]

    f = builtin("type2")
    halves = [(EMPTY, 1, 2), (EMPTY, 1, 2)]
    assert rational_sum(halves) == 1 and type(rational_sum(halves)) is int
    assert rational_sum([]) == 0 and type(rational_sum([])) is int
    three_halves = rational_sum(coarsening_products(f, (1, 1), lambda beta: 3 if len(beta) == 1 else 0))
    assert three_halves == Fraction(3, 2) and type(three_halves) is Fraction


# (num, den) lists: zero and negative numerators, denominators repeated, mixed and large
RATIO_LISTS = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(1, 12) | st.sampled_from([2**61 - 1, 3**40, 2**70])), max_size=12
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(RATIO_LISTS)
@example([])
@example([(0, 3), (0, 5)])
@example([(-1, 2), (1, 2)])
@example([(1, 6), (1, 6), (1, 6)])
@example([(1, 2), (1, 3), (-5, 6)])
@example([(3, 4), (1, 2), (-7, 8), (1, 8)])
def test_one_pass_rational_sum_matches_one_lcm(pairs):
    terms = [(EMPTY, num, den) for num, den in pairs]
    fast, slow = rational_sum(terms), oracles.rational_sum(terms)
    assert fast == slow == sum((Fraction(num, den) for num, den in pairs), Fraction(0))
    assert type(fast) is type(slow) and (type(fast) is int or fast.denominator > 1)
    # the terms are read in one pass, so a generator serves as well as a list
    assert rational_sum(iter(terms)) == fast


def _outcome(check, *args):
    """The value of check(*args), or the type and text of the error it raises."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("f", BASES, ids=lambda f: f.name)
def test_contraction_and_integrality_match_the_fraction_oracles(f):
    g = f_to_g(f)
    for comp in compositions_up_to(DEGREE):
        for fn in (f, g):
            assert basis_contract(fn, comp) == oracles.basis_contract(fn, comp), comp
    assert _outcome(check_integral_nonneg, f, DEGREE) == _outcome(oracles.check_integral_nonneg, f, DEGREE)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_power_sums_match_the_two_step_oracle(name):
    f = builtin(name)
    for comp in compositions_up_to(DEGREE):
        assert qps_expand(f, comp) == oracles.qps_expand(f, comp), comp
    # a basis not normalized on single parts fails the same way
    for comp in compositions_of(3):
        assert _outcome(qps_expand, RAW_PREFIX_SUM, comp) == _outcome(oracles.qps_expand, RAW_PREFIX_SUM, comp)


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


# -- the demo algebras and the universal evaluator ---------------------------

DEMO_SIZE = 5


def _halves(unit):
    # Fraction values whose sums and products come out integral in some table entries
    return lambda x: Fraction(1, 2) if x[0] else unit


# the weights a pairing reads: the two closed-form duals, a solved dual with mixed denominators, and a character
PAIRED = [f_to_g(builtin("type1")), f_to_g(builtin("type2")), f_to_g(builtin("combinatorial")), builtin("type1")]


def _assert_pairings_match_the_oracle(morphism, label, image):
    for weight in PAIRED:
        value = morphism.pair(weight, label)
        assert type(value) is Fraction and value == oracles.of_element(weight, image), (weight, label)


def test_graph_fast_paths_match_their_oracles():
    # the two transferred infinitesimal characters, and their slow route: g on the oracle image
    transfers = [(graph_infchar(builtin(name)), f_to_g(builtin(name))) for name in ("type1", "type2")]
    memo = {}
    for n in range(DEMO_SIZE + 1):
        subsets = [c for size in range(n + 1) for c in combinations(range(1, n + 1), size)]
        for g in all_graphs(n):
            assert _graph_coproduct(g) == oracles.split_coproduct(g, subsets), g
            image = oracles.power_image(graph_provider(), zeta_no_edges, g, memo)
            assert chromatic_symmetric(g) == image, g
            for xi, weight in transfers:
                assert xi(g) == oracles.of_element(weight, image), g
            _assert_pairings_match_the_oracle(_chromatic_evaluator, g, image)


def test_poset_fast_paths_match_their_oracles():
    eta, memo = canonical("eta"), {}
    for n in range(DEMO_SIZE + 1):
        for p in all_posets(n):
            assert _poset_coproduct(p) == oracles.split_coproduct(p, oracles.order_ideals(p)), p
            image = oracles.power_image(poset_provider(), zeta_ones, p, memo)
            assert kp_generating_function(p) == image, p
            value = _kp_evaluator.pair(eta, p)
            assert type(value) is Fraction and value == oracles.of_element(eta, image), p


def test_pairings_with_fraction_tables_match_their_oracles():
    # the halves phi's tables hold Fractions and zero blocks; the morphisms into the shuffle algebra are read by
    # the character f itself, as infchar_to_char reads them
    morphisms = [
        (universal_to_qsym(graph_provider(), _halves(1)), all_graphs),
        (universal_to_sh(poset_provider(), xi_unique_min), all_posets),
        (universal_to_sh(poset_provider(), _halves(0)), all_posets),
    ]
    for morphism, structures in morphisms:
        memo = {}
        for label in (x for n in range(DEMO_SIZE) for x in structures(n)):
            _assert_pairings_match_the_oracle(
                morphism, label, oracles.power_image(morphism.provider, morphism.phi, label, memo)
            )


def test_inside_holds_the_pair_bits_of_each_mask():
    for n in range(DEMO_SIZE + 1):
        for mask in range(1 << n):
            labels = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
            assert _inside(n)[mask] == sum(1 << (u - 1) * n + v - 1 for u in labels for v in labels), (n, mask)


@pytest.mark.parametrize(
    "structures, masks_of",
    [(all_graphs, lambda g: range(1 << g[0])), (all_posets, SmallPoset.ideal_masks)],
    ids=("graph", "poset"),
)
def test_labels_share_one_induced_structure_per_key(structures, masks_of):
    # every mask of every coproduct, and its complement: the table entry is the induced
    # structure, and every label that reaches a key gets the one object stored there
    seen, labels_per_key = {}, {}
    for n in range(DEMO_SIZE + 1):
        full = (1 << n) - 1
        for x in structures(n):
            rel = sum(1 << (u - 1) * n + v - 1 for u, v in x[1])
            for mask in masks_of(x):
                ((pair, _),) = _split_coproduct(x, [mask])
                for m, part in zip((mask, full ^ mask), pair):
                    key = (type(x), n, m, rel & _inside(n)[m])
                    assert part is _induced_table[key] and part is seen.setdefault(key, part), (x, m)
                    kept = (v for v in range(1, n + 1) if m >> (v - 1) & 1)
                    assert type(part) is type(x) and part == oracles.induced(x, kept)
                    labels_per_key.setdefault(key, set()).add(x)
    # so the identity check above ran across labels, not only within one
    assert sum(len(labels) > 1 for labels in labels_per_key.values()) > 100


def test_evaluator_value_matches_the_recursion_off_the_table():
    # phi(unit) = 2 makes neither a character nor an infinitesimal one: no morphism is made
    with_unit_two = Functional(2, lambda c: Fraction(c[0], c.length))
    with pytest.raises(NotACharacter):
        CharacterPowerEvaluator(qsym_provider(), with_unit_two, MONOMIAL)
    with pytest.raises(NotAnInfinitesimalCharacter):
        CharacterPowerEvaluator(qsym_provider(), with_unit_two, WORD)
    cases = [
        (graph_provider(), zeta_no_edges, MONOMIAL, [g for n in range(5) for g in all_graphs(n)]),
        (poset_provider(), zeta_ones, MONOMIAL, [p for n in range(4) for p in all_posets(n)]),
        (poset_provider(), xi_unique_min, WORD, [p for n in range(4) for p in all_posets(n)]),
        (qsym_provider(), canonical("zetaQ"), MONOMIAL, list(compositions_up_to(5))),
        (qsym_provider(), canonical("xiS"), WORD, list(compositions_up_to(5))),
    ]
    for provider, phi, basis, labels in cases:
        evaluator, memo = CharacterPowerEvaluator(provider, phi, basis), {}
        for label in labels:
            n = provider.degree(label)
            # the table is indexed by exactly the compositions of the degree
            assert len(evaluator._table(label)) == len(compositions_of(n)), label
            slow = oracles.power_image(provider, phi, label, memo)
            assert evaluator(label) == GradedElement(basis, slow.terms), label


def test_images_match_the_validated_build():
    # every graph and poset on at most 4 labels, into M and into X: the same terms in the same
    # order with the same types as when every term went through the validating constructor
    type1 = graph_infchar(builtin("type1"))
    cases = [
        (graph_provider(), zeta_no_edges, MONOMIAL, all_graphs),
        (graph_provider(), type1, WORD, all_graphs),
        (graph_provider(), _halves(1), MONOMIAL, all_graphs),
        (poset_provider(), zeta_ones, MONOMIAL, all_posets),
        (poset_provider(), xi_unique_min, WORD, all_posets),
        (poset_provider(), _halves(0), WORD, all_posets),
    ]
    def typed(elem):
        return [(key, type(key), value, type(value)) for key, value in elem.terms.items()]

    for provider, phi, basis, structures in cases:
        morphism = (universal_to_qsym if basis == MONOMIAL else universal_to_sh)(provider, phi)
        memo = {}
        for label in (x for n in range(5) for x in structures(n)):
            fast, slow = morphism(label), oracles.validated_image(provider, phi, basis, label, memo)
            assert fast.basis == basis and typed(fast) == typed(slow), label


def test_minimal_elements_match_the_below_scan():
    for n in range(5):
        for p in all_posets(n):
            assert p.minimal_elements() == [v for v in range(1, n + 1) if not oracles.below(p, v)], p
