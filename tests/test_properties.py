"""Property tests past the exhaustive sweeps, against the slow code in ``oracles``.

Each test draws a bounded number of examples from a fixed, derandomized
profile, so a run is reproducible and its cost is bounded.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from qshuffle.characters import BUILTIN_NAMES, basis_contract, basis_expand, builtin, f_to_g, qps_expand
from qshuffle.compositions import compositions_of, pairs_up_to
from qshuffle.demos import (
    SmallGraph,
    SmallPoset,
    _chromatic_evaluator,
    _graph_coproduct,
    _kp_evaluator,
    _poset_coproduct,
    chromatic_polynomial,
    chromatic_symmetric,
    graph_provider,
    kp_generating_function,
    poset_provider,
    xi_unique_min,
    zeta_no_edges,
    zeta_ones,
)
from qshuffle.elements import (
    MONOMIAL, WORD, GradedElement, antipode_by_recursion, antipode_monomial, antipode_word, coproduct, product
)
from qshuffle.functionals import exp_functional
from qshuffle.universal import canonical, theta, universal_to_qsym, universal_to_sh
from qshuffle.verify import check_integral_nonneg

import oracles
from oracles import _proper_coloring_count, ordered_stable_partitions

PROFILE = settings(derandomize=True, max_examples=20, deadline=None, database=None)

# compositions one and two degrees past the exhaustive sweeps through degree 8
PAST_THE_SWEEPS = st.sampled_from([*compositions_of(9), *compositions_of(10)])
# pairs of total size 9 and 10, past the exhaustive product sweeps through total size 8
PAIRS_PAST_THE_SWEEPS = st.sampled_from([pair for pair in pairs_up_to(10) if sum(map(sum, pair)) >= 9])
# built once, so their memos carry from one example to the next
F_TYPE1 = builtin("type1")
G_TYPE1 = f_to_g(F_TYPE1)
ORACLE_G_TYPE1 = oracles.f_to_g(builtin("type1"))
G_TYPE2 = f_to_g(builtin("type2"))
EXP_G_TYPE2 = exp_functional(G_TYPE2)
ORACLE_EXP_G_TYPE2 = oracles.exp_functional(G_TYPE2)


@PROFILE
@given(st.sets(st.sampled_from(list(combinations(range(1, 7), 2)))))
def test_chromatic_symmetric_counts_ordered_stable_partitions_on_six_vertices(edges):
    # one vertex past the exhaustive sweeps over graphs on at most 5 vertices
    g = SmallGraph(6, edges)
    image = chromatic_symmetric(g)
    for alpha in compositions_of(6):
        assert image.coefficient(alpha) == ordered_stable_partitions(g, alpha), (g, alpha)


@PROFILE
@given(st.sets(st.sampled_from(list(combinations(range(1, 7), 2)))))
def test_chromatic_polynomial_counts_proper_colorings_on_six_vertices(edges):
    g = SmallGraph(6, edges)
    coeffs = chromatic_polynomial(g)
    for k in range(7):
        assert sum(c * k**p for p, c in enumerate(coeffs)) == _proper_coloring_count(g, k), (g, k)


@PROFILE
@given(PAST_THE_SWEEPS)
def test_transfers_match_the_fraction_oracles_past_the_sweeps(alpha):
    assert G_TYPE1(alpha) == ORACLE_G_TYPE1(alpha)
    assert EXP_G_TYPE2(alpha) == ORACLE_EXP_G_TYPE2(alpha)


@PROFILE
@given(PAST_THE_SWEEPS)
def test_antipode_matches_element_arithmetic_past_the_sweeps(alpha):
    assert antipode_by_recursion(MONOMIAL, alpha) == oracles.antipode_by_recursion(MONOMIAL, alpha)


@PROFILE
@given(PAST_THE_SWEEPS)
def test_contraction_matches_the_fraction_oracle_past_the_sweeps(alpha):
    assert basis_contract(G_TYPE1, alpha) == oracles.basis_contract(ORACLE_G_TYPE1, alpha)
    assert basis_contract(F_TYPE1, alpha) == oracles.basis_contract(F_TYPE1, alpha)


@PROFILE
@given(st.sampled_from(BUILTIN_NAMES), PAST_THE_SWEEPS)
def test_power_sums_match_the_two_step_oracle_past_the_sweeps(name, alpha):
    f = builtin(name)
    assert qps_expand(f, alpha) == oracles.qps_expand(f, alpha)


@PROFILE
@given(st.sampled_from(BUILTIN_NAMES), PAST_THE_SWEEPS, PAIRS_PAST_THE_SWEEPS)
def test_trusted_results_match_the_validating_path_past_the_sweeps(name, alpha, pair):
    f = builtin(name)
    m, w = GradedElement.basis_element(MONOMIAL, alpha), GradedElement.basis_element(WORD, alpha)
    x, p = basis_expand(f, alpha), qps_expand(f, alpha)
    results = [x, p, theta(m), antipode_monomial(m), antipode_word(w), coproduct(p)]
    results += [antipode_by_recursion(basis, alpha) for basis in (MONOMIAL, WORD)]
    results += [x + p, p - p, -x, x.scaled(Fraction(alpha.size, 3)), x.scaled(0)]
    results += [product(basis_expand(f, a), basis_expand(f, b)) for a, b in (pair, pair[::-1])]
    for elem in results:
        assert oracles.validates_unchanged(elem), elem


@PROFILE
@given(st.sampled_from(BUILTIN_NAMES))
def test_integrality_matches_the_fraction_oracle_past_the_sweeps(name):
    # the sweep through degree 10 takes in every composition of sizes 9 and 10
    f = builtin(name)
    assert check_integral_nonneg(f, 10) == oracles.check_integral_nonneg(f, 10)


# oracle memos keyed by label, shared across examples like the library's own
GRAPH_MEMO: dict = {}
POSET_MEMO: dict = {}
ETA = canonical("eta")
# the weights a pairing reads: eta, a closed-form dual, a solved dual with mixed denominators, and a character
PAIRED = [ETA, G_TYPE1, f_to_g(builtin("combinatorial")), F_TYPE1]


def _assert_pairings_match_the_oracle(morphism, label, image):
    for weight in PAIRED:
        value = morphism.pair(weight, label)
        assert type(value) is Fraction and value == oracles.of_element(weight, image), (weight, label)


@st.composite
def graphs_on_six_or_seven_vertices(draw) -> SmallGraph:
    n = draw(st.integers(6, 7))
    return SmallGraph(n, draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 2))))))


@st.composite
def posets_on_six_elements(draw) -> SmallPoset:
    """The order generated by drawn pairs a < b, relabeled by a drawn permutation, parsed from cover text."""
    perm = draw(st.permutations(range(1, 7)))
    pairs = draw(st.sets(st.sampled_from(list(combinations(range(1, 7), 2)))))
    return SmallPoset.from_cover_text("6; " + ",".join(f"{perm[a - 1]}<{perm[b - 1]}" for a, b in sorted(pairs)))


@PROFILE
@given(graphs_on_six_or_seven_vertices())
def test_graph_fast_paths_match_their_oracles_past_the_sweeps(g):
    n = g.vertex_count
    subsets = [c for size in range(n + 1) for c in combinations(range(1, n + 1), size)]
    assert _graph_coproduct(g) == oracles.split_coproduct(g, subsets)
    image = oracles.power_image(graph_provider(), zeta_no_edges, g, GRAPH_MEMO)
    assert chromatic_symmetric(g) == image
    _assert_pairings_match_the_oracle(_chromatic_evaluator, g, image)


@PROFILE
@given(posets_on_six_elements())
def test_poset_fast_paths_match_their_oracles_past_the_sweeps(p):
    assert _poset_coproduct(p) == oracles.split_coproduct(p, oracles.order_ideals(p))
    image = kp_generating_function(p)
    assert image == oracles.power_image(poset_provider(), zeta_ones, p, POSET_MEMO)
    _assert_pairings_match_the_oracle(_kp_evaluator, p, image)


@st.composite
def posets_on_six_or_seven_elements(draw) -> SmallPoset:
    n = draw(st.integers(6, 7))
    perm = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 2)))))
    return SmallPoset.from_cover_text(f"{n}; " + ",".join(f"{perm[a - 1]}<{perm[b - 1]}" for a, b in sorted(pairs)))


def _halves(unit):
    # Fraction values whose sums and products come out integral in some table entries
    return lambda x: Fraction(1, 2) if x[0] else unit


# each morphism with its oracle's table memo, both held across examples; the characters
# that vanish on some labels leave whole blocks of a dense table zero
GRAPH_IMAGES = [
    (universal_to_qsym(graph_provider(), zeta_no_edges), {}),
    (universal_to_qsym(graph_provider(), _halves(1)), {}),
]
POSET_IMAGES = [
    (universal_to_qsym(poset_provider(), zeta_ones), {}),
    (universal_to_sh(poset_provider(), xi_unique_min), {}),
    (universal_to_sh(poset_provider(), _halves(0)), {}),
]


def _typed(elem):
    return [(key, type(key), value, type(value)) for key, value in elem.terms.items()]


def _assert_images_match_the_validated_build(morphisms, label):
    # the same terms in the same order with the same types as the dict recursion, every term validated
    for morphism, memo in morphisms:
        slow = oracles.validated_image(morphism.provider, morphism.phi, morphism.basis, label, memo)
        assert _typed(morphism(label)) == _typed(slow), (morphism.phi, label)
        _assert_pairings_match_the_oracle(morphism, label, slow)


@PROFILE
@given(graphs_on_six_or_seven_vertices())
def test_graph_images_match_the_validated_build_past_the_sweeps(g):
    _assert_images_match_the_validated_build(GRAPH_IMAGES, g)


@PROFILE
@given(posets_on_six_or_seven_elements())
def test_poset_images_match_the_validated_build_past_the_sweeps(p):
    _assert_images_match_the_validated_build(POSET_IMAGES, p)
