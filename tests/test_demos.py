"""Graph and poset demo algebras against brute-force oracles."""

from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest

from qshuffle.characters import builtin, f_to_g
from qshuffle.compositions import Composition
from qshuffle.demos import (
    SmallGraph,
    SmallPoset,
    _chromatic_evaluator,
    _graph_coproduct,
    _poset_coproduct,
    _stable_partition_counts,
    all_graphs,
    all_posets,
    chromatic_polynomial,
    chromatic_symmetric,
    eta_check,
    format_polynomial,
    graph_infchar,
    graph_infchar_two_ways,
    graph_provider,
    kp_generating_function,
    poset_provider,
    xi_unique_min,
    zeta_no_edges,
    zeta_ones,
)
from qshuffle.elements import MONOMIAL, GradedElement, product
from qshuffle.universal import (
    CharacterPowerEvaluator, HopfProvider, canonical, char_to_infchar, infchar_to_char, universal_to_qsym,
    universal_to_sh,
)

from oracles import (
    _proper_coloring_count, below, check_provider_multiplicativity, expand_polynomial, induced, of_element,
    order_ideals, power_image, power_value, relabel,
)

C = Composition


def M(*parts):
    return GradedElement.basis_element(MONOMIAL, parts)


K2 = SmallGraph(2, [(1, 2)])
K3 = SmallGraph(3, [(1, 2), (1, 3), (2, 3)])
P3 = SmallGraph(3, [(1, 2), (2, 3)])
E2 = SmallGraph(2)

CHAIN2 = SmallPoset(2, [(1, 2)])
CHAIN3 = SmallPoset(3, [(1, 2), (2, 3), (1, 3)])
ANTI2 = SmallPoset(2)
VEE = SmallPoset(3, [(1, 2), (1, 3)])  # one bottom, two tops


def test_graph_construction():
    g = SmallGraph(3, [(2, 1), (2, 3), (1, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.vertex_count == 3
    with pytest.raises(ValueError):
        SmallGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        SmallGraph(2, [(1, 3)])
    assert SmallGraph.from_text("3; 1-2, 2-3") == P3
    assert SmallGraph.from_text(P3.to_text()) == P3
    with pytest.raises(ValueError):
        SmallGraph.from_text("x; 1-2")
    with pytest.raises(ValueError):
        SmallGraph.from_text("3; 1+2")
    for text in ("\u0663; 1-2", "3; \u0661-2", "3; 1-2,,2-3", "3; 1-2,", "+3; 1-2"):
        with pytest.raises(ValueError, match="bad"):
            SmallGraph.from_text(text)
    assert SmallGraph.from_text("3;") == SmallGraph.from_text("3; ") == SmallGraph(3)


def test_graph_induced_and_union():
    assert induced(K3, [1, 3]) == K2
    assert induced(P3, [1, 3]) == E2
    assert K2.disjoint_union(E2) == SmallGraph(4, [(1, 2)])
    assert relabel(K2, [2, 1]) == K2
    assert relabel(P3, [3, 2, 1]) == SmallGraph(3, [(2, 3), (1, 2)])


@pytest.mark.parametrize(
    "x, text, shown, kept, induced_text, perm, relabelled, union, rejected",
    [
        (P3, "3; 1-2,2-3", "G<3; 1-2,2-3>", [2, 3], "2; 1-2", [2, 1, 3], "3; 1-2,1-3",
         "6; 1-2,2-3,4-5,5-6", ["2; 1-1", "2; 1-3"]),
        (CHAIN3, "3; 1<2,1<3,2<3", "P<3; 1<2,1<3,2<3>", [1, 3], "2; 1<2", [2, 1, 3], "3; 1<3,2<1,2<3",
         "6; 1<2,1<3,2<3,4<5,4<6,5<6", ["2; 1<1", "2; 1<3", "2; 1<2,2<1", "3; 1<2,2<3"]),
    ],
    ids=("graph", "poset"),
)
def test_labelled_core(x, text, shown, kept, induced_text, perm, relabelled, union, rejected):
    cls = type(x)
    assert x.to_text() == text
    assert cls.from_text(text) == x
    assert repr(x) == shown
    cases = ((induced(x, kept), induced_text), (relabel(x, perm), relabelled), (x.disjoint_union(x), union))
    for got, expected in cases:
        assert type(got) is cls
        assert got.to_text() == expected
    for bad in rejected:  # a loop or an out-of-range pair; a poset also rejects a cycle or a missing closure pair
        with pytest.raises(ValueError):
            cls.from_text(bad)


@pytest.mark.parametrize("structures", [all_graphs, all_posets], ids=("graph", "poset"))
def test_induced_equals_the_validated_structure(structures):
    # induced builds its result unchecked; the validating constructor must agree, pairs included
    for n in range(5):
        for x in structures(n):
            for size in range(n + 1):
                for labels in combinations(range(1, n + 1), size):
                    got = induced(x, labels)
                    assert type(got) is type(x)
                    assert got == type(x)(*got), (x, labels)  # (n, pairs): the pair tuple and its order too


@pytest.mark.parametrize("cls", [SmallGraph, SmallPoset])
@pytest.mark.parametrize(
    "count, pairs",
    [(2.9, [(1.5, 2)]), (2.0, []), (True, []), (2, [("1", 2)]), (2, [(1, 2.0)]), (2, [(True, 2)])],
    ids=("float-count-and-end", "float-count", "bool-count", "str-end", "float-end", "bool-end"),
)
def test_counts_and_pair_ends_must_be_ints(cls, count, pairs):
    with pytest.raises(ValueError):
        cls(count, pairs)


def test_all_graphs_counts():
    assert [len(all_graphs(n)) for n in range(5)] == [1, 1, 2, 8, 64]
    assert len(set(all_graphs(4))) == 64


def test_chromatic_symmetric_frozen():
    assert chromatic_symmetric(K2) == M(1, 1).scaled(2)
    assert chromatic_symmetric(E2) == M(1, 1).scaled(2) + M(2)
    assert chromatic_symmetric(K3) == M(1, 1, 1).scaled(6)
    assert chromatic_symmetric(P3) == M(1, 1, 1).scaled(6) + M(1, 2) + M(2, 1)
    assert chromatic_symmetric(SmallGraph(0)) == GradedElement.unit(MONOMIAL)


def test_chromatic_symmetric_matches_generic_universal():
    # one Phi for the no-edges character, read against chromatic_symmetric and by the
    # transfers of both bases: each label's coproduct is read once across all three
    base, reads = graph_provider(), Counter()
    provider = HopfProvider(lambda g: reads.update([g]) or base.coproduct(g), base.degree, base.unit_label)
    phi = universal_to_qsym(provider, zeta_no_edges)
    transfers = [(char_to_infchar(phi, builtin(name)), graph_infchar(builtin(name))) for name in ("type1", "type2")]
    labels = [g for n in range(5) for g in all_graphs(n)]
    for g in labels:
        assert phi(g) == chromatic_symmetric(g), g
        for held, demo in transfers:
            assert held(g) == demo(g), g
    assert set(reads.values()) == {1} and len(reads) == len(labels) - 1  # the empty graph has no table to build
    # the demos hold one such morphism: a transfer fills the table that chromatic_symmetric reads
    g = SmallGraph(7, [(1, 2), (2, 3), (1, 3), (4, 5), (6, 7)])
    assert g not in _chromatic_evaluator._cache
    graph_infchar(builtin("type1"))(g)
    assert g in _chromatic_evaluator._cache


def test_chromatic_specializes_to_coloring_counts():
    # summing the polynomial truncation over k variables at x_i = 1 counts
    # the proper colorings with at most k colors
    for n in range(5):
        for g in all_graphs(n):
            x_g = chromatic_symmetric(g)
            for k in range(5):
                total = sum(expand_polynomial(x_g, k).values())
                assert total == _proper_coloring_count(g, k), (g, k)


def test_chromatic_symmetric_multiplicative():
    for na in range(3):
        for nb in range(3):
            for ga in all_graphs(na):
                for gb in all_graphs(nb):
                    union = ga.disjoint_union(gb)
                    assert chromatic_symmetric(union) == product(
                        chromatic_symmetric(ga), chromatic_symmetric(gb)
                    )


def test_chromatic_polynomial_frozen():
    assert chromatic_polynomial(K2) == [0, -1, 1]
    assert chromatic_polynomial(P3) == [0, 1, -2, 1]
    assert chromatic_polynomial(K3) == [0, 2, -3, 1]
    assert chromatic_polynomial(SmallGraph(1)) == [0, 1]
    assert chromatic_polynomial(SmallGraph(0)) == [1]


def test_chromatic_polynomial_is_a_fresh_list():
    coeffs = chromatic_polynomial(K3)
    coeffs.append(7)
    assert chromatic_polynomial(K3) == [0, 2, -3, 1]
    assert type(_stable_partition_counts(K3)) is tuple


def test_chromatic_polynomial_evaluates():
    for n in range(5):
        for g in all_graphs(n):
            coeffs = chromatic_polynomial(g)
            for k in range(6):
                value = sum(c * k**p for p, c in enumerate(coeffs))
                assert value == _proper_coloring_count(g, k)


def test_chromatic_polynomial_is_the_principal_specialisation():
    # M_alpha(1^k) = C(k, l(alpha)), so X_G at k ones is the chromatic polynomial at k
    for n in range(6):
        for g in all_graphs(n):
            x_g = chromatic_symmetric(g)
            coeffs = chromatic_polynomial(g)
            for k in range(n + 2):
                specialised = sum(coef * comb(k, alpha.length) for alpha, coef in x_g.terms.items())
                assert specialised == sum(c * k**p for p, c in enumerate(coeffs)), (g, k)


def test_format_polynomial():
    assert format_polynomial([0, -1, 1]) == "k^2 - k"
    assert format_polynomial([0, 2, -3, 1]) == "k^3 - 3k^2 + 2k"
    assert format_polynomial([1]) == "1"
    assert format_polynomial([0]) == "0"
    assert format_polynomial([0, 1]) == "k"


def test_graph_infchar_two_ways():
    for f in (builtin("type1"), builtin("type2")):
        for n in range(5):
            for g in all_graphs(n):
                left, right = graph_infchar_two_ways(g, f)
                assert left == right, (g, f.name)


def test_stable_partitions_are_counted_once_per_graph():
    # the memo starts empty here, so each graph is one miss, and its second basis one hit
    _stable_partition_counts.cache_clear()
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for f in (builtin("type1"), builtin("type2")):
        for g in graphs:
            graph_infchar_two_ways(g, f)
    info = _stable_partition_counts.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(graphs), len(graphs), len(graphs))


def test_the_demo_sweep_keeps_no_coproduct():
    # each coproduct is read once, into its label's table in the held morphism, which outlives this test:
    # so the sweep forms at most one coproduct per label, and none is kept
    graphs = [g for n in range(5) for g in all_graphs(n)]
    posets = [p for n in range(5) for p in all_posets(n)]
    before = _graph_coproduct.cache_info().misses + _poset_coproduct.cache_info().misses
    for p in posets:
        eta_check(p)
    for f in (builtin("type1"), builtin("type2")):
        for g in graphs:
            graph_infchar_two_ways(g, f)
    graph_info, poset_info = _graph_coproduct.cache_info(), _poset_coproduct.cache_info()
    assert graph_info.currsize == poset_info.currsize == 0
    assert graph_info.misses + poset_info.misses - before <= len(graphs) + len(posets)


def test_poset_construction():
    with pytest.raises(ValueError):
        SmallPoset(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        SmallPoset(3, [(1, 2), (2, 3)])  # not transitively closed
    with pytest.raises(ValueError):
        SmallPoset(2, [(1, 1)])
    closed = SmallPoset.from_cover_text("3; 1<2, 2<3")
    assert closed == CHAIN3
    assert (1, 3) in closed.strict
    assert SmallPoset.from_cover_text(VEE.to_text().replace("<", "<")) == VEE


@pytest.mark.parametrize(
    "text, through",
    [("3; 1<2,2<1", 1), ("4; 3<4,4<2,2<3", 2), ("4; 1<2,2<3,3<4,4<1", 1), ("2; 2<1,1<2", 1)],
)
def test_cyclic_covers_name_the_cycle(text, through):
    with pytest.raises(ValueError, match=rf"^cover relations contain a cycle through {through}$"):
        SmallPoset.from_cover_text(text)


def test_poset_ideals_and_minimals():
    assert order_ideals(CHAIN3) == [(), (1,), (1, 2), (1, 2, 3)]
    assert sorted(order_ideals(ANTI2)) == [(), (1,), (1, 2), (2,)]
    assert CHAIN3.minimal_elements() == [1]
    assert ANTI2.minimal_elements() == [1, 2]
    assert VEE.has_unique_minimal()
    assert not ANTI2.has_unique_minimal()
    assert xi_unique_min(VEE) == 1
    assert xi_unique_min(ANTI2) == 0


def test_order_ideals_match_the_down_set_scan():
    for n in range(6):
        for p in all_posets(n):
            masks = [tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in p.ideal_masks()]
            assert masks == order_ideals(p), p


def test_poset_induced_union():
    assert induced(CHAIN3, [1, 3]) == CHAIN2
    assert induced(VEE, [2, 3]) == ANTI2
    union = CHAIN2.disjoint_union(CHAIN2)
    assert union.element_count == 4
    assert union.strict == ((1, 2), (3, 4))


def test_all_posets_counts():
    assert [len(all_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]
    assert len(set(all_posets(4))) == 219


def test_kp_frozen():
    assert kp_generating_function(CHAIN2) == M(1, 1) + M(2)
    assert kp_generating_function(ANTI2) == M(1, 1).scaled(2) + M(2)
    assert kp_generating_function(CHAIN3) == M(1, 1, 1) + M(1, 2) + M(2, 1) + M(3)
    assert universal_to_qsym(poset_provider(), zeta_ones)(CHAIN2) == kp_generating_function(CHAIN2)


def _linear_extension_count(p: SmallPoset) -> int:
    n = p.element_count
    down = {b: below(p, b) for b in range(1, n + 1)}
    count = 0
    for perm in permutations(range(1, n + 1)):
        position = {v: i for i, v in enumerate(perm)}
        if all(position[a] < position[b] for b in range(1, n + 1) for a in down[b]):
            count += 1
    return count


def test_kp_counts_linear_extensions():
    # the coefficient at (1,...,1) enumerates maximal ideal flags
    for n in range(5):
        for p in all_posets(n):
            coef = kp_generating_function(p).coefficient(C((1,) * n))
            assert coef == _linear_extension_count(p), p


def test_kp_multiplicative():
    for na in range(3):
        for nb in range(3):
            for pa in all_posets(na):
                for pb in all_posets(nb):
                    union = pa.disjoint_union(pb)
                    assert kp_generating_function(union) == product(
                        kp_generating_function(pa), kp_generating_function(pb)
                    )


def test_eta_check_examples():
    assert eta_check(CHAIN2) == (1, 1)
    assert eta_check(ANTI2) == (0, 0)
    assert eta_check(VEE) == (1, 1)
    assert eta_check(CHAIN3) == (1, 1)


def test_eta_check_sweep():
    for n in range(5):
        for p in all_posets(n):
            got, expected = eta_check(p)
            assert got == expected, p


def test_transfers_build_no_image(monkeypatch):
    # the oracle's values first; then every image build raises, and a fresh transfer over the held graph morphism
    # (graph_infchar's body, without its cache) and eta_check still give them
    weights = {name: f_to_g(builtin(name)) for name in ("type1", "type2")}
    memo, eta = {}, canonical("eta")
    graph_values = []
    for g in (g for n in range(5) for g in all_graphs(n)):
        image = power_image(graph_provider(), zeta_no_edges, g, memo)
        graph_values.append((g, {name: of_element(weight, image) for name, weight in weights.items()}))
    memo = {}
    poset_values = [
        (p, (of_element(eta, power_image(poset_provider(), zeta_ones, p, memo)), xi_unique_min(p)))
        for p in (p for n in range(5) for p in all_posets(n))
    ]

    def built(self, label):
        raise AssertionError(f"an image of {label} was built")

    monkeypatch.setattr(CharacterPowerEvaluator, "__call__", built)
    transfers = {name: graph_infchar.__wrapped__(builtin(name)) for name in weights}
    for g, values in graph_values:
        assert {name: transfer(g) for name, transfer in transfers.items()} == values, g
    for p, values in poset_values:
        assert eta_check(p) == values, p


def test_providers_and_multiplicativity():
    g = graph_provider()
    assert g.degree(K3) == 3
    assert sum(coef for _, coef in g.coproduct(K3)) == 8
    q = poset_provider()
    assert q.degree(CHAIN3) == 3
    assert sum(coef for _, coef in q.coproduct(CHAIN3)) == 4  # one term per ideal
    # the counit derived from the grading: 1 on the unit, 0 above
    assert power_value(g, zeta_no_edges, SmallGraph(0), ()) == 1 and power_value(g, zeta_no_edges, K3, ()) == 0
    assert power_value(q, zeta_ones, SmallPoset(0), ()) == 1 and power_value(q, zeta_ones, CHAIN3, ()) == 0
    assert zeta_no_edges(E2) == 1 and zeta_no_edges(K2) == 0
    assert zeta_ones(ANTI2) == 1
    assert check_provider_multiplicativity(4)


@pytest.mark.parametrize("name", ["type1", "type2", "even-odd"])
def test_char_bijection_roundtrips_on_graphs_and_posets(name):
    f = builtin(name)
    graphs, posets = graph_provider(), poset_provider()

    def char_round_trip(provider, zeta):
        return infchar_to_char(universal_to_sh(provider, char_to_infchar(universal_to_qsym(provider, zeta), f)), f)

    def infchar_round_trip(provider, xi):
        return char_to_infchar(universal_to_qsym(provider, infchar_to_char(universal_to_sh(provider, xi), f)), f)

    zeta_graphs = char_round_trip(graphs, zeta_no_edges)
    zeta_posets = char_round_trip(posets, zeta_ones)
    xi_posets = infchar_round_trip(posets, xi_unique_min)
    for n in range(5):
        for g in all_graphs(n):
            assert zeta_graphs(g) == zeta_no_edges(g), (name, g)
        for p in all_posets(n):
            assert zeta_posets(p) == zeta_ones(p), (name, p)
            assert xi_posets(p) == xi_unique_min(p), (name, p)
