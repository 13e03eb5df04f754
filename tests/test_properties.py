"""Property tests past the exhaustive sweeps, against the slow code in ``oracles``.

Each test draws a bounded number of examples from a fixed, derandomized
profile, so a run is reproducible and its cost is bounded.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from qshuffle.characters import builtin, f_to_g
from qshuffle.compositions import compositions_of
from qshuffle.demos import SmallGraph, chromatic_polynomial, chromatic_symmetric
from qshuffle.elements import MONOMIAL, antipode_by_recursion
from qshuffle.functionals import exp_functional

import oracles
from oracles import _proper_coloring_count, ordered_stable_partitions

PROFILE = settings(derandomize=True, max_examples=20, deadline=None, database=None)

# compositions one and two degrees past the exhaustive sweeps through degree 8
PAST_THE_SWEEPS = st.sampled_from([*compositions_of(9), *compositions_of(10)])
# built once, so their memos carry from one example to the next
G_TYPE1 = f_to_g(builtin("type1"))
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
