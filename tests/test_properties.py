"""Property tests past the exhaustive sweeps, against the slow code in ``oracles``.

Each test draws a bounded number of examples from a fixed, derandomized
profile, so a run is reproducible and its cost is bounded.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from qshuffle.compositions import compositions_of
from qshuffle.demos import SmallGraph, chromatic_polynomial, chromatic_symmetric

from oracles import _proper_coloring_count, ordered_stable_partitions

PROFILE = settings(derandomize=True, max_examples=20, deadline=None, database=None)


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
