"""The universal property on the demo algebras, label by label.

For a character zeta of a connected graded Hopf algebra H, Phi_zeta: H -> QSym
is the Hopf morphism with zetaQ o Phi_zeta = zeta (Aguiar-Bergeron-Sottile);
for an infinitesimal character xi, Psi_xi: H -> Sh is the Hopf morphism with
xiS o Psi_xi = xi.  Each morphism below is made once and held across every
graph or poset with at most MAX_LABELS labels, and three rules are checked:

- factorization: the canonical functional of the target reads phi back;
- coalgebra: the coproduct of m(x) is (m (x) m) applied to the coproduct of x;
- algebra: m(x disjoint-union y) = m(x) m(y), for nonempty x and y.
"""

import pytest

from qshuffle.characters import builtin
from qshuffle.demos import (
    all_graphs,
    all_posets,
    graph_infchar,
    graph_provider,
    poset_provider,
    xi_unique_min,
    zeta_no_edges,
    zeta_ones,
)
from qshuffle.elements import MONOMIAL, TensorElement, coproduct, product
from qshuffle.universal import canonical, universal_to_qsym, universal_to_sh

import oracles

MAX_LABELS = 4


def _labels(structures):
    return [x for n in range(MAX_LABELS + 1) for x in structures(n)]


def _factorization_failures(morphism, labels):
    read_back = canonical("zetaQ" if morphism.basis == MONOMIAL else "xiS")
    return [x for x in labels if oracles.of_element(read_back, morphism(x)) != morphism.phi(x)]


def _coalgebra_failures(morphism, labels):
    failures = []
    for x in labels:
        split = TensorElement(
            morphism.basis,
            (
                ((a, b), coef * coef_a * coef_b)
                for (left, right), coef in morphism.provider.coproduct(x)
                for a, coef_a in morphism(left).terms.items()
                for b, coef_b in morphism(right).terms.items()
            ),
        )
        if coproduct(morphism(x)) != split:
            failures.append(x)
    return failures


def _nonempty_pairs(structures):
    return [
        (x, y)
        for size_x in range(1, MAX_LABELS)
        for size_y in range(1, MAX_LABELS - size_x + 1)
        for x in structures(size_x)
        for y in structures(size_y)
    ]


def _algebra_failures(morphism, structures):
    return [
        (x, y) for x, y in _nonempty_pairs(structures) if morphism(x.disjoint_union(y)) != product(morphism(x), morphism(y))
    ]


@pytest.mark.parametrize(
    "make, structures",
    [
        (lambda: universal_to_qsym(graph_provider(), zeta_no_edges), all_graphs),
        (lambda: universal_to_qsym(poset_provider(), zeta_ones), all_posets),
        (lambda: universal_to_sh(graph_provider(), graph_infchar(builtin("type1"))), all_graphs),
        (lambda: universal_to_sh(poset_provider(), xi_unique_min), all_posets),
    ],
    ids=("phi-graph-zeta_no_edges", "phi-poset-zeta_ones", "psi-graph-type1", "psi-poset-xi_unique_min"),
)
def test_universal_morphism_is_a_hopf_map_that_factors_its_functional(make, structures):
    morphism, labels = make(), _labels(structures)
    assert _factorization_failures(morphism, labels) == []
    assert _coalgebra_failures(morphism, labels) == []
    assert _algebra_failures(morphism, structures) == []


def test_negative_control_fails_the_algebra_rule_only():
    # xi = 1 on every nonempty graph takes 1 at a disjoint union, so it is not an infinitesimal
    # character; any functional gives a coalgebra map that xiS reads back, but no algebra map:
    # Psi(x union y) has the one-letter term xi(x union y) X[n], and no shuffle of two words has one
    control = universal_to_sh(graph_provider(), lambda g: 1 if g.vertex_count else 0)
    labels = _labels(all_graphs)
    assert _factorization_failures(control, labels) == []
    assert _coalgebra_failures(control, labels) == []
    pairs = _nonempty_pairs(all_graphs)
    assert len(pairs) == 25
    assert _algebra_failures(control, all_graphs) == pairs
