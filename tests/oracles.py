"""Slow, obviously correct versions of the library's fast paths.

Each function here is the code a fast path in ``src/qshuffle`` replaced,
kept with its body unchanged, or the definition the fast path computes, so
the tests can require both to agree:

* ``antipode_by_recursion``: the antipode recursion by element arithmetic,
  one intermediate element per split (the library sums every product into
  one term dict);
* ``coarsenings``: merging runs of parts under each mask, with every result
  built through the validating constructor (the library reads coarsenings
  off the block splits of ``nonempty_splits``);
* ``theta``: theta by its definition, the universal morphism of QSym with
  the character nuQ on each monomial, extended linearly by chained element
  additions (the library reads theta(M_alpha) off the coarsenings of alpha
  weighted by nuQ);
* ``extend_over_refinement``: f(alpha, beta) by searching for the
  refinement blocks and multiplying from 1 (the library multiplies the
  blocks that ``coarsening_splits`` hands out);
* ``block_product``, ``_triangular_dual`` and ``_split_series``: products
  and sums of functional values in ``Fraction`` arithmetic, one
  ``Fraction`` per factor (the library multiplies and adds int numerators
  and denominators and builds one ``Fraction`` per result);
  ``f_to_g``, ``g_to_f``, ``exp_functional`` and ``log_functional`` are the
  library's entry points over these bodies;
* ``_proper_coloring_count``: the proper k-colourings of a graph by trying
  all k^n colour assignments (the library reads the chromatic polynomial
  off the partitions of the vertices into stable sets);
* ``order_ideals``: the ideals of a poset by scanning ``below`` for every
  chosen element of every subset (the library reads each element's
  down-set into a bitmask once per poset).

The rest is code that only the tests use, kept out of the library with its
body unchanged: the refinement predicate ``refines``, the shuffle count
``shuffle_multiplicity_total``, the multidegree projection ``delta_alpha``,
the polynomial truncation ``expand_polynomial`` with ``polynomial_product``,
the disjoint-union sweep ``check_provider_multiplicativity``, the count of
ordered stable-set partitions ``ordered_stable_partitions``, the simple
tensor ``tensor_outer``, the normalization predicate ``is_normalized`` and
nu as a convolution, ``nu_via_convolution``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product
from math import comb, factorial

from qshuffle.characters import _diagonal, single
from qshuffle.compositions import (
    EMPTY, Composition, canonical_key, coarsening_splits, compositions_of, nonempty_splits, refinement_split
)
from qshuffle.demos import SmallGraph, SmallPoset, all_graphs, all_posets, xi_unique_min, zeta_no_edges, zeta_ones
from qshuffle.elements import MONOMIAL, _PRODUCT_RULES, GradedElement, TensorElement, product
from qshuffle.errors import BasisMismatch, DegreeMismatch, NotARefinement
from qshuffle.functionals import Functional, convolve, functional_inverse
from qshuffle.universal import canonical, qsym_provider, universal_to_qsym

_antipode_cache: dict[tuple[str, Composition], GradedElement] = {}


def antipode_by_recursion(basis: str, comp) -> GradedElement:
    """Antipode of one basis element by the connected-graded recursion.

    S(1) = 1 and, for positive degree, S(b) = -b - sum S(b') b'' over the
    proper part of the deconcatenation coproduct.  Works in either wired
    basis; this is the generic route with no closed form assumed.
    """
    if basis not in _PRODUCT_RULES:
        raise BasisMismatch(f"no antipode for basis {basis!r}")
    comp = Composition(comp)
    key = (basis, comp)
    cached = _antipode_cache.get(key)
    if cached is not None:
        return cached
    if not comp:
        result = GradedElement.unit(basis)
    else:
        result = -GradedElement.basis_element(basis, comp)
        for i in range(1, comp.length):
            left = Composition(comp[:i])
            right = GradedElement.basis_element(basis, comp[i:])
            result = result - product(antipode_by_recursion(basis, left), right)
    _antipode_cache[key] = result
    return result


def coarsenings(comp: Composition) -> list[Composition]:
    """All compositions obtained by summing runs of adjacent parts.

    These are exactly the compositions coarser than comp in refinement
    order; there are 2^(length-1) of them (1 for the empty composition).
    Canonical order.
    """
    comp = Composition(comp)
    if not comp:
        return [EMPTY]
    out = set()
    for mask in range(1 << (comp.length - 1)):
        merged = [comp[0]]
        for i in range(1, comp.length):
            if mask >> (i - 1) & 1:
                merged[-1] += comp[i]
            else:
                merged.append(comp[i])
        out.add(Composition(merged))
    return sorted(out, key=canonical_key)


def theta(h: GradedElement) -> GradedElement:
    """The universal morphism of QSym with the character nuQ, extended linearly."""
    if h.basis != MONOMIAL:
        raise BasisMismatch(f"theta acts on the {MONOMIAL!r} basis, got {h.basis!r}")
    nu, qsym = canonical("nuQ"), qsym_provider()
    out = GradedElement.zero(MONOMIAL)
    for comp, coef in h.terms.items():
        out = out + universal_to_qsym(qsym, nu, comp).scaled(coef)
    return out


def extend_over_refinement(fn, fine: Composition, coarse: Composition) -> Fraction:
    """Product of fn over the blocks of ``fine`` refined into ``coarse``."""
    value = Fraction(1)
    for block in refinement_split(fine, coarse):
        value *= fn(block)
    return value


def block_product(fn, blocks: tuple[Composition, ...]) -> Fraction:
    """Product of fn over blocks; 1 for none."""
    if not blocks:
        return Fraction(1)
    value = fn(blocks[0])
    for block in blocks[1:]:
        value *= fn(block)
    return value


def _triangular_dual(h: Functional, value_at_empty: int, letter: str) -> Functional:
    """Solve sum over coarsenings beta of h(alpha, beta) k(beta) = [length(alpha) = 1] for k.

    Symmetric in f and g: h = f gives g (value 0 at empty), h = g gives f
    (value 1).  k((n)) = 1/h((n)); longer compositions come from strictly
    coarser, shorter ones.  Lazy and memoized.
    """
    k: Functional | None = None

    def value(alpha: Composition) -> Fraction:
        diag = _diagonal(h, alpha)
        if alpha.length == 1:
            return 1 / diag
        total = Fraction(0)
        for beta, blocks in coarsening_splits(alpha):
            if beta == alpha:
                continue
            total += block_product(h, blocks) * k(beta)
        return -total / diag

    label = f"{letter}[{h.name}]" if h.name else None
    k = Functional(value_at_empty, value, name=label)
    return k


def _split_series(phi: Functional, weight, value_at_empty: int) -> Functional:
    """Sum over m >= 1 of weight(m) phi^{*m}, one term per split into m nonempty blocks.

    Finite on every composition, so exact at all degrees.
    """

    def value(comp: Composition) -> Fraction:
        total = Fraction(0)
        for blocks in nonempty_splits(comp):
            term = weight(len(blocks))
            for block in blocks:
                term *= phi(block)
            total += term
        return total

    return Functional(value_at_empty, value)


def f_to_g(f: Functional) -> Functional:
    return _triangular_dual(f, 0, "g")


def g_to_f(g: Functional) -> Functional:
    return _triangular_dual(g, 1, "f")


def exp_functional(xi: Functional) -> Functional:
    return _split_series(xi, lambda m: Fraction(1, factorial(m)), 1)


def log_functional(zeta: Functional) -> Functional:
    return _split_series(zeta, lambda m: Fraction(-1 if m % 2 == 0 else 1, m), 0)


def refines(fine: Composition, coarse: Composition) -> bool:
    try:
        refinement_split(fine, coarse)
    except NotARefinement:
        return False
    return True


def shuffle_multiplicity_total(a: Composition, b: Composition) -> int:
    """What the shuffle multiplicities must add up to."""
    return comb(len(a) + len(b), len(a))


def delta_alpha(h: GradedElement, alpha) -> list[tuple[tuple[Composition, ...], Fraction]]:
    """The iterated coproduct of h projected onto multidegree alpha.

    h must be homogeneous of degree |alpha|.  For a deconcatenation basis
    this is a sum over splits of each index into consecutive blocks of sizes
    alpha_1, ..., alpha_l; such a split is unique when it exists, and it
    exists exactly when the index refines alpha.
    """
    if h.basis not in _PRODUCT_RULES:
        raise BasisMismatch(f"no coproduct for basis {h.basis!r}")
    alpha = Composition(alpha)
    if h.homogeneous_degree() != alpha.size and not h.is_zero():
        raise DegreeMismatch(f"element of degrees {h.degrees()} vs multidegree {alpha}")
    acc: dict[tuple[Composition, ...], Fraction] = {}
    for comp, coef in h.terms.items():
        if not alpha:
            acc[()] = acc.get((), Fraction(0)) + coef
            continue
        try:
            blocks = refinement_split(comp, alpha)
        except NotARefinement:
            continue
        acc[blocks] = acc.get(blocks, Fraction(0)) + coef
    return sorted(
        ((blocks, v) for blocks, v in acc.items() if v != 0),
        key=lambda kv: tuple(canonical_key(b) for b in kv[0]),
    )


def expand_polynomial(h: GradedElement, num_vars: int) -> dict[tuple[int, ...], Fraction]:
    """Truncate a monomial-basis element to a polynomial in num_vars variables.

    M[a1..al] becomes the sum of x_{i1}^{a1} ... x_{il}^{al} over strictly
    increasing index tuples i1 < ... < il <= num_vars.  Returned as a map
    from exponent vectors (length num_vars) to coefficients.
    """
    if h.basis != MONOMIAL:
        raise BasisMismatch(f"polynomial expansion needs basis {MONOMIAL!r}, got {h.basis!r}")
    if num_vars < 0:
        raise ValueError("num_vars must be >= 0")
    poly: dict[tuple[int, ...], Fraction] = {}
    for comp, coef in h.terms.items():
        for idx in combinations(range(num_vars), comp.length):
            expo = [0] * num_vars
            for pos, power in zip(idx, comp):
                expo[pos] = power
            key = tuple(expo)
            poly[key] = poly.get(key, Fraction(0)) + coef
    return {k: v for k, v in poly.items() if v != 0}


def polynomial_product(
    p: dict[tuple[int, ...], Fraction], q: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Multiply two exponent-vector polynomials over the same variable count."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for ea, va in p.items():
        for eb, vb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in acc.items() if v != 0}


def check_provider_multiplicativity(max_degree: int) -> bool:
    """The stated functionals respect disjoint unions (degree-capped sweep)."""
    for na in range(1, max_degree):
        for nb in range(1, max_degree - na + 1):
            for ga in all_graphs(na):
                for gb in all_graphs(nb):
                    union = ga.disjoint_union(gb)
                    if zeta_no_edges(union) != zeta_no_edges(ga) * zeta_no_edges(gb):
                        return False
            for pa in all_posets(na):
                for pb in all_posets(nb):
                    union = pa.disjoint_union(pb)
                    if zeta_ones(union) != zeta_ones(pa) * zeta_ones(pb):
                        return False
                    if xi_unique_min(union) != 0:
                        return False
    return True


@lru_cache(maxsize=None)
def _proper_coloring_count(g: SmallGraph, colors: int) -> int:
    n = g.vertex_count
    if n == 0:
        return 1
    if colors == 0:
        return 0
    edges = [(u - 1, v - 1) for u, v in g.edges]
    count = 0
    for assignment in iter_product(range(colors), repeat=n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            count += 1
    return count


def order_ideals(p: SmallPoset) -> list[tuple[int, ...]]:
    """All downward closed subsets, as sorted tuples."""
    n = p.element_count
    out = []
    elements = list(range(1, n + 1))
    for mask in range(1 << n):
        chosen = {elements[i] for i in range(n) if mask >> i & 1}
        if all(p.below(b) <= chosen for b in chosen):
            out.append(tuple(sorted(chosen)))
    return out


def ordered_stable_partitions(g, alpha) -> int:
    """The number of tuples (V_1, ..., V_l) of independent sets of g with |V_i| = alpha_i.

    The V_i partition the vertices; the count is by direct enumeration.
    """
    edges = set(g.edges)

    def count(rest: list[int], sizes: tuple[int, ...]) -> int:
        if not sizes:
            return 0 if rest else 1
        total = 0
        for block in combinations(rest, sizes[0]):
            if not any(pair in edges for pair in combinations(block, 2)):
                total += count([v for v in rest if v not in block], sizes[1:])
        return total

    return count(list(range(1, g.vertex_count + 1)), tuple(alpha))


def tensor_outer(a: GradedElement, b: GradedElement) -> TensorElement:
    """The simple tensor a (x) b."""
    if a.basis != b.basis:
        raise BasisMismatch(f"{a.basis} vs {b.basis}")
    acc: dict[tuple[Composition, Composition], Fraction] = {}
    for ca, va in a.terms.items():
        for cb, vb in b.terms.items():
            acc[(ca, cb)] = acc.get((ca, cb), Fraction(0)) + va * vb
    return TensorElement(a.basis, acc)


def is_normalized(f: Functional, max_degree: int) -> bool:
    return all(f(single(n)) == 1 for n in range(1, max_degree + 1))


def nu_via_convolution(max_degree: int) -> Functional:
    """inverse(barZetaQ) * zetaQ, materialized through max_degree.

    Agrees with canonical("nuQ") on every monomial up to the bound.
    """
    nu = convolve(functional_inverse(canonical("barZetaQ")), canonical("zetaQ"))
    for n in range(max_degree + 1):
        for comp in compositions_of(n):
            nu(comp)
    return nu
