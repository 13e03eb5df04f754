"""Slow, obviously correct versions of the library's fast paths.

Each function here is the code a fast path in ``src/qshuffle`` replaced,
kept with its body unchanged, or the definition the fast path computes, so
the tests can require both to agree:

* ``antipode_by_recursion``: the antipode recursion by element arithmetic,
  one intermediate element per split (the library sums every product into
  one term dict);
* ``coarsenings``: merging runs of parts under each mask, with every result
  built through the validating constructor (the library reads coarsenings
  off the cut-position walk ``coarsening_products``);
* ``coarsening_splits``: each coarsening paired with its blocks, built from
  the block splits of ``nonempty_splits`` and sorted into canonical order
  (the library walks a table of cut positions that is already in that
  order, and reads each block's value at most once per composition);
* ``theta``: theta by its definition, the universal morphism of QSym with
  the character nuQ on each monomial, extended linearly by chained element
  additions (the library reads theta(M_alpha) off the coarsenings of alpha
  weighted by nuQ);
* ``qps_expand``: P_alpha as X_alpha from ``basis_expand``, then scaled
  by aut(alpha), one element per step (the library builds each
  coefficient aut(alpha) f(alpha, beta) once, from the ints of one walk of
  ``coarsening_products``);
* ``diagonal`` and ``prefix_sum_character``: f(alpha, alpha) and the
  prefix-sum character's values in ``Fraction`` arithmetic, one ``Fraction``
  per factor (the library multiplies int numerators and denominators and
  builds one ``Fraction`` per value);
* ``extend_over_refinement``: f(alpha, beta) by searching for the
  refinement blocks with ``refinement_split`` and multiplying from 1;
* ``even_odd_g``: the published closed form of the even-odd g, at odd sizes
  (the library solves the triangular system for it);
* ``block_product``, ``_triangular_dual``, ``_split_series``,
  ``basis_contract`` and ``check_integral_nonneg``: products and sums of
  functional values over the pairs of ``coarsening_splits`` (or the splits
  of ``nonempty_splits``) in ``Fraction`` arithmetic, one ``Fraction`` per
  factor (the library multiplies and adds int numerators and denominators
  along one walk of ``coarsening_products`` and builds one ``Fraction`` per
  result); ``f_to_g``, ``g_to_f``, ``exp_functional`` and
  ``log_functional`` are the library's entry points over these bodies, and
  ``check_integral_nonneg`` also runs the equivalent single-block test;
* ``_proper_coloring_count``: the proper k-colourings of a graph by trying
  all k^n colour assignments (the library reads the chromatic polynomial
  off the partitions of the vertices into stable sets);
* ``order_ideals``: the ideals of a poset by scanning ``below`` for every
  chosen element of every subset (the library reads each element's
  down-set into a bitmask once per poset);
* ``below``: the elements strictly below one element of a poset, one scan
  of its strict pairs per element (the library reads the minimal elements
  off the set of upper ends of the pairs, built once per poset);
* ``power_value``: one multidegree of the phi-power of an iterated
  coproduct by recursion on the sizes, scanning the whole coproduct once
  per (label, sizes), and ``power_image``, the universal image read off
  it one composition at a time (the library builds one table of every
  multidegree per label, in one pass over its coproduct);
* ``split_coproduct``: a demo coproduct by ``induced``, the definition of
  an induced structure, on every label subset and on its complement (the
  library looks each bitmask's induced structure up in a table shared by
  all labels, building it from the ranks of the kept labels on a miss);
* ``validated_image``: the universal image of a label as the evaluator
  built it before, its table summed from phi's values as phi returns them,
  then every term put through the validating ``GradedElement``
  constructor in ``compositions_of`` order (the library checks each value
  of phi where its table reads it and stores the image unchecked);
* ``of_element``: a functional paired with an element by chained
  ``Fraction`` additions (the library adds int ratios over one common
  denominator);
* ``rational_sum``: a sum of (key, num, den) terms over the lcm of all
  their denominators, read in one ``lcm`` call (the library adds
  equal denominators as ints in one pass and widens its common
  denominator only at a new one);
* ``validates_unchanged``: an element's terms put through ``_summed``, the
  validating path of the public constructors, must come back as they are
  (the library builds its own results in normal form where their terms
  are made, and stores them unchecked);
* ``qsym_provider``: QSym, or the shuffle algebra on word labels, as a
  ``HopfProvider`` with deconcatenation, so that the generic universal
  evaluator computes its universal morphisms (the library reads them off
  the coarsening walk ``elements.coarsening_sum``, the change of basis
  behind ``basis_expand`` and ``basis_contract``).

The rest is code that only the tests use, kept out of the library with its
body unchanged: ``refinement_split`` with the predicate ``refines``,
``relabel``, the grading reads ``degrees``, ``homogeneous_degree`` and
``homogeneous_component``, the tensor pairing ``evaluate``, the shuffle count
``shuffle_multiplicity_total``, the multidegree projection ``delta_alpha``,
the polynomial truncation ``expand_polynomial`` with ``polynomial_product``,
the disjoint-union sweep ``check_provider_multiplicativity``, the count of
ordered stable-set partitions ``ordered_stable_partitions``, the simple
tensor ``tensor_outer``, the componentwise product of two tensors
``tensor_product``, the normalization predicate ``is_normalized``, the
convolution product ``convolve`` with the convolution inverse
``functional_inverse`` (a series on this module's ``_split_series``) and the
bracket ``lie_bracket``, and nu as a convolution, ``nu_via_convolution``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product
from math import comb, factorial, lcm

from qshuffle.characters import basis_expand, require_normalized, single
from qshuffle.compositions import (
    EMPTY,
    Composition,
    _trusted,
    canonical_key,
    compositions_of,
    compositions_up_to,
    deconcatenations,
    nonempty_splits,
    rational,
    stats,
)
from qshuffle.demos import SmallGraph, SmallPoset, all_graphs, all_posets, xi_unique_min, zeta_no_edges, zeta_ones
from qshuffle.elements import (
    MONOMIAL, _PRODUCT_RULES, GradedElement, TensorElement, _composition, _composition_pair, _summed, product,
    product_rule,
)
from qshuffle.errors import BasisMismatch, EngineError, SingularCharacter, ZeroPrefixSum
from qshuffle.functionals import Functional
from qshuffle.universal import HopfProvider, canonical, universal_to_qsym
from qshuffle.verify import IntegralityWitness, first_witness

_DECONCATENATION = HopfProvider(
    coproduct=lambda label: tuple((pair, 1) for pair in deconcatenations(label)),
    degree=lambda label: Composition(label).size,
    unit_label=EMPTY,
)


def qsym_provider() -> HopfProvider:
    """QSym itself, monomial labels with deconcatenation; the shuffle algebra too, on word labels."""
    return _DECONCATENATION


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


def coarsening_splits(comp: Composition) -> list[tuple[Composition, tuple[Composition, ...]]]:
    """Each coarsening of comp, paired with the blocks of comp that sum to its parts.

    A split of comp into consecutive blocks is a subset of its cut points
    (Gessel's subset encoding), and summing the blocks gives the coarsening,
    so each pair comes from one subset and the blocks are what
    ``refinement_split(comp, coarse)`` would find.  Canonical order of the
    coarsenings.
    """
    comp = Composition(comp)
    if not comp:
        return [(EMPTY, ())]
    pairs = [(_trusted([sum(block) for block in blocks]), blocks) for blocks in nonempty_splits(comp)]
    return sorted(pairs, key=lambda pair: canonical_key(pair[0]))


def theta(h: GradedElement) -> GradedElement:
    """The universal morphism of QSym with the character nuQ, extended linearly."""
    if h.basis != MONOMIAL:
        raise BasisMismatch(f"theta acts on the {MONOMIAL!r} basis, got {h.basis!r}")
    phi_nu = universal_to_qsym(qsym_provider(), canonical("nuQ"))
    out = GradedElement.zero(MONOMIAL)
    for comp, coef in h.terms.items():
        out = out + phi_nu(comp).scaled(coef)
    return out


class NotARefinement(EngineError):
    """The first composition does not refine the second."""


class DegreeMismatch(EngineError):
    """An operand is not homogeneous of the required degree."""


class NotInvertible(EngineError):
    """Functional vanishes on the empty composition, so no convolution inverse."""


def refinement_split(fine: Composition, coarse: Composition) -> tuple[Composition, ...]:
    """Split ``fine`` into consecutive blocks summing to the parts of ``coarse``.

    The split is unique when it exists.  Raises NotARefinement when sizes
    differ or some part of ``coarse`` cannot be hit exactly.
    """
    fine, coarse = Composition(fine), Composition(coarse)
    if fine.size != coarse.size:
        raise NotARefinement(f"{fine} and {coarse} have different sizes")
    blocks = []
    i = 0
    for target in coarse:
        total = 0
        start = i
        while total < target and i < len(fine):
            total += fine[i]
            i += 1
        if total != target:
            raise NotARefinement(f"{fine} does not refine {coarse}")
        blocks.append(_trusted(fine[start:i]))
    if i != len(fine):
        raise NotARefinement(f"{fine} does not refine {coarse}")
    return tuple(blocks)


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


def diagonal(f: Functional, comp: Composition) -> Fraction:
    """f(alpha, alpha) = product of single-part values; SingularCharacter on zero."""
    out = Fraction(1)
    for p in comp:
        fp = f(single(p))
        if fp == 0:
            raise SingularCharacter(f"f(({p})) = 0")
        out *= fp
    return out


def prefix_sum_character(tau, name: str | None = None) -> Functional:
    """f(alpha) = product over i of 1/(tau(a_1) + ... + tau(a_i)).

    Raises ZeroPrefixSum if a prefix sum vanishes at evaluation time.
    """

    def value(comp: Composition) -> Fraction:
        out = Fraction(1)
        running = Fraction(0)
        for i, p in enumerate(comp):
            running += Fraction(tau(p))
            if running == 0:
                raise ZeroPrefixSum(f"prefix {Composition(comp[: i + 1])} has tau-sum 0")
            out /= running
        return out

    return Functional(1, value, name=name)


def _triangular_dual(h: Functional, value_at_empty: int, letter: str) -> Functional:
    """Solve sum over coarsenings beta of h(alpha, beta) k(beta) = [length(alpha) = 1] for k.

    Symmetric in f and g: h = f gives g (value 0 at empty), h = g gives f
    (value 1).  k((n)) = 1/h((n)); longer compositions come from strictly
    coarser, shorter ones.  Lazy and memoized.
    """
    k: Functional | None = None

    def value(alpha: Composition) -> Fraction:
        diag = diagonal(h, alpha)
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


def _split_series(phi: Functional, weight, value_at_empty) -> Functional:
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


def convolve(phi: Functional, psi: Functional) -> Functional:
    """The convolution phi * psi: phi (x) psi on the deconcatenations."""

    def value(comp: Composition) -> Fraction:
        total = Fraction(0)
        for left, right in deconcatenations(comp):
            total += phi(left) * psi(right)
        return total

    return Functional(phi.value_at_empty * psi.value_at_empty, value)


def functional_inverse(phi: Functional) -> Functional:
    """Convolution inverse: with a = phi(empty), the series 1/a + sum over m >= 1 of (-1)^m / a^(m+1) phi^{*m}.

    phi = a (counit + phi'/a), where phi' is phi off the empty composition,
    so the inverse is 1/a times the geometric series in -phi'/a.  Exists
    exactly when a is not 0; the inverse is two-sided since convolution is
    associative.
    """
    a = phi.value_at_empty
    if a == 0:
        raise NotInvertible("functional vanishes on the empty composition")
    return _split_series(phi, lambda m: (-1) ** m / a ** (m + 1), 1 / a)


def lie_bracket(xi1: Functional, xi2: Functional) -> Functional:
    """Convolution commutator xi1 * xi2 - xi2 * xi1."""
    left = convolve(xi1, xi2)
    right = convolve(xi2, xi1)
    return Functional(
        left.value_at_empty - right.value_at_empty,
        lambda comp: left(comp) - right(comp),
    )


def basis_contract(g: Functional, alpha) -> dict[Composition, Fraction]:
    """Coordinates of M_alpha over the X basis: coarsenings weighted by g(alpha, .), zeros left out."""
    alpha = Composition(alpha)
    out = {}
    for beta, blocks in coarsening_splits(alpha):
        coef = block_product(g, blocks)
        if coef != 0:
            out[beta] = coef
    return out


def qps_expand(f: Functional, alpha) -> GradedElement:
    """The quasisymmetric power sum P_alpha = aut(alpha) X_alpha, monomial basis.

    Requires f normalized on single parts up to |alpha|.
    """
    alpha = Composition(alpha)
    require_normalized(f, alpha.size)
    return basis_expand(f, alpha).scaled(stats(alpha).aut_count)


def check_integral_nonneg(f: Functional, max_degree: int) -> IntegralityWitness | None:
    """Do all monomial coefficients of the P_alpha lie in the nonnegative integers?

    Sweeps aut(alpha) f(alpha, beta) over refinement pairs up to max_degree
    (test A) and, independently, the single-block values aut(alpha) f(alpha)
    (test B, which is equivalent); both are run and must agree.  Returns the
    first test-A witness in canonical order, or None.
    """
    require_normalized(f, max_degree)

    def is_nonneg_integer(x: Fraction) -> bool:
        return x.denominator == 1 and x >= 0

    def refinement_witness(alpha: Composition) -> IntegralityWitness | None:
        aut = stats(alpha).aut_count

        def witness_of(split) -> IntegralityWitness | None:
            beta, blocks = split
            value = aut * block_product(f, blocks)
            if not is_nonneg_integer(value):
                return IntegralityWitness(alpha, beta, value)
            return None

        return first_witness(coarsening_splits(alpha), witness_of)

    witness = first_witness(compositions_up_to(max_degree)[1:], refinement_witness)

    single_block_ok = True
    for n in range(1, max_degree + 1):
        for alpha in compositions_of(n):
            if not is_nonneg_integer(stats(alpha).aut_count * f(alpha)):
                single_block_ok = False
                break
        if not single_block_ok:
            break

    if (witness is None) != single_block_ok:
        raise AssertionError("refinement-pair and single-block integrality tests disagree")
    return witness


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
    if homogeneous_degree(h) != alpha.size and not h.is_zero():
        raise DegreeMismatch(f"element of degrees {degrees(h)} vs multidegree {alpha}")
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


def below(p: SmallPoset, b: int) -> set[int]:
    """The elements strictly below b in p."""
    return {a for a, bb in p.strict if bb == b}


def order_ideals(p: SmallPoset) -> list[tuple[int, ...]]:
    """All downward closed subsets, as sorted tuples."""
    n = p.element_count
    out = []
    elements = list(range(1, n + 1))
    for mask in range(1 << n):
        chosen = {elements[i] for i in range(n) if mask >> i & 1}
        if all(below(p, b) <= chosen for b in chosen):
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


def tensor_product(s: TensorElement, t: TensorElement) -> TensorElement:
    """The componentwise product of two tensors, for the bialgebra compatibility checks."""
    if s.basis != t.basis:
        raise BasisMismatch(f"{s.basis} vs {t.basis}")
    rule = product_rule(s.basis)
    terms = (
        ((wl, wr), v1 * v2 * ml * mr)
        for (l1, r1), v1 in s.terms.items()
        for (l2, r2), v2 in t.terms.items()
        for wl, ml in rule(l1, l2).items()
        for wr, mr in rule(r1, r2).items()
    )
    return TensorElement(s.basis, terms)


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


def power_value(provider, phi, label, sizes: tuple[int, ...], memo: dict | None = None) -> Fraction:
    """phi applied to every slot of the sizes-multidegree part of the iterated coproduct of label.

    With no sizes this is the counit.  memo, if given, keeps values across
    calls that share provider and phi, and each label's coproduct under the
    key (label,), since the provider keeps none.
    """
    memo = {} if memo is None else memo
    degree = provider.degree
    if not sizes:
        return 1 if degree(label) == 0 else 0
    key = (label, sizes)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out = 0
    head, rest = sizes[0], sizes[1:]
    terms = memo.get((label,))
    if terms is None:
        terms = memo[(label,)] = provider.coproduct(label)
    for (left, right), coef in terms:
        if degree(left) != head:
            continue
        tail = power_value(provider, phi, right, rest, memo)
        if tail:
            out += coef * phi(left) * tail
    memo[key] = out
    return out


def power_image(provider, phi, label, memo: dict | None = None) -> GradedElement:
    """The universal image of label in the monomial basis, one power_value per composition of its degree."""
    alphas, memo = compositions_of(provider.degree(label)), {} if memo is None else memo
    return GradedElement(MONOMIAL, ((alpha, power_value(provider, phi, label, alpha, memo)) for alpha in alphas))


def validated_image(provider, phi, basis: str, label, memo: dict | None = None) -> GradedElement:
    """The universal image of label in basis: its multidegree table, every term then validated by GradedElement.

    memo, if given, keeps the tables across calls that share provider and phi.
    """
    memo = {} if memo is None else memo

    def table_of(label) -> dict:
        table = memo.get(label)
        if table is not None:
            return table
        degree = provider.degree
        if degree(label) == 0:
            table = {(): 1}
        else:
            table = {}
            for (left, right), coef in provider.coproduct(label):
                k = degree(left)
                if k == 0:
                    continue
                weight = coef * phi(left)
                if not weight:
                    continue
                for sizes, tail in table_of(right).items():
                    key = (k, *sizes)
                    table[key] = table.get(key, 0) + weight * tail
            table = {sizes: value for sizes, value in table.items() if value}
        memo[label] = table
        return table

    table = table_of(label)
    alphas = compositions_of(provider.degree(label))
    return GradedElement(basis, ((alpha, table[alpha]) for alpha in alphas if alpha in table))


def split_coproduct(x, subsets) -> tuple:
    """The coproduct of a graph or poset x: induced(x, S) (x) induced(x, rest) summed over the label subsets S."""
    labels = range(1, x[0] + 1)
    counts = Counter(
        (induced(x, chosen), induced(x, [v for v in labels if v not in chosen])) for chosen in subsets
    )
    return tuple(counts.items())


def of_element(f: Functional, elem: GradedElement) -> Fraction:
    """The sum of coef * f(comp) over the terms of elem."""
    total = Fraction(0)
    for comp, coef in elem.terms.items():
        total += coef * f(comp)
    return total


def rational_sum(terms) -> int | Fraction:
    """The sum of num/den over (key, num, den) terms, keys unread, over one common denominator, in normal form."""
    pairs = [(num, den) for _, num, den in terms]
    common = lcm(*(den for _, den in pairs))
    return rational(sum(num * (common // den) for num, den in pairs), common)


class EvenSizeUnsupported(EngineError):
    """No closed form is provided for the even-odd g at even sizes."""


def even_odd_g(alpha) -> Fraction:
    """g of the stock even-odd basis at odd sizes: (-1)^(l-1)/odds if the last part is odd, else 0."""
    alpha = Composition(alpha)
    if alpha.size % 2 == 0:
        raise EvenSizeUnsupported(f"|{alpha}| = {alpha.size} is even")
    if alpha[-1] % 2 == 0:
        return Fraction(0)
    return Fraction(-1 if alpha.length % 2 == 0 else 1, sum(p % 2 for p in alpha))


def induced(x, labels):
    """The structure induced on labels, relabeled order-preservingly to 1..k; valid and sorted, so trusted."""
    kept = sorted(set(labels))
    index = {v: i + 1 for i, v in enumerate(kept)}
    return x._trusted(len(kept), tuple((index[u], index[v]) for u, v in x[1] if u in index and v in index))


def relabel(x, perm):
    """Apply a permutation of 1..n given as a mapping or sequence."""
    if not isinstance(perm, dict):
        perm = {i + 1: p for i, p in enumerate(perm)}
    return type(x)(x[0], [(perm[u], perm[v]) for u, v in x[1]])


def degrees(h: GradedElement) -> list[int]:
    return sorted({c.size for c in h.terms})


def homogeneous_component(h: GradedElement, n: int) -> GradedElement:
    return GradedElement(h.basis, {c: v for c, v in h.terms.items() if c.size == n})


def homogeneous_degree(h: GradedElement) -> int | None:
    """The common degree of all terms, or None (zero counts as any degree)."""
    ds = degrees(h)
    return None if len(ds) > 1 else (ds[0] if ds else 0)


def evaluate(t: TensorElement, left_fn, right_fn) -> int | Fraction:
    """Apply a pair of functionals to a tensor and sum."""
    return sum(v * left_fn(l) * right_fn(r) for (l, r), v in t.terms.items())


def validates_unchanged(elem) -> bool:
    """Does _summed, as a public constructor would take elem's terms from outside, leave them as they are?

    Equal terms in the same order, with keys, key parts and coefficients of the same types.
    """
    again = _summed(elem.terms, _composition if type(elem) is GradedElement else _composition_pair)

    def types(terms: dict) -> list:
        return [(type(key), [type(part) for part in key], type(coef)) for key, coef in terms.items()]

    return again == elem.terms and types(again) == types(elem.terms)
