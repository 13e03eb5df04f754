"""Slow, obviously correct versions of the library's fast paths.

Each function here is the code a fast path in ``src/qshuffle`` replaced,
kept with its body unchanged so the tests can require both to agree:

* ``antipode_by_recursion``: the antipode recursion by element arithmetic,
  one intermediate element per split (the library sums every product into
  one term dict);
* ``coarsenings``: merging runs of parts under each mask, with every result
  built through the validating constructor (the library reads coarsenings
  off the block splits of ``nonempty_splits``);
* ``theta``: the linear extension of theta by chained element additions;
* ``extend_over_refinement``: f(alpha, beta) by searching for the
  refinement blocks and multiplying from 1 (the library multiplies the
  blocks that ``coarsening_splits`` hands out).
"""

from __future__ import annotations

from fractions import Fraction

from qshuffle.compositions import EMPTY, Composition, canonical_key, refinement_split
from qshuffle.elements import MONOMIAL, _PRODUCT_RULES, GradedElement, product
from qshuffle.errors import BasisMismatch
from qshuffle.universal import _theta_of_monomial

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
    out = GradedElement.zero(MONOMIAL)
    for comp, coef in h.terms.items():
        out = out + _theta_of_monomial(comp).scaled(coef)
    return out


def extend_over_refinement(fn, fine: Composition, coarse: Composition) -> Fraction:
    """Product of fn over the blocks of ``fine`` refined into ``coarse``."""
    value = Fraction(1)
    for block in refinement_split(fine, coarse):
        value *= fn(block)
    return value
