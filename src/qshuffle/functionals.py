"""Linear functionals on a deconcatenation basis and their convolution calculus.

A functional is determined by its value on the empty composition plus a
function on nonempty compositions; values are memoized, so functionals stay
lazy and degree bounds can grow without recomputation.  Characters (value
1 at empty) and infinitesimal characters (value 0) are both Functionals.
Convolution is

    (phi * psi)(b_gamma) = sum over gamma = alpha beta of phi(b_alpha) psi(b_beta)

and only uses deconcatenation, so the same calculus serves both algebras;
whether a given functional is a character depends on which product (quasi-
shuffle or shuffle) the basis carries, hence the basis argument on the
predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .compositions import (
    Composition, deconcatenations, extend_over_refinement, nonempty_splits, pairs_up_to, product_sum
)
from .elements import GradedElement, product
from .errors import NonvanishingAtEmpty, NotInvertible, WrongValueAtEmpty
from .report import first_witness


class Functional:
    """value_at_empty plus a memoized function on nonempty compositions."""

    __slots__ = ("value_at_empty", "name", "_fn", "_memo")

    def __init__(self, value_at_empty, on_nonempty, name: str | None = None):
        self.value_at_empty = Fraction(value_at_empty)
        self._fn = on_nonempty
        self._memo: dict[Composition, Fraction] = {}
        self.name = name

    def __call__(self, comp) -> Fraction:
        comp = Composition(comp)
        if not comp:
            return self.value_at_empty
        value = self._memo.get(comp)
        if value is None:
            value = Fraction(self._fn(comp))
            self._memo[comp] = value
        return value

    def pair(self, fine, coarse) -> int | Fraction:
        """f(alpha, beta): product of the functional over the refinement blocks."""
        return extend_over_refinement(self, fine, coarse)

    def of_element(self, elem: GradedElement) -> Fraction:
        total = Fraction(0)
        for comp, coef in elem.terms.items():
            total += coef * self(comp)
        return total

    def __repr__(self) -> str:
        label = self.name or "functional"
        return f"<{label}: empty -> {self.value_at_empty}>"


def counit_functional() -> Functional:
    return Functional(1, lambda comp: Fraction(0), name="counit")


def convolve(phi: Functional, psi: Functional) -> Functional:
    def value(comp: Composition) -> Fraction:
        total = Fraction(0)
        for left, right in deconcatenations(comp):
            total += phi(left) * psi(right)
        return total

    return Functional(phi.value_at_empty * psi.value_at_empty, value)


def functional_inverse(phi: Functional) -> Functional:
    """Convolution inverse, by recursion on proper prefixes.

    Exists exactly when phi does not vanish on the empty composition; the
    inverse is two-sided since convolution is associative.
    """
    if phi.value_at_empty == 0:
        raise NotInvertible("functional vanishes on the empty composition")
    at_empty = 1 / phi.value_at_empty
    inv: Functional | None = None

    def value(comp: Composition) -> Fraction:
        total = Fraction(0)
        for left, right in deconcatenations(comp)[:-1]:
            total += inv(left) * phi(right)
        return -at_empty * total

    inv = Functional(at_empty, value)
    return inv


def _split_series(phi: Functional, weight, value_at_empty: int) -> Functional:
    """Sum over m >= 1 of weight(m) phi^{*m}, one term per split into m nonempty blocks.

    Finite on every composition, so exact at all degrees.
    """

    def value(comp: Composition) -> Fraction:
        return product_sum(phi, ((weight(len(blocks)), blocks) for blocks in nonempty_splits(comp)))

    return Functional(value_at_empty, value)


def exp_functional(xi: Functional) -> Functional:
    """exp under convolution: sum of xi^{*m} / m!; xi must vanish on the empty composition."""
    if xi.value_at_empty != 0:
        raise NonvanishingAtEmpty(f"exp needs value 0 on the empty composition, got {xi.value_at_empty}")
    return _split_series(xi, lambda m: Fraction(1, factorial(m)), 1)


def log_functional(zeta: Functional) -> Functional:
    """log under convolution: sum over m >= 1 of (-1)^(m-1)/m (zeta - counit)^{*m}.

    Requires value 1 on the empty composition; on nonempty blocks zeta -
    counit is zeta.
    """
    if zeta.value_at_empty != 1:
        raise WrongValueAtEmpty(f"log needs value 1 on the empty composition, got {zeta.value_at_empty}")
    return _split_series(zeta, lambda m: Fraction(-1 if m % 2 == 0 else 1, m), 0)


def lie_bracket(xi1: Functional, xi2: Functional) -> Functional:
    """Convolution commutator xi1 * xi2 - xi2 * xi1."""
    left = convolve(xi1, xi2)
    right = convolve(xi2, xi1)
    return Functional(
        left.value_at_empty - right.value_at_empty,
        lambda comp: left(comp) - right(comp),
    )


@dataclass(frozen=True)
class Violation:
    """First failure found by a predicate sweep."""

    kind: str
    alpha: Composition | None
    beta: Composition | None
    expected: Fraction
    actual: Fraction

    def __str__(self) -> str:
        if self.kind == "value-at-empty":
            return f"value at empty composition is {self.actual}, expected {self.expected}"
        return (
            f"pair alpha={self.alpha}, beta={self.beta}: "
            f"got {self.actual}, expected {self.expected}"
        )


def _product_sweep(phi: Functional, max_degree: int, basis: str, value_at_empty: int):
    """phi(b b') must be phi(b) phi(b') for a character (value 1 at empty), 0 for an infinitesimal one."""
    if phi.value_at_empty != value_at_empty:
        return False, Violation("value-at-empty", None, None, Fraction(value_at_empty), phi.value_at_empty)

    def violation(pair) -> Violation | None:
        alpha, beta = pair
        lhs = phi.of_element(
            product(GradedElement.basis_element(basis, alpha), GradedElement.basis_element(basis, beta))
        )
        rhs = phi(alpha) * phi(beta) if value_at_empty else Fraction(0)
        return None if lhs == rhs else Violation("product", alpha, beta, rhs, lhs)

    witness = first_witness(pairs_up_to(max_degree), violation)
    return witness is None, witness


def is_character(
    phi: Functional, max_degree: int, basis: str = "M"
) -> tuple[bool, Violation | None]:
    """Multiplicative with value 1 at the unit, checked exhaustively.

    Products of basis elements are taken in the stated basis, pairs swept in
    canonical order up to total degree max_degree; returns the first
    violation found.  In the word basis this is the shuffle-character
    property f(alpha) f(beta) = sum of f over the shuffles.
    """
    return _product_sweep(phi, max_degree, basis, 1)


def is_infinitesimal_character(
    phi: Functional, max_degree: int, basis: str = "M"
) -> tuple[bool, Violation | None]:
    """Vanishes at the unit and on every product of positive-degree elements."""
    return _product_sweep(phi, max_degree, basis, 0)
