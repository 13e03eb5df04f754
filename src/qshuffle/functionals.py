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
predicates in ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .compositions import Composition, coarsening_products, deconcatenations, rational_sum
from .compositions import nonempty_splits  # noqa: F401  (perfbench/tests/test_tracer.py looks it up in this module)
from .elements import GradedElement
from .errors import NonvanishingAtEmpty, NotInvertible, WrongValueAtEmpty


# the most bits the numerator or the denominator of a computed value may have; a wider
# one raises ValueError instead of being kept, so every value built from others has a bounded cost
MAX_BITS = 14_300


class Functional:
    """value_at_empty plus a memoized function on nonempty compositions."""

    __slots__ = ("value_at_empty", "name", "_fn", "_memo")

    def __init__(self, value_at_empty, on_nonempty, name: str | None = None):
        self.value_at_empty = Fraction(value_at_empty)
        self._fn = on_nonempty
        self._memo: dict[Composition, Fraction] = {}
        self.name = name

    def __call__(self, comp) -> Fraction:
        if type(comp) is not Composition:
            comp = Composition(comp)
        if not comp:
            return self.value_at_empty
        value = self._memo.get(comp)
        if value is None:
            value = self._fn(comp)
            if type(value) is not Fraction:
                value = Fraction(value)
            if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_BITS:
                raise ValueError(f"the value at {comp} has more than {MAX_BITS} bits")
            self._memo[comp] = value
        return value

    def of_element(self, elem: GradedElement) -> Fraction:
        """The sum of coef * self(comp) over elem's terms, added as int ratios over one common denominator."""
        terms = []
        for comp, coef in elem.terms.items():
            value = self(comp)
            terms.append((comp, coef.numerator * value.numerator, coef.denominator * value.denominator))
        return Fraction(rational_sum(terms))

    def __repr__(self) -> str:
        label = self.name or "functional"
        return f"<{label}: empty -> {self.value_at_empty}>"


def convolve(phi: Functional, psi: Functional) -> Functional:
    """The convolution phi * psi: phi (x) psi on the deconcatenations.

    Kept: the convolution product that the calculus of functionals is named for; lie_bracket builds on it.
    """

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

    Kept: the convolution inverse, by which canonical("nuQ") is defined.
    """
    a = phi.value_at_empty
    if a == 0:
        raise NotInvertible("functional vanishes on the empty composition")
    return _split_series(phi, lambda m: (-1) ** m / a ** (m + 1), 1 / a)


def _split_series(phi: Functional, weight, value_at_empty) -> Functional:
    """value_at_empty plus the sum over m >= 1 of weight(m) phi^{*m}.

    On a nonempty composition: over its coarsenings of length m, weight(m)
    times phi on the blocks.  Each weight is built once per series.  Finite
    on every composition, so exact at all degrees.
    """
    weights = lru_cache(maxsize=None)(weight)

    def value(comp: Composition) -> Fraction:
        return rational_sum(coarsening_products(phi, comp, lambda coarse: weights(len(coarse))))

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
    """Convolution commutator xi1 * xi2 - xi2 * xi1.

    Kept: the Lie bracket of the infinitesimal characters, closing the convolution calculus.
    """
    left = convolve(xi1, xi2)
    right = convolve(xi2, xi1)
    return Functional(
        left.value_at_empty - right.value_at_empty,
        lambda comp: left(comp) - right(comp),
    )
