"""Linear functionals on a deconcatenation basis, with convolution exp and log.

A functional is determined by its value on the empty composition plus a
function on nonempty compositions; values are memoized, so functionals stay
lazy and degree bounds can grow without recomputation.  Characters (value
1 at empty) and infinitesimal characters (value 0) are both Functionals.
exp and log are power series under the convolution product, and the m-th
convolution power of a functional, off the empty composition, is

    phi^{*m}(b_gamma) = sum over the splits of gamma into m nonempty blocks
                        of the product of phi on the blocks,

so each series is one walk over the coarsenings of gamma.  That uses only
deconcatenation, so the same calculus serves both algebras; whether a given
functional is a character depends on which product (quasi-shuffle or
shuffle) the basis carries, hence the basis argument on the predicates in
``verify``.  The convolution product itself, the convolution inverse, the
Lie bracket and the term-by-term pairing with an element have no reader in
the package; they live with the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .compositions import (
    EMPTY, Composition, ReadOnly, coarsening_products, compositions_of, rational_sum, shown, shown_name, shown_number
)
from .compositions import nonempty_splits  # noqa: F401  (perfbench/tests/test_tracer.py looks it up in this module)
from .elements import exact_value
from .errors import NonvanishingAtEmpty, WrongValueAtEmpty


# the most bits the numerator or the denominator of a computed value may have; a wider
# one raises ValueError instead of being kept, so every value built from others has a bounded cost
MAX_BITS = 14_300


class Functional(ReadOnly):
    """value_at_empty plus a memoized function on nonempty compositions.

    Each value is checked once, when it is made or first computed, through
    elements.exact_value: an int or a Fraction is kept as a Fraction, and a
    float or text raises TypeError naming the composition.  dense(n) keeps
    the values at the compositions of n as one vector of int numerators, so
    a universal morphism pairs with the functional in one integer dot
    product (CharacterPowerEvaluator.pair).  Read-only, and equal only to itself, as memos keyed on it need.
    """

    __slots__ = ("value_at_empty", "name", "_fn", "_memo", "_dense")

    def __init__(self, value_at_empty, on_nonempty, name: str | None = None):
        object.__setattr__(self, "value_at_empty", Fraction(exact_value(value_at_empty, EMPTY)))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_fn", on_nonempty)
        object.__setattr__(self, "_memo", {})  # composition -> its checked value
        object.__setattr__(self, "_dense", {})  # degree -> dense(degree)

    def __call__(self, comp) -> Fraction:
        if type(comp) is not Composition:
            comp = Composition(comp)
        if not comp:
            return self.value_at_empty
        value = self._memo.get(comp)
        if value is None:
            value = self._fn(comp)
            if type(value) is not Fraction:
                value = Fraction(exact_value(value, comp))
            if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_BITS:
                raise ValueError(f"the value at {shown(comp)} has more than {MAX_BITS} bits")
            self._memo[comp] = value
        return value

    def dense(self, n: int) -> tuple[list[int], int]:
        """The values at compositions_of(n), in that order, as int numerators over one common denominator.

        The denominator is the lcm of the values' denominators; degree 0
        gives [value_at_empty].  Each value is read through __call__, so a
        value not yet computed is checked there, and the vector is built
        once per degree and kept for as long as the functional is held.
        """
        vector = self._dense.get(n)
        if vector is None:
            values = [self(comp) for comp in compositions_of(n)]
            common = lcm(*(value.denominator for value in values))
            vector = self._dense[n] = ([value.numerator * (common // value.denominator) for value in values], common)
        return vector

    def __repr__(self) -> str:
        label = self.name or "functional"
        return f"<{label}: empty -> {self.value_at_empty}>"


def require_functional(f, where: str) -> None:
    """TypeError naming where unless f is a Functional, which checks every value it gives.

    The one gate of the public entries that take a functional and read its
    values through compositions.coarsening_products, which checks none.
    """
    if not isinstance(f, Functional):
        raise TypeError(f"{where} takes a Functional, got an object of type {shown_name(type(f).__name__)}")


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
    require_functional(xi, "exp_functional")
    if xi.value_at_empty != 0:
        raise NonvanishingAtEmpty(f"exp needs value 0 on the empty composition, got {shown_number(xi.value_at_empty)}")
    return _split_series(xi, lambda m: Fraction(1, factorial(m)), 1)


def log_functional(zeta: Functional) -> Functional:
    """log under convolution: sum over m >= 1 of (-1)^(m-1)/m (zeta - counit)^{*m}.

    Requires value 1 on the empty composition; on nonempty blocks zeta -
    counit is zeta.
    """
    require_functional(zeta, "log_functional")
    if zeta.value_at_empty != 1:
        raise WrongValueAtEmpty(f"log needs value 1 on the empty composition, got {shown_number(zeta.value_at_empty)}")
    return _split_series(zeta, lambda m: Fraction(-1 if m % 2 == 0 else 1, m), 0)
