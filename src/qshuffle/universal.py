"""Universal morphisms into the quasisymmetric and shuffle algebras.

Any connected graded Hopf algebra H equipped with a character zeta maps into
QSym by reading off the multidegree components of iterated coproducts:

    Phi(h) = sum over compositions alpha of n of (zeta tensor-power applied
             to the alpha-component of the iterated coproduct of h) M_alpha

and an infinitesimal character xi likewise maps H into the shuffle algebra
with x_alpha in place of M_alpha.  H enters through a HopfProvider: a record
of callables describing a homogeneous basis and its coproduct.  Composing
with a shuffle basis and its dual triangular data turns characters into
infinitesimal characters and back; with the 1/length! basis this is exactly
convolution log and exp.

The module also owns the canonical functionals on the two algebras (the
unit-indicator character, its sign twist, their convolution quotient nu, the
word-length indicator, the weighted-last-part infinitesimal character) and
the resulting map theta, whose eigenbasis is an even-odd shuffle basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Mapping, Sequence

from .characters import (
    _require_normalized,
    basis_expand,
    even_odd_character,
    f_to_g,
)
from .compositions import (
    Composition, EMPTY, compositions_of, compositions_up_to, deconcatenations, stats
)
from .elements import GradedElement, MONOMIAL, WORD
from .errors import BasisMismatch, DegreeMismatch, NotACharacter, NotAnInfinitesimalCharacter
from .functionals import Functional, counit_functional
from .report import VerifyReport

Label = Hashable


@dataclass(frozen=True)
class HopfProvider:
    """A connected graded Hopf algebra presented through callables.

    basis_of_degree(n) lists the degree-n basis labels; coproduct(label)
    returns the two-fold coproduct as a mapping (left, right) -> coefficient
    over basis labels; counit and degree read off the grading.  Degree 0
    must hold exactly the unit label.
    """

    name: str
    basis_of_degree: Callable[[int], Sequence[Label]]
    coproduct: Callable[[Label], Mapping[tuple[Label, Label], Fraction]]
    counit: Callable[[Label], Fraction]
    degree: Callable[[Label], int]
    unit_label: Label


def _deconcatenation_provider(name: str) -> HopfProvider:
    def coproduct(label: Label) -> dict[tuple[Composition, Composition], Fraction]:
        return {pair: Fraction(1) for pair in deconcatenations(label)}

    return HopfProvider(
        name=name,
        basis_of_degree=lambda n: compositions_of(n),
        coproduct=coproduct,
        counit=lambda label: Fraction(1 if len(Composition(label)) == 0 else 0),
        degree=lambda label: Composition(label).size,
        unit_label=EMPTY,
    )


def qsym_provider() -> HopfProvider:
    """QSym itself, monomial labels with deconcatenation."""
    return _deconcatenation_provider("qsym")


def sh_provider() -> HopfProvider:
    """The shuffle algebra, word labels with deconcatenation."""
    return _deconcatenation_provider("sh")


class CharacterPowerEvaluator:
    """Caches values of phi-tensor-powers of iterated coproducts.

    value(label, sizes) is the scalar obtained by iterating the provider's
    two-fold coproduct left to right, projecting to the multidegree given by
    sizes, and applying phi to every tensor slot.
    """

    def __init__(self, provider: HopfProvider, phi: Callable[[Label], Fraction]):
        self.provider = provider
        self.phi = phi
        self._cache: dict[tuple[Label, tuple[int, ...]], Fraction] = {}

    def value(self, label: Label, sizes: tuple[int, ...]) -> Fraction:
        if not sizes:
            return Fraction(self.provider.counit(label))
        key = (label, sizes)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if len(sizes) == 1:
            out = Fraction(self.phi(label)) if self.provider.degree(label) == sizes[0] else Fraction(0)
        else:
            out = Fraction(0)
            head, rest = sizes[0], sizes[1:]
            for (left, right), coef in self.provider.coproduct(label).items():
                if self.provider.degree(left) != head:
                    continue
                tail = self.value(right, rest)
                if tail:
                    out += Fraction(coef) * Fraction(self.phi(left)) * tail
        self._cache[key] = out
        return out

    def on_element(self, h: Mapping[Label, Fraction], sizes: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        for label, coef in h.items():
            total += Fraction(coef) * self.value(label, sizes)
        return total


def _as_label_element(h) -> dict[Label, Fraction]:
    if isinstance(h, Mapping):
        return {label: Fraction(coef) for label, coef in h.items()}
    return {h: Fraction(1)}


def _element_degree(provider: HopfProvider, h: Mapping[Label, Fraction]) -> int:
    degrees = {provider.degree(label) for label, coef in h.items() if coef != 0}
    if len(degrees) > 1:
        raise DegreeMismatch(f"element spans degrees {sorted(degrees)}")
    return degrees.pop() if degrees else 0


def _check_unit(provider: HopfProvider, phi: Callable[[Label], Fraction], expected: int) -> None:
    """A character takes 1 at the unit label, an infinitesimal character 0."""
    value = phi(provider.unit_label)
    if Fraction(value) != expected:
        if expected:
            raise NotACharacter(f"zeta(unit) = {value}, expected 1")
        raise NotAnInfinitesimalCharacter(f"xi(unit) = {value}, expected 0")


def _universal_morphism(
    provider: HopfProvider, phi: Callable[[Label], Fraction], h, basis: str
) -> GradedElement:
    """Phi(h) in basis M for a character phi, in X for an infinitesimal one.

    h is a basis label or a homogeneous label -> coefficient mapping.  Only
    phi's value at the unit is checked; the rest is the caller's job.
    """
    h = _as_label_element(h)
    _check_unit(provider, phi, 1 if basis == MONOMIAL else 0)
    n = _element_degree(provider, h)
    evaluator = CharacterPowerEvaluator(provider, phi)
    return GradedElement(
        basis, {alpha: evaluator.on_element(h, tuple(alpha)) for alpha in compositions_of(n)}
    )


def universal_to_qsym(provider: HopfProvider, zeta: Callable[[Label], Fraction], h) -> GradedElement:
    """The canonical morphism into QSym attached to a character zeta."""
    return _universal_morphism(provider, zeta, h, MONOMIAL)


def universal_to_sh(provider: HopfProvider, xi: Callable[[Label], Fraction], h) -> GradedElement:
    """The canonical morphism into the shuffle algebra attached to xi."""
    return _universal_morphism(provider, xi, h, WORD)


# ---------------------------------------------------------------------------
# canonical functionals

CANONICAL_NAMES = ("zetaQ", "barZetaQ", "xiS", "nuQ", "eta", "counit")


def _nu_closed_form(comp: Composition) -> Fraction:
    st = stats(comp)
    if st.last_part % 2 == 1:
        sign = -1 if (st.size + st.length) % 2 else 1
        return Fraction(2 * sign)
    return Fraction(0)


def canonical(name: str) -> Functional:
    """The stock functionals, fresh instances keyed by name.

    zetaQ: 1 on monomials of length <= 1 (the evaluation at one variable);
    barZetaQ: its sign twist (-1)^size; xiS: 1 exactly on single-letter
    words; nuQ: the closed form of inverse(barZetaQ) * zetaQ; eta:
    (-1)^(length-1) lastpart; counit.
    """
    if name == "zetaQ":
        return Functional(1, lambda c: Fraction(1 if c.length <= 1 else 0), name=name)
    if name == "barZetaQ":
        return Functional(
            1,
            lambda c: Fraction((-1 if c.size % 2 else 1) if c.length <= 1 else 0),
            name=name,
        )
    if name == "xiS":
        return Functional(0, lambda c: Fraction(1 if c.length == 1 else 0), name=name)
    if name == "nuQ":
        return Functional(1, _nu_closed_form, name=name)
    if name == "eta":
        return Functional(
            0,
            lambda c: Fraction((-1 if (c.length - 1) % 2 else 1) * c[-1]),
            name=name,
        )
    if name == "counit":
        return counit_functional()
    raise ValueError(f"unknown canonical functional {name!r}; known: {', '.join(CANONICAL_NAMES)}")


# ---------------------------------------------------------------------------
# theta and its eigenbasis

_theta_basis_cache: dict[Composition, GradedElement] = {}
_theta_nu = canonical("nuQ")


def _theta_of_monomial(comp: Composition) -> GradedElement:
    """theta(M_alpha) = sum over coarsenings beta of alpha of nuQ(alpha, beta) M_beta."""
    cached = _theta_basis_cache.get(comp)
    if cached is None:
        cached = _theta_basis_cache[comp] = basis_expand(_theta_nu, comp)
    return cached


def theta(h: GradedElement) -> GradedElement:
    """The universal morphism of QSym with the character nuQ, extended linearly.

    On each degree component this is Phi(h) computed over QSym itself with
    zeta = nuQ; inhomogeneous input is handled degreewise.
    """
    if h.basis != MONOMIAL:
        raise BasisMismatch(f"theta acts on the {MONOMIAL!r} basis, got {h.basis!r}")
    terms = (
        (image, coef * value)
        for comp, coef in h.terms.items()
        for image, value in _theta_of_monomial(comp).terms.items()
    )
    return GradedElement(MONOMIAL, terms)


def theta_eigencheck(f_even: Functional | None, max_degree: int) -> VerifyReport:
    """Verify theta acts on an even-odd shuffle basis with eigenvalues 2^length.

    The basis comes from the character that sends an even-then-odd
    composition to f_even on its even block over odds-factorial, zero
    elsewhere; f_even = None takes the stock 1/length!.  X_alpha with all
    parts odd must be an eigenvector with eigenvalue 2^length; all other
    X_alpha must map to zero.
    """
    f = even_odd_character(f_even=f_even)
    label = "stock" if f_even is None else (f_even.name or "custom")
    report = VerifyReport(f"theta eigencheck (even block: {label})")
    # disjoint case lists, so each X_alpha is expanded and mapped once
    odd, other = [], []
    for alpha in compositions_up_to(max_degree):
        (odd if all(p % 2 == 1 for p in alpha) else other).append(alpha)

    def eigen_witness(alpha: Composition) -> str | None:
        x_alpha = basis_expand(f, alpha)
        if theta(x_alpha) != x_alpha.scaled(Fraction(2) ** alpha.length):
            return f"alpha={alpha}"
        return None

    def zero_witness(alpha: Composition) -> str | None:
        return None if theta(basis_expand(f, alpha)).is_zero() else f"alpha={alpha}"

    report.sweep(f"odd-part X_alpha scale by 2^length through degree {max_degree}", odd, eigen_witness)
    report.sweep(f"other X_alpha map to zero through degree {max_degree}", other, zero_witness)
    return report


# ---------------------------------------------------------------------------
# characters <-> infinitesimal characters through a shuffle basis


def _transfer(
    phi: Callable[[Label], Fraction], f: Functional, weight: Functional, provider: HopfProvider
) -> Callable[[Label], Fraction]:
    """h -> sum over alpha of (phi-power of the alpha-coproduct of h) weight(alpha), memoized.

    weight is f (value 1 at empty) for an infinitesimal character phi, or g
    (value 0) for a character; the result takes weight's value at empty.
    """
    _check_unit(provider, phi, 1 - weight.value_at_empty)
    evaluator = CharacterPowerEvaluator(provider, phi)

    @lru_cache(maxsize=None)
    def transferred(label: Label) -> Fraction:
        n = provider.degree(label)
        _require_normalized(f, n)
        if n == 0:
            return weight.value_at_empty
        total = Fraction(0)
        for alpha in compositions_of(n):
            coef = evaluator.value(label, tuple(alpha))
            if coef:
                total += coef * weight(alpha)
        return total

    return transferred


def infchar_to_char(
    xi: Callable[[Label], Fraction], f: Functional, provider: HopfProvider
) -> Callable[[Label], Fraction]:
    """Turn an infinitesimal character of H into a character, through f.

    zeta(h) = sum over alpha of (xi-power of the alpha-coproduct of h)
    f(alpha).  f must be a normalized shuffle character; with the 1/length!
    basis this is convolution exp.
    """
    return _transfer(xi, f, f, provider)


def char_to_infchar(
    zeta: Callable[[Label], Fraction], f: Functional, provider: HopfProvider
) -> Callable[[Label], Fraction]:
    """Turn a character of H into an infinitesimal character, through f.

    xi(h) = sum over alpha of (zeta-power of the alpha-coproduct of h)
    g(alpha) where g solves the triangular system for f; with the 1/length!
    basis this is convolution log.
    """
    return _transfer(zeta, f, f_to_g(f), provider)
