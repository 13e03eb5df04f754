"""Universal morphisms into the quasisymmetric and shuffle algebras.

Any connected graded Hopf algebra H equipped with a character zeta maps into
QSym by reading off the multidegree components of iterated coproducts:

    Phi(h) = sum over compositions alpha of n of (zeta tensor-power applied
             to the alpha-component of the iterated coproduct of h) M_alpha

and an infinitesimal character xi likewise maps H into the shuffle algebra
with x_alpha in place of M_alpha.  universal_to_qsym and universal_to_sh
return that morphism as one object on basis labels (CharacterPowerEvaluator),
checked at the unit when it is made and memoised per label, as one dense
table of values in compositions_of order, for as long as it is held; a
functional is paired with a label's image from its table, with no image
built.  H enters through a HopfProvider: its coproduct as ((left, right),
coefficient) pairs over basis labels, its grading and its unit label; the
counit is derived from the grading.

On QSym and the shuffle algebra themselves, whose coproduct is
deconcatenation, the value at alpha and beta is phi multiplied over the
blocks of alpha that sum to the parts of beta: the change of basis that
elements.coarsening_sum walks is their one universal morphism (for QSym
and g, the inverse of the shuffle-basis isomorphism), and no provider for
them is built here.  Reading a morphism's images with a shuffle basis or
its dual triangular data turns characters into infinitesimal characters
and back; with the 1/length! basis this is exactly convolution log and exp.

The module also owns the canonical functionals on the two algebras (the
unit-indicator character, its sign twist, their convolution quotient nu, the
word-length indicator, the weighted-last-part infinitesimal character) and
the resulting map theta, whose eigenbasis is an even-odd shuffle basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Hashable, Iterable

from .characters import basis_expand, f_to_g, require_normalized
from .compositions import Composition, ReadOnly, Record, compositions_of, shown, shown_number
from .elements import GradedElement, MONOMIAL, WORD, exact_value, finished, linear_image, normal_element
from .errors import BasisMismatch, NotACharacter, NotAnInfinitesimalCharacter
from .functionals import Functional

Label = Hashable


class HopfProvider(Record):
    """A connected graded Hopf algebra presented by its coproduct and grading.

    coproduct(label) returns the two-fold coproduct as ((left, right),
    coefficient) pairs over basis labels, each coefficient an int or a
    Fraction; degree(label) is the grading, and unit_label the one label
    of degree 0.  The counit is fixed by the grading: 1 on the unit label,
    0 on every label of positive degree.

    A compositions.Record of its three fields, with an instance __dict__,
    not a tuple, so that code which wraps the functions an object holds (a
    tracer, through vars() and object.__setattr__) reaches coproduct and degree.
    """

    _fields = ("coproduct", "degree", "unit_label")

    def __init__(
        self,
        coproduct: Callable[[Label], Iterable[tuple[tuple[Label, Label], Fraction]]],
        degree: Callable[[Label], int],
        unit_label: Label,
    ):
        vars(self).update(coproduct=coproduct, degree=degree, unit_label=unit_label)


def require_unit_value(phi: Callable[[Label], Fraction], unit_label: Label, basis: str) -> None:
    """phi(unit_label), read through elements.exact_value, is 1 into M and 0 into X; BasisMismatch for another basis."""
    if basis not in (MONOMIAL, WORD):
        raise BasisMismatch(f"a universal morphism maps into {MONOMIAL!r} or {WORD!r}, got {shown(basis)}")
    value = exact_value(phi(unit_label), unit_label)
    if basis == MONOMIAL and value != 1:
        raise NotACharacter(f"zeta(unit) = {shown_number(value)}, expected 1")
    if basis == WORD and value != 0:
        raise NotAnInfinitesimalCharacter(f"xi(unit) = {shown_number(value)}, expected 0")


class CharacterPowerEvaluator(ReadOnly):
    """The universal morphism of a Hopf algebra and a functional phi on it.

    Into basis M for a character phi (phi(unit) = 1), into X for an
    infinitesimal one (phi(unit) = 0).  Every value of phi and every
    coefficient of the provider's coproduct is checked by
    elements.exact_value (a float or text raises TypeError): phi(unit)
    when the morphism is made (require_unit_value), the rest where a table
    reads them, and so is each degree where its label's table is made.
    That phi is a character is the caller's job.  The morphism maps a basis
    label h of degree n to the sum over the compositions alpha of n of the
    value at h and alpha times b_alpha, as the universal property fixes it
    on labels; elements.linear_image extends it to elements.  That value
    is the scalar obtained by iterating the provider's two-fold coproduct
    left to right, projecting to the multidegree alpha, and applying phi
    to every tensor slot.  Each label's values form one dense table
    (_table), built in one pass over its coproduct and kept for the
    morphism's lifetime.  The image zips compositions_of(n) with the
    table, drops the zeros and makes integral sums ints in
    elements.finished, with no second check; pair(weight, label) reads a
    functional on the image from the table alone, building no image.  Read-only, as its tables assume.
    """

    def __init__(self, provider: HopfProvider, phi: Callable[[Label], Fraction], basis: str):
        require_unit_value(phi, provider.unit_label, basis)
        vars(self).update(provider=provider, phi=phi, basis=basis, _cache={}, _degrees={})

    def _table(self, label: Label) -> list:
        """The values at label and each composition of its degree n, in compositions_of(n) order.

        A list of 2^(n-1) exact raw sums ([1] at degree 0), zeros kept; n
        must be an int >= 0 (else ValueError naming the label), read and
        checked once, here, and kept beside the table in _degrees, where
        every later reader takes it.  The compositions of n that begin with
        k are (k, *beta) for beta in compositions_of(m), m = n - k, in that
        order, in the block that starts at 2^(n-1) - 2^m; so a left factor
        of degree k > 0, whose right factor must have degree m = n - k < n
        (else ValueError, before that factor's table is made; m is asked of
        the provider only until then), weighs coef * phi(left) once, both
        checked as they are read, and adds that weight times each nonzero
        entry of the right factor's table into the block (a zero is
        skipped, so a Fraction weight costs no Fraction sums on the zeros
        of a sparse table).  The degrees are a dict of their own, not a
        pair per label, which would add one tracked object per table for
        the garbage collector to sweep.
        """
        cache = self._cache
        table = cache.get(label)
        if table is not None:
            return table
        degree, degrees = self.provider.degree, self._degrees
        n = degree(label)
        if type(n) is not int or n < 0:
            raise ValueError(f"the degree of {shown(label)} must be an int >= 0, got {shown(n)}")
        if n == 0:
            table = [1]
        else:
            size = 1 << (n - 1)
            table = [0] * size
            for (left, right), coef in self.provider.coproduct(label):
                k = degree(left)
                if k == 0:
                    continue
                m = degrees.get(right)
                if m is None:
                    m = degree(right)
                if m != n - k or m >= n:
                    both = f"{shown_number(k)} and {shown_number(m)}"
                    raise ValueError(f"the coproduct of {shown(label)} (degree {n}) has a term of degrees {both}")
                weight = exact_value(coef, label) * exact_value(self.phi(left), left)
                if not weight:
                    continue
                tail = cache.get(right)
                if tail is None:
                    tail = self._table(right)
                for i, value in enumerate(tail, size - (1 << m)):
                    if value:
                        table[i] += weight * value
        degrees[label] = n
        cache[label] = table
        return table

    def __call__(self, label: Label) -> GradedElement:
        table = self._table(label)
        return normal_element(self.basis, finished(dict(zip(compositions_of(self._degrees[label]), table))))

    def pair(self, weight: Functional, label: Label) -> Fraction:
        """weight applied to the image of label, with no image built.

        The label's table dotted with weight.dense(n), over its common
        denominator: with an int table (every demo character's) one C-level
        int dot product, and with Fraction entries the same exact sum.
        weight is read at every composition of the label's degree, not only
        where the image is nonzero.
        """
        table = self._table(label)
        numerators, common = weight.dense(self._degrees[label])
        return Fraction(sum(map(mul, table, numerators)), common)


def universal_to_qsym(provider: HopfProvider, zeta: Callable[[Label], Fraction]) -> CharacterPowerEvaluator:
    """Phi_zeta: H -> QSym, the canonical morphism attached to a character zeta."""
    return CharacterPowerEvaluator(provider, zeta, MONOMIAL)


def universal_to_sh(provider: HopfProvider, xi: Callable[[Label], Fraction]) -> CharacterPowerEvaluator:
    """Psi_xi: H -> Sh, the canonical morphism attached to an infinitesimal character xi."""
    return CharacterPowerEvaluator(provider, xi, WORD)


# ---------------------------------------------------------------------------
# canonical functionals

# the stock functionals, by name: (value at empty, value on nonempty compositions)
_CANONICAL = {
    "zetaQ": (1, lambda c: 1 if c.length <= 1 else 0),
    "barZetaQ": (1, lambda c: (-1 if c.size % 2 else 1) if c.length <= 1 else 0),
    "xiS": (0, lambda c: 1 if c.length == 1 else 0),
    "nuQ": (1, lambda c: (-2 if (c.size + c.length) % 2 else 2) if c[-1] % 2 else 0),
    "eta": (0, lambda c: (-1 if (c.length - 1) % 2 else 1) * c[-1]),
    "counit": (1, lambda c: 0),
}
CANONICAL_NAMES = tuple(_CANONICAL)


def canonical(name: str) -> Functional:
    """The stock functionals, fresh instances keyed by name.

    zetaQ: 1 on monomials of length <= 1 (the evaluation at one variable);
    barZetaQ: its sign twist (-1)^size; xiS: 1 exactly on single-letter
    words; nuQ: the closed form of inverse(barZetaQ) * zetaQ; eta:
    (-1)^(length-1) lastpart; counit.
    """
    entry = _CANONICAL.get(name)
    if entry is None:
        raise ValueError(f"unknown canonical functional {shown(name)}; known: {', '.join(CANONICAL_NAMES)}")
    return Functional(*entry, name=name)


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
        raise BasisMismatch(f"theta acts on the {MONOMIAL!r} basis, got {shown(h.basis)}")
    return linear_image(h, _theta_of_monomial)


# ---------------------------------------------------------------------------
# characters <-> infinitesimal characters through a shuffle basis


def _transfer(
    morphism: CharacterPowerEvaluator, basis: str, weight: Functional, f: Functional
) -> Callable[[Label], Fraction]:
    """h -> weight applied to morphism(h), memoized; morphism must map into basis.

    Each value is morphism.pair(weight, h), which reads h's table and
    builds no image; f is checked normalized up to h's degree, kept beside
    h's table, first.
    """
    if morphism.basis != basis:
        raise BasisMismatch(f"the transfer reads a morphism into {basis!r}, got one into {morphism.basis!r}")

    @lru_cache(maxsize=None)
    def transferred(label: Label) -> Fraction:
        morphism._table(label)
        require_normalized(f, morphism._degrees[label])
        return morphism.pair(weight, label)

    return transferred


def infchar_to_char(psi: CharacterPowerEvaluator, f: Functional) -> Callable[[Label], Fraction]:
    """The character f o Psi_xi of H, from the morphism Psi_xi into the shuffle algebra.

    zeta(h) = sum over alpha of (xi-power of the alpha-coproduct of h)
    f(alpha).  f must be a normalized shuffle character; with the 1/length!
    basis this is convolution exp.

    Kept: the paper's xi -> f o Psi_xi, the inverse of char_to_infchar.
    """
    return _transfer(psi, WORD, f, f)


def char_to_infchar(phi: CharacterPowerEvaluator, f: Functional) -> Callable[[Label], Fraction]:
    """The infinitesimal character g o Phi_zeta of H, from the morphism Phi_zeta into QSym.

    xi(h) = sum over alpha of (zeta-power of the alpha-coproduct of h)
    g(alpha) where g solves the triangular system for f; with the 1/length!
    basis this is convolution log.
    """
    return _transfer(phi, MONOMIAL, f_to_g(f), f)
