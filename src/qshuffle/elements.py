"""Graded elements of the two Hopf algebras and their structure maps.

Elements are finitely supported rational combinations of basis elements
indexed by compositions.  Two bases have products wired in:

* ``M`` — monomial quasisymmetric functions; product is the bilinear
  extension of the quasi-shuffle of indices, coproduct is deconcatenation.
* ``X`` — the word basis of the shuffle algebra; product is the bilinear
  extension of the shuffle, coproduct is again deconcatenation.

Any other basis tag is allowed for storage (derived bases produced by the
change-of-basis code) but has no product or coproduct; structure maps raise
BasisMismatch on such tags.

Every coefficient is in one normal form: an ``int``, or a ``Fraction``
whose denominator is greater than 1, so integral coefficients (every
antipode coefficient among them) are added and multiplied as ints.  Keys
are ``Composition``s (pairs of them in a tensor), each once, and no
coefficient is zero, so equality of elements is equality of the term
dictionaries.

The normal form is established once, where terms are built.  The public
constructors and ``from_json`` take outside input and put it through
``_summed``, which validates every key and coefficient and sums repeats.
The results computed here (products, coproducts, antipodes, linear
images, the basis expansions of ``coarsening_sum``, and sums, negatives
and scalings of elements) are built from terms already in normal form,
so they skip that check: ``_TermMap._normal`` stores such a dict as it
is.  So do the images of the universal morphisms in ``universal``, whose
keys come from ``compositions_of`` and whose coefficients are finished
sums of checked character values; they enter through ``normal_element``,
the trusted builder for other modules.  Every sum of scaled term maps in
the package is built by ``add_terms``, the one accumulator, and ends in
``finished``, the one finisher (zero sums dropped, integral sums made
ints).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .compositions import (
    EMPTY,
    Composition,
    Record,
    _quasi_shuffle_pairs,
    _shuffle_pairs,
    canonical_key,
    check_length,
    coarsening_products,
    coarsenings,
    deconcatenations,
    rational,
    shown,
    shown_name,
)
from .errors import BasisMismatch, NotAPartition

MONOMIAL = "M"
WORD = "X"
# basis -> the product of two compositions as a {word: multiplicity} mapping; the
# cached tables themselves, so callers pass Compositions and never mutate a result
_PRODUCT_RULES = {MONOMIAL: _quasi_shuffle_pairs, WORD: _shuffle_pairs}


def product_rule(basis: str):
    """The product of two compositions in basis, as a shared {word: multiplicity} table.

    Read at call time; a basis with no product wired in raises BasisMismatch.
    """
    rule = _PRODUCT_RULES.get(basis)
    if rule is None:
        raise BasisMismatch(f"no product rule for basis {shown(basis)}")
    return rule


_RATIONAL_TEXT = re.compile(r"-?\d+(/\d+|\.\d+)?", re.ASCII)


def parse_rational(value) -> Fraction:
    """An exact rational from outside: an int (not a bool) or text like ``-3``, ``2/5`` or ``1.25``.

    Anything else (a float, an exponent, a zero denominator, text longer
    than MAX_DIGITS) raises ValueError.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_TEXT.fullmatch(check_length(value)):
        den = value.partition("/")[2]
        if not den or int(den):
            return Fraction(value)
    raise ValueError(f"not an exact rational (an int, or text like -2/3 or 1.5): {shown(value)}")


def as_coefficient(value, at) -> int | Fraction:
    """exact_value(value, at), with text parsed by parse_rational first."""
    return exact_value(parse_rational(value) if isinstance(value, str) else value, at)


def exact_value(value, at) -> int | Fraction:
    """A value read at at (a composition, a label or a part) in normal form: the one check of exact values.

    An int or a Fraction comes back in normal form and a bool as an int.  Anything else, a float or a text
    (which only as_coefficient parses), raises TypeError quoting the value and at through shown.
    """
    if type(value) is int:
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact rational: {shown(value)} (at {shown(at)})")
    return value.numerator if value.denominator == 1 else value


def _composition(comp) -> Composition:
    return comp if type(comp) is Composition else Composition(comp)


def _composition_pair(pair) -> tuple[Composition, Composition]:
    left, right = pair
    return _composition(left), _composition(right)


def add_terms(acc: dict, terms, scale=1) -> dict:
    """Add scale times each exact (key, coefficient) of terms into the term dict acc, in place; returns acc.

    The one accumulator: a sum of scaled term maps is one call per map, then finished; 1s are not multiplied in.
    """
    get, scaled = acc.get, scale != 1
    for key, value in terms:
        if scaled:
            value = scale if value == 1 else scale * value
        prev = get(key)
        acc[key] = value if prev is None else prev + value
    return acc


def finished(acc: dict) -> dict:
    """A dict of sums of normal-form coefficients in normal form: zero sums dropped, integral sums made ints."""
    return {k: v if type(v) is int or v.denominator != 1 else v.numerator for k, v in acc.items() if v}


def _summed(terms, key_of) -> dict:
    """Terms from outside (a dict or (key, coef) pairs) in normal form: each key
    through key_of, exact coefficients, repeated keys summed, then finished.
    """
    pairs = terms.items() if isinstance(terms, dict) else terms
    keyed = ((key_of(key), coef) for key, coef in pairs)
    return finished(add_terms({}, ((key, as_coefficient(coef, key)) for key, coef in keyed)))


def _json_object(data, what: str, keys: tuple[str, ...]) -> dict:
    """data as a JSON object with exactly these keys; ValueError otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {shown(data)}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {shown(unknown)}; expected only {list(keys)}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} is missing {missing}")
    return data


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; ValueError on a repeated key, where json.loads keeps the last."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {shown(key)} is repeated")
        data[key] = value
    return data


def _json_value(data: dict, key: str, kind: type = list):
    if not isinstance(data[key], kind):
        raise ValueError(f"{key!r} must be a JSON {'list' if kind is list else 'string'}, got {shown(data[key])}")
    return data[key]


class _TermMap(Record):
    """A finitely supported, basis-tagged map from keys to exact coefficients in normal form.

    The arithmetic shared by the two element classes; each subclass's
    ``__init__`` puts outside keys through ``_summed``, and the methods here
    build their results, already in normal form, through ``_normal`` and
    ``_sum_of``.  A compositions.Record of basis and terms.
    """

    _fields = __slots__ = ("basis", "terms")

    @classmethod
    def _normal(cls, basis: str, terms: dict):
        """An element storing terms as it is, unchecked: a dict the caller built in normal form."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "basis", basis)
        object.__setattr__(elem, "terms", terms)
        return elem

    @classmethod
    def _sum_of(cls, basis: str, acc: dict):
        """An element of acc, valid keys each mapped to a sum of normal-form coefficients, after finished."""
        return cls._normal(basis, finished(acc))

    def _require_same_basis(self, other) -> None:
        if self.basis != other.basis:
            raise BasisMismatch(f"{shown_name(self.basis)} vs {shown_name(other.basis)}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same_basis(other)
        return self._sum_of(self.basis, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._normal(self.basis, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, scalar):
        s = as_coefficient(scalar, "scalar")
        return self._sum_of(self.basis, {k: s * v for k, v in self.terms.items()})

    __mul__ = __rmul__ = scaled


class GradedElement(_TermMap):
    """A finitely supported map from compositions to rationals, tagged with a basis."""

    __slots__ = ()

    def __init__(self, basis: str, terms=None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _summed(terms or (), _composition))

    @classmethod
    def basis_element(cls, basis: str, comp) -> "GradedElement":
        return cls._normal(basis, {Composition(comp): 1})

    @classmethod
    def unit(cls, basis: str) -> "GradedElement":
        return cls.basis_element(basis, EMPTY)

    @classmethod
    def zero(cls, basis: str) -> "GradedElement":
        return cls._normal(basis, {})

    def coefficient(self, comp) -> int | Fraction:
        return self.terms.get(Composition(comp), 0)

    def support(self) -> list[Composition]:
        return sorted(self.terms, key=canonical_key)

    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            return product(self, other)
        return self.scaled(other)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"

    def to_json(self) -> str:
        terms = [{"comp": list(c), "coef": str(self.terms[c])} for c in self.support()]
        return json.dumps({"basis": self.basis, "terms": terms}, separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "GradedElement":
        """The inverse of to_json.

        Anything but an object with a string basis and a list of terms, each an object
        with a list comp and a coef, raises ValueError, as does a composition
        listed twice, a key repeated in one object or a number longer than
        MAX_DIGITS.
        """
        data = json.loads(text, parse_int=lambda digits: int(check_length(digits)), object_pairs_hook=_unique_keys)
        data = _json_object(data, "element", ("basis", "terms"))
        terms: dict[Composition, Fraction] = {}
        for t in _json_value(data, "terms"):
            _json_object(t, "term", ("comp", "coef"))
            comp = Composition(_json_value(t, "comp"))
            if comp in terms:
                raise ValueError(f"composition {shown(list(comp))} is listed twice")
            terms[comp] = parse_rational(t["coef"])
        return cls(_json_value(data, "basis", str), terms)


def format_coefficient(coef: Fraction, lead: bool) -> str:
    sign = "-" if coef < 0 else ("" if lead else "+")
    mag = abs(coef)
    body = "" if mag == 1 else f"{mag} "
    if lead:
        return f"{sign}{body}" if sign else body
    return f"{sign} {body}"


def format_element(elem: GradedElement) -> str:
    """Render like ``M[2,1] + 1/3 M[3]``; the zero element is ``0``."""
    if elem.is_zero():
        return "0"
    chunks = []
    for i, comp in enumerate(elem.support()):
        coef = elem.terms[comp]
        chunks.append(f"{format_coefficient(coef, lead=(i == 0))}{elem.basis}[{comp.to_text()}]")
    return " ".join(chunks)


def accumulate_product(acc: dict, a: GradedElement, b_terms) -> dict:
    """Add a times the (word, coef) pairs b_terms into the term dict acc, in place; returns acc.

    Summing several products into one dict builds one element at the end
    instead of one per intermediate sum; one word multiplies in as
    ((word, 1),), with no basis element built for it.
    """
    rule = product_rule(a.basis)
    for ca, va in a.terms.items():
        for cb, vb in b_terms:
            add_terms(acc, rule(ca, cb).items(), va * vb)
    return acc


def normal_element(basis: str, terms: dict) -> GradedElement:
    """The element of basis storing terms as it is: the trusted builder for results computed outside this module.

    terms must already be in normal form, built from valid Composition keys
    and checked coefficients: each an int or a Fraction with denominator > 1,
    none zero.  Nothing is checked again.
    """
    return GradedElement._normal(basis, terms)


def product(a: GradedElement, b: GradedElement) -> GradedElement:
    a._require_same_basis(b)
    return GradedElement._sum_of(a.basis, accumulate_product({}, a, b.terms.items()))


class TensorElement(_TermMap):
    """An element of the two-fold tensor square, for coproducts."""

    __slots__ = ()

    def __init__(self, basis: str, terms=None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _summed(terms or (), _composition_pair))

    def support(self):
        return sorted(self.terms, key=lambda pr: (canonical_key(pr[0]), canonical_key(pr[1])))

    def __repr__(self) -> str:
        if not self.terms:
            return "<0 (x) 0>"
        bits = []
        for l, r in self.support():
            v = self.terms[(l, r)]
            bits.append(f"{v} {self.basis}[{l.to_text()}](x){self.basis}[{r.to_text()}]")
        return "<" + " + ".join(bits) + ">"


def coproduct(h: GradedElement) -> TensorElement:
    """Deconcatenation coproduct, the same rule in both wired bases."""
    if h.basis not in _PRODUCT_RULES:
        raise BasisMismatch(f"no coproduct for basis {shown(h.basis)}")
    # the splits of distinct compositions are distinct pairs, so no key repeats
    return TensorElement._normal(
        h.basis, {pair: coef for comp, coef in h.terms.items() for pair in deconcatenations(comp)}
    )


def counit(h: GradedElement) -> int | Fraction:
    """The coefficient of the unit: the counit of both wired bases.

    Kept: the counit of the Hopf structure, beside product, coproduct and the antipodes.
    """
    return h.coefficient(EMPTY)


def antipode_word(h: GradedElement) -> GradedElement:
    """Antipode on the shuffle algebra: X[a1..al] -> (-1)^l X[al..a1]."""
    if h.basis != WORD:
        raise BasisMismatch(f"closed-form word antipode needs basis {WORD!r}, got {shown(h.basis)}")
    return GradedElement._normal(
        WORD, {comp.reverse(): -coef if comp.length % 2 else coef for comp, coef in h.terms.items()}
    )


def linear_image(h: GradedElement, image_of) -> GradedElement:
    """The linear extension of image_of (a composition -> element map) to h, in the basis of the images.

    Images in two bases raise BasisMismatch; the image of the zero element is zero in h's basis.
    """
    acc, first = {}, None
    for comp, coef in h.terms.items():
        image = image_of(comp)
        if first is None:
            first = image
        else:
            first._require_same_basis(image)
        add_terms(acc, image.terms.items(), coef)
    return GradedElement._sum_of(h.basis if first is None else first.basis, acc)


def coarsening_sum(basis: str, fn, alpha, scale: int = 1) -> GradedElement:
    """The sum over the coarsenings beta of alpha of scale * fn(alpha, beta) b_beta, in basis.

    fn(alpha, beta) is the product of fn over the blocks of alpha that sum
    to the parts of beta, read off one walk of coarsening_products, which
    yields each coarsening once and leaves zero terms out; scale is a
    nonzero int.  So the terms are in normal form as they are built.

    A trusted entry, like normal_element: the values of fn are read as
    they are, unchecked, so fn must be a functionals.Functional, which checks
    each value it gives.  The public entries that reach it from outside
    (characters.basis_expand, basis_contract, qps_expand) refuse anything
    else.
    """
    terms = {beta: rational(scale * num, den) for beta, num, den in coarsening_products(fn, alpha)}
    return GradedElement._normal(basis, terms)


_antipode_cache: dict[tuple[str, Composition], GradedElement] = {}


def antipode_by_recursion(basis: str, comp) -> GradedElement:
    """Antipode of one basis element by the connected-graded recursion.

    S(1) = 1 and, for positive degree, S(b) = -b - sum S(b') b'' over the
    proper part of the deconcatenation coproduct.  Works in either wired
    basis; this is the generic route with no closed form assumed.
    """
    if basis not in _PRODUCT_RULES:
        raise BasisMismatch(f"no antipode for basis {shown(basis)}")
    comp = Composition(comp)
    key = (basis, comp)
    cached = _antipode_cache.get(key)
    if cached is not None:
        return cached
    if not comp:
        result = GradedElement.unit(basis)
    else:
        # b + sum S(b') b'' over the proper splits, summed in one dict, negated once
        acc = {comp: 1}
        for left, right in deconcatenations(comp)[1:-1]:
            accumulate_product(acc, antipode_by_recursion(basis, left), ((right, 1),))
        result = GradedElement._sum_of(basis, {c: -v for c, v in acc.items()})
    _antipode_cache[key] = result
    return result


def antipode_monomial(h: GradedElement) -> GradedElement:
    """Antipode on the monomial basis, by its closed form.

    S(M_alpha) = (-1)^length(alpha) times the sum of M_beta over the
    coarsenings beta of rev alpha (Malvenuto and Reutenauer 1995);
    antipode_by_recursion is the generic route and this form's oracle.
    """
    if h.basis != MONOMIAL:
        raise BasisMismatch(f"monomial antipode needs basis {MONOMIAL!r}, got {shown(h.basis)}")

    def image(comp: Composition) -> GradedElement:
        return GradedElement._normal(MONOMIAL, dict.fromkeys(coarsenings(comp.reverse()), -1 if len(comp) % 2 else 1))

    return linear_image(h, image)


def power_sum(partition) -> GradedElement:
    """The symmetric power sum p_lambda as a monomial-basis element.

    p_n = M[n], and p_lambda is the product over the parts.  Parts must be
    weakly decreasing.
    """
    parts = list(partition)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise NotAPartition(f"parts not weakly decreasing: {shown(parts)}")
    out = GradedElement.unit(MONOMIAL)
    for p in parts:
        out = product(out, GradedElement.basis_element(MONOMIAL, (p,)))
    return out
