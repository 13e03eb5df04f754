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
antipode coefficient among them) are added and multiplied as ints.
``_summed``, called by both constructors, owns the normal form (repeated
keys summed, zero sums pruned, integral sums stored as ints), so equality
of elements is equality of the term dictionaries.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .compositions import (
    EMPTY,
    Composition,
    canonical_key,
    deconcatenations,
    quasi_shuffle,
    shuffle,
)
from .errors import BasisMismatch, NotAPartition

MONOMIAL = "M"
WORD = "X"
_PRODUCT_RULES = {MONOMIAL: quasi_shuffle, WORD: shuffle}


def _as_fraction(value) -> int | Fraction:
    """An exact coefficient in normal form: an int, or a Fraction with denominator > 1.

    A bool becomes an int and text is parsed; anything else (a float) raises TypeError.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


_RATIONAL_TEXT = re.compile(r"-?\d+(/\d+|\.\d+)?", re.ASCII)


def parse_rational(value) -> Fraction:
    """An exact rational from outside: an int (not a bool) or text like ``-3``, ``2/5`` or ``1.25``.

    Anything else (a float, an exponent, a zero denominator) raises ValueError.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_TEXT.fullmatch(value):
        den = value.partition("/")[2]
        if not den or int(den):
            return Fraction(value)
    raise ValueError(f"not an exact rational (an int, or text like -2/3 or 1.5): {value!r}")


def _composition(comp) -> Composition:
    return comp if type(comp) is Composition else Composition(comp)


def _composition_pair(pair) -> tuple[Composition, Composition]:
    left, right = pair
    return _composition(left), _composition(right)


def _summed(terms, key_of) -> dict:
    """Terms (a dict or (key, coef) pairs) in normal form: each key through key_of,
    exact coefficients, repeated keys summed, zero sums pruned and integral sums
    made ints once at the end.
    """
    acc = {}
    for key, coef in terms.items() if isinstance(terms, dict) else terms:
        key, coef = key_of(key), _as_fraction(coef)
        prev = acc.get(key)
        acc[key] = coef if prev is None else prev + coef
    return {k: v.numerator if v.denominator == 1 else v for k, v in acc.items() if v}


def _check_keys(data: dict, known: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; expected only {list(known)}")


class GradedElement:
    """A finitely supported map from compositions to rationals, tagged with a basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _summed(terms or (), _composition))

    def __setattr__(self, name, value):
        raise AttributeError("GradedElement is immutable")

    @classmethod
    def basis_element(cls, basis: str, comp) -> "GradedElement":
        return cls(basis, {Composition(comp): 1})

    @classmethod
    def unit(cls, basis: str) -> "GradedElement":
        return cls.basis_element(basis, EMPTY)

    @classmethod
    def zero(cls, basis: str) -> "GradedElement":
        return cls(basis, {})

    def coefficient(self, comp) -> int | Fraction:
        return self.terms.get(Composition(comp), 0)

    def support(self) -> list[Composition]:
        return sorted(self.terms, key=canonical_key)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({c.size for c in self.terms})

    def homogeneous_component(self, n: int) -> "GradedElement":
        return GradedElement(self.basis, {c: v for c, v in self.terms.items() if c.size == n})

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None (zero counts as any degree)."""
        ds = self.degrees()
        if len(ds) > 1:
            return None
        return ds[0] if ds else 0

    def _require_same_basis(self, other: "GradedElement") -> None:
        if self.basis != other.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedElement)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._require_same_basis(other)
        return GradedElement(self.basis, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.basis, {c: -v for c, v in self.terms.items()})

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def scaled(self, scalar) -> "GradedElement":
        s = _as_fraction(scalar)
        return GradedElement(self.basis, {c: s * v for c, v in self.terms.items()})

    def __rmul__(self, scalar) -> "GradedElement":
        return self.scaled(scalar)

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            return product(self, other)
        return self.scaled(other)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"comp": list(c), "coef": str(v)}
                for c, v in sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedElement":
        """The inverse of to_json_dict; unknown keys and a composition listed twice raise ValueError."""
        _check_keys(data, ("basis", "terms"))
        terms: dict[Composition, Fraction] = {}
        for t in data["terms"]:
            _check_keys(t, ("comp", "coef"))
            comp = Composition(t["comp"])
            if comp in terms:
                raise ValueError(f"composition {list(comp)} is listed twice")
            terms[comp] = parse_rational(t["coef"])
        return cls(data["basis"], terms)

    @classmethod
    def from_json(cls, text: str) -> "GradedElement":
        return cls.from_json_dict(json.loads(text))


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


def _accumulate_times(acc: dict, a: GradedElement, b_terms) -> dict:
    """Add a times the (word, coef) pairs b_terms into acc, in place; returns acc.

    One word multiplies in as ((word, 1),), with no basis element built for it.
    """
    rule = _PRODUCT_RULES[a.basis]
    for ca, va in a.terms.items():
        for cb, vb in b_terms:
            coef = va * vb
            for word, mult in rule(ca, cb).items():
                term = coef if mult == 1 else coef * mult
                prev = acc.get(word)
                acc[word] = term if prev is None else prev + term
    return acc


def accumulate_product(
    acc: dict[Composition, Fraction], a: GradedElement, b: GradedElement
) -> dict[Composition, Fraction]:
    """Add the terms of a * b into the term dict acc, in place; returns acc.

    Summing several products into one dict builds one element at the end
    instead of one per intermediate sum.
    """
    a._require_same_basis(b)
    if a.basis not in _PRODUCT_RULES:
        raise BasisMismatch(f"no product rule for basis {a.basis!r}")
    return _accumulate_times(acc, a, b.terms.items())


def product(a: GradedElement, b: GradedElement) -> GradedElement:
    return GradedElement(a.basis, accumulate_product({}, a, b))


class TensorElement:
    """An element of the two-fold tensor square, for coproducts."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _summed(terms or (), _composition_pair))

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.basis != other.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")
        return TensorElement(self.basis, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scaled(-1)

    def scaled(self, scalar) -> "TensorElement":
        s = _as_fraction(scalar)
        return TensorElement(self.basis, {k: s * v for k, v in self.terms.items()})

    def __rmul__(self, scalar) -> "TensorElement":
        return self.scaled(scalar)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scaled(other)
        # componentwise product, used by the bialgebra compatibility checks
        if self.basis != other.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")
        rule = _PRODUCT_RULES.get(self.basis)
        if rule is None:
            raise BasisMismatch(f"no product rule for basis {self.basis!r}")
        terms = (
            ((wl, wr), v1 * v2 * ml * mr)
            for (l1, r1), v1 in self.terms.items()
            for (l2, r2), v2 in other.terms.items()
            for wl, ml in rule(l1, l2).items()
            for wr, mr in rule(r1, r2).items()
        )
        return TensorElement(self.basis, terms)

    def evaluate(self, left_fn, right_fn) -> int | Fraction:
        """Apply a pair of functionals and sum."""
        total = 0
        for (l, r), v in self.terms.items():
            total += v * left_fn(l) * right_fn(r)
        return total

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
        raise BasisMismatch(f"no coproduct for basis {h.basis!r}")
    return TensorElement(
        h.basis, ((pair, coef) for comp, coef in h.terms.items() for pair in deconcatenations(comp))
    )


def counit(h: GradedElement) -> int | Fraction:
    return h.coefficient(EMPTY)


def antipode_word(h: GradedElement) -> GradedElement:
    """Antipode on the shuffle algebra: X[a1..al] -> (-1)^l X[al..a1]."""
    if h.basis != WORD:
        raise BasisMismatch(f"closed-form word antipode needs basis {WORD!r}, got {h.basis!r}")
    return GradedElement(
        WORD, ((comp.reverse(), -coef if comp.length % 2 else coef) for comp, coef in h.terms.items())
    )


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
        # b + sum S(b') b'' over the proper splits, summed in one dict, negated once
        acc = {comp: 1}
        for left, right in deconcatenations(comp)[1:-1]:
            _accumulate_times(acc, antipode_by_recursion(basis, left), ((right, 1),))
        result = GradedElement(basis, {c: -v for c, v in acc.items()})
    _antipode_cache[key] = result
    return result


def antipode_monomial(h: GradedElement) -> GradedElement:
    """Antipode on the monomial basis, by the recursion (no closed form used)."""
    if h.basis != MONOMIAL:
        raise BasisMismatch(f"monomial antipode needs basis {MONOMIAL!r}, got {h.basis!r}")
    terms = (
        (image, coef * value)
        for comp, coef in h.terms.items()
        for image, value in antipode_by_recursion(MONOMIAL, comp).terms.items()
    )
    return GradedElement(MONOMIAL, terms)


def power_sum(partition) -> GradedElement:
    """The symmetric power sum p_lambda as a monomial-basis element.

    p_n = M[n], and p_lambda is the product over the parts.  Parts must be
    weakly decreasing.
    """
    parts = list(partition)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise NotAPartition(f"parts not weakly decreasing: {parts}")
    out = GradedElement.unit(MONOMIAL)
    for p in parts:
        out = product(out, GradedElement.basis_element(MONOMIAL, (p,)))
    return out
