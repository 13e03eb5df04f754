"""Compositions of nonnegative integers and their combinatorics.

A composition is a finite (possibly empty) sequence of positive integers,
its parts.  Everything downstream is indexed by compositions: monomial
quasisymmetric functions, shuffle-algebra words, change-of-basis tables.
This module owns the combinatorial layer: enumeration in a fixed canonical
order, numeric statistics, the refinement partial order, and the shuffle and
quasi-shuffle products of compositions.

Canonical order is graded, then lexicographic on the part sequence, so for
size 3: (1,1,1) < (1,2) < (2,1) < (3).  All enumerations here emit that
order, which is what makes tables reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations
from math import factorial, lcm

from .errors import NotARefinement


class Composition(tuple):
    """A composition: an immutable sequence of positive integer parts.

    Behaves as a tuple (hashable, sliceable, comparable) so it can key
    sparse term dictionaries directly.  ``Composition()`` is the empty
    composition, written ``-`` in the text format.

    The constructor is where outside parts enter, so it accepts only real
    ``int`` parts >= 1 (no ``bool``, ``float`` or ``str``) and returns a
    ``Composition`` argument unchanged.  Compositions derived from valid
    ones inside this module skip the check through ``_trusted``.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int or p < 1:
                raise ValueError(f"composition parts must be positive ints, got {p!r}")
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def __add__(self, other) -> "Composition":
        # concatenation, like tuples, but staying in the class
        return _trusted(tuple.__add__(self, Composition(other)))

    def __radd__(self, other) -> "Composition":
        return _trusted(tuple.__add__(Composition(other), self))

    def reverse(self) -> "Composition":
        return _trusted(self[::-1])

    def sorted_partition(self) -> "Composition":
        """The weakly decreasing rearrangement of the parts."""
        return _trusted(sorted(self, reverse=True))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self) if self else "-"

    @classmethod
    def from_text(cls, text: str) -> "Composition":
        """Parse the text format: comma-separated parts, ``-`` for empty."""
        text = text.strip()
        if text == "-" or text == "":
            return cls()
        parts = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk.isdigit():
                raise ValueError(f"bad composition part {chunk!r} in {text!r}")
            parts.append(int(chunk))
        return cls(parts)

    def __repr__(self) -> str:
        return f"C[{self.to_text()}]"

    __str__ = __repr__


# builds a Composition from parts already known to be ints >= 1, unchecked;
# only for compositions derived from valid ones
_trusted = partial(tuple.__new__, Composition)

EMPTY = Composition()


def canonical_key(comp: Composition) -> tuple:
    """Sort key realizing the canonical (graded lexicographic) order."""
    return (comp.size, tuple(comp))


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple[Composition, ...]:
    """All compositions of n, lexicographic on parts.  2^(n-1) of them for n >= 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            out.append(_trusted((first, *rest)))
    return tuple(out)


def compositions_up_to(max_degree: int) -> list[Composition]:
    """All compositions of size 0..max_degree in canonical order."""
    out: list[Composition] = []
    for n in range(max_degree + 1):
        out.extend(compositions_of(n))
    return out


def pairs_up_to(max_degree: int):
    """Pairs of nonempty compositions with |alpha| + |beta| <= max_degree.

    Ordered by total size, then |alpha|, then canonical order of alpha and
    of beta.
    """
    for total in range(2, max_degree + 1):
        for a in range(1, total):
            for alpha in compositions_of(a):
                for beta in compositions_of(total - a):
                    yield alpha, beta


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Composition, ...]:
    """Partitions of n (weakly decreasing compositions), canonical order."""
    return tuple(c for c in compositions_of(n) if all(c[i] >= c[i + 1] for i in range(len(c) - 1)))


def rearrangements(comp: Composition) -> list[Composition]:
    """All distinct compositions with the same multiset of parts."""
    seen = sorted(set(permutations(comp)))
    return [_trusted(p) for p in seen]


@dataclass(frozen=True)
class CompositionStats:
    """The numeric statistics of one composition.

    z_value = part_product * aut_count is the familiar z_lambda when the
    parts are sorted into a partition.  prefix_product is the product of the
    partial sums a1, a1+a2, ..., a1+...+al (1 for, and only for, the empty
    composition and in the conventions p = aut = z = 1 there too, while
    last_part is 0).
    """

    size: int
    length: int
    last_part: int
    part_product: int
    aut_count: int
    z_value: int
    prefix_product: int
    even_count: int
    odd_count: int
    sorted_partition: Composition


def stats(comp: Composition) -> CompositionStats:
    comp = Composition(comp)
    part_product = 1
    for p in comp:
        part_product *= p
    mult: dict[int, int] = {}
    for p in comp:
        mult[p] = mult.get(p, 0) + 1
    aut = 1
    for m in mult.values():
        aut *= factorial(m)
    prefix_product = 1
    running = 0
    for p in comp:
        running += p
        prefix_product *= running
    return CompositionStats(
        size=comp.size,
        length=comp.length,
        last_part=comp[-1] if comp else 0,
        part_product=part_product,
        aut_count=aut,
        z_value=part_product * aut,
        prefix_product=prefix_product,
        even_count=sum(1 for p in comp if p % 2 == 0),
        odd_count=sum(1 for p in comp if p % 2 == 1),
        sorted_partition=comp.sorted_partition(),
    )


def coarsenings(comp: Composition) -> list[Composition]:
    """All compositions obtained by summing runs of adjacent parts.

    These are exactly the compositions coarser than comp in refinement
    order; there are 2^(length-1) of them (1 for the empty composition).
    Canonical order.
    """
    return [coarse for coarse, _ in coarsening_splits(comp)]


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


def extend_over_refinement(fn, fine: Composition, coarse: Composition) -> int | Fraction:
    """Product of fn over the blocks of ``fine`` refined into ``coarse``.

    This is the two-argument extension f(alpha, beta) of a function on
    compositions; it is 1 on the empty pair and multiplicative under
    concatenation of refinement pairs.
    """
    return block_product(fn, refinement_split(fine, coarse))


def _rational(num: int, den: int) -> int | Fraction:
    """num/den in normal form: an int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _scaled_product(fn, scale, blocks: tuple[Composition, ...]) -> tuple[int, int]:
    """The int numerator and denominator of scale times the product of fn over blocks.

    scale and the values of fn are ints or Fractions; the pair is not reduced.
    Stops at the first zero factor, so fn is not called past it.
    """
    num, den = scale.numerator, scale.denominator
    for block in blocks:
        if not num:
            return 0, 1
        value = fn(block)
        num *= value.numerator
        den *= value.denominator
    return num, den


def block_product(fn, blocks: tuple[Composition, ...]) -> int | Fraction:
    """Product of fn over blocks in normal form (an int, or a Fraction that is not one); 1 for none."""
    return _rational(*_scaled_product(fn, 1, blocks))


def product_sum(fn, terms) -> int | Fraction:
    """Sum over the (scale, blocks) terms of scale times the product of fn over blocks.

    The terms are added as ints over one common denominator, so one
    Fraction is built for the result instead of one per factor; the value
    is in the normal form of ``block_product``.
    """
    pairs = []
    for scale, blocks in terms:
        num, den = _scaled_product(fn, scale, blocks)
        if num:
            pairs.append((num, den))
    common = lcm(*(den for _, den in pairs))
    return _rational(sum(num * (common // den) for num, den in pairs), common)


def deconcatenations(comp: Composition) -> list[tuple[Composition, Composition]]:
    """All splittings comp = prefix + suffix, including the empty ends."""
    comp = Composition(comp)
    return [(_trusted(comp[:i]), _trusted(comp[i:])) for i in range(comp.length + 1)]


def nonempty_splits(comp: Composition):
    """Yield all splittings of comp into consecutive nonempty blocks.

    2^(length-1) splittings of a nonempty composition; nothing for the
    empty one.
    """
    comp = Composition(comp)
    if not comp:
        return
    for mask in range(1 << (comp.length - 1)):
        blocks = []
        start = 0
        for i in range(1, comp.length):
            if mask >> (i - 1) & 1:
                blocks.append(_trusted(comp[start:i]))
                start = i
        blocks.append(_trusted(comp[start:]))
        yield tuple(blocks)


def _interleavings(pairs_of, merge: bool, a: Composition, b: Composition):
    """The shuffle of a and b as canonical (word, multiplicity) pairs, recursing through pairs_of;
    merge (the quasi-shuffle) lets a word also start with the sum of both first parts."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    rest_a, rest_b = _trusted(a[1:]), _trusted(b[1:])
    branches = [(a[0], rest_a, b), (b[0], a, rest_b)]
    if merge:
        branches.append((a[0] + b[0], rest_a, rest_b))
    acc: dict[Composition, int] = {}
    for first, left, right in branches:
        for word, m in pairs_of(left, right):
            key = _trusted((first, *word))
            acc[key] = acc.get(key, 0) + m
    return tuple(sorted(acc.items(), key=lambda kv: canonical_key(kv[0])))


@lru_cache(maxsize=None)
def _shuffle_pairs(a: Composition, b: Composition) -> tuple[tuple[Composition, int], ...]:
    return _interleavings(_shuffle_pairs, False, a, b)


def shuffle(a: Composition, b: Composition) -> dict[Composition, int]:
    """The shuffle product as a multiset: interleavings with multiplicity.

    Total multiplicity is binomial(len(a)+len(b), len(a)).
    """
    return dict(_shuffle_pairs(Composition(a), Composition(b)))


@lru_cache(maxsize=None)
def _quasi_shuffle_pairs(a: Composition, b: Composition) -> tuple[tuple[Composition, int], ...]:
    return _interleavings(_quasi_shuffle_pairs, True, a, b)


def quasi_shuffle(a: Composition, b: Composition) -> dict[Composition, int]:
    """The quasi-shuffle (overlapping shuffle) product as a multiset.

    Interleavings where one part of a and one part of b may also merge into
    their sum; these are the structure constants of the monomial basis.
    """
    return dict(_quasi_shuffle_pairs(Composition(a), Composition(b)))
