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

import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, permutations
from math import factorial, lcm
from typing import NamedTuple


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
                raise ValueError(f"composition parts must be positive ints, got {shown(p)}")
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
            if not is_numeral(check_length(chunk, "bad composition part")):
                raise ValueError(f"bad composition part {shown(chunk)} in {shown(text)}")
            parts.append(int(chunk))
        return cls(parts)

    def __repr__(self) -> str:
        return f"C[{self.to_text()}]"

    __str__ = __repr__


# the most characters a number given as text may have; CPython's int() refuses
# more than 4300 digits, with a message about its own settings
MAX_DIGITS = 1000


def is_numeral(text) -> bool:
    """Is text a nonempty str of at most MAX_DIGITS ASCII digits?

    Checked before ``int``, which also takes signs and other scripts.
    """
    return type(text) is str and len(text) <= MAX_DIGITS and text.isascii() and text.isdigit()


def check_length(text: str, what: str | None = None) -> str:
    """text, if it has at most MAX_DIGITS characters; otherwise ValueError naming its length, not echoing it.

    what, if given, leads the message, as in ``bad pair: a number has 5000 characters; ...``.
    """
    if len(text) > MAX_DIGITS:
        capped = f"a number has {len(text)} characters; numbers are capped at {MAX_DIGITS}"
        raise ValueError(f"{what}: {capped}" if what else capped)
    return text


# the most characters of an input text that an error message repeats
MAX_SHOWN = 200


def shown(value) -> str:
    """An outside value as an error message quotes it: its repr when short, otherwise its kind and size; never raises.

    An int prints as shown_number prints it.  A text is quoted when its quote holds at most MAX_SHOWN characters
    between the quote marks, and is otherwise sized by its characters; a tuple, list or dict is sized by its entries
    (no repr is formed past MAX_SHOWN of them), anything else by its repr, or by the digit limit its repr passed.
    """
    if type(value) is int:
        return shown_number(value)
    if isinstance(value, str):
        # the quote is bounded, not the text: repr escapes a control character to up to four characters
        if len(value) <= MAX_SHOWN and len(text := repr(value)) <= MAX_SHOWN + 2:
            return text
        return f"a text of {len(value)} characters"
    kind, sized = type(value).__name__, isinstance(value, (tuple, list, dict))
    entries = sized and f"a {kind} of {len(value)} entr{'y' if len(value) == 1 else 'ies'}"
    if sized and len(value) > MAX_SHOWN:
        return entries
    try:
        text = repr(value)
    except ValueError:  # a number in value is past the interpreter's digit limit for str
        return entries or f"a {kind} of more than {sys.get_int_max_str_digits()} digits"
    return text if len(text) <= MAX_SHOWN else entries or f"a {kind} of {len(text)} characters"


# the most characters of a name or tag that an error message prints, so one that quotes two stays one short line
MAX_NAME = 80


def shown_name(value) -> str:
    """A name or tag as an error message prints it: a printable text bare, anything else as shown quotes it,
    and either one by its kind and length when that is longer than MAX_NAME characters.
    """
    text = value if isinstance(value, str) and value.isprintable() else shown(value)
    if len(text) <= MAX_NAME:
        return text
    if isinstance(value, str):
        return f"a text of {len(value)} characters"
    return f"a {type(value).__name__} of {len(text)} characters"


class ReadOnly:
    """Set once by its constructor (object.__setattr__): assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{shown_name(type(self).__name__)}.{shown_name(name)} is read-only")

    __delattr__ = __setattr__


class Record(ReadOnly):
    """A ReadOnly value of the attributes its class lists in _fields: equal to a record of the same exact type
    with equal fields, hashed by them, and printed as ``Class(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values()))})"


def shown_number(value) -> str:
    """A number as an error message prints it: in full when short, otherwise by its digit count; never raises."""
    try:
        text = str(value)
    except ValueError:  # past the interpreter's digit limit for str
        return f"a number of more than {sys.get_int_max_str_digits()} digits"
    return text if len(text) <= MAX_SHOWN else f"a number of {sum(c.isdigit() for c in text)} digits"


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
        raise ValueError(f"need n >= 0, got {shown_number(n)}")
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


class CompositionStats(NamedTuple):
    """The two counts of a composition that the power sums scale by, as a read-only record.

    aut_count is the product of the factorials of the part multiplicities,
    and z_value is the product of the parts times aut_count: the familiar
    z_lambda when the parts are sorted into a partition.  Both are 1 for the
    empty composition.  A NamedTuple, like the package's other value
    records, which keeps the start-up of every command short.
    """

    aut_count: int
    z_value: int


def stats(comp: Composition) -> CompositionStats:
    mult: dict[int, int] = {}
    for p in Composition(comp):
        mult[p] = mult.get(p, 0) + 1
    aut = part_product = 1
    for p, m in mult.items():
        aut *= factorial(m)
        part_product *= p**m
    return CompositionStats(aut_count=aut, z_value=part_product * aut)


def coarsenings(comp: Composition) -> list[Composition]:
    """All compositions obtained by summing runs of adjacent parts.

    These are exactly the compositions coarser than comp in refinement
    order; there are 2^(length-1) of them (1 for the empty composition).
    Canonical order.
    """
    return [coarse for coarse, _, _ in coarsening_products(lambda block: 1, comp)]


@lru_cache(maxsize=None)
def _split_cells(length: int) -> tuple[tuple[int, ...], ...]:
    """The blocks of each split of ``length`` parts, in lexicographic order, as flat cells.

    A split is a subset of the cut points (Gessel's encoding) closed by
    ``length``: the prefix sums of a composition of ``length``, so the order
    of ``compositions_of`` is the canonical order of the coarsenings.  The
    block from position i to position j is the cell i * (length + 1) + j,
    one small int, so a walk indexes flat per-composition lists by it.
    """
    width = length + 1
    return tuple(
        tuple(i * width + j for i, j in zip((0, *ends), ends))
        for ends in map(tuple, map(accumulate, compositions_of(length)))
    )


# one object per composition value, shared by every coarsening and product word that keys a term on it
_interned: dict[Composition, Composition] = {}


def coarsening_products(fn, comp: Composition, scale=None):
    """Yield (coarse, num, den) for each coarsening of comp, in canonical order.

    num/den, unreduced ints, is scale(coarse) (1 if scale is None) times the
    product of fn over the blocks of comp that sum to the parts of coarse;
    zero terms are left out.  Read order: scale first, skipping coarse if it
    is 0, then fn on the blocks left to right up to the first zero factor.
    Each value is read once, as the ints of its ``as_integer_ratio()``: a
    block's value at most once per call, into flat numerator and
    denominator lists indexed by the block's cell in ``_split_cells``.
    Each coarse is the one shared object for its value (``_interned``).
    """
    comp = Composition(comp)
    width = len(comp) + 1
    sums = [0, *accumulate(comp)]
    # the part that each block sums to, and once read, the ints of fn on it, by cell
    parts = [sums[j] - sums[i] for i in range(width) for j in range(width)]
    nums: list[int | None] = [None] * (width * width)
    dens = [1] * (width * width)
    for cells in _split_cells(len(comp)):
        coarse = _trusted([parts[cell] for cell in cells])
        coarse = _interned.setdefault(coarse, coarse)
        if scale is None:
            num = den = 1
        else:
            factor = scale(coarse)
            if not factor:
                continue
            num, den = factor.as_integer_ratio()
        for cell in cells:
            n = nums[cell]
            if n is None:
                i, j = divmod(cell, width)
                n, dens[cell] = fn(_trusted(comp[i:j])).as_integer_ratio()
                nums[cell] = n
            if not n:
                break
            num *= n
            den *= dens[cell]
        else:
            yield coarse, num, den


def rational(num: int, den: int) -> int | Fraction:
    """num/den in normal form: an int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def rational_sum(terms) -> int | Fraction:
    """The sum of num/den over (key, num, den) terms, keys unread, in normal form.

    One pass over one common denominator: a numerator over that denominator
    adds as an int, one over a divisor of it is scaled up, and the common
    denominator widens to the lcm only when a denominator outside it appears.
    """
    total, common = 0, 1
    for _, num, den in terms:
        if den == common:
            total += num
        elif common % den == 0:
            total += num * (common // den)
        else:
            wider = lcm(common, den)
            total = total * (wider // common) + num * (wider // den)
            common = wider
    return rational(total, common)


def deconcatenations(comp: Composition) -> list[tuple[Composition, Composition]]:
    """All splittings comp = prefix + suffix, including the empty ends."""
    comp = Composition(comp)
    return [(_trusted(comp[:i]), _trusted(comp[i:])) for i in range(comp.length + 1)]


def nonempty_splits(comp: Composition):
    """Yield all splittings of comp into consecutive nonempty blocks, in the order of their coarsenings.

    2^(length-1) splittings of a nonempty composition; nothing for the
    empty one.
    """
    comp = Composition(comp)
    width = len(comp) + 1
    for cells in _split_cells(len(comp)) if comp else ():
        yield tuple(_trusted(comp[slice(*divmod(cell, width))]) for cell in cells)


def _interleavings(pairs_of, merge: bool, a: Composition, b: Composition) -> dict[Composition, int]:
    """The shuffle of a and b as a {word: multiplicity} dict in canonical order, recursing through pairs_of;
    merge (the quasi-shuffle) lets a word also start with the sum of both first parts.

    Every word is the one shared object for its value (``_interned``), so
    the cached tables hold one tuple per distinct word, not one per entry.
    """
    if not a or not b:
        word = b if not a else a
        return {_interned.setdefault(word, word): 1}
    rest_a, rest_b = _trusted(a[1:]), _trusted(b[1:])
    branches = [(a[0], rest_a, b), (b[0], a, rest_b)]
    if merge:
        branches.append((a[0] + b[0], rest_a, rest_b))
    acc: dict[Composition, int] = {}
    for first, left, right in branches:
        for word, m in pairs_of(left, right).items():
            key = _trusted((first, *word))
            key = _interned.setdefault(key, key)
            acc[key] = acc.get(key, 0) + m
    # every word has size |a| + |b|, so the order of the part tuples is the canonical order
    return dict(sorted(acc.items()))


# The two product tables.  An entry is shared by every caller, which must not
# mutate it; the public shuffle and quasi_shuffle hand out copies.
@lru_cache(maxsize=None)
def _shuffle_pairs(a: Composition, b: Composition) -> dict[Composition, int]:
    return _interleavings(_shuffle_pairs, False, a, b)


def shuffle(a: Composition, b: Composition) -> dict[Composition, int]:
    """The shuffle product as a multiset: interleavings with multiplicity.

    Total multiplicity is binomial(len(a)+len(b), len(a)).
    """
    return dict(_shuffle_pairs(Composition(a), Composition(b)))


@lru_cache(maxsize=None)
def _quasi_shuffle_pairs(a: Composition, b: Composition) -> dict[Composition, int]:
    return _interleavings(_quasi_shuffle_pairs, True, a, b)


def quasi_shuffle(a: Composition, b: Composition) -> dict[Composition, int]:
    """The quasi-shuffle (overlapping shuffle) product as a multiset.

    Interleavings where one part of a and one part of b may also merge into
    their sum; these are the structure constants of the monomial basis.

    Kept: QSym's product, the quasi-shuffle the package is named for, beside shuffle for Sh.
    """
    return dict(_quasi_shuffle_pairs(Composition(a), Composition(b)))
