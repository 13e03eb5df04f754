"""Shuffle characters, the f <-> g triangular calculus, and power sum bases.

A shuffle character is a rational function f on compositions with f(empty) = 1
and f(alpha) f(beta) equal to the multiplicity-weighted sum of f over the
shuffles of alpha and beta.  Each nonsingular f (f((n)) != 0 for all n)
determines a basis

    X_alpha = sum over coarsenings beta of f(alpha, beta) M_beta

where f(alpha, beta) multiplies f over the refinement blocks, and a dual
function g on compositions through the triangular system

    sum over coarsenings beta of f(alpha, beta) g(beta) = [length(alpha) = 1].

When f is normalized (f((n)) = 1), scaling by the automorphism count gives
the quasisymmetric power sums P_alpha = aut(alpha) X_alpha, which multiply
and comultiply like classical power sums with z-value scalings and sum to
p_lambda over rearrangements.

Constructions: prefix-sum characters f(alpha) = product of 1/(tau-prefix
sums), and ordered-partition characters that vanish unless the part classes
appear in a prescribed order and factor through per-class characters.  The
five stock bases (type1, type2, even-odd, combinatorial, reverse-
combinatorial) are instances.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd
from typing import Callable, Hashable, NamedTuple

from .compositions import (
    Composition,
    coarsening_products,
    check_length,
    coarsenings,  # noqa: F401  (perfbench/tests/test_tracer.py looks it up in this module)
    is_numeral,
    rational_sum,
    shown,
    shown_number,
    stats,
)
from .elements import GradedElement, MONOMIAL, WORD, coarsening_sum, exact_value, parse_rational
from .errors import NotNormalized, PartOutOfRange, SingularCharacter, ZeroPrefixSum
from .functionals import Functional, require_functional


@lru_cache(maxsize=None, typed=True)
def single(n: int) -> Composition:
    """The one-part composition (n), one shared object per n; typed, so True is refused, not read as 1."""
    return Composition((n,))


def normalize(f: Functional) -> Functional:
    """Rescale so every single part gets value 1.

    The rescaled character multiplies f(alpha) by 1/f((a_i)) for each part;
    SingularCharacter, when a value is read, if some f((a_i)) vanishes.
    """
    require_functional(f, "normalize")

    def value(comp: Composition) -> Fraction:
        num, den = f(comp).as_integer_ratio()
        diag_num, diag_den = _diagonal(f, comp)
        return Fraction(num * diag_den, den * diag_num)

    label = f"normalized {f.name}" if f.name else None
    return Functional(1, value, name=label)


def require_normalized(f: Functional, max_degree: int) -> None:
    """NotNormalized unless f((n)) = 1 for every n from 1 to max_degree."""
    for n in range(1, max_degree + 1):
        value = f(single(n))
        if value != 1:
            raise NotNormalized(f"f(({n})) = {shown_number(value)}, expected 1")


def _diagonal(f: Functional, comp: Composition) -> tuple[int, int]:
    """f(alpha, alpha), the product of single-part values, as an unreduced int ratio (num, den).

    SingularCharacter at the first part whose value is zero.
    """
    num = den = 1
    for p in comp:
        n, d = f(single(p)).as_integer_ratio()
        if not n:
            raise SingularCharacter(f"f(({shown_number(p)})) = 0")
        num *= n
        den *= d
    return num, den


def _triangular_dual(h: Functional, value_at_empty: int, letter: str) -> Functional:
    """Solve sum over coarsenings beta of h(alpha, beta) k(beta) = [length(alpha) = 1] for k.

    Symmetric in f and g: h = f gives g (value 0 at empty), h = g gives f
    (value 1).  k((n)) = 1/h((n)); longer compositions come from strictly
    coarser, shorter ones, walked with k as the scale (0 on alpha itself,
    the unknown).  Lazy and memoized.
    """
    k: Functional | None = None

    def value(alpha: Composition) -> Fraction:
        diag_num, diag_den = _diagonal(h, alpha)
        if alpha.length == 1:
            return Fraction(diag_den, diag_num)
        terms = coarsening_products(h, alpha, lambda beta: 0 if len(beta) == len(alpha) else k(beta))
        num, den = rational_sum(terms).as_integer_ratio()
        return Fraction(-num * diag_den, den * diag_num)

    label = f"{letter}[{h.name}]" if h.name else None
    k = Functional(value_at_empty, value, name=label)
    return k


def f_to_g(f: Functional) -> Functional:
    """The dual g of a shuffle character f: an infinitesimal character (value 0 at empty).

    For the stock type1 and type2 instances themselves (f is builtin(name)),
    the one shared, memoized g of their published closed form, kept in the
    stock registry: (-1)^(l-1) lastpart/size for type1 and (-1)^(l-1)/l for
    type2.  Every other f, equal-valued specs such as prefix-sum:1 among
    them, by the triangular solve.
    """
    require_functional(f, "f_to_g")
    name = f.name
    if name in _BUILTINS and _BUILTINS[name][1] is not None and f is builtin(name):
        return _closed_form_dual(name)
    return _triangular_dual(f, 0, "g")


@lru_cache(maxsize=None)
def _closed_form_dual(name: str) -> Functional:
    return Functional(0, _BUILTINS[name][1], name=f"g[{name}]")


def g_to_f(g: Functional) -> Functional:
    """The character f whose dual is g: the same triangular system, roles switched."""
    require_functional(g, "g_to_f")
    return _triangular_dual(g, 1, "f")


def basis_contract(g: Functional, alpha) -> dict[Composition, Fraction]:
    """Coordinates of M_alpha over the X basis: coarsenings weighted by g(alpha, .), zeros left out."""
    require_functional(g, "basis_contract")
    return coarsening_sum(WORD, g, alpha).terms


def basis_expand(f: Functional, alpha) -> GradedElement:
    """X_alpha in the monomial basis: coarsenings weighted by f(alpha, .)."""
    require_functional(f, "basis_expand")
    return coarsening_sum(MONOMIAL, f, alpha)


def qps_expand(f: Functional, alpha) -> GradedElement:
    """The quasisymmetric power sum P_alpha = aut(alpha) X_alpha, monomial basis.

    Requires f normalized on single parts up to |alpha|.
    """
    require_functional(f, "qps_expand")
    alpha = Composition(alpha)
    require_normalized(f, alpha.size)
    return coarsening_sum(MONOMIAL, f, alpha, stats(alpha).aut_count)


# ---------------------------------------------------------------------------
# constructions


def prefix_sum_character(tau: Callable[[int], Fraction], name: str | None = None) -> Functional:
    """f(alpha) = product over i of 1/(tau(a_1) + ... + tau(a_i)).

    Each tau(p) is read through elements.exact_value, so a float or text
    raises TypeError naming p; ZeroPrefixSum if a prefix sum vanishes.
    """

    def value(comp: Composition) -> Fraction:
        # the product of the reciprocal prefix sums, kept as an unreduced int ratio num/den;
        # the running sum is run/run_den, reduced whenever a new denominator joins it
        num = den = 1
        run, run_den = 0, 1
        for i, p in enumerate(comp):
            t, t_den = exact_value(tau(p), p).as_integer_ratio()
            if t_den == run_den:
                run += t
            else:
                run, run_den = run * t_den + t * run_den, run_den * t_den
                common = gcd(run, run_den)
                run, run_den = run // common, run_den // common
            if run == 0:
                raise ZeroPrefixSum(f"prefix {shown(Composition(comp[: i + 1]))} has tau-sum 0")
            num *= run_den
            den *= run
        return Fraction(num, den)

    return Functional(1, value, name=name)


class OrderedPartitionSpec(NamedTuple):
    """An ordered set partition of the positive integers, as decision procedures: a read-only record.

    classify maps a part to its class identifier; class_key realizes the
    strict total order on classes (distinct classes must get distinct,
    comparable keys); character_for hands out the per-class character.  A
    max_part of None means unbounded; otherwise parts above the bound raise
    PartOutOfRange when touched.
    """

    classify: Callable[[int], Hashable]
    class_key: Callable[[Hashable], object]
    character_for: Callable[[Hashable], Functional]
    max_part: int | None = None


def ordered_partition_character(spec: OrderedPartitionSpec, name: str | None = None) -> Functional:
    """f that vanishes off class-respecting compositions and factors per class.

    A composition respects the ordered partition when its class sequence is
    weakly increasing; the value is then the product of the class characters
    on the (necessarily contiguous) class subsequences.
    """

    def value(comp: Composition) -> Fraction:
        if spec.max_part is not None:
            for p in comp:
                if p > spec.max_part:
                    raise PartOutOfRange(f"part {shown_number(p)} exceeds declared bound {spec.max_part}")
        runs = [
            (cls, Composition(p for _, p in items))
            for cls, items in groupby(((spec.classify(p), p) for p in comp), key=lambda t: t[0])
        ]
        keys = [spec.class_key(cls) for cls, _ in runs]
        for a, b in zip(keys, keys[1:]):
            if not a < b:
                return Fraction(0)
        out = Fraction(1)
        for cls, block in runs:
            out *= spec.character_for(cls)(block)
        return out

    return Functional(1, value, name=name)


def even_odd_character(f_even: Functional | None = None) -> Functional:
    """Evens before odds; 1/length! on the odd block, f_even on the even block.

    The stock even-odd basis takes f_even = 1/length! as well, giving
    f(alpha) = 1/(evens(alpha)! odds(alpha)!) on even-then-odd compositions
    and 0 elsewhere.
    """
    factorial_f = builtin("type2")
    per_class = {"even": factorial_f if f_even is None else f_even, "odd": factorial_f}
    spec = OrderedPartitionSpec(
        classify=lambda p: "even" if p % 2 == 0 else "odd",
        class_key=lambda cls: 0 if cls == "even" else 1,
        character_for=per_class.__getitem__,
    )
    return ordered_partition_character(spec, name="even-odd")


def _singleton_order_character(key: Callable[[int], object], name: str, max_part: int | None = None) -> Functional:
    factorial_f = builtin("type2")
    spec = OrderedPartitionSpec(
        classify=lambda p: p,
        class_key=key,
        character_for=lambda cls: factorial_f,
        max_part=max_part,
    )
    return ordered_partition_character(spec, name=name)


def order_basis_character(order) -> Functional:
    """1/aut on compositions weakly increasing under the listed order, else 0.

    ``order`` lists the integers 1..k smallest-first under the intended
    total order, as ints or as text in ASCII digits; parts above k raise
    PartOutOfRange.
    """
    order = list(order)
    for p in order:
        if type(p) is not int and not is_numeral(p):
            raise ValueError(f"order entries must be ints or ASCII digits, got {shown(p)}")
    order = [int(p) for p in order]
    k = len(order)
    if sorted(order) != list(range(1, k + 1)):
        raise ValueError(f"order must be a permutation of 1..{k}, got {shown(order)}")
    position = {p: i for i, p in enumerate(order)}
    return _singleton_order_character(
        position.__getitem__,
        name="order:" + ",".join(str(p) for p in order),
        max_part=k,
    )


def _type1() -> Functional:
    return Functional(1, normalize(prefix_sum_character(lambda n: Fraction(n), name="type1-raw")), name="type1")


def _type1_g(alpha: Composition) -> Fraction:
    """(-1)^(l-1) lastpart/size on nonempty alpha: g of type1, closed form."""
    return Fraction(-alpha[-1] if len(alpha) % 2 == 0 else alpha[-1], alpha.size)


def _type2_g(alpha: Composition) -> Fraction:
    """(-1)^(l-1)/l on nonempty alpha: g of type2, closed form."""
    return Fraction(-1 if len(alpha) % 2 == 0 else 1, len(alpha))


# the stock shuffle characters, by registry name: the constructor, run on first use,
# and the published closed form of g on nonempty compositions, where one holds at
# every size (the quasisymmetric power sums of types 1 and 2, Ballantine, Daugherty,
# Hicks, Mason and Niese 2020), else None
_BUILTINS = {
    "type1": (_type1, _type1_g),
    "type2": (lambda: prefix_sum_character(lambda n: Fraction(1), name="type2"), _type2_g),
    "even-odd": (even_odd_character, None),
    "combinatorial": (lambda: _singleton_order_character(lambda p: -p, name="combinatorial"), None),
    "reverse-combinatorial": (lambda: _singleton_order_character(lambda p: p, name="reverse-combinatorial"), None),
}
BUILTIN_NAMES = tuple(_BUILTINS)


@lru_cache(maxsize=None)
def builtin(name: str) -> Functional:
    """The five stock shuffle characters, by their registry names; one instance per name."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown basis {shown(name)}; known: {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name][0]()


def resolve_basis(spec_text: str) -> Functional:
    """Registry lookup for CLI basis names.

    Accepts the five stock names, ``prefix-sum:<tau values>`` with a comma
    list of exact rationals tau(1..k), and ``order:<permutation>`` listing
    1..k smallest-first.
    """
    if spec_text in BUILTIN_NAMES:
        return builtin(spec_text)
    if spec_text.startswith("prefix-sum:"):
        body = spec_text[len("prefix-sum:") :]
        if not body.strip():
            raise ValueError("prefix-sum: needs at least one tau value")
        values = list(map(parse_rational, map(str.strip, body.split(","))))

        def tau(n: int, table=tuple(values)) -> Fraction:
            if n > len(table):
                raise PartOutOfRange(f"part {shown_number(n)} exceeds declared tau bound {len(table)}")
            return table[n - 1]

        return prefix_sum_character(tau, name=spec_text)
    if spec_text.startswith("order:"):
        entries = spec_text[len("order:") :].split(",")
        return order_basis_character([check_length(e.strip(), "order entries must be short") for e in entries])
    raise ValueError(
        f"unknown basis {shown(spec_text)}; known: {', '.join(BUILTIN_NAMES)}, "
        "prefix-sum:<tau values>, order:<permutation>"
    )
