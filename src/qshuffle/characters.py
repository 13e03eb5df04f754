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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Hashable

from .compositions import (
    Composition,
    block_product,
    coarsening_splits,
    coarsenings,  # noqa: F401  (perfbench/tests/test_tracer.py looks it up in this module)
    compositions_of,
    compositions_up_to,
    deconcatenations,
    pairs_up_to,
    partitions_of,
    product_sum,
    rearrangements,
    shuffle,
    stats,
)
from .elements import GradedElement, MONOMIAL, TensorElement, coproduct, parse_rational, power_sum, product
from .errors import (
    EvenSizeUnsupported,
    NotNormalized,
    PartOutOfRange,
    SingularCharacter,
    ZeroPrefixSum,
)
from .functionals import Functional
from .report import VerifyReport, first_witness


def single(n: int) -> Composition:
    return Composition((n,))


def normalize(f: Functional, max_degree: int | None = None) -> Functional:
    """Rescale so every single part gets value 1.

    The rescaled character multiplies f(alpha) by 1/f((a_i)) for each part;
    SingularCharacter if some f((n)) vanishes.  A max_degree triggers an
    eager nonsingularity sweep over n up to it.
    """

    def value(comp: Composition) -> Fraction:
        return f(comp) / _diagonal(f, comp)

    if max_degree is not None:
        for n in range(1, max_degree + 1):
            _diagonal(f, single(n))
    label = f"normalized {f.name}" if f.name else None
    return Functional(1, value, name=label)


def _require_normalized(f: Functional, max_degree: int) -> None:
    for n in range(1, max_degree + 1):
        if f(single(n)) != 1:
            raise NotNormalized(f"f(({n})) = {f(single(n))}, expected 1")


def _diagonal(f: Functional, comp: Composition) -> Fraction:
    """f(alpha, alpha) = product of single-part values; SingularCharacter on zero."""
    out = Fraction(1)
    for p in comp:
        fp = f(single(p))
        if fp == 0:
            raise SingularCharacter(f"f(({p})) = 0")
        out *= fp
    return out


def _triangular_dual(h: Functional, value_at_empty: int, letter: str) -> Functional:
    """Solve sum over coarsenings beta of h(alpha, beta) k(beta) = [length(alpha) = 1] for k.

    Symmetric in f and g: h = f gives g (value 0 at empty), h = g gives f
    (value 1).  k((n)) = 1/h((n)); longer compositions come from strictly
    coarser, shorter ones, summed by ``product_sum`` (which skips the
    coarsenings where k vanishes).  Lazy and memoized.
    """
    k: Functional | None = None

    def value(alpha: Composition) -> Fraction:
        diag = _diagonal(h, alpha)
        if alpha.length == 1:
            return 1 / diag
        terms = ((k(beta), blocks) for beta, blocks in coarsening_splits(alpha) if beta != alpha)
        return -product_sum(h, terms) / diag

    label = f"{letter}[{h.name}]" if h.name else None
    k = Functional(value_at_empty, value, name=label)
    return k


def f_to_g(f: Functional) -> Functional:
    """The dual g of a shuffle character f: an infinitesimal character (value 0 at empty)."""
    return _triangular_dual(f, 0, "g")


def g_to_f(g: Functional) -> Functional:
    """The character f whose dual is g: the same triangular system, roles switched."""
    return _triangular_dual(g, 1, "f")


def basis_contract(g: Functional, alpha) -> dict[Composition, Fraction]:
    """Coordinates of M_alpha over the X basis: coarsenings weighted by g(alpha, .), zeros left out."""
    alpha = Composition(alpha)
    out = {}
    for beta, blocks in coarsening_splits(alpha):
        coef = block_product(g, blocks)
        if coef != 0:
            out[beta] = coef
    return out


def basis_expand(f: Functional, alpha) -> GradedElement:
    """X_alpha in the monomial basis: coarsenings weighted by f(alpha, .)."""
    return GradedElement(MONOMIAL, basis_contract(f, alpha))


def qps_expand(f: Functional, alpha) -> GradedElement:
    """The quasisymmetric power sum P_alpha = aut(alpha) X_alpha, monomial basis.

    Requires f normalized on single parts up to |alpha|.
    """
    alpha = Composition(alpha)
    _require_normalized(f, alpha.size)
    return basis_expand(f, alpha).scaled(stats(alpha).aut_count)


def verify_qps(
    f: Functional, max_degree: int, partition_degree: int | None = None
) -> VerifyReport:
    """Check the three power sum axioms exhaustively.

    (i) products against z-scaled shuffles for |alpha|+|beta| <= max_degree,
    (ii) deconcatenation coproducts with z-value scalings for |alpha| <=
    max_degree, (iii) rearrangement classes summing to p_lambda for
    partitions of n <= partition_degree (defaults to max_degree).
    """
    if partition_degree is None:
        partition_degree = max_degree
    label = f.name or "f"
    report = VerifyReport(f"qps axioms for {label}")
    # P_alpha for each composition once; the memo goes when the sweep ends
    qps = lru_cache(maxsize=None)(partial(qps_expand, f))

    def product_rule(pair) -> str | None:
        alpha, beta = pair
        lhs = product(qps(alpha), qps(beta))
        scale = Fraction(stats(alpha).z_value * stats(beta).z_value, stats(alpha + beta).z_value)
        shuffled = (
            (comp, coef * mult)
            for gamma, mult in shuffle(alpha, beta).items()
            for comp, coef in qps(gamma).terms.items()
        )
        if lhs != GradedElement(MONOMIAL, shuffled).scaled(scale):
            return f"alpha={alpha}, beta={beta}"
        return None

    def coproduct_rule(alpha: Composition) -> str | None:
        z_alpha = stats(alpha).z_value
        lhs = coproduct(qps(alpha))
        splits = [
            (left, right, Fraction(z_alpha, stats(left).z_value * stats(right).z_value))
            for left, right in deconcatenations(alpha)
        ]
        rhs = (
            ((cl, cr), scale * vl * vr)
            for left, right, scale in splits
            for cl, vl in qps(left).terms.items()
            for cr, vr in qps(right).terms.items()
        )
        if lhs != TensorElement(MONOMIAL, rhs):
            return f"alpha={alpha}"
        return None

    def refinement_rule(lam: Composition) -> str | None:
        # the constructor sums the terms of equal compositions
        total = GradedElement(
            MONOMIAL, (term for alpha in rearrangements(lam) for term in qps(alpha).terms.items())
        )
        return None if total == power_sum(lam) else f"lambda={lam}"

    report.sweep(f"product rule through degree {max_degree}", pairs_up_to(max_degree), product_rule)
    report.sweep(
        f"coproduct rule through degree {max_degree}", compositions_up_to(max_degree), coproduct_rule
    )
    partitions = (lam for n in range(1, partition_degree + 1) for lam in partitions_of(n))
    report.sweep(f"power sum refinement through degree {partition_degree}", partitions, refinement_rule)
    return report


# ---------------------------------------------------------------------------
# constructions


def prefix_sum_character(tau: Callable[[int], Fraction], name: str | None = None) -> Functional:
    """f(alpha) = product over i of 1/(tau(a_1) + ... + tau(a_i)).

    Raises ZeroPrefixSum if a prefix sum vanishes at evaluation time.
    """

    def value(comp: Composition) -> Fraction:
        out = Fraction(1)
        running = Fraction(0)
        for i, p in enumerate(comp):
            running += Fraction(tau(p))
            if running == 0:
                raise ZeroPrefixSum(f"prefix {Composition(comp[: i + 1])} has tau-sum 0")
            out /= running
        return out

    return Functional(1, value, name=name)


@dataclass(frozen=True)
class OrderedPartitionSpec:
    """An ordered set partition of the positive integers, as decision procedures.

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
                    raise PartOutOfRange(f"part {p} exceeds declared bound {spec.max_part}")
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


def _factorial_character() -> Functional:
    return prefix_sum_character(lambda n: Fraction(1), name="type2")


def even_odd_character(f_even: Functional | None = None, name: str | None = None) -> Functional:
    """Evens before odds; 1/length! on the odd block, f_even on the even block.

    The stock even-odd basis takes f_even = 1/length! as well, giving
    f(alpha) = 1/(evens(alpha)! odds(alpha)!) on even-then-odd compositions
    and 0 elsewhere.
    """
    factorial_f = _factorial_character()
    if f_even is None:
        f_even = factorial_f
    per_class = {"even": f_even, "odd": factorial_f}
    spec = OrderedPartitionSpec(
        classify=lambda p: "even" if p % 2 == 0 else "odd",
        class_key=lambda cls: 0 if cls == "even" else 1,
        character_for=per_class.__getitem__,
    )
    return ordered_partition_character(spec, name=name or "even-odd")


def _singleton_order_character(key: Callable[[int], object], name: str, max_part: int | None = None) -> Functional:
    factorial_f = _factorial_character()
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
    total order; parts above k raise PartOutOfRange.
    """
    order = [int(p) for p in order]
    k = len(order)
    if sorted(order) != list(range(1, k + 1)):
        raise ValueError(f"order must be a permutation of 1..{k}, got {order}")
    position = {p: i for i, p in enumerate(order)}
    return _singleton_order_character(
        position.__getitem__,
        name="order:" + ",".join(str(p) for p in order),
        max_part=k,
    )


BUILTIN_NAMES = ("type1", "type2", "even-odd", "combinatorial", "reverse-combinatorial")
_builtin_cache: dict[str, Functional] = {}


def builtin(name: str) -> Functional:
    """The five stock shuffle characters, by their registry names."""
    cached = _builtin_cache.get(name)
    if cached is not None:
        return cached
    if name == "type1":
        f = normalize(prefix_sum_character(lambda n: Fraction(n), name="type1-raw"))
        f.name = "type1"
    elif name == "type2":
        f = _factorial_character()
    elif name == "even-odd":
        f = even_odd_character()
    elif name == "combinatorial":
        f = _singleton_order_character(lambda p: -p, name="combinatorial")
    elif name == "reverse-combinatorial":
        f = _singleton_order_character(lambda p: p, name="reverse-combinatorial")
    else:
        raise ValueError(f"unknown basis {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    _builtin_cache[name] = f
    return f


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
        values = [parse_rational(chunk.strip()) for chunk in body.split(",") if chunk.strip()]
        if not values:
            raise ValueError("prefix-sum: needs at least one tau value")

        def tau(n: int, table=tuple(values)) -> Fraction:
            if n > len(table):
                raise PartOutOfRange(f"part {n} exceeds declared tau bound {len(table)}")
            return table[n - 1]

        return prefix_sum_character(tau, name=spec_text)
    if spec_text.startswith("order:"):
        body = spec_text[len("order:") :]
        return order_basis_character([chunk.strip() for chunk in body.split(",") if chunk.strip()])
    raise ValueError(
        f"unknown basis {spec_text!r}; known: {', '.join(BUILTIN_NAMES)}, "
        "prefix-sum:<tau values>, order:<permutation>"
    )


CLOSED_FORM_G_NAMES = ("type1", "type2", "even-odd")


def closed_form_g(name: str, alpha) -> Fraction:
    """Published closed forms for g on the stock bases.

    type1: (-1)^(l-1) lastpart/size; type2: (-1)^(l-1)/l; even-odd at odd
    sizes only: (-1)^(l-1)/odds if the last part is odd, else 0 (even sizes
    raise EvenSizeUnsupported; no closed form is available there).
    """
    alpha = Composition(alpha)
    st = stats(alpha)
    sign = -1 if (st.length - 1) % 2 else 1
    if name == "type1":
        if not alpha:
            return Fraction(0)
        return sign * Fraction(st.last_part, st.size)
    if name == "type2":
        if not alpha:
            return Fraction(0)
        return Fraction(sign, st.length)
    if name == "even-odd":
        if st.size % 2 == 0:
            raise EvenSizeUnsupported(f"|{alpha}| = {st.size} is even")
        if st.last_part % 2 == 0:
            return Fraction(0)
        return Fraction(sign, st.odd_count)
    raise ValueError(f"no closed form registered for {name!r}; known: {', '.join(CLOSED_FORM_G_NAMES)}")


@dataclass(frozen=True)
class IntegralityWitness:
    alpha: Composition
    beta: Composition
    value: Fraction

    def __str__(self) -> str:
        return f"aut({self.alpha}) f({self.alpha}, {self.beta}) = {self.value}"


def check_integral_nonneg(
    f: Functional, max_degree: int
) -> tuple[bool, IntegralityWitness | None]:
    """Do all monomial coefficients of the P_alpha lie in the nonnegative integers?

    Sweeps aut(alpha) f(alpha, beta) over refinement pairs up to max_degree
    (test A) and, independently, the single-block values aut(alpha) f(alpha)
    (test B, which is equivalent); both are run and must agree.  Returns the
    first test-A witness in canonical order.
    """
    _require_normalized(f, max_degree)

    def is_nonneg_integer(x: Fraction) -> bool:
        return x.denominator == 1 and x >= 0

    def refinement_witness(alpha: Composition) -> IntegralityWitness | None:
        aut = stats(alpha).aut_count

        def witness_of(split) -> IntegralityWitness | None:
            beta, blocks = split
            value = aut * block_product(f, blocks)
            if not is_nonneg_integer(value):
                return IntegralityWitness(alpha, beta, value)
            return None

        return first_witness(coarsening_splits(alpha), witness_of)

    witness = first_witness(compositions_up_to(max_degree)[1:], refinement_witness)

    single_block_ok = True
    for n in range(1, max_degree + 1):
        for alpha in compositions_of(n):
            if not is_nonneg_integer(stats(alpha).aut_count * f(alpha)):
                single_block_ok = False
                break
        if not single_block_ok:
            break

    if (witness is None) != single_block_ok:
        raise AssertionError("refinement-pair and single-block integrality tests disagree")
    return witness is None, witness
