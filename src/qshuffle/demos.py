"""Two small combinatorial Hopf algebras exercising the universal morphisms.

Graphs: basis labels are simple graphs on vertex set {1..n}; the coproduct
sums induced subgraphs over vertex subsets against their complements (both
relabeled order-preservingly), and the no-edges indicator is a character.
Its universal image in QSym is the chromatic symmetric function, whose
principal specialization recovers the chromatic polynomial.

Posets: basis labels are partial orders on {1..n}; the coproduct sums order
ideals against their complements, the constant 1 a character.  Its
universal image counts flags of ideals by layer sizes, and pairing with the
weighted-last-part functional detects a unique minimal element.

Everything stays labeled; the functionals used are isomorphism-invariant,
which the tests check through relabelings.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product

from .compositions import compositions_of
from .elements import GradedElement, MONOMIAL
from .universal import (
    CharacterPowerEvaluator,
    HopfProvider,
    canonical,
    char_to_infchar,
)
from .functionals import Functional


def _transitivity_gaps(rel):
    """Each (a, b, d) with (a, b) and (b, d) in rel but not (a, d); none exactly when rel is transitive."""
    return ((a, b, d) for a, b in rel for c, d in rel if b == c and (a, d) not in rel)


class _LabelledPairs(tuple):
    """A structure on labels 1..n given by pairs of labels; hashable and immutable.

    Stored as (n, sorted pair tuple).  The text form is ``n; u<SEP>v,...``.
    A subclass sets the separator ``_sep`` and the repr prefix ``_prefix``,
    and its ``_normalise`` turns the checked pairs into the stored set.
    """

    __slots__ = ()
    _sep: str
    _prefix: str

    def __new__(cls, count: int, pairs=()):
        if type(count) is not int or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        return super().__new__(cls, (count, tuple(sorted(cls._normalise(cls._checked(count, pairs))))))

    @classmethod
    def _checked(cls, n: int, pairs) -> list[tuple[int, int]]:
        """The pairs as tuples of two different ints in 1..n; ValueError otherwise."""
        out = []
        for u, v in pairs:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"pair ends must be ints, got {u!r}{cls._sep}{v!r}")
            if u == v:
                raise ValueError(f"pair {u}{cls._sep}{v} has equal ends")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"pair {u}{cls._sep}{v} outside 1..{n}")
            out.append((u, v))
        return out

    def induced(self, labels):
        """The structure induced on labels, relabeled order-preservingly to 1..k."""
        kept = sorted(set(labels))
        index = {v: i + 1 for i, v in enumerate(kept)}
        return type(self)(len(kept), [(index[u], index[v]) for u, v in self[1] if u in index and v in index])

    def relabel(self, perm):
        """Apply a permutation of 1..n given as a mapping or sequence."""
        if not isinstance(perm, dict):
            perm = {i + 1: p for i, p in enumerate(perm)}
        return type(self)(self[0], [(perm[u], perm[v]) for u, v in self[1]])

    def disjoint_union(self, other):
        shift = self[0]
        return type(self)(shift + other[0], list(self[1]) + [(u + shift, v + shift) for u, v in other[1]])

    def to_text(self) -> str:
        return f"{self[0]}; " + ",".join(f"{u}{self._sep}{v}" for u, v in self[1])

    @classmethod
    def _parse(cls, text: str) -> tuple[int, list[tuple[int, int]]]:
        """n and the checked pairs of ``n; u<SEP>v,...``; the pair list may be empty."""
        head, _, tail = text.partition(";")
        if not head.strip().isdigit():
            raise ValueError(f"bad count in {text!r}")
        n = int(head)
        pairs = []
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            u, _, v = chunk.partition(cls._sep)
            if not (u.strip().isdigit() and v.strip().isdigit()):
                raise ValueError(f"bad pair {chunk!r} in {text!r}")
            pairs.append((int(u), int(v)))
        return n, cls._checked(n, pairs)

    @classmethod
    def from_text(cls, text: str):
        """Parse the form that to_text writes."""
        return cls(*cls._parse(text))

    def __repr__(self) -> str:
        return f"{self._prefix}<{self.to_text()}>"


def _split_coproduct(
    x: _LabelledPairs, subsets
) -> tuple[tuple[tuple[_LabelledPairs, _LabelledPairs], Fraction], ...]:
    """The coproduct of x: x.induced(S) (x) x.induced(rest) summed over the label subsets S."""
    labels = range(1, x[0] + 1)
    counts = Counter(
        (x.induced(chosen), x.induced([v for v in labels if v not in chosen])) for chosen in subsets
    )
    return tuple((pair, Fraction(n)) for pair, n in counts.items())


def _provider(name: str, basis_of_degree, coproduct, unit_label: _LabelledPairs) -> HopfProvider:
    """The Hopf algebra of one family of labelled structures, graded by the label count n."""
    return HopfProvider(
        name=name,
        basis_of_degree=basis_of_degree,
        coproduct=lambda x: dict(coproduct(x)),
        counit=lambda x: Fraction(1 if x[0] == 0 else 0),
        degree=lambda x: x[0],
        unit_label=unit_label,
    )


def _monomial_image(evaluator: CharacterPowerEvaluator, x: _LabelledPairs) -> GradedElement:
    """The image of x in QSym under the evaluator's character, in the monomial basis."""
    return GradedElement(
        MONOMIAL, {alpha: evaluator.value(x, tuple(alpha)) for alpha in compositions_of(x[0])}
    )


class SmallGraph(_LabelledPairs):
    """A simple graph on vertices 1..n; edges are pairs (u, v) with u < v."""

    __slots__ = ()
    _sep = "-"
    _prefix = "G"

    @staticmethod
    def _normalise(pairs):
        return {(min(u, v), max(u, v)) for u, v in pairs}

    @property
    def vertex_count(self) -> int:
        return self[0]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self[1]


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[SmallGraph, ...]:
    """All 2^binomial(n,2) labeled graphs on 1..n, deterministic order."""
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for mask in range(1 << len(pairs)):
        out.append(SmallGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]))
    return tuple(out)


@lru_cache(maxsize=None)
def _graph_coproduct(g: SmallGraph) -> tuple[tuple[tuple[SmallGraph, SmallGraph], Fraction], ...]:
    vertices = range(1, g.vertex_count + 1)
    return _split_coproduct(g, (c for size in range(len(vertices) + 1) for c in combinations(vertices, size)))


_GRAPH_PROVIDER = _provider("graphs", all_graphs, _graph_coproduct, SmallGraph(0))


def graph_provider() -> HopfProvider:
    return _GRAPH_PROVIDER


def zeta_no_edges(g: SmallGraph) -> Fraction:
    """The edge-free indicator; multiplicative under disjoint union."""
    return Fraction(0 if g.edges else 1)


_chromatic_evaluator = CharacterPowerEvaluator(_GRAPH_PROVIDER, zeta_no_edges)


def chromatic_symmetric(g: SmallGraph) -> GradedElement:
    """The chromatic symmetric function of g in the monomial basis.

    Computed as the universal morphism of the graph algebra with the
    no-edges character; the monomial coefficient at alpha counts proper
    colorings with color class sizes alpha.
    """
    return _monomial_image(_chromatic_evaluator, g)


@lru_cache(maxsize=None)
def _proper_coloring_count(g: SmallGraph, colors: int) -> int:
    n = g.vertex_count
    if n == 0:
        return 1
    if colors == 0:
        return 0
    edges = [(u - 1, v - 1) for u, v in g.edges]
    count = 0
    for assignment in iter_product(range(colors), repeat=n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            count += 1
    return count


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial through the points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        # Lagrange basis polynomial for node i, expanded to coefficients
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            shifted = [Fraction(0)] + basis
            basis = [shifted[k] - xj * (basis[k] if k < len(basis) else 0) for k in range(len(basis) + 1)]
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return coeffs


def chromatic_polynomial(g: SmallGraph) -> list[int]:
    """Chromatic polynomial coefficients, ascending in k.

    Brute-force proper-coloring counts at k = 0..n pinned down by exact
    interpolation; the result is integral.
    """
    n = g.vertex_count
    points = [(k, _proper_coloring_count(g, k)) for k in range(n + 1)]
    coeffs = _interpolate(points)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def format_polynomial(coeffs: list[int], var: str = "k") -> str:
    """Render like ``k^2 - k``; the zero polynomial is ``0``."""
    bits = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            body = str(abs(c))
        else:
            mono = var if power == 1 else f"{var}^{power}"
            body = mono if abs(c) == 1 else f"{abs(c)}{mono}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits) if bits else "0"


@lru_cache(maxsize=None)
def graph_infchar(f: Functional):
    """The infinitesimal character induced from the no-edges character by f."""
    return char_to_infchar(zeta_no_edges, f, _GRAPH_PROVIDER)


def graph_infchar_two_ways(g: SmallGraph, f: Functional) -> tuple[Fraction, Fraction]:
    """The linear chromatic coefficient, twice.

    First from the chromatic polynomial, then as the induced infinitesimal
    character of the graph algebra; the two agree for every normalized f.
    """
    coeffs = chromatic_polynomial(g)
    linear = Fraction(coeffs[1]) if len(coeffs) > 1 else Fraction(0)
    return linear, graph_infchar(f)(g)


# ---------------------------------------------------------------------------
# posets


class SmallPoset(_LabelledPairs):
    """A partial order on elements 1..n, stored as its strict relation.

    Pairs (a, b) mean a is strictly below b; the stored relation must be
    transitively closed and antisymmetric (checked on construction).
    """

    __slots__ = ()
    _sep = "<"
    _prefix = "P"

    @staticmethod
    def _normalise(pairs):
        rel = set(pairs)
        for a, b in rel:
            if (b, a) in rel:
                raise ValueError(f"antisymmetry violated at {a},{b}")
        for a, b, d in _transitivity_gaps(rel):
            raise ValueError(f"relation not transitively closed: {a}<{b}<{d}")
        return rel

    @property
    def element_count(self) -> int:
        return self[0]

    @property
    def strict(self) -> tuple[tuple[int, int], ...]:
        return self[1]

    @classmethod
    def from_cover_text(cls, text: str) -> "SmallPoset":
        """Parse ``n; u<v,...`` (cover or any generating pairs; closure taken)."""
        n, pairs = cls._parse(text)
        rel = set(pairs)
        while missing := {(a, d) for a, _, d in _transitivity_gaps(rel)}:
            rel |= missing
        return cls(n, rel)

    def below(self, b: int) -> set[int]:
        return {a for a, bb in self.strict if bb == b}

    def order_ideals(self) -> list[tuple[int, ...]]:
        """All downward closed subsets, as sorted tuples."""
        n = self.element_count
        out = []
        elements = list(range(1, n + 1))
        for mask in range(1 << n):
            chosen = {elements[i] for i in range(n) if mask >> i & 1}
            if all(self.below(b) <= chosen for b in chosen):
                out.append(tuple(sorted(chosen)))
        return out

    def minimal_elements(self) -> list[int]:
        return [v for v in range(1, self.element_count + 1) if not self.below(v)]

    def has_unique_minimal(self) -> bool:
        return len(self.minimal_elements()) == 1


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[SmallPoset, ...]:
    """All labeled posets on 1..n (19 for n=3, 219 for n=4, 4231 for n=5)."""
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for states in iter_product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (a, b), s in zip(pairs, states):
            if s == 1:
                rel.add((a, b))
            elif s == 2:
                rel.add((b, a))
        if next(_transitivity_gaps(rel), None) is None:
            out.append(SmallPoset(n, rel))
    return tuple(out)


@lru_cache(maxsize=None)
def _poset_coproduct(p: SmallPoset) -> tuple[tuple[tuple[SmallPoset, SmallPoset], Fraction], ...]:
    return _split_coproduct(p, p.order_ideals())


_POSET_PROVIDER = _provider("posets", all_posets, _poset_coproduct, SmallPoset(0))


def poset_provider() -> HopfProvider:
    return _POSET_PROVIDER


def zeta_ones(p: SmallPoset) -> Fraction:
    """The constant character on posets."""
    return Fraction(1)


def xi_unique_min(p: SmallPoset) -> Fraction:
    """Indicator of a unique minimal element; an infinitesimal character."""
    return Fraction(1 if p.has_unique_minimal() else 0)


_kp_evaluator = CharacterPowerEvaluator(_POSET_PROVIDER, zeta_ones)


def kp_generating_function(p: SmallPoset) -> GradedElement:
    """The ideal-flag generating function of p in the monomial basis.

    The coefficient at alpha counts flags of order ideals with layer sizes
    alpha; this is the universal image of the constant character.
    """
    return _monomial_image(_kp_evaluator, p)


_eta = canonical("eta")


def eta_check(p: SmallPoset) -> tuple[Fraction, Fraction]:
    """Pair the flag generating function with eta, against the unique-minimal indicator."""
    return _eta.of_element(kp_generating_function(p)), xi_unique_min(p)
