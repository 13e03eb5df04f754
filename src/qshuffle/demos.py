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


class SmallGraph(tuple):
    """A simple graph on vertices 1..n, hashable and immutable.

    Stored as (n, sorted edge tuple); edges are pairs (u, v) with u < v.
    """

    __slots__ = ()

    def __new__(cls, vertex_count: int, edges=()):
        n = int(vertex_count)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        cleaned = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {u}-{v} outside 1..{n}")
            cleaned.add((min(u, v), max(u, v)))
        return super().__new__(cls, (n, tuple(sorted(cleaned))))

    @property
    def vertex_count(self) -> int:
        return self[0]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self[1]

    def induced(self, vertices) -> "SmallGraph":
        """Induced subgraph, relabeled order-preservingly to 1..k."""
        kept = sorted(set(vertices))
        index = {v: i + 1 for i, v in enumerate(kept)}
        edges = [(index[u], index[v]) for u, v in self.edges if u in index and v in index]
        return SmallGraph(len(kept), edges)

    def relabel(self, perm) -> "SmallGraph":
        """Apply a permutation of 1..n given as a mapping or sequence."""
        if not isinstance(perm, dict):
            perm = {i + 1: p for i, p in enumerate(perm)}
        return SmallGraph(self.vertex_count, [(perm[u], perm[v]) for u, v in self.edges])

    def disjoint_union(self, other: "SmallGraph") -> "SmallGraph":
        shift = self.vertex_count
        edges = list(self.edges) + [(u + shift, v + shift) for u, v in other.edges]
        return SmallGraph(shift + other.vertex_count, edges)

    def to_text(self) -> str:
        return f"{self.vertex_count}; " + ",".join(f"{u}-{v}" for u, v in self.edges)

    @classmethod
    def from_text(cls, text: str) -> "SmallGraph":
        """Parse ``n; u-v,u-v,...``; the edge list may be empty."""
        head, _, tail = text.partition(";")
        if not head.strip().isdigit():
            raise ValueError(f"bad vertex count in {text!r}")
        n = int(head.strip())
        edges = []
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            u, _, v = chunk.partition("-")
            if not (u.strip().isdigit() and v.strip().isdigit()):
                raise ValueError(f"bad edge {chunk!r} in {text!r}")
            edges.append((int(u), int(v)))
        return cls(n, edges)

    def __repr__(self) -> str:
        return f"G<{self.to_text()}>"


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
    n = g.vertex_count
    acc: dict[tuple[SmallGraph, SmallGraph], Fraction] = {}
    vertices = range(1, n + 1)
    for size in range(n + 1):
        for chosen in combinations(vertices, size):
            rest = [v for v in vertices if v not in chosen]
            key = (g.induced(chosen), g.induced(rest))
            acc[key] = acc.get(key, Fraction(0)) + 1
    return tuple(acc.items())


_GRAPH_PROVIDER = HopfProvider(
    name="graphs",
    basis_of_degree=lambda n: all_graphs(n),
    coproduct=lambda g: dict(_graph_coproduct(g)),
    counit=lambda g: Fraction(1 if g.vertex_count == 0 else 0),
    degree=lambda g: g.vertex_count,
    unit_label=SmallGraph(0),
)


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
    n = g.vertex_count
    return GradedElement(
        MONOMIAL,
        {alpha: _chromatic_evaluator.value(g, tuple(alpha)) for alpha in compositions_of(n)},
    )


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


class SmallPoset(tuple):
    """A partial order on elements 1..n, stored as its strict relation.

    Pairs (a, b) mean a is strictly below b; the stored relation must be
    transitively closed and antisymmetric (checked on construction).
    """

    __slots__ = ()

    def __new__(cls, element_count: int, strict=()):
        n = int(element_count)
        if n < 0:
            raise ValueError("element count must be >= 0")
        rel = set()
        for a, b in strict:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"reflexive pair at {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"pair {a}<{b} outside 1..{n}")
            rel.add((a, b))
        for a, b in rel:
            if (b, a) in rel:
                raise ValueError(f"antisymmetry violated at {a},{b}")
        for a, b in rel:
            for c, d in rel:
                if b == c and (a, d) not in rel:
                    raise ValueError(f"relation not transitively closed: {a}<{b}<{d}")
        return super().__new__(cls, (n, tuple(sorted(rel))))

    @property
    def element_count(self) -> int:
        return self[0]

    @property
    def strict(self) -> tuple[tuple[int, int], ...]:
        return self[1]

    @classmethod
    def from_cover_text(cls, text: str) -> "SmallPoset":
        """Parse ``n; u<v,...`` (cover or any generating pairs; closure taken)."""
        head, _, tail = text.partition(";")
        if not head.strip().isdigit():
            raise ValueError(f"bad element count in {text!r}")
        n = int(head.strip())
        pairs = set()
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            a, _, b = chunk.partition("<")
            if not (a.strip().isdigit() and b.strip().isdigit()):
                raise ValueError(f"bad relation {chunk!r} in {text!r}")
            pairs.add((int(a.strip()), int(b.strip())))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for a, b in list(pairs):
                for c, d in list(pairs):
                    if b == c and (a, d) not in pairs:
                        pairs.add((a, d))
                        changed = True
        return cls(n, pairs)

    def to_text(self) -> str:
        return f"{self.element_count}; " + ",".join(f"{a}<{b}" for a, b in self.strict)

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

    def induced(self, elements) -> "SmallPoset":
        kept = sorted(set(elements))
        index = {v: i + 1 for i, v in enumerate(kept)}
        rel = [(index[a], index[b]) for a, b in self.strict if a in index and b in index]
        return SmallPoset(len(kept), rel)

    def relabel(self, perm) -> "SmallPoset":
        if not isinstance(perm, dict):
            perm = {i + 1: p for i, p in enumerate(perm)}
        return SmallPoset(self.element_count, [(perm[a], perm[b]) for a, b in self.strict])

    def disjoint_union(self, other: "SmallPoset") -> "SmallPoset":
        shift = self.element_count
        rel = list(self.strict) + [(a + shift, b + shift) for a, b in other.strict]
        return SmallPoset(shift + other.element_count, rel)

    def minimal_elements(self) -> list[int]:
        return [v for v in range(1, self.element_count + 1) if not self.below(v)]

    def has_unique_minimal(self) -> bool:
        return len(self.minimal_elements()) == 1

    def __repr__(self) -> str:
        return f"P<{self.to_text()}>"


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
        transitive = True
        for a, b in rel:
            for c, d in rel:
                if b == c and (a, d) not in rel:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            out.append(SmallPoset(n, rel))
    return tuple(out)


@lru_cache(maxsize=None)
def _poset_coproduct(p: SmallPoset) -> tuple[tuple[tuple[SmallPoset, SmallPoset], Fraction], ...]:
    acc: dict[tuple[SmallPoset, SmallPoset], Fraction] = {}
    everything = range(1, p.element_count + 1)
    for ideal in p.order_ideals():
        rest = [v for v in everything if v not in ideal]
        key = (p.induced(ideal), p.induced(rest))
        acc[key] = acc.get(key, Fraction(0)) + 1
    return tuple(acc.items())


_POSET_PROVIDER = HopfProvider(
    name="posets",
    basis_of_degree=lambda n: all_posets(n),
    coproduct=lambda p: dict(_poset_coproduct(p)),
    counit=lambda p: Fraction(1 if p.element_count == 0 else 0),
    degree=lambda p: p.element_count,
    unit_label=SmallPoset(0),
)


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
    n = p.element_count
    return GradedElement(
        MONOMIAL,
        {alpha: _kp_evaluator.value(p, tuple(alpha)) for alpha in compositions_of(n)},
    )


_eta = canonical("eta")


def eta_check(p: SmallPoset) -> tuple[Fraction, Fraction]:
    """Pair the flag generating function with eta, against the unique-minimal indicator."""
    return _eta.of_element(kp_generating_function(p)), xi_unique_min(p)
