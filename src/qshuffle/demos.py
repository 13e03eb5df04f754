"""Two small combinatorial Hopf algebras exercising the universal morphisms.

Graphs: basis labels are simple graphs on vertex set {1..n}; the coproduct
sums induced subgraphs over vertex subsets against their complements (both
relabeled order-preservingly), and the no-edges indicator is a character.
Its universal image in QSym is the chromatic symmetric function, whose
principal specialization recovers the chromatic polynomial; that polynomial
is counted from stable-set partitions (brute force is a test oracle only).

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
    ``_trusted`` builds one from sorted, already valid pairs without checks.
    """

    __slots__ = ()
    _sep: str
    _prefix: str

    def __new__(cls, count: int, pairs=()):
        if type(count) is not int or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        return cls._trusted(count, tuple(sorted(cls._normalise(cls._checked(count, pairs)))))

    @classmethod
    def _trusted(cls, count: int, pairs: tuple[tuple[int, int], ...]):
        return tuple.__new__(cls, (count, pairs))

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
        """The structure induced on labels, relabeled order-preservingly to 1..k; valid and sorted, so trusted."""
        kept = sorted(set(labels))
        index = {v: i + 1 for i, v in enumerate(kept)}
        return self._trusted(len(kept), tuple((index[u], index[v]) for u, v in self[1] if u in index and v in index))

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
) -> tuple[tuple[tuple[_LabelledPairs, _LabelledPairs], int], ...]:
    """The coproduct of x: x.induced(S) (x) x.induced(rest) summed over the label subsets S."""
    labels = range(1, x[0] + 1)
    counts = Counter(
        (x.induced(chosen), x.induced([v for v in labels if v not in chosen])) for chosen in subsets
    )
    return tuple(counts.items())


def _label_count(x: _LabelledPairs) -> int:
    """The grading of both demo algebras: the number of labels."""
    return x[0]


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
def _graph_coproduct(g: SmallGraph) -> tuple[tuple[tuple[SmallGraph, SmallGraph], int], ...]:
    vertices = range(1, g.vertex_count + 1)
    return _split_coproduct(g, (c for size in range(len(vertices) + 1) for c in combinations(vertices, size)))


_GRAPH_PROVIDER = HopfProvider(_graph_coproduct, _label_count, SmallGraph(0))


def graph_provider() -> HopfProvider:
    return _GRAPH_PROVIDER


def zeta_no_edges(g: SmallGraph) -> int:
    """The edge-free indicator, 0 or 1; multiplicative under disjoint union."""
    return 0 if g.edges else 1


_chromatic_evaluator = CharacterPowerEvaluator(_GRAPH_PROVIDER, zeta_no_edges)


def chromatic_symmetric(g: SmallGraph) -> GradedElement:
    """The chromatic symmetric function of g in the monomial basis.

    Computed as the universal morphism of the graph algebra with the
    no-edges character; the monomial coefficient at alpha counts proper
    colorings with color class sizes alpha.
    """
    return _chromatic_evaluator.image({g: 1}, MONOMIAL)


def _stable_partition_counts(g: SmallGraph) -> list[int]:
    """a_0..a_n, where a_j counts the partitions of the vertices into j stable sets.

    One block holds a mask's lowest vertex, so a mask's counts sum, over the
    stable such blocks B, those of the mask without B shifted by one.  O(3^n).
    """
    n = g.vertex_count
    neighbours = [0] * n
    for u, v in g.edges:
        neighbours[u - 1] |= 1 << (v - 1)
        neighbours[v - 1] |= 1 << (u - 1)
    stable = [True] * (1 << n)
    counts = [[1]] * (1 << n)  # every mask but the empty one is overwritten
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        low = mask ^ rest
        stable[mask] = stable[rest] and not neighbours[low.bit_length() - 1] & rest
        total = [0] * (mask.bit_count() + 1)
        sub = rest
        while True:
            if stable[sub | low]:
                for j, a in enumerate(counts[rest ^ sub]):
                    total[j + 1] += a
            if not sub:
                break
            sub = (sub - 1) & rest
        counts[mask] = total
    return counts[-1]


def chromatic_polynomial(g: SmallGraph) -> list[int]:
    """Chromatic polynomial coefficients, ascending in k.

    P(G, k) = sum over j of a_j k(k-1)...(k-j+1) (Birkhoff; Read 1968), with
    a_j from _stable_partition_counts and the falling factorials in ints.
    """
    coeffs = [0] * (g.vertex_count + 1)
    falling = [1]  # k(k-1)...(k-j+1), ascending in k
    for j, count in enumerate(_stable_partition_counts(g)):
        for power, c in enumerate(falling):
            coeffs[power] += count * c
        falling = [lower - j * same for lower, same in zip([0] + falling, falling + [0])]
    return coeffs


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
        """All downward closed subsets, as sorted tuples, in the order of their bitmasks.

        Element i + 1 is bit i.  Each element's strict down-set is read into a
        mask once; a subset is an ideal when every chosen element's down-set
        lies inside it.
        """
        n = self.element_count
        down = [0] * n
        for a, b in self.strict:
            down[b - 1] |= 1 << (a - 1)
        out = []
        for mask in range(1 << n):
            chosen = [i for i in range(n) if mask >> i & 1]
            if all(not down[i] & ~mask for i in chosen):
                out.append(tuple(i + 1 for i in chosen))
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
def _poset_coproduct(p: SmallPoset) -> tuple[tuple[tuple[SmallPoset, SmallPoset], int], ...]:
    return _split_coproduct(p, p.order_ideals())


_POSET_PROVIDER = HopfProvider(_poset_coproduct, _label_count, SmallPoset(0))


def poset_provider() -> HopfProvider:
    return _POSET_PROVIDER


def zeta_ones(p: SmallPoset) -> int:
    """The constant character 1 on posets."""
    return 1


def xi_unique_min(p: SmallPoset) -> int:
    """Indicator of a unique minimal element, 0 or 1; an infinitesimal character."""
    return 1 if p.has_unique_minimal() else 0


_kp_evaluator = CharacterPowerEvaluator(_POSET_PROVIDER, zeta_ones)


def kp_generating_function(p: SmallPoset) -> GradedElement:
    """The ideal-flag generating function of p in the monomial basis.

    The coefficient at alpha counts flags of order ideals with layer sizes
    alpha; this is the universal image of the constant character.
    """
    return _kp_evaluator.image({p: 1}, MONOMIAL)


_eta = canonical("eta")


def eta_check(p: SmallPoset) -> tuple[Fraction, int]:
    """Pair the flag generating function with eta, against the unique-minimal indicator."""
    return _eta.of_element(kp_generating_function(p)), xi_unique_min(p)
