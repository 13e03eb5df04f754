"""Composition combinatorics against independent enumeration oracles."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial, prod

import pytest

from qshuffle.compositions import (
    EMPTY,
    Composition,
    _quasi_shuffle_pairs,
    _shuffle_pairs,
    canonical_key,
    coarsenings,
    compositions_of,
    compositions_up_to,
    deconcatenations,
    nonempty_splits,
    pairs_up_to,
    partitions_of,
    quasi_shuffle,
    rearrangements,
    shown,
    shown_number,
    shuffle,
    stats,
)

from oracles import (
    NotARefinement, extend_over_refinement, refinement_split, refines, shuffle_multiplicity_total
)

C = Composition


def compositions_by_cuts(n):
    # independent route: subsets of cut positions 1..n-1 (stars and bars)
    if n == 0:
        return {C()}
    out = set()
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            out.add(C(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)))
    return out


def test_enumeration_matches_cut_subsets():
    for n in range(9):
        listed = compositions_of(n)
        assert set(listed) == compositions_by_cuts(n)
        assert len(listed) == len(set(listed))


def test_enumeration_counts_and_order():
    assert compositions_of(0) == (EMPTY,)
    with pytest.raises(ValueError, match="need n >= 0, got -1"):
        compositions_of(-1)
    assert set(compositions_of(3)) == {C((3,)), C((2, 1)), C((1, 2)), C((1, 1, 1))}
    assert len(compositions_of(3)) == 4
    assert len(compositions_of(8)) == 128
    # graded lexicographic: already sorted within the degree
    for n in range(9):
        listed = compositions_of(n)
        assert list(listed) == sorted(listed, key=lambda c: tuple(c))
    up = compositions_up_to(4)
    assert up == sorted(up, key=lambda c: (c.size, tuple(c)))


def test_compositions_beginning_with_k_form_one_block():
    # the block rule of the universal evaluator's dense tables: the compositions of n that begin
    # with k are (k, *beta) for beta in compositions_of(n - k), in that order, from 2^(n-1) - 2^(n-k) on
    for n in range(1, 11):
        listed = compositions_of(n)
        for k in range(1, n + 1):
            block = [(k, *beta) for beta in compositions_of(n - k)]
            start = 2 ** (n - 1) - 2 ** (n - k)
            assert list(listed[start : start + len(block)]) == block, (n, k)


def test_pairs_up_to_order():
    # each pair of nonempty compositions once: by total size, then |alpha|, then canonical order
    pairs = [
        (alpha, beta)
        for total in range(2, 7)
        for a in range(1, total)
        for alpha in compositions_by_cuts(a)
        for beta in compositions_by_cuts(total - a)
    ]
    pairs.sort(key=lambda pair: (pair[0].size + pair[1].size, pair[0].size, tuple(pair[0]), tuple(pair[1])))
    assert list(pairs_up_to(6)) == pairs
    assert list(pairs_up_to(1)) == []


def test_composition_validation_and_text():
    with pytest.raises(ValueError):
        C((2, 0, 1))
    with pytest.raises(ValueError):
        C((-1,))
    assert C.from_text("2,1,3") == C((2, 1, 3))
    assert C.from_text("-") == EMPTY
    assert C((2, 1, 3)).to_text() == "2,1,3"
    assert EMPTY.to_text() == "-"
    with pytest.raises(ValueError):
        C.from_text("2,x")
    with pytest.raises(ValueError):
        C.from_text("2,-1")
    # int() would read each of these as 1 or 2
    for text in ("+1", "2,,1", "2,1,", "\u0661,\u0662", "\uff11"):
        with pytest.raises(ValueError, match="bad composition part"):
            C.from_text(text)
    for comp in compositions_up_to(5):
        assert C.from_text(comp.to_text()) == comp


@pytest.mark.parametrize(
    "parts",
    [(1.9, 1), (2.0,), (True, 1), (False,), ("1",), ("2", "1"), (1, None)],
)
def test_composition_rejects_non_int_parts(parts):
    # parts enter the program here, so nothing is coerced with int()
    with pytest.raises(ValueError, match="positive ints"):
        C(parts)
    with pytest.raises(ValueError):
        C((1,)) + list(parts)


def test_shown_names_a_number_past_the_digit_limit_by_its_kind():
    # str and repr refuse an int of more than sys.get_int_max_str_digits() digits; the message quotes none
    past = f"more than {sys.get_int_max_str_digits()} digits"
    huge = 10**5000
    for value, phrase in ((huge, f"a number of {past}"), ([huge], "a list of 1 entry"), (Fraction(huge, 3), f"a Fraction of {past}")):
        assert shown(value) == phrase
        assert shown_number(value) == f"a number of {past}"
    with pytest.raises(ValueError, match=f"^composition parts must be positive ints, got a number of {past}$"):
        C([-huge])
    # a value short enough to print prints as before: text and containers by their repr, numbers in full
    assert [shown("nope"), shown([1, 2]), shown(Fraction(1, 2)), shown(True)] == ["'nope'", "[1, 2]", "Fraction(1, 2)", "True"]
    assert [shown_number(-7), shown_number(Fraction(-3, 4))] == ["-7", "-3/4"]


@pytest.mark.parametrize("length", [150, 200])
def test_a_text_is_quoted_only_when_its_quote_is_short(length):
    # repr escapes each control character to four characters, so a short text can have a long quote
    quoted = shown("\x01" * length)
    assert quoted == f"a text of {length} characters" and "\n" not in quoted and len(quoted) < 200
    # a printable text of as many characters is still quoted whole
    assert shown("x" * length) == repr("x" * length)


def test_composition_argument_passes_through_unchanged():
    comp = C((2, 1))
    assert C(comp) is comp
    assert C([2, 1]) == comp and type(C([2, 1])) is C
    assert type(comp + (3,)) is C and comp + (3,) == C((2, 1, 3))
    assert type((3,) + comp) is C and (3,) + comp == C((3, 2, 1))


def test_stats_examples():
    st = stats(C((2, 1, 2)))
    assert (st.aut_count, st.z_value) == (2, 8)
    empty = stats(EMPTY)
    assert (empty.aut_count, empty.z_value) == (1, 1)
    st2 = stats(C((1, 2, 1)))
    assert st2.aut_count == 2


def test_stats_properties():
    # aut: the product of the factorials of the part multiplicities; z: the product of the parts times aut
    for comp in compositions_up_to(10):
        st = stats(comp)
        aut = prod(factorial(m) for m in Counter(comp).values())
        assert (st.aut_count, st.z_value) == (aut, prod(comp) * aut), comp


def test_rearrangement_orbit_size():
    for comp in compositions_up_to(8):
        st = stats(comp)
        assert len(rearrangements(comp)) == factorial(comp.length) // st.aut_count


def test_coarsenings_example():
    got = coarsenings(C((1, 1, 1)))
    assert set(got) == {C((1, 1, 1)), C((1, 2)), C((2, 1)), C((3,))}
    assert coarsenings(EMPTY) == [EMPTY]


def test_coarsenings_properties():
    for comp in compositions_up_to(8):
        got = coarsenings(comp)
        expected = 1 if not comp else 2 ** (comp.length - 1)
        assert len(got) == expected
        assert comp in got
        if comp:
            assert C((comp.size,)) in got
        # all listed really are coarser, sizes preserved
        for beta in got:
            assert beta.size == comp.size
            assert refines(comp, beta)


def test_refinement_split_examples():
    assert refinement_split(C((1, 1, 2, 1)), C((2, 3))) == (C((1, 1)), C((2, 1)))
    assert refinement_split(C((3,)), C((3,))) == (C((3,)),)
    assert refinement_split(EMPTY, EMPTY) == ()
    with pytest.raises(NotARefinement):
        refinement_split(C((2, 1)), C((1, 2)))
    with pytest.raises(NotARefinement):
        refinement_split(C((2,)), C((3,)))


def test_refinement_split_roundtrip():
    for comp in compositions_up_to(7):
        for beta in coarsenings(comp):
            blocks = refinement_split(comp, beta)
            assert len(blocks) == beta.length
            rebuilt = EMPTY
            for block, part in zip(blocks, beta):
                assert block.size == part
                rebuilt = rebuilt + block
            assert rebuilt == comp


def test_shuffle_examples():
    assert shuffle(C((1, 2)), C((2,))) == {C((1, 2, 2)): 2, C((2, 1, 2)): 1}
    assert shuffle(C((1,)), C((1,))) == {C((1, 1)): 2}
    assert shuffle(EMPTY, C((2, 1))) == {C((2, 1)): 1}
    assert shuffle(EMPTY, EMPTY) == {EMPTY: 1}


def test_shuffle_properties():
    pairs = [
        (a, b)
        for total in range(2, 9)
        for i in range(1, total)
        for a in compositions_of(i)
        for b in compositions_of(total - i)
    ]
    for a, b in pairs:
        left = shuffle(a, b)
        assert left == shuffle(b, a)
        assert sum(left.values()) == shuffle_multiplicity_total(a, b) == comb(len(a) + len(b), len(a))
        for word in left:
            assert word.size == a.size + b.size
            assert len(word) == len(a) + len(b)


def test_quasi_shuffle_examples():
    assert quasi_shuffle(C((1,)), C((1,))) == {C((1, 1)): 2, C((2,)): 1}
    assert quasi_shuffle(C((2,)), C((1,))) == {C((2, 1)): 1, C((1, 2)): 1, C((3,)): 1}
    assert quasi_shuffle(EMPTY, C((3,))) == {C((3,)): 1}


def test_quasi_shuffle_contains_shuffle():
    # merging terms only add; the pure interleavings appear with the same multiplicity
    for total in range(2, 7):
        for i in range(1, total):
            for a in compositions_of(i):
                for b in compositions_of(total - i):
                    qs = quasi_shuffle(a, b)
                    for word, mult in shuffle(a, b).items():
                        assert qs[word] == mult


def test_products_hand_out_copies_of_shared_tables():
    # shuffle and quasi_shuffle copy their cached table; the library reads the table itself
    a, b = C((1, 2)), C((2,))
    for rule, table in ((shuffle, _shuffle_pairs), (quasi_shuffle, _quasi_shuffle_pairs)):
        expected = dict(rule(a, b))
        mutated = rule(a, b)
        mutated[C((9,))] = 5
        del mutated[C((1, 2, 2))]
        assert rule(a, b) == expected == table(a, b)
        assert rule(a, b) is not table(a, b)


def test_product_tables_share_one_object_per_word():
    # one tuple per distinct word across every cached entry, the one coarsenings hand out too;
    # each table is sorted on its part tuples, which is canonical_key order for words of one size
    shared: dict[Composition, Composition] = {}
    for total in range(9):
        for i in range(total + 1):
            for a in compositions_of(i):
                for b in compositions_of(total - i):
                    for table in (_shuffle_pairs, _quasi_shuffle_pairs):
                        entry = table(a, b)
                        assert list(entry) == sorted(entry, key=canonical_key)
                        for word in entry:
                            assert type(word) is Composition
                            assert shared.setdefault(word, word) is word, word
    for comp in compositions_up_to(8):
        for beta in coarsenings(comp):
            assert shared.get(beta, beta) is beta, beta


def test_extend_over_refinement_examples():
    half_factorial = lambda comp: Fraction(1, factorial(len(comp)))
    assert extend_over_refinement(half_factorial, C((1, 1, 2, 1)), C((2, 3))) == Fraction(1, 4)
    inverse_prefix = lambda comp: Fraction(1, prod(accumulate(comp)))
    assert extend_over_refinement(inverse_prefix, C((2, 1)), C((3,))) == Fraction(1, 6)
    assert extend_over_refinement(half_factorial, EMPTY, EMPTY) == 1


def test_extend_is_multiplicative_under_concatenation():
    fn = lambda comp: Fraction(1, prod(accumulate(comp)))
    for na in range(1, 4):
        for nb in range(1, 4):
            for a in compositions_of(na):
                for b in compositions_of(nb):
                    for ca in coarsenings(a):
                        for cb in coarsenings(b):
                            assert extend_over_refinement(fn, a + b, ca + cb) == extend_over_refinement(
                                fn, a, ca
                            ) * extend_over_refinement(fn, b, cb)


def test_deconcatenations_and_splits():
    assert deconcatenations(C((3, 1))) == [
        (EMPTY, C((3, 1))),
        (C((3,)), C((1,))),
        (C((3, 1)), EMPTY),
    ]
    assert list(nonempty_splits(EMPTY)) == []
    got = sorted(tuple(s) for s in nonempty_splits(C((1, 2))))
    assert got == [(C((1,)), C((2,))), (C((1, 2)),)]
    for comp in compositions_up_to(7):
        if comp:
            assert sum(1 for _ in nonempty_splits(comp)) == 2 ** (comp.length - 1)


def test_partitions_of():
    assert partitions_of(4) == (C((1, 1, 1, 1)), C((2, 1, 1)), C((2, 2)), C((3, 1)), C((4,)))
    # partition counts 1, 1, 2, 3, 5, 7, 11, 15, 22
    assert [len(partitions_of(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
