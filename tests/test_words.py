"""Word statistics, pattern containment and reduction, and the word predicates."""

import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal.words import (
    as_word,
    asc,
    contains_001,
    contains_210,
    contains_pattern,
    des,
    is_ascent_sequence,
    is_pattern,
    is_rgf,
    reduce_word,
    word_str,
)

small_words = st.lists(st.integers(0, 5), max_size=12).map(tuple)


class TestAscentsDescents:
    def test_ascent_positions_example(self):
        assert asc("2051159858") == 4

    def test_empty_word(self):
        assert asc("") == 0

    def test_weakly_decreasing(self):
        assert asc("1100") == 0

    def test_descent_positions(self):
        assert des("1100") == 1
        assert des("0011") == 0
        assert des("1010") == 2

    def test_adjacency_partition(self):
        # ascents + descents + plateaus partition the n-1 adjacent pairs
        for length in range(6):
            for w in product(range(4), repeat=length):
                plateaus = sum(1 for i in range(1, length) if w[i - 1] == w[i])
                assert asc(w) + des(w) + plateaus == max(length - 1, 0)


class TestReduce:
    def test_reduce_example(self):
        assert reduce_word("2151159858") == as_word("1020024323")

    def test_reduce_empty(self):
        assert reduce_word("") == ()

    def test_already_reduced(self):
        assert reduce_word("0123") == as_word("0123")

    def test_reduce_preserves_ascents_exhaustively(self):
        for length in range(7):
            for w in product(range(4), repeat=length):
                assert asc(reduce_word(w)) == asc(w)

    def test_is_pattern(self):
        assert is_pattern("0210")
        assert not is_pattern("01259")


class TestPatternContainment:
    def test_contains_example(self):
        assert contains_pattern("5579024", "201")

    def test_avoids_example(self):
        assert not contains_pattern("5579024", "210")

    def test_empty_pattern_always_contained(self):
        for w in ("", "0", "5579024"):
            assert contains_pattern(w, "")

    def test_non_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_pattern("0123", "12")

    def test_word_contains_own_reduction(self):
        for length in range(1, 5):
            for w in product(range(3), repeat=length):
                assert contains_pattern(w, reduce_word(w))

    def test_specialized_agree_with_generic_exhaustively(self):
        for length in range(7):
            for w in product(range(3), repeat=length):
                assert contains_001(w) == contains_pattern(w, "001")
                assert contains_210(w) == contains_pattern(w, "210")

    @settings(max_examples=300, derandomize=True)
    @given(small_words)
    def test_specialized_agree_with_generic(self, w):
        assert contains_001(w) == contains_pattern(w, "001")
        assert contains_210(w) == contains_pattern(w, "210")

    @settings(max_examples=500, derandomize=True)
    @given(small_words, st.lists(st.integers(0, 3), max_size=4).map(reduce_word))
    def test_agrees_with_brute_force(self, w, p):
        # every subsequence of len(p) letters, reduced and compared
        expected = any(reduce_word(c) == p for c in combinations(w, len(p)))
        assert contains_pattern(w, p) == expected


class TestAscentSequencePredicate:
    def test_examples(self):
        assert is_ascent_sequence("012345")
        assert is_ascent_sequence("012000")
        assert not is_ascent_sequence("001162")
        assert is_ascent_sequence("0")

    def test_must_start_at_zero(self):
        assert not is_ascent_sequence("1")

    def test_empty(self):
        assert is_ascent_sequence("")


class TestRgf:
    def test_examples(self):
        assert is_rgf("0012332041")
        assert not is_rgf("210")
        assert is_rgf("")

    def test_ascent_sequences_avoiding_001_are_rgf(self):
        # checked exhaustively over all ascent sequences of length <= 8
        from rascal.generate import ascent_sequences

        for n in range(9):
            for w in ascent_sequences(n):
                if not contains_001(w):
                    assert is_rgf(w)


class TestWordCoercion:
    def test_negative_letter_rejected(self):
        with pytest.raises(ValueError):
            as_word([1, -2])

    def test_letter_cap(self):
        with pytest.raises(ValueError):
            as_word([1 << 20])

    @pytest.mark.parametrize("letters", [(1, -2), (0, 1 << 20), (0, 1.0), (0, "1")])
    def test_tuple_fast_path_checks_letters(self, letters):
        with pytest.raises(ValueError):
            as_word(letters)

    @pytest.mark.parametrize(
        "letters, bad",
        [([0.9, 1.2, 2.7], "0.9"), ((1.0, 0), "1.0"), ([1, 0.2], "0.2"), ([0, "1"], "'1'")],
    )
    def test_non_integer_letter_named(self, letters, bad):
        with pytest.raises(ValueError, match=re.escape(f"letter {bad} is not an integer")):
            as_word(letters)

    def test_non_integer_letter_reaches_no_statistic(self):
        from rascal.maps import sym_map

        with pytest.raises(ValueError, match="letter 1.0 is not an integer"):
            sym_map([1.0, 0.2])
        with pytest.raises(ValueError, match="letter 0.5 is not an integer"):
            asc([0.5, 0.9])

    def test_bools_and_ints_kept(self):
        assert as_word([True, False]) == (1, 0)
        assert all(type(x) is int for x in as_word((True, 0)))
        # a tuple of bools misses the tuple fast path and comes back as ints
        assert [type(x) for x in as_word((True, False))] == [int, int]
        assert as_word((True, False)) == (1, 0)
        assert as_word(()) == () and as_word((0, 1 << 16)) == (0, 1 << 16)
        assert as_word([3, 0, 2]) == as_word("302") == as_word((3, 0, 2)) == (3, 0, 2)

    @pytest.mark.parametrize("text", ["0a1", "1 0", "-1", "1.0"])
    def test_non_digit_string_quoted(self, text):
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not a word of decimal digits")):
            as_word(text)

    def test_word_str(self):
        assert word_str((1, 0, 1)) == "101"
        assert word_str("") == ""
