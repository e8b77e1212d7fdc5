"""Word statistics, pattern containment, and the elementary transforms."""

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal.errors import DomainViolation
from rascal.words import (
    as_word,
    asc,
    ascent_positions,
    complement,
    contains_001,
    contains_210,
    contains_pattern,
    des,
    descent_positions,
    is_ascent_sequence,
    is_pattern,
    is_rgf,
    reduce_word,
    reverse_word,
    word_str,
)

binary_words = st.lists(st.integers(0, 1), max_size=14).map(tuple)
small_words = st.lists(st.integers(0, 5), max_size=12).map(tuple)


class TestAscentsDescents:
    def test_ascent_positions_example(self):
        assert ascent_positions("2051159858") == {2, 5, 6, 9}
        assert asc("2051159858") == 4

    def test_empty_word(self):
        assert ascent_positions("") == set()
        assert asc("") == 0

    def test_weakly_decreasing(self):
        assert ascent_positions("1100") == set()

    def test_descent_positions(self):
        assert descent_positions("1100") == {2}
        assert descent_positions("0011") == set()
        assert descent_positions("1010") == {1, 3}

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


class TestReverseComplement:
    def test_reverse(self):
        assert reverse_word("110") == as_word("011")

    def test_complement(self):
        assert complement("110") == as_word("001")

    def test_double_application(self):
        b = as_word("10010")
        assert reverse_word(reverse_word(b)) == b
        assert complement(complement(b)) == b

    def test_complement_needs_bits(self):
        with pytest.raises(DomainViolation):
            complement("012")

    @settings(max_examples=200, derandomize=True)
    @given(binary_words)
    def test_involutions_commute(self, b):
        assert reverse_word(reverse_word(b)) == b
        assert complement(complement(b)) == b
        assert complement(reverse_word(b)) == reverse_word(complement(b))


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
        assert as_word([3, 0, 2]) == as_word("302") == as_word((3, 0, 2)) == (3, 0, 2)

    @pytest.mark.parametrize("text", ["0a1", "1 0", "-1", "1.0"])
    def test_non_digit_string_quoted(self, text):
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not a word of decimal digits")):
            as_word(text)

    def test_word_str(self):
        assert word_str((1, 0, 1)) == "101"
        assert word_str("") == ""
