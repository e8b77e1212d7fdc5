"""Word statistics, pattern containment and the word predicates, with the
references for reduction and restricted growth that the tests read."""

import re
from enum import IntEnum
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal.errors import DomainViolation
from rascal.words import (
    _contains,
    as_word,
    asc,
    contains_001,
    contains_210,
    contains_pattern,
    des,
    is_ascent_sequence,
    is_pattern,
    word_str,
)
from rascal import maps, words

from reference import is_rgf, reduce_word

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

    @settings(max_examples=500, derandomize=True)
    @given(small_words, st.integers(0, 6), st.lists(st.integers(0, 3), max_size=5).map(reduce_word))
    def test_occurrences_ending_at_a_new_letter(self, w, x, p):
        # the search avoiders runs on each child: only the occurrences in
        # w + (x,) that use x, every m - 1 earlier letters with x reduced and compared
        expected = not p or any(reduce_word((*c, x)) == p for c in combinations(w, len(p) - 1))
        assert _contains(w, p, x) == expected


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


# the letter-by-letter check as_word, the binary check of maps._bits and
# word_str made before bytes, tuples of letters 0..255 and ASCII digit
# strings were read in one C-level pass: the fast path must give the same
# values and the same refusals
REFERENCE_MAX_LETTER = 1 << 16


def maps_bits(w):
    """The binary word w as maps reads it at its edge, as a tuple."""
    return tuple(maps._bits(w))


def reference_as_word(w):
    if isinstance(w, str):
        if w and not w.isdecimal():
            raise ValueError(f"{w!r} is not a word of decimal digits")
        return tuple(map(int, w))
    letters = tuple(w)
    for x in letters:
        if not isinstance(x, int):
            raise ValueError(f"letter {x!r} is not an integer")
        if not 0 <= x <= REFERENCE_MAX_LETTER:
            raise ValueError(f"letter {x} is outside 0..{REFERENCE_MAX_LETTER}")
    return tuple(map(int, letters))


def reference_word_str(w):
    return "".join(str(x) for x in reference_as_word(w))


def reference_binary_word(w):
    word = reference_as_word(w)
    if not {*word} <= {0, 1}:
        raise DomainViolation(f"{reference_word_str(word)} is not a binary word")
    return word


class Colour(IntEnum):
    RED = 1
    GREEN = 9
    BLUE = 300


class OnlyIndex:
    """An object bytes() accepts as a letter, but no int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"OnlyIndex({self.value})"


class Digits(str):
    """A str subclass, read on the decimal-digit path like a str."""


class OneShot(list):
    """Letters given to each reader as a fresh one-shot iterator."""


def outcome(f, w):
    """("value", f(w)), or ("raised", the type and message of what it raised)."""
    try:
        return "value", f(iter(w) if isinstance(w, OneShot) else w)
    except Exception as exc:  # the reference raises ValueError and DomainViolation only
        return "raised", type(exc), str(exc)


letters = st.one_of(
    st.integers(0, 1),
    st.integers(-2, 300),
    st.integers(65_535, 65_537),
    st.booleans(),
    st.sampled_from(list(Colour)),
    st.floats(),
    st.text("0123456789", min_size=1, max_size=2),
    st.builds(OnlyIndex, st.integers(0, 300)),
)
coerced_words = st.one_of(
    st.lists(st.integers(0, 1), max_size=70).map(tuple),
    st.lists(st.integers(0, 12), max_size=20).map(tuple),
    st.lists(letters, max_size=8).map(tuple),
    st.lists(letters, max_size=8),
    st.text("0123456789", max_size=40),
    st.text("01 a-.\u0663\u00b2", max_size=6),  # with an Arabic-Indic digit and a superscript two
    st.lists(st.integers(0, 1), max_size=70).map(bytes),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.text("0123456789", max_size=12).map(Digits),
    st.text("01 a\u0663", max_size=4).map(Digits),
    st.lists(letters, max_size=8).map(OneShot),
)


class TestOnePassEquivalence:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(coerced_words)
    def test_same_values_and_refusals(self, w):
        for fast, reference in (
            (as_word, reference_as_word),
            (maps_bits, reference_binary_word),
            (word_str, reference_word_str),
        ):
            got = outcome(fast, w)
            assert got == outcome(reference, w), fast.__name__
            if got[0] == "value" and fast is not word_str:
                assert all(type(x) is int for x in got[1]), fast.__name__

    @pytest.mark.parametrize(
        "w, message",
        [
            ((0, OnlyIndex(1)), "letter OnlyIndex(1) is not an integer"),
            ([OnlyIndex(1)], "letter OnlyIndex(1) is not an integer"),
            ((1, "1"), "letter '1' is not an integer"),
            ((1, 2.0), "letter 2.0 is not an integer"),
            ((256, -1), "letter -1 is outside 0..65536"),
            ((0, 65_537), "letter 65537 is outside 0..65536"),
        ],
    )
    def test_refusals_named(self, w, message):
        for f in (as_word, maps_bits, word_str):
            with pytest.raises(ValueError, match=re.escape(message)):
                f(w)

    def test_canonical_ints(self):
        for w in ((True, False, True), (Colour.RED, 0), (Colour.BLUE, Colour.GREEN)):
            got = as_word(w)
            assert got == tuple(map(int, w)) and [type(x) for x in got] == [int] * len(w)
        assert maps_bits((True, Colour.RED, 0)) == (1, 1, 0)

    def test_word_str_letters_past_nine(self):
        assert word_str((0, 1, 2, 10, 11)) == "0121011"
        assert word_str((9, 255)) == "9255" and word_str([256, 65_536]) == "25665536"
        assert word_str("\u0663\u0660") == "30"  # any decimal digits, printed in ASCII
        assert word_str(()) == word_str("") == word_str([]) == ""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=40).map(tuple))
    def test_word_str_same_from_bytes(self, t):
        assert word_str(bytes(t)) == word_str(t)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (0, 1, 1),
            lambda: "0110",
            lambda: [0, 1, True],
            lambda: iter([0, 1, 1]),
            lambda: b"\x01\x00",
            lambda: (0, 2, 1),
            lambda: "012",
            lambda: [0, 300],
            lambda: iter([1, 2]),
            lambda: (0, 1.5),
            lambda: "01a",
        ],
        ids=["tuple", "str", "list", "iterator", "bytes", "tuple 012", "str 012", "list 300",
             "iterator 12", "float", "letter a"],
    )
    def test_each_reader_reads_its_argument_once(self, monkeypatch, make):
        # _letters sees the caller's word once per call; a refusal message
        # may only format what that one read returned
        seen, returned = [], []
        read = words._letters

        def counted(w):
            seen.append(w)
            returned.append(read(w))
            return returned[-1]

        for module in (words, maps):
            monkeypatch.setattr(module, "_letters", counted)
        for f in (as_word, word_str, maps._bits):
            seen.clear()
            returned.clear()
            w = make()
            try:
                f(w)
            except ValueError:
                pass
            assert [x is w for x in seen] == [True] + [False] * (len(seen) - 1), f.__name__
            assert all(any(x is y for y in returned) for x in seen[1:]), f.__name__

    def test_binary_refusal_printed(self):
        with pytest.raises(DomainViolation, match="^0120 is not a binary word$"):
            maps_bits((0, 1, 2, 0))
        with pytest.raises(DomainViolation, match="^01011 is not a binary word$"):
            maps_bits((0, 10, 11))
