"""Streams for the word families: golden listings, counts, ordering."""

import time
import tracemalloc
from collections import Counter
from itertools import combinations, islice, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal.errors import DomainViolation, ResourceLimit
from rascal.generate import (
    ProfileTable,
    RestrictedSubset,
    _restricted_elements,
    all_binary_words,
    ascent_sequences,
    avoider_nodes,
    avoiders,
    canonical_avoiders,
    count_words_with_ascents,
    fishburn_numbers,
    restricted_subsets,
    words_with_ascents,
)
from rascal.limits import run_capped
from rascal.numbers import TriangleCache, closed_value, rascal_gen_value, rascal_value, triangle_rows
from rascal.words import _asc, asc, contains_pattern, is_ascent_sequence, word_str

from reference import is_rgf

PATTERNS = ("001", "210")
TREE_PATTERNS = ("001", "210", "012", "10")

# the nine words with six letters, four ones, and at most one ascent
B46 = [
    "001111",
    "011110",
    "100111",
    "101110",
    "110011",
    "110110",
    "111001",
    "111010",
    "111100",
]

ASCSEQ4 = [
    "0000",
    "0001",
    "0010",
    "0011",
    "0012",
    "0100",
    "0101",
    "0102",
    "0110",
    "0111",
    "0112",
    "0120",
    "0121",
    "0122",
    "0123",
]


def lex_increasing(seq):
    return all(a < b for a, b in zip(seq, seq[1:]))


def positive_compositions(total, parts):
    """Every tuple of `parts` positive ints summing to `total`, walked."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def walked_profile_count(total, parts):
    """How many (a_0, ..., a_parts) with a_0 >= 0, a_i >= 1 sum to total,
    walked as the positive compositions of total + 1 (a_0 + 1 first)."""
    return sum(1 for _ in positive_compositions(total + 1, parts + 1))


class TestWalksEqualFilters:
    """Each walk lists exactly its brute-force filter, in order, for every
    n <= 14, every k (and one each side of 0..n) and every j <= 4."""

    def test_words_with_ascents(self):
        for n in range(15):
            # every word of length n in lexicographic order, with its ones and ascents
            words = [(w, sum(w), sum(a < b for a, b in zip(w, w[1:]))) for w in product((0, 1), repeat=n)]
            for k in range(-1, n + 2):
                family = [(w, ascents) for w, ones, ascents in words if ones == k]
                for j in range(5):
                    assert list(words_with_ascents(n, k, j)) == [w for w, a in family if a <= j], (n, k, j)

    def test_restricted_elements(self):
        for n in range(15):
            for k in range(-1, n + 2):
                subsets = [(c, sum(e <= n - k for e in c)) for c in combinations(range(1, n + 1), k)] if k >= 0 else []
                for j in range(5):
                    assert list(_restricted_elements(n, k, j)) == [c for c, low in subsets if low <= j], (n, k, j)


class TestAllBinaryWords:
    def test_n2(self):
        assert [word_str(w) for w in all_binary_words(2)] == ["00", "01", "10", "11"]

    def test_n0(self):
        assert list(all_binary_words(0)) == [()]

    def test_n4_count(self):
        assert sum(1 for _ in all_binary_words(4)) == 16

    def test_cap(self, monkeypatch):
        with pytest.raises(ResourceLimit):
            list(all_binary_words(21))  # 2^21 words, over the default 2^20
        assert sum(1 for _ in all_binary_words(20)) == 1 << 20
        monkeypatch.setenv("RASCAL_MAX_CELLS", "255")
        with pytest.raises(ResourceLimit):
            all_binary_words(8)  # refused on the call, before any word
        monkeypatch.setenv("RASCAL_MAX_CELLS", "256")
        assert sum(1 for _ in all_binary_words(8)) == 256


class TestWordsWithAscents:
    def test_nine_word_family(self):
        got = [word_str(w) for w in words_with_ascents(6, 4, 1)]
        assert got == B46

    def test_zero_ascents_single_word(self):
        for n in range(8):
            for k in range(n + 1):
                only = list(words_with_ascents(n, k, 0))
                assert only == [(1,) * k + (0,) * (n - k)]

    def test_single_one_with_slack(self):
        got = [word_str(w) for w in words_with_ascents(3, 1, 2)]
        assert got == ["001", "010", "100"]

    def test_structured_equals_brute_force(self):
        for n in range(11):
            words = list(all_binary_words(n))
            for k in range(n + 1):
                for j in range(4):
                    brute = [w for w in words if sum(w) == k and asc(w) <= j]
                    assert list(words_with_ascents(n, k, j)) == brute, (n, k, j)

    def test_counts_match_values(self):
        for n in range(13):
            for k in range(n + 1):
                for j in range(5):
                    words = list(words_with_ascents(n, k, j))
                    assert len(words) == rascal_gen_value(n, k, j)
                    assert count_words_with_ascents(n, k, j) == len(words)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_count_matches_closed_form_at_random_sizes(self, data):
        n = data.draw(st.integers(0, 60))
        k = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, 5))
        assert count_words_with_ascents(n, k, j) == rascal_gen_value(n, k, j)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_count_matches_closed_form_at_large_sizes(self, data):
        n = data.draw(st.integers(0, 400))
        k = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, 6))
        assert count_words_with_ascents(n, k, j) == rascal_gen_value(n, k, j)

    def test_profile_count_equals_walk(self):
        # the table's running sums count what the walk lists, family by
        # family, after growing in both directions from a smaller table
        table = ProfileTable()
        table.grow(5, 3)
        columns = table.grow(16, 8)
        for t in range(17):
            for r in range(9):
                assert columns[r][t] == walked_profile_count(t, r), (t, r)

    def test_refused_count_leaves_table_as_it_was(self):
        # the 51 x 3 cells refused at a cap of 30 do not join the running
        # total, so the 6 x 3 that a fresh table needs still fit
        table = ProfileTable()
        with pytest.raises(ResourceLimit, match="needs 153 cells, over the cap 30"):
            run_capped(30, table.count, 100, 50, 2)
        assert (table.columns, table.filled) == ([], 0)
        assert run_capped(30, table.count, 10, 5, 2) == rascal_gen_value(10, 5, 2)
        assert table.filled == 18

    def test_stream_strictly_increasing(self):
        assert lex_increasing(list(words_with_ascents(9, 4, 3)))

    def test_count_priced_by_profiles(self, monkeypatch):
        # a table of (max(k, n-k) + 1) * (min(j, k, n-k) + 1) = 3,000,006
        # cells, refused before it is built
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="counting oracle profiles"):
            count_words_with_ascents(10**6, 5 * 10**5, 5)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(0, 14), data=st.data())
    def test_equals_filter_of_all_words(self, n, data):
        k = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, 6))
        brute = [w for w in all_binary_words(n) if sum(w) == k and _asc(w) <= j]
        assert list(words_with_ascents(n, k, j)) == brute

    def test_lazy(self):
        start = time.perf_counter()
        stream = words_with_ascents(400, 200, 3)
        assert next(stream) == (0,) * 200 + (1,) * 200
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            for _ in islice(stream, 1000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_outside_triangle_empty(self):
        assert list(words_with_ascents(3, 5, 1)) == []
        assert list(words_with_ascents(-1, 0, 1)) == []
        assert count_words_with_ascents(3, 5, 1) == count_words_with_ascents(-1, 0, 1) == 0
        with pytest.raises(DomainViolation, match="n must be an integer, got 4.0"):
            list(words_with_ascents(4.0, 2, 1))
        with pytest.raises(DomainViolation, match="n must be an integer, got 6.0"):
            count_words_with_ascents(6.0, 3, 1)


class TestAscentSequences:
    def test_length_four_family(self):
        got = [word_str(w) for w in ascent_sequences(4)]
        assert got == ASCSEQ4
        assert len(got) == 15

    def test_length_one(self):
        assert list(ascent_sequences(1)) == [(0,)]

    def test_length_zero(self):
        assert list(ascent_sequences(0)) == [()]

    def test_length_five_count(self):
        assert sum(1 for _ in ascent_sequences(5)) == 53

    def test_against_independent_oracle(self):
        # depth-first regeneration straight from the definition
        def oracle(n):
            if n == 0:
                return [()]
            out = []
            stack = [((0,), 0)]
            while stack:
                prefix, ascents = stack.pop()
                if len(prefix) == n:
                    out.append(prefix)
                    continue
                for x in range(ascents + 2):
                    stack.append((prefix + (x,), ascents + (1 if x > prefix[-1] else 0)))
            return sorted(out)

        for n in range(9):
            assert list(ascent_sequences(n)) == oracle(n)

    def test_all_satisfy_predicate(self):
        for w in ascent_sequences(7):
            assert is_ascent_sequence(w)

    def test_cap(self, monkeypatch):
        with pytest.raises(ResourceLimit):
            list(ascent_sequences(11))  # Fishburn(11) = 1,422,074 > 2^20
        with pytest.raises(ResourceLimit):
            list(avoiders(11))  # no pattern prunes: every ascent sequence
        # the {001,210} tree to length 30 has C(31, 4) + C(31, 2) nodes
        nodes = comb(31, 4) + comb(31, 2)
        monkeypatch.setenv("RASCAL_MAX_CELLS", str(nodes - 1))
        with pytest.raises(ResourceLimit, match=f"needs {nodes} cells"):
            next(avoiders(30, PATTERNS))
        monkeypatch.setenv("RASCAL_MAX_CELLS", str(nodes))
        assert sum(1 for _ in avoiders(30, PATTERNS)) == comb(30, 3) + 30
        monkeypatch.setenv("RASCAL_MAX_CELLS", "216")
        with pytest.raises(ResourceLimit):
            list(ascent_sequences(6))
        monkeypatch.setenv("RASCAL_MAX_CELLS", "217")
        assert sum(1 for _ in ascent_sequences(6)) == 217

    def test_stream_strictly_increasing(self):
        assert lex_increasing(list(ascent_sequences(6)))

    def test_fishburn_numbers(self):
        # OEIS A022493
        assert list(islice(fishburn_numbers(), 14)) == [
            1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608, 1422074, 10886503, 89903100,
        ]
        for n, count in enumerate(islice(fishburn_numbers(), 10)):
            seqs = list(ascent_sequences(n))
            assert len(seqs) == count and lex_increasing(seqs), n

    def test_absurd_length_refused_fast(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit):
            list(ascent_sequences(1_000_000))
        assert time.perf_counter() - start < 1.0


class TestAvoiders:
    def test_family_of_length_four(self):
        got = [word_str(w) for w in avoiders(4, PATTERNS)]
        assert got == ["0000", "0100", "0110", "0111", "0120", "0121", "0122", "0123"]

    def test_with_ascent_count(self):
        got = [word_str(w) for w in avoiders(4, PATTERNS, 1)]
        assert got == ["0100", "0110", "0111"]

    def test_empty_pattern_set(self):
        assert list(avoiders(5)) == list(ascent_sequences(5))

    def test_generic_containment_agrees(self):
        from rascal.words import contains_pattern

        for n in range(8):
            direct = [
                w
                for w in ascent_sequences(n)
                if not contains_pattern(w, "001") and not contains_pattern(w, "210")
            ]
            assert list(avoiders(n, PATTERNS)) == direct

    def test_every_avoider_is_rgf(self):
        for n in range(9):
            for w in avoiders(n, ("001",)):
                assert is_rgf(w)

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            list(avoiders(4, ("12",)))

    @pytest.fixture(scope="class")
    def containment(self):
        """(sequence, the tested patterns it contains) for every ascent
        sequence of length n <= 9, by the generic containment test."""
        return {
            n: [(w, {p for p in TREE_PATTERNS if contains_pattern(w, p)}) for w in ascent_sequences(n)]
            for n in range(10)
        }

    @pytest.mark.parametrize(
        "patterns",
        [ps for size in range(1, 5) for ps in combinations(TREE_PATTERNS, size)],
        ids=",".join,
    )
    def test_tree_equals_filter(self, containment, patterns):
        for n, table in containment.items():
            kept = [w for w, contained in table if contained.isdisjoint(patterns)]
            for k in (None, *range(n + 1)):
                expected = [w for w in kept if k is None or _asc(w) == k]
                assert list(avoiders(n, patterns, k)) == expected, (n, k)

    @pytest.mark.parametrize("third", ["0102", "0120", "1012", "0011", "0123", "1000"])
    def test_third_pattern_on_the_tree(self, third):
        # a child is searched only for the occurrences that end at its new
        # letter, against the filter of whole sequences
        for n in range(17):
            kept = [w for w in avoiders(n, PATTERNS) if not contains_pattern(w, third)]
            assert list(avoiders(n, (*PATTERNS, third))) == kept, n

    def test_third_pattern_count(self):
        # what `rascal enumerate avoiders --n 30 --patterns 001,210,0102 --count-only` prints
        assert sum(1 for _ in avoiders(30, (*PATTERNS, "0102"))) == 4090

    def test_node_count_closed_form(self):
        # prefixes counted by a walk over (ascents, last letter, largest
        # letter, least repeated letter, largest dominated letter), with
        # a child kept when it completes neither pattern
        states = Counter({(0, 0, 0, None, None): 1})
        nodes = 1  # the one prefix of length 1
        for n in range(1, 61):
            assert avoider_nodes(n) == nodes, n
            grown = Counter()
            for (ascents, last, top, low, high), count in states.items():
                for x in range(ascents + 2):
                    if (low is not None and x > low) or (high is not None and x < high):
                        continue
                    new_low = x if x <= top and (low is None or x < low) else low
                    new_high = x if x < top and (high is None or x > high) else high
                    grown[ascents + (x > last), x, max(top, x), new_low, new_high] += count
            states = grown
            nodes += sum(states.values())

    def test_admits_long_sequences(self):
        start = time.perf_counter()
        assert sum(1 for _ in avoiders(40, PATTERNS, 2)) == rascal_value(39, 2)
        assert time.perf_counter() - start < 5.0


class TestCanonicalAvoiders:
    def test_k2(self):
        assert [word_str(w) for w in canonical_avoiders(4, 2)] == ["0120", "0121", "0122"]

    def test_k0(self):
        assert [word_str(w) for w in canonical_avoiders(4, 0)] == ["0000"]

    def test_n5_k2_count(self):
        got = [word_str(w) for w in canonical_avoiders(5, 2)]
        assert got == ["01200", "01211", "01220", "01221", "01222"]
        assert len(got) == 5 == rascal_value(4, 2)

    def test_matches_filtering_oracle(self):
        for n in range(9):
            for k in range(n + 1):
                assert list(canonical_avoiders(n, k)) == list(avoiders(n, PATTERNS, k))

    def test_counts(self):
        for n in range(1, 10):
            for k in range(n):
                assert sum(1 for _ in canonical_avoiders(n + 1, k)) == rascal_value(n, k)

    def test_stream_strictly_increasing(self):
        assert lex_increasing(list(canonical_avoiders(9, 4)))


class TestRestrictedSubsets:
    def test_j1(self):
        got = [s.elements for s in restricted_subsets(4, 2, 1)]
        assert got == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert len(got) == rascal_value(4, 2)

    def test_j0(self):
        assert [s.elements for s in restricted_subsets(4, 2, 0)] == [(3, 4)]

    def test_vacuous_bound(self):
        for n in range(8):
            for k in range(n + 1):
                j = min(k, n - k)
                assert sum(1 for _ in restricted_subsets(n, k, j)) == comb(n, k)

    def test_counts_match_values(self):
        for n in range(11):
            for k in range(n + 1):
                for j in range(4):
                    got = sum(1 for _ in restricted_subsets(n, k, j))
                    assert got == rascal_gen_value(n, k, j)

    def test_stream_strictly_increasing(self):
        elems = [s.elements for s in restricted_subsets(8, 3, 2)]
        assert lex_increasing(elems)

    def test_equals_filter_over_all_k_subsets(self):
        # the direct filter over all C(n, k) subsets is the oracle for
        # the low-part-times-high-part construction
        for n in range(13):
            for k in range(n + 1):
                for j in range(4):
                    oracle = [
                        c
                        for c in combinations(range(1, n + 1), k)
                        if sum(1 for e in c if e <= n - k) <= j
                    ]
                    assert [s.elements for s in restricted_subsets(n, k, j)] == oracle

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(n=st.integers(0, 60), data=st.data())
    def test_walk_in_order(self, n, data):
        # the walk yields its subsets in order by construction, with no sort to fall back on
        k = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, max(j for j in range(n + 1) if closed_value(n, k, j) <= 5000)))
        walked = list(_restricted_elements(n, k, j))
        assert lex_increasing(walked) and len(walked) == closed_value(n, k, j)
        for elements in walked:
            assert len(elements) == k and set(elements) <= set(range(1, n + 1))
            assert sum(1 for e in elements if e <= n - k) <= j

    def test_streams_in_constant_memory(self):
        # R(400, 200; 1) = 40,001 subsets of 200 elements, walked one at a time
        tracemalloc.start()
        try:
            assert sum(1 for _ in restricted_subsets(400, 200, 1)) == 40_001
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cost_follows_output(self):
        start = time.perf_counter()
        assert [s.elements for s in restricted_subsets(40, 20, 0)] == [tuple(range(21, 41))]
        assert time.perf_counter() - start < 1.0

    def test_priced(self, monkeypatch):
        # R(60, 30; 30) = C(60, 30) subsets, refused before any is listed
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="subsets listing"):
            next(restricted_subsets(60, 30, 30))
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(0, 14), data=st.data())
    def test_listed_subsets_pass_the_checks(self, n, data):
        # restricted_subsets builds each object with _make; the validating
        # constructor accepts it and keeps it as it is
        k = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, 4))
        for s in restricted_subsets(n, k, j):
            rebuilt = RestrictedSubset(*s)
            assert rebuilt == s and list(map(type, rebuilt)) == list(map(type, s))

    def test_value_type(self):
        # built positionally, immutable, hashable, printed with its field names
        s = RestrictedSubset((2, 4), 4, 2, 1)
        assert repr(s) == "RestrictedSubset(elements=(2, 4), n=4, k=2, j=1)"
        with pytest.raises(AttributeError):
            s.j = 2
        listed = list(restricted_subsets(4, 2, 1))[3]
        assert s == listed and hash(s) == hash(listed)
        assert RestrictedSubset([2, 4], 4, 2, 1).elements == (2, 4)

    def test_validation(self):
        with pytest.raises(DomainViolation):
            RestrictedSubset((1, 2), 4, 2, 0)  # meets {1,2} in 2 > 0 elements
        with pytest.raises(DomainViolation):
            RestrictedSubset((0, 1), 4, 2, 2)  # 0 outside the ground set
        with pytest.raises(DomainViolation):
            RestrictedSubset((1, 2), 4, 3, 2)  # wrong cardinality
        with pytest.raises(DomainViolation, match=r"subset \(1.5, 3\) not within \{1..3\}"):
            RestrictedSubset((1.5, 3), 3, 2, 1)  # not an integer
        with pytest.raises(DomainViolation, match="n must be an integer, got 3.5"):
            RestrictedSubset((1, 2), 3.5, 2, 1)
        with pytest.raises(DomainViolation, match="k must be an integer, got 2.0"):
            RestrictedSubset((1, 3), 3, 2.0, 1)
        with pytest.raises(DomainViolation, match="j must be an integer, got 1.5"):
            RestrictedSubset((1, 3), 3, 2, 1.5)


class Size(int):
    def __repr__(self) -> str:
        return f"Size({int(self)})"


# every public edge of generate and numbers checks its sizes with
# limits.require_sizes before it reads them, and a bool is not a size
SIZE_EDGES = {
    "restricted_subsets(6.0, 3, 1)":
        (lambda: list(restricted_subsets(6.0, 3, 1)), "n must be an integer, got 6.0"),
    "canonical_avoiders(4.0, 1)":
        (lambda: list(canonical_avoiders(4.0, 1)), "n must be an integer, got 4.0"),
    "all_binary_words(3.0)": (lambda: all_binary_words(3.0), "n must be an integer, got 3.0"),
    "triangle_rows(5.0)": (lambda: triangle_rows(5.0), "n_max must be an integer, got 5.0"),
    "triangle_rows(5, 1.5, linear)":
        (lambda: triangle_rows(5, 1.5, method="linear"), "j must be an integer, got 1.5"),
    "linear_row(3.0, 1)":
        (lambda: TriangleCache().linear_row(3.0, 1), "n must be an integer, got 3.0"),
    "product_row(3.0)": (lambda: TriangleCache().product_row(3.0), "n must be an integer, got 3.0"),
    "ascent_sequences(3.0)": (lambda: list(ascent_sequences(3.0)), "n must be an integer, got 3.0"),
    "avoiders(3.0)": (lambda: list(avoiders(3.0)), "n must be an integer, got 3.0"),
    "avoiders(4, 001/210, 1.5)":
        (lambda: list(avoiders(4, PATTERNS, 1.5)), "k must be an integer, got 1.5"),
    "count_words_with_ascents(5, 2, -1)":
        (lambda: count_words_with_ascents(5, 2, -1), "j must be >= 0, got -1"),
    "restricted_subsets(6, 3, -1)":
        (lambda: list(restricted_subsets(6, 3, -1)), "j must be >= 0, got -1"),
    "triangle_rows(True)": (lambda: triangle_rows(True), "n_max must be an integer, got True"),
    "all_binary_words(False)": (lambda: all_binary_words(False), "n must be an integer, got False"),
    "restricted_subsets(6, True, 1)":
        (lambda: list(restricted_subsets(6, True, 1)), "k must be an integer, got True"),
    # nor is any other int subclass
    "words_with_ascents(6, 3, Size(1))":
        (lambda: list(words_with_ascents(6, 3, Size(1))), "j must be an integer, got Size\\(1\\)"),
    # rascal_gen_value takes exact ints with j >= 0 at a glance, and hands
    # anything else to the same checks, so its refusals read the same
    "rascal_gen_value(True, 1, 1)":
        (lambda: rascal_gen_value(True, 1, 1), "n must be an integer, got True"),
    "rascal_gen_value(6, Size(3), 2)":
        (lambda: rascal_gen_value(6, Size(3), 2), "k must be an integer, got Size\\(3\\)"),
    "rascal_gen_value(6, 3, 1.0)": (lambda: rascal_gen_value(6, 3, 1.0), "j must be an integer, got 1.0"),
    "rascal_gen_value(6, 3, True)": (lambda: rascal_gen_value(6, 3, True), "j must be an integer, got True"),
    "rascal_gen_value(6, 3, -1)": (lambda: rascal_gen_value(6, 3, -1), "j must be >= 0, got -1"),
    "rascal_gen_value(6.0, 3, -1)": (lambda: rascal_gen_value(6.0, 3, -1), "n must be an integer, got 6.0"),
    "rascal_value(6, False)": (lambda: rascal_value(6, False), "k must be an integer, got False"),
    # and a subset names its elements when they are out of order or repeated
    "RestrictedSubset((3, 1), 4, 2, 1)": (
        lambda: RestrictedSubset((3, 1), 4, 2, 1),
        r"subset elements must be sorted and distinct: \(3, 1\)",
    ),
    "RestrictedSubset((2, 2), 4, 2, 1)": (
        lambda: RestrictedSubset((2, 2), 4, 2, 1),
        r"subset elements must be sorted and distinct: \(2, 2\)",
    ),
}


@pytest.mark.parametrize("edge", sorted(SIZE_EDGES))
def test_size_refused_at_the_edge(edge):
    call, message = SIZE_EDGES[edge]
    with pytest.raises(DomainViolation, match=message):
        call()


def test_negative_size_still_empty():
    # a negative n or k lies outside the triangle: nothing listed, 0 counted
    assert list(canonical_avoiders(-1, 0)) == list(canonical_avoiders(3, -1)) == []
    assert list(avoiders(4, PATTERNS, -1)) == list(restricted_subsets(-1, 0, 1)) == []
    assert list(restricted_subsets(3, -1, 1)) == [] and count_words_with_ascents(3, -1, 1) == 0
    assert rascal_gen_value(-1, 0, 2) == rascal_gen_value(3, -1, 2) == rascal_value(3, 5) == 0
