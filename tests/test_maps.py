"""Pointwise behaviour of every constructive map, plus the exhaustive
verifiers at small sizes."""

import ast
import re
import time
from enum import IntEnum
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal import cli, generate, limits, maps, words
from rascal.errors import DomainViolation, ResourceLimit
from rascal.generate import RestrictedSubset, restricted_subsets, words_with_ascents
from rascal.maps import (
    MarkedWord,
    SignedPair,
    altbin_involution,
    ascseq_to_word,
    divider_decode,
    divider_encode,
    genalt_involution,
    ratio_map,
    signed_pair,
    strip,
    subset_to_word,
    sym_map,
    unstrip,
    verify_altbin,
    verify_ascseq,
    verify_divider,
    verify_genalt,
    verify_ratio,
    verify_strip,
    verify_subset,
    verify_sym,
    word_to_ascseq,
    word_to_subset,
)
from rascal.numbers import rascal_gen_value
from rascal.words import as_word, asc, contains_001, contains_210, is_ascent_sequence, word_str
from reference import ascseq_word


class TestRunProfile:
    def test_round_trip_on_small_words(self):
        from rascal.maps import _from_runs, _runs
        from rascal.generate import all_binary_words

        for n in range(9):
            for w in map(bytes, all_binary_words(n)):
                runs = _runs(w)
                assert _from_runs(runs) == w
                assert len(runs) == 2 * asc(tuple(w)) + 2


class TestSymMap:
    def test_staircase_words(self):
        for n in range(8):
            for k in range(n + 1):
                b = (1,) * k + (0,) * (n - k)
                assert sym_map(b) == (1,) * (n - k) + (0,) * k

    def test_examples(self):
        assert word_str(sym_map("110")) == "100"
        assert word_str(sym_map("1001")) == "0110"

    def test_rejects_two_ascents(self):
        with pytest.raises(DomainViolation):
            sym_map("01010")

    def test_involution_up_to_n12(self):
        report = verify_sym(12)
        assert report["ok"], report["details"][:3]


class TestStripUnstrip:
    def test_strip_example(self):
        assert word_str(strip("110010", 1, 1)) == "1001"

    def test_identity(self):
        assert strip("110010", 0, 0) == as_word("110010")

    def test_unstrip_example(self):
        assert word_str(unstrip("10", 2, 1)) == "11100"
        assert strip("11100", 2, 1) == as_word("10")

    def test_insufficient_prefix(self):
        with pytest.raises(DomainViolation):
            strip("0110", 1, 0)
        with pytest.raises(DomainViolation):
            strip("0110", 0, 2)

    def test_exhaustive(self):
        report = verify_strip(8)
        assert report["ok"], report["details"][:3]


# ascseq_to_word's refusals, one per message (the k's split in two and a
# tail that is not constant share the last)
ASCSEQ_REFUSALS = {
    "": "the empty sequence is outside the family (lengths are n+1 >= 1)",
    "10": "10 does not start with the staircase 0..0",
    "0010": "0010 is missing its largest letter after the staircase",
    "01212": "01212 does not end in a constant block below 2",
    "01210": "01210 does not end in a constant block below 2",
}


@st.composite
def near_ascseqs(draw):
    """A staircase 0..k-1, a block of k's and a block of one letter up to
    k, with up to two letters after the staircase set to any of 0..k."""
    k = draw(st.integers(0, 5))
    w = [*range(k), *[k] * draw(st.integers(0, 4)), *[draw(st.integers(0, k))] * draw(st.integers(0, 4))]
    for _ in range(draw(st.integers(0, 2)) if len(w) > k else 0):
        w[draw(st.integers(k, len(w) - 1))] = draw(st.integers(0, k))
    return w[:12]


class TestWordAscseqBridge:
    def test_zero_ascent_case(self):
        assert word_str(word_to_ascseq("1100")) == "01222"

    def test_one_ascent_case(self):
        seq = word_to_ascseq("1010")
        assert word_str(seq) == "01211"
        from rascal.words import contains_001, contains_210

        assert not contains_001(seq) and not contains_210(seq)

    def test_empty_word(self):
        assert word_to_ascseq(()) == (0,)
        assert ascseq_to_word((0,)) == ()

    def test_rejects_two_ascents(self):
        with pytest.raises(DomainViolation):
            word_to_ascseq("0101")

    def test_rejects_sequences_outside_family(self):
        for bad in ("", "10", "0101", "0011", "0121012"):
            with pytest.raises(DomainViolation):
                ascseq_to_word(bad)

    @pytest.mark.parametrize("bad", sorted(ASCSEQ_REFUSALS))
    def test_refusal_messages(self, bad):
        with pytest.raises(DomainViolation, match=f"^{re.escape(ASCSEQ_REFUSALS[bad])}$"):
            ascseq_to_word(bad)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(near_ascseqs(), near_ascseqs(), st.lists(st.integers(0, 6), max_size=12)).map(tuple))
    def test_matches_letter_by_letter_reading(self, w):
        try:
            expected = ascseq_word(w)
        except ValueError as refused:
            with pytest.raises(DomainViolation, match=f"^{re.escape(str(refused))}$"):
                ascseq_to_word(w)
        else:
            assert ascseq_to_word(w) == expected

    def test_exhaustive(self):
        report = verify_ascseq(9)
        assert report["ok"], report["details"][:3]


class TestSubsetBridge:
    def test_high_only(self):
        s = word_to_subset("100", 1)
        assert s.elements == (3,)
        assert word_str(subset_to_word(s)) == "100"

    def test_low_only(self):
        s = word_to_subset("001", 1)
        assert s.elements == (2,)
        assert word_str(subset_to_word(s)) == "001"

    def test_mixed(self):
        s = word_to_subset("1001", 1)
        assert s.elements == (2, 4)
        assert asc(as_word("1001")) == 1
        assert word_str(subset_to_word(s)) == "1001"

    def test_rejects_words_over_bound(self):
        with pytest.raises(DomainViolation):
            word_to_subset("0101", 1)

    def test_exhaustive(self):
        report = verify_subset(10, 3)
        assert report["ok"], report["details"][:3]


# the maps that build a word longer than their input, each priced by the
# letters it builds: (the map, a call, its price), far over the default cap
# and small enough to build
OVER_CAP = [
    ("unstrip", lambda: unstrip("0", 10**9, 0), 10**9 + 1),
    ("divider_encode", lambda: divider_encode([], 10**9), 10**9),
    ("subset_to_word", lambda: subset_to_word(RestrictedSubset((), 10**9, 0, 0)), 10**9),
    ("subset_to_word", lambda: subset_to_word(RestrictedSubset((), 3 * 10**6, 0, 0)), 3 * 10**6),
]
SMALL_BUILDS = [
    ("unstrip", lambda: unstrip("01", 3, 2), 7),
    ("divider_encode", lambda: divider_encode([2, 4], 5), 5),
    ("subset_to_word", lambda: subset_to_word(RestrictedSubset((2, 4), 4, 2, 1)), 4),
]


class TestPricedBuilds:
    @pytest.mark.parametrize(("name", "call", "price"), OVER_CAP)
    def test_refused_at_once(self, name, call, price, monkeypatch):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match=f"^{name} needs {price} cells, over the cap {1 << 20}$"):
            call()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(("name", "call", "price"), SMALL_BUILDS)
    def test_priced_at_the_word_length(self, name, call, price):
        assert len(limits.run_capped(price, call)) == price
        with pytest.raises(ResourceLimit, match=f"^{name} needs {price} cells, over the cap {price - 1}$"):
            limits.run_capped(price - 1, call)


class TestDivider:
    def test_empty_subset(self):
        assert word_str(divider_encode((), 3)) == "111"

    def test_leading_divider(self):
        assert word_str(divider_encode((1,), 2)) == "00"
        assert divider_decode("00") == (1,)

    def test_n2_j0_sweep(self):
        images = {
            subset: word_str(divider_encode(subset, 2)) for subset in [(), (1,), (2,)]
        }
        assert images == {(): "11", (1,): "00", (2,): "10"}
        zero_ascent = {"11", "00", "10"}
        assert set(images.values()) == zero_ascent

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainViolation):
            divider_encode((0,), 3)
        with pytest.raises(DomainViolation):
            divider_encode((4,), 3)

    def test_exhaustive(self):
        report = verify_divider(10, 3)
        assert report["ok"], report["details"][:3]


class TestRatioMap:
    def test_identity_case(self):
        mw = MarkedWord(as_word("110"), 2)
        assert ratio_map(mw) == mw

    def test_rotation_case(self):
        out = ratio_map(MarkedWord(as_word("011"), 3))
        assert (word_str(out.word), out.mark) == ("101", 1)

    def test_mark_must_not_be_first_one(self):
        with pytest.raises(DomainViolation):
            ratio_map(MarkedWord(as_word("011"), 2))

    def test_mark_must_sit_on_a_one(self):
        with pytest.raises(DomainViolation):
            MarkedWord(as_word("011"), 1)

    def test_sweep_n3_k2(self):
        report = verify_ratio(3, 2)
        assert report["ok"], report["details"][:3]
        assert report["image_size"] == 3
        assert report["target_size"] == 4
        assert report["missed"] == ["110 mark 1"]

    def test_image_is_one_short_everywhere(self):
        for n in range(2, 11):
            for k in range(1, n):
                report = verify_ratio(n, k)
                assert report["ok"], report["details"][:3]
                assert report["image_size"] == report["target_size"] - 1


class TestAltbinInvolution:
    def test_fixed_point_criterion(self):
        r, n, k = 2, 2, 1
        # word ends in exactly r - |S| = 0 zeros and r is in S
        pair = signed_pair({1, 2}, "0001", r)
        assert maps._altbin_fixed(_triple(pair), r)
        assert altbin_involution(1, pair, r, n, k) == pair

    def test_many_trailing_zeros_toggles_r(self):
        r, n, k = 2, 2, 1
        pair = signed_pair({1}, "1000", r)
        out = altbin_involution(1, pair, r, n, k)
        assert out.subset == frozenset({1, 2})
        assert out.word == pair.word
        assert out.weight == -pair.weight

    def test_stage2_requires_fixed_points(self):
        r, n, k = 2, 2, 1
        with pytest.raises(DomainViolation):
            altbin_involution(2, signed_pair({1}, "1000", r), r, n, k)

    def test_full_sweep_r2(self):
        report = verify_altbin(2, 2, 1)
        assert report["ok"], report["details"][:3]
        assert report["signed_sum"] == 0

    def test_r_below_two_rejected(self):
        with pytest.raises(DomainViolation):
            verify_altbin(1, 2, 1)


class TestGenaltInvolution:
    def test_stage0_odd_leading_run(self):
        # one leading 1 moves to the trailing zero run
        assert word_str(genalt_involution(0, "10110", 2)) == "01100"

    def test_stage0_even_leading_run(self):
        assert word_str(genalt_involution(0, "110100", 1)) == "111010"

    def test_odd_length_leaves_nothing_fixed(self):
        report = verify_genalt(5, 1)
        assert report["ok"], report["details"][:3]
        assert report["fixed_points"] == 0
        assert report["signed_sum"] == 0

    def test_n6_signed_sum(self):
        report = verify_genalt(6, 1)
        assert report["ok"], report["details"][:3]
        assert report["signed_sum"] == 1 - 6 + 9 - 10 + 9 - 6 + 1 == -2

    def test_stage_requires_earlier_fixed_points(self):
        with pytest.raises(DomainViolation):
            genalt_involution(1, "10", 1)  # odd leading run, not fixed by stage 0

    def test_sweep(self):
        for n in range(11):
            for j in range(4):
                report = verify_genalt(n, j)
                assert report["ok"], (n, j, report["details"][:3])


class TestCheckedCounts:
    """Objects checked at fixed sizes; a verifier that silently skips
    part of its domain changes these counts."""

    @pytest.mark.parametrize(
        "verifier, args, checked",
        [
            (verify_sym, (10,), 561),
            (verify_strip, (10,), 4004),
            (verify_ascseq, (7,), 162),
            (verify_subset, (10, 3), 8184),
            (verify_divider, (10, 3), 4092),
            (verify_ratio, (10, 5), 209),
            (verify_altbin, (3, 8, 4), 184),
            (verify_genalt, (10, 3), 1402),
            (verify_altbin, (4, 10, 5), 576),
        ],
    )
    def test_pinned(self, verifier, args, checked):
        report = verifier(*args)
        assert (report["ok"], report["checked"], report["details"]) == (True, checked, [])

    @pytest.mark.parametrize(
        "verifier, args, sums",
        [
            (verify_genalt, (10, 3), {"signed_sum": -4, "fixed_points": 26}),
            (verify_altbin, (4, 10, 5), {"signed_sum": 0}),
        ],
    )
    def test_signed_sums_pinned(self, verifier, args, sums):
        report = verifier(*args)
        assert {key: report[key] for key in sums} == sums


class TestCheckBijection:
    def test_reports_each_failure(self):
        from rascal.maps import _check_bijection

        details = []
        checked = _check_bijection(
            "t", "n=3", [1, 2, 3], {1, 2, 4}, lambda x: min(x, 2), lambda y: y, str, details
        )
        assert checked == 3
        assert details == ["t: round trip fails on 3", "t: not onto at (n=3)"]
        details = []
        _check_bijection("t", "n=1", [5], {5}, lambda x: 6, lambda y: 5, str, details)
        assert details == ["t: image of 5 is outside the target family", "t: not onto at (n=1)"]


class TestCheckInvolution:
    def test_reports_each_failure(self):
        from rascal.maps import _check_involution

        details = []
        # 1 <-> 2 is fine; 3 -> 5 moves two grades; 5 -> 4 but 4 is fixed
        moves = {1: 2, 2: 1, 3: 5, 5: 4}
        fixed = _check_involution(
            "t: stage 1", "space", [1, 2, 3, 4, 5], {1, 2, 3, 4, 5}, lambda x: moves.get(x, x),
            lambda x: x, lambda x: x == 4, details, str,
        )
        assert fixed == [4]
        assert details == [
            "t: stage 1 does not change its grade by exactly one on 3",
            "t: stage 1 is not an involution on 5",
        ]
        details = []
        # 1 <-> 4 flips the sign but moves three grades
        _check_involution(
            "t: stage 1", "space", [1, 4], {1, 4}, lambda x: 5 - x, lambda x: x, lambda x: False, details, str
        )
        assert details == [f"t: stage 1 does not change its grade by exactly one on {x}" for x in (1, 4)]
        details = []
        fixed = _check_involution(
            "t: stage 2", "space", [1], {1}, lambda x: x + 1, lambda x: x, lambda x: True, details, str
        )
        assert fixed == []
        assert details == [
            "t: stage 2 image is outside the space on 1",
            "t: stage 2 fixed set differs from its description",
        ]

    def test_three_cycle_reports_each_object(self):
        from rascal.maps import _check_involution

        details = []
        # 1 -> 2 -> 3 -> 1 each move one grade but never come back; 4 <-> 5 pass
        moves = {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}
        fixed = _check_involution(
            "t: stage 1", "space", [1, 2, 3, 4, 5, 6], {1, 2, 3, 4, 5, 6}, lambda x: moves.get(x, x),
            lambda x: x, lambda x: x == 6, details, str,
        )
        assert fixed == [6]
        assert details == [
            "t: stage 1 is not an involution on 1",
            "t: stage 1 is not an involution on 2",
            "t: stage 1 does not change its grade by exactly one on 3",
        ]

    def test_grade_keeping_pairs_report_both_objects(self):
        from rascal.maps import _check_involution

        details = []
        # two involutive pairs whose partners share a grade: no object passes
        moves = {1: 2, 2: 1, 3: 4, 4: 3}
        _check_involution(
            "t: stage 1", "space", [1, 2, 3, 4], {1, 2, 3, 4}, lambda x: moves.get(x, x),
            lambda x: x in (1, 2), lambda x: False, details, str,
        )
        assert details == [f"t: stage 1 does not change its grade by exactly one on {x}" for x in (1, 2, 3, 4)]

    def test_genalt_three_cycle_reports_each_word(self, monkeypatch):
        core = maps._genalt
        cycle = {b"\1\1\0\0": b"\1\0\0\0", b"\1\0\0\0": b"\1\1\1\0", b"\1\1\1\0": b"\1\1\0\0"}
        monkeypatch.setattr(maps, "_genalt", lambda d, w: cycle.get(w, core(d, w)) if d == 0 else core(d, w))
        assert verify_genalt(4, 1)["details"] == [
            "genalt: stage 0 is not an involution on 0000",
            "genalt: stage 0 does not change its grade by exactly one on 1000",
            "genalt: stage 0 is not an involution on 1100",
            "genalt: stage 0 is not an involution on 1110",
        ]

    def test_cached_subset_core_fault_reported_at_every_j(self, monkeypatch):
        core = maps._to_subset
        # 0110 takes the subset of 0101
        monkeypatch.setattr(maps, "_to_subset", lambda b: core(b"\0\1\0\1") if b == b"\0\1\1\0" else core(b))
        assert verify_subset(4, 2)["details"] == [
            "subset: image of 0110 is outside the target family",
            "subset: round trip fails on 0110",
            "subset: not onto at (n=4, k=2, j=1)",
            "subset: round trip fails on (1, 3)",
            "subset: round trip fails on 0110",
            "subset: not onto at (n=4, k=2, j=2)",
            "subset: round trip fails on (1, 3)",
        ]

    def test_cached_divider_core_fault_reported_at_every_n(self, monkeypatch):
        core = maps._divider_encode
        monkeypatch.setattr(maps, "_divider_encode", lambda s, n: core([1, 2], n) if tuple(s) == (1, 3) else core(s, n))
        assert verify_divider(4, 1)["details"] == [
            "divider: round trip fails on (1, 3)",
            "divider: not onto at (n=3, j=1)",
            "divider: round trip fails on (1, 3)",
            "divider: not onto at (n=4, j=1)",
        ]

    def test_genalt_stage_keeping_parity_fails(self, monkeypatch):
        core = maps._genalt
        # reversal keeps the number of ones, so the sign does not flip
        monkeypatch.setattr(maps, "_genalt", lambda d, w: w[::-1] if d == 0 else core(d, w))
        report = verify_genalt(4, 2)  # every word of length 4 has at most 2 ascents
        assert not report["ok"]
        assert "genalt: stage 0 does not change its grade by exactly one on 0001" in report["details"]

    def test_altbin_stage2_fixed_point_fails(self, monkeypatch):
        core = maps._altbin

        def fixing(stage, p, r):
            return p if stage == 2 and 1 in p[0] else core(stage, p, r)

        monkeypatch.setattr(maps, "_altbin", fixing)
        report = verify_altbin(2, 3, 1)
        assert not report["ok"]
        assert "altbin: stage 2 fixed set differs from its description" in report["details"]


class TestCoreCalls:
    """Each core runs once per distinct object, as the maps docstring says."""

    def test_altbin_core_and_description_once_per_object(self, monkeypatch):
        calls = {"core": [], "description": []}
        core, description = maps._altbin, maps._altbin_fixed
        monkeypatch.setattr(maps, "_altbin", lambda stage, p, r: calls["core"].append((stage, p)) or core(stage, p, r))
        monkeypatch.setattr(maps, "_altbin_fixed", lambda p, r: calls["description"].append(p) or description(p, r))
        report = verify_altbin(4, 10, 5)
        assert (report["ok"], report["checked"]) == (True, 576)
        space = calls["description"]
        assert len(space) == len(set(space)) == 576
        for stage, domain in ((1, set(space)), (2, {p for p in space if description(p, 4)})):
            objects = [p for at, p in calls["core"] if at == stage]
            assert len(objects) == len(set(objects)) and set(objects) == domain, stage

    def test_subset_cores_miss_once_per_object(self, monkeypatch):
        calls = {"_to_subset": [], "_from_subset": []}
        to_subset, from_subset = maps._to_subset, maps._from_subset
        monkeypatch.setattr(maps, "_to_subset", lambda s: calls["_to_subset"].append(s) or to_subset(s))
        monkeypatch.setattr(
            maps, "_from_subset", lambda e, n, k: calls["_from_subset"].append((e, n, k)) or from_subset(e, n, k)
        )
        assert verify_subset(6, 2)["ok"]
        objects = sum(rascal_gen_value(n, k, 2) for n in range(7) for k in range(n + 1))
        for name, seen in calls.items():
            assert len(seen) == len(set(seen)) == objects, name


# ---------------------------------------------------------------------------
# properties on random objects of length up to 200, built here from run
# lengths without the maps under test

N_MAX = 200
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def _composition(draw, total, parts):
    """(a_0, a_1..a_parts): a_0 >= 0, the rest >= 1, summing to total."""
    cuts = sorted(draw(st.lists(st.integers(0, total - parts), min_size=parts, max_size=parts)))
    bounds = [0, *cuts, total - parts]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    return [sizes[0]] + [size + 1 for size in sizes[1:]]


def _word(x0, pairs, y0):
    """1^x0 (0^y 1^x for each (y, x) in pairs) 0^y0."""
    bits = [1] * x0
    for zeros, ones in pairs:
        bits += [0] * zeros + [1] * ones
    return tuple(bits + [0] * y0)


def _ascents_word(draw, n, k, m):
    """A word of length n with k ones and exactly m ascents."""
    xs, ys = _composition(draw, k, m), _composition(draw, n - k, m)
    return _word(xs[0], list(zip(ys[1:], xs[1:])), ys[0])


def _lead(b):
    return next((i for i, x in enumerate(b) if x != 1), len(b))


def _trail(b):
    return _lead(tuple(1 - x for x in reversed(b)))


def _triple(pair):
    """The (S, w, z) triple that the altbin cores read for a signed pair."""
    return pair.subset, bytes(pair.word), _trail(pair.word)


@st.composite
def family_words(draw, j_max=4):
    """(b, j): a word of length <= N_MAX with at most j ascents."""
    j = draw(st.integers(0, j_max))
    n = draw(st.integers(0, N_MAX))
    k = draw(st.integers(0, n))
    return _ascents_word(draw, n, k, draw(st.integers(0, min(j, k, n - k)))), j


one_ascent_words = family_words(j_max=1).map(lambda bj: bj[0])


@st.composite
def many_ascent_words(draw):
    """A word of length <= N_MAX with at least two ascents."""
    n = draw(st.integers(4, N_MAX))
    k = draw(st.integers(2, n - 2))
    return _ascents_word(draw, n, k, draw(st.integers(2, min(k, n - k))))


@st.composite
def restricted_subset_objects(draw):
    n = draw(st.integers(0, N_MAX))
    k = draw(st.integers(0, n))
    j = draw(st.integers(0, 4))
    m = draw(st.integers(0, min(j, k, n - k)))
    low = draw(st.sets(st.integers(1, n - k), min_size=m, max_size=m)) if m else set()
    # the high part keeps all of {n-k+1..n} but m elements
    dropped = draw(st.sets(st.integers(n - k + 1, n), min_size=m, max_size=m)) if m else set()
    high = set(range(n - k + 1, n + 1)) - dropped
    return RestrictedSubset(tuple(sorted(low | high)), n, k, j)


@st.composite
def altbin_pairs(draw):
    """(pair, r, n, k): a signed pair of the alternating-sum set."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(0, N_MAX - r))
    k = draw(st.integers(0, n))
    subset = frozenset(draw(st.sets(st.integers(1, r))))
    t = r - len(subset)
    length = n + r - t
    word = _ascents_word(draw, length, k, draw(st.integers(0, min(1, k, length - k)))) + (0,) * t
    return SignedPair(subset, word, (-1) ** t), r, n, k


@st.composite
def altbin_fixed_points(draw):
    """(pair, r, n, k): r in S and exactly r - |S| trailing zeros after
    a one-ascent word."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(1, N_MAX - r))
    k = draw(st.integers(1, n))
    subset = frozenset({r}) | draw(st.sets(st.integers(1, r - 1)))
    t = r - len(subset)
    x = draw(st.integers(1, k))
    word = _word(k - x, [(n + r - k - t, x)], t)
    return SignedPair(subset, word, (-1) ** t), r, n, k


@st.composite
def genalt_fixed_points(draw):
    """(d, w, j): a fixed point of stages 0..d-1 -- even leading run, no
    trailing zeros, inner pairs 1..d-1 of one zero and an odd 1-run."""
    j = draw(st.integers(1, 4))
    d = draw(st.integers(1, j))
    pairs = [(1, 2 * draw(st.integers(0, 10)) + 1) for _ in range(d - 1)]
    more = draw(st.integers(0, j - d + 1))
    pairs += [(draw(st.integers(1, 20)), draw(st.integers(1, 20))) for _ in range(more)]
    return d, _word(2 * draw(st.integers(0, 10)), pairs, 0), j


@st.composite
def marked_word_pairs(draw):
    """Two marked words of one (n, k): at most one ascent, the circled 1
    not the first 1."""
    n = draw(st.integers(2, N_MAX))
    k = draw(st.integers(2, n))

    def marked():
        b = _ascents_word(draw, n, k, draw(st.integers(0, min(1, n - k))))
        ones = [i + 1 for i, x in enumerate(b) if x == 1]
        return MarkedWord(b, draw(st.sampled_from(ones[1:])))

    return marked(), marked()


class TestMapProperties:
    @PROPERTY
    @given(one_ascent_words)
    def test_sym_map_reverse_complement_involution(self, b):
        out = sym_map(b)
        assert out == tuple(1 - x for x in reversed(b))
        assert sym_map(out) == b

    @PROPERTY
    @given(one_ascent_words, st.data())
    def test_strip_unstrip_round_trip(self, b, data):
        lead = data.draw(st.integers(0, _lead(b)))
        trail = data.draw(st.integers(0, _trail(b)))
        out = strip(b, lead, trail)
        assert out == b[lead : len(b) - trail]
        assert unstrip(out, lead, trail) == b

    @PROPERTY
    @given(one_ascent_words)
    def test_word_ascseq_round_trip(self, b):
        seq = word_to_ascseq(b)
        assert len(seq) == len(b) + 1 and is_ascent_sequence(seq) and asc(seq) == sum(b)
        assert not contains_001(seq) and not contains_210(seq)
        assert ascseq_to_word(seq) == b

    @PROPERTY
    @given(family_words())
    def test_word_subset_round_trip(self, bj):
        b, j = bj
        n, k = len(b), sum(b)
        s = word_to_subset(b, j)
        assert (s.n, s.k, s.j) == (n, k, j)
        assert sum(1 for e in s.elements if e <= n - k) == asc(b)
        assert subset_to_word(s) == b

    @PROPERTY
    @given(restricted_subset_objects())
    def test_subset_word_round_trip(self, s):
        b = subset_to_word(s)
        assert (len(b), sum(b)) == (s.n, s.k) and asc(b) <= s.j
        assert word_to_subset(b, s.j) == s

    @PROPERTY
    @given(st.integers(0, N_MAX).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, max(n, 1))))))
    def test_divider_round_trip(self, n_subset):
        n, subset = n_subset
        subset = {e for e in subset if e <= n}
        b = divider_encode(subset, n)
        assert len(b) == n and asc(b) == len(subset) // 2
        assert divider_decode(b) == tuple(sorted(subset))
        assert divider_encode(divider_decode(b), n) == b

    @PROPERTY
    @given(altbin_pairs())
    def test_altbin_stage1_sign_reversing_involution(self, case):
        pair, r, n, k = case
        out = altbin_involution(1, pair, r, n, k)
        if out == pair:
            assert r in pair.subset and _trail(pair.word) == r - len(pair.subset)
            assert maps._altbin_fixed(_triple(pair), r)
            return
        assert out.word == pair.word and out.subset == pair.subset ^ {r}
        assert out.weight == -pair.weight
        assert altbin_involution(1, out, r, n, k) == pair

    @PROPERTY
    @given(altbin_fixed_points())
    def test_altbin_stage2_sign_reversing_involution(self, case):
        pair, r, n, k = case
        assert maps._altbin_fixed(_triple(pair), r)
        out = altbin_involution(2, pair, r, n, k)
        assert out != pair and out.weight == -pair.weight
        assert out.subset == pair.subset ^ {1} and maps._altbin_fixed(_triple(out), r)
        assert altbin_involution(2, out, r, n, k) == pair

    @PROPERTY
    @given(family_words())
    def test_genalt_stage0_sign_reversing_involution(self, bj):
        b, j = bj
        out = genalt_involution(0, b, j)
        if out == b:
            assert _lead(b) % 2 == 0 and _trail(b) == 0
            return
        assert abs(sum(out) - sum(b)) == 1
        assert genalt_involution(0, out, j) == b

    @PROPERTY
    @given(genalt_fixed_points())
    def test_genalt_stage_d_sign_reversing_involution(self, case):
        d, w, j = case
        assert asc(w) <= j and maps._genalt_fixed(bytes(w), d - 1)
        out = genalt_involution(d, w, j)
        if out == w:
            assert maps._genalt_fixed(bytes(w), d)
            return
        assert abs(sum(out) - sum(w)) == 1
        assert asc(out) <= j and maps._genalt_fixed(bytes(out), d - 1) and not maps._genalt_fixed(bytes(out), d)
        assert genalt_involution(d, out, j) == w

    @PROPERTY
    @given(marked_word_pairs())
    def test_ratio_map_injective(self, pair):
        a, b = pair
        out_a, out_b = ratio_map(a), ratio_map(b)
        assert out_a.word[0] == 1 and out_b.word[0] == 1
        assert (out_a == out_b) == (a == b)

    @PROPERTY
    @given(marked_word_pairs(), family_words(), altbin_pairs(), altbin_fixed_points())
    def test_unchecked_outputs_pass_the_checks(self, marked, bj, pair, fixed):
        # each object a map builds with _make is one its validating
        # constructor accepts and keeps as it is, field types included
        outs = [ratio_map(marked[0]), word_to_subset(*bj)]
        for stage, (p, r, n, k) in ((1, pair), (2, fixed)):
            outs += [altbin_involution(stage, p, r, n, k), signed_pair(p.subset, p.word, r)]
        for out in outs:
            rebuilt = type(out)(*out)
            assert rebuilt == out and list(map(type, rebuilt)) == list(map(type, out))

    @PROPERTY
    @given(many_ascent_words())
    def test_two_ascents_rejected(self, b):
        m = asc(b)
        second_one = [i + 1 for i, x in enumerate(b) if x == 1][1]
        for call in (
            lambda: sym_map(b),
            lambda: word_to_ascseq(b),
            lambda: word_to_subset(b, m - 1),
            lambda: genalt_involution(0, b, m - 1),
            lambda: ratio_map(MarkedWord(b, second_one)),
            lambda: strip(b, _lead(b) + 1, 0),
            lambda: strip(b, 0, _trail(b) + 1),
        ):
            with pytest.raises(DomainViolation):
                call()

    @PROPERTY
    @given(one_ascent_words, st.data())
    def test_non_binary_and_out_of_range_rejected(self, b, data):
        bad = b + (2,)
        for call in (
            lambda: sym_map(bad),
            lambda: strip(bad, 0, 0),
            lambda: unstrip(bad, 0, 0),
            lambda: word_to_ascseq(bad),
            lambda: word_to_subset(bad, 4),
            lambda: divider_decode(bad),
            lambda: genalt_involution(0, bad, 4),
            lambda: divider_encode({len(b) + data.draw(st.integers(1, 5))}, len(b)),
            lambda: divider_encode({-data.draw(st.integers(0, 5))}, len(b)),
            lambda: divider_encode({data.draw(st.integers(1, 5)) + 0.5}, len(b) + 6),
            lambda: strip(b, 0.0, 0),
            lambda: unstrip(b, 0, 0.0),
            lambda: word_to_subset(b, 4.0),
            lambda: genalt_involution(0.0, b, 4),
            lambda: MarkedWord(b + (1,), float(len(b) + 1)),
            lambda: signed_pair({1.5}, b + (0, 0), 2),
        ):
            with pytest.raises(DomainViolation):
                call()


class TestRunScans:
    """The tuple.index scans against runs read off by itertools.groupby."""

    @PROPERTY
    @given(st.lists(st.integers(0, 1), max_size=N_MAX).map(tuple))
    def test_against_groupby(self, b):
        from rascal.maps import _from_runs, _leading_ones, _runs, _trailing_zeros

        runs = [(bit, len(list(group))) for bit, group in groupby(b)]
        x0 = runs.pop(0)[1] if runs and runs[0][0] == 1 else 0
        y0 = runs.pop()[1] if runs and runs[-1][0] == 0 else 0
        pairs = [(zeros, ones) for (_, zeros), (_, ones) in zip(runs[::2], runs[1::2])]
        expected = [x0, *(size for pair in pairs for size in pair), y0]
        assert _runs(bytes(b)) == expected
        assert _from_runs(expected) == bytes(b)
        assert (_leading_ones(bytes(b)), _trailing_zeros(bytes(b))) == (x0, y0)

    @PROPERTY
    @given(st.integers(0, 1), st.lists(st.integers(1, 400), max_size=200))
    def test_codec_on_long_words(self, first, sizes):
        # up to 2,000 letters in runs that alternate from `first`, any number of ascents
        from rascal.maps import _from_runs, _runs

        s = bytes(bit for i, size in enumerate(sizes) for bit in [(first + i) % 2] * size)[:2000]
        groups = [len(list(group)) for _, group in groupby(s)]
        expected = ([] if s[:1] == b"\x01" else [0]) + groups + ([] if s[-1:] == b"\x00" else [0])
        runs = _runs(s)
        assert _from_runs(runs) == s
        assert len(runs) == 2 * s.count(b"\x00\x01") + 2
        assert runs == expected


class TestValueTypes:
    """Named, immutable and hashable, printed as Name(field=value, ...)."""

    def test_marked_word(self):
        mw = MarkedWord("0110", 3)
        assert repr(mw) == "MarkedWord(word=(0, 1, 1, 0), mark=3)"
        assert str(mw) == "0110 mark 3"
        with pytest.raises(AttributeError):
            mw.mark = 2
        assert mw == MarkedWord((0, 1, 1, 0), 3) and hash(mw) == hash(MarkedWord((0, 1, 1, 0), 3))

    def test_signed_pair(self):
        pair = SignedPair({1}, "1000", -1)
        assert repr(pair) == "SignedPair(subset=frozenset({1}), word=(1, 0, 0, 0), weight=-1)"
        with pytest.raises(AttributeError):
            pair.weight = 1
        same = signed_pair([1], (1, 0, 0, 0), 2)
        assert pair == same and hash(pair) == hash(same)


# refusals at the public edge of the alternating-binomial maps: (call, message)
EDGE_REFUSALS = {
    "signed_pair, too few trailing zeros":
        (lambda: signed_pair({1}, "0001", 2), "0001 ends in fewer than 1 zeros"),
    "altbin_involution, stage 3":
        (lambda: altbin_involution(3, signed_pair({1}, "1000", 2), 2, 2, 1), "stage must be 1 or 2"),
    "altbin_involution, wrong length":
        (lambda: altbin_involution(1, signed_pair({1}, "10000", 2), 2, 2, 1), "10000 is not a length-4 word with 1 ones"),
    "altbin_involution, wrong number of ones":
        (lambda: altbin_involution(1, signed_pair({1}, "1100", 2), 2, 2, 1), "1100 is not a length-4 word with 1 ones"),
}


class TestPublicEdge:
    @pytest.mark.parametrize("edge", sorted(EDGE_REFUSALS))
    def test_refusal_named(self, edge):
        call, message = EDGE_REFUSALS[edge]
        with pytest.raises(DomainViolation, match=message):
            call()

    def test_mis_signed_pair_rejected(self):
        # the true sign of ({2}, 1000) at r = 2 is (-1)^(2-1) = -1
        pair = SignedPair(frozenset({2}), (1, 0, 0, 0), 1)
        with pytest.raises(DomainViolation, match=r"1000 with subset \[2\] has weight 1"):
            altbin_involution(1, pair, 2, 2, 1)
        with pytest.raises(DomainViolation, match="weight"):
            altbin_involution(2, SignedPair(frozenset({1, 2}), (0, 0, 0, 1), -1), 2, 2, 1)
        with pytest.raises(DomainViolation, match=r"subset \[1.5\] not within \{1..2\}"):
            signed_pair({1.5}, "000", 2)
        with pytest.raises(DomainViolation, match="r must be an integer, got 2.0"):
            signed_pair({1}, "000", 2.0)

    def test_caller_built_signed_pair_validated(self):
        # altbin_involution builds its output unchecked; a caller's pair is checked
        with pytest.raises(DomainViolation, match="0120 is not a binary word"):
            SignedPair(frozenset({2}), (0, 1, 2, 0), 1)
        with pytest.raises(DomainViolation, match="weight must be"):
            SignedPair(frozenset({2}), (1, 0, 0, 0), 2)
        image = altbin_involution(1, SignedPair({2}, "1000", -1), 2, 2, 1)
        assert image == SignedPair(frozenset(), (1, 0, 0, 0), 1)
        assert (type(image.subset), type(image.word)) == (frozenset, tuple)

    def test_validated_input_word_not_checked_again(self, monkeypatch):
        # MarkedWord and SignedPair checked their words when built; the maps
        # check only the ascent bound
        cases = [
            (ratio_map, MarkedWord("0110", 3)),
            (ratio_map, MarkedWord("1100", 2)),
            (lambda pair: altbin_involution(1, pair, 2, 2, 1), signed_pair({1}, "1000", 2)),
            (lambda pair: altbin_involution(2, pair, 2, 2, 1), signed_pair({1, 2}, "0001", 2)),
        ]
        # every word is read through _letters, which maps imports by name
        seen = []
        read = words._letters
        for module in (words, maps):
            monkeypatch.setattr(module, "_letters", lambda w: seen.append(w) or read(w))
        for call, obj in cases:
            call(obj)
            assert obj.word not in seen, call
        # signed_pair checks its word once, and ratio_map's image is not checked
        seen.clear()
        signed_pair({1}, "1000", 2)
        assert seen == ["1000"]
        mw = MarkedWord("0110", 3)
        seen.clear()
        assert ratio_map(mw).word == (1, 0, 1, 0) and seen == []
        # a RestrictedSubset that a core built checks no sizes of its own
        calls = []
        require_sizes = limits.require_sizes
        for module in (maps, generate):
            monkeypatch.setattr(module, "require_sizes", lambda **kw: calls.append(kw) or require_sizes(**kw))
        word_to_subset("0110", 1)
        assert calls == [{"j": 1}]
        subsets = restricted_subsets(8, 3, 2)
        next(subsets)
        calls.clear()
        assert len(list(subsets)) == rascal_gen_value(8, 3, 2) - 1 and calls == []
        with pytest.raises(DomainViolation, match="ratio_map: 0101 has 2 ascents, more than 1"):
            ratio_map(MarkedWord("0101", 4))
        with pytest.raises(DomainViolation, match="altbin_involution: 01010 has 2 ascents, more than 1"):
            altbin_involution(1, signed_pair({1}, "01010", 2), 2, 3, 2)

    def test_negative_divider_length_named(self):
        with pytest.raises(DomainViolation, match="n must be >= 0, got -3"):
            divider_encode([], -3)
        with pytest.raises(DomainViolation, match=r"subset \[1.5\] not within \{1..3\}"):
            divider_encode({1.5}, 3)

    def test_negative_genalt_bound_named(self):
        with pytest.raises(DomainViolation, match="j must be >= 0, got -1"):
            genalt_involution(0, (1, 0), -1)
        with pytest.raises(DomainViolation, match="d must be an integer, got 0.0"):
            genalt_involution(0.0, "1100", 1)
        with pytest.raises(DomainViolation, match="lead_ones must be an integer, got 1.0"):
            strip("1100", 1.0, 1)
        with pytest.raises(DomainViolation, match="mark 2.0 is not the position of a 1 in 0110"):
            MarkedWord("0110", 2.0)
        with pytest.raises(DomainViolation, match="n must be an integer, got 6.0"):
            verify_ratio(6.0, 3)
        with pytest.raises(DomainViolation, match="r must be an integer, got 2.0"):
            verify_altbin(2.0, 3, 1)


class Level(IntEnum):
    LOW = -1
    ONE = 1
    TWO = 2


# what an integer input may be handed: exact ints in and out of range, bools,
# an IntEnum, floats, None and strings; a list of them is often an unsortable mix
int_inputs = st.one_of(
    st.integers(-3, 8), st.booleans(), st.sampled_from(Level), st.floats(-3, 8), st.none(), st.text("01a", max_size=2)
)


def _refused_or(call):
    """call(), or None if it raised DomainViolation; any other error propagates."""
    try:
        return call()
    except DomainViolation:
        return None


def _exact(*values) -> bool:
    return all(type(x) is int for x in values)


class TestIntegerRule:
    """Subset elements, marks, weights and stages follow the size rule: a
    value is exactly an int (no bool, other int subclass or float), or the
    edge raises DomainViolation, never a bare TypeError."""

    @PROPERTY
    @given(st.lists(int_inputs, max_size=4))
    def test_restricted_subset_elements(self, elements):
        s = _refused_or(lambda: RestrictedSubset(elements, 4, len(elements), len(elements)))
        assert s is None or _exact(*s.elements, s.n, s.k, s.j)

    @PROPERTY
    @given(st.lists(int_inputs, max_size=4))
    def test_divider_subset(self, subset):
        word = _refused_or(lambda: divider_encode(subset, 4))
        assert word is None or _exact(*subset) and divider_decode(word) == tuple(sorted(set(subset)))

    @PROPERTY
    @given(st.lists(int_inputs, max_size=4))
    def test_signed_pair_subset(self, subset):
        for build in (lambda: signed_pair(subset, "00000", 4), lambda: SignedPair(subset, "00000", 1)):
            pair = _refused_or(build)
            assert pair is None or _exact(*pair.subset, *pair.word, pair.weight)

    @PROPERTY
    @given(int_inputs)
    def test_mark(self, mark):
        mw = _refused_or(lambda: MarkedWord("0110", mark))
        assert mw is None or _exact(*mw.word, mw.mark)

    @PROPERTY
    @given(int_inputs)
    def test_weight(self, weight):
        pair = _refused_or(lambda: SignedPair(frozenset(), "00", weight))
        assert pair is None or _exact(*pair.word, pair.weight)

    @PROPERTY
    @given(int_inputs, st.sampled_from([({1}, "1000"), ({1, 2}, "0001")]))
    def test_stage(self, stage, subset_word):
        image = _refused_or(lambda: altbin_involution(stage, signed_pair(*subset_word, 2), 2, 2, 1))
        assert image is None or _exact(stage, *image.subset, *image.word, image.weight)

    def test_reproductions_refused(self):
        calls = [
            lambda: RestrictedSubset((True, 3), 3, 2, 1),
            lambda: RestrictedSubset((Level.ONE, 3), 3, 2, 1),
            lambda: MarkedWord("1100", True),
            lambda: SignedPair(frozenset(), "00", 1.0),
            lambda: altbin_involution(1.0, signed_pair({1}, "1000", 2), 2, 2, 1),
            lambda: RestrictedSubset((1, "a"), 3, 2, 1),
            lambda: divider_encode([1, "a"], 3),
            lambda: signed_pair({1, "a"}, "10", 2),
            lambda: SignedPair({1.5, True, "a"}, "00", 1),
        ]
        for call in calls:
            with pytest.raises(DomainViolation):
                call()
        # the refusals the exact-int inputs already met keep their words; the
        # subset is read, range first, before its order is checked
        with pytest.raises(DomainViolation, match=r"^subset \(5, 1\) not within \{1..3\}$"):
            RestrictedSubset((5, 1), 3, 2, 1)
        with pytest.raises(DomainViolation, match=r"^subset \(1, 5\) not within \{1..3\}$"):
            RestrictedSubset((1, 5), 3, 2, 1)
        with pytest.raises(DomainViolation, match=r"^subset \[0, 5\] not within \{1..3\}$"):
            divider_encode({5, 0}, 3)
        assert (RestrictedSubset((1, 3), 3, 2, 1).elements, MarkedWord("1100", 2).mark) == ((1, 3), 2)
        assert SignedPair(frozenset(), "00", 1).weight == 1

    def test_one_integer_rule_in_the_source(self):
        # outside words, whose letters are normalized to ints by design, no
        # check takes an int subclass, and one function words the subset range
        sites, ranges = [], []
        for path in sorted((Path(__file__).resolve().parent.parent / "src" / "rascal").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                    kinds = getattr(node.args[1], "elts", [node.args[1]])
                    if path.stem != "words" and any(getattr(k, "id", None) == "int" for k in kinds):
                        sites.append(f"{path.stem}:{node.lineno}")
                elif isinstance(node, ast.Constant) and " not within " in str(node.value):
                    ranges.append(path.stem)
        assert (sites, ranges) == ([], ["limits"])


class TestVerifierStructure:
    """The verifiers validate per family and run the map cores on objects
    the generators built; images are still tested against those targets."""

    SMALL = {
        "sym": (6,),
        "strip": (6,),
        "ascseq": (5,),
        "subset": (6, 2),
        "divider": (6, 2),
        "ratio": (6, 3),
        "altbin": (3, 5, 2),
        "genalt": (6, 2),
    }
    GENERATORS = ("words_with_ascents", "_avoiders", "canonical_avoiders")

    # (verifier call, name in maps of a core or generator the check trusts,
    # the fault made from it, one detail line the fault must cause)
    FAULTS = {
        "strip count": (
            lambda: verify_strip(1), "closed_value",
            lambda core: lambda n, k, j=1: core(n, k, j) + ((n, k) == (1, 0)),
            "strip: count 1 != R = 2 at (n=1, k=0, lead=0, trail=0)",
        ),
        "ascseq canonical family": (
            lambda: verify_ascseq(2), "canonical_avoiders",
            lambda core: lambda n, k: list(core(n, k))[1:] if (n, k) == (3, 1) else core(n, k),
            "ascseq: canonical family differs at n=3, k=1",
        ),
        "subset family sizes": (
            lambda: verify_subset(2, 1), "_restricted_elements",
            lambda core: lambda n, k, j: list(core(n, k, j))[1:] if (n, k, j) == (2, 1, 1) else core(n, k, j),
            "subset: family sizes differ at (n=2, k=1, j=1)",
        ),
        "ratio image outside": (
            lambda: verify_ratio(3, 2), "_ratio",
            lambda core: lambda w, mark: (w, 1) if w[0] == 0 else core(w, mark),
            "ratio: image of (011 mark 3) is outside the target set",
        ),
        "ratio not injective": (
            lambda: verify_ratio(3, 2), "_ratio", lambda core: lambda w, mark: ((1, 1, 0), 2),
            "ratio: map is not injective",
        ),
        "ratio missed count": (
            lambda: verify_ratio(3, 2), "_ratio", lambda core: lambda w, mark: ((1, 1, 0), 2),
            "ratio: expected exactly one missed element, got 3",
        ),
        "ratio missed element": (
            lambda: verify_ratio(3, 2), "_ratio",
            lambda core: lambda w, mark: ((1, 1, 0), 1) if w == (0, 1, 1) else core(w, mark),
            "ratio: missed element is 101 mark 1, not the expected one",
        ),
        "ratio sizes": (
            lambda: verify_ratio(3, 2), "closed_value",
            lambda core: lambda n, k, j=1: core(n, k, j) + ((n, k) == (3, 2)),
            "ratio: source/target sizes disagree with the counting identity",
        ),
        "altbin binomial sum": (
            lambda: verify_altbin(2, 2, 1), "closed_value",
            lambda core: lambda n, k, j=1: core(n, k, j) + ((n, k) == (4, 1)),
            "altbin: signed sum 0 != binomial sum 1",
        ),
        "altbin signed sum": (
            lambda: verify_altbin(2, 2, 1), "_altbin_space", lambda core: lambda r, zeros: core(r, zeros)[1:],
            "altbin: signed sum is -1, expected 0",
        ),
        "genalt odd length": (
            lambda: verify_genalt(3, 1), "_genalt", lambda core: lambda d, w: w,
            "genalt: odd length should leave no fixed points",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_every_failure_line_fires(self, monkeypatch, fault):
        # a cross-check that cannot fail checks nothing
        call, name, make_fault, line = self.FAULTS[fault]
        monkeypatch.setattr(maps, name, make_fault(getattr(maps, name)))
        report = call()
        assert not report["ok"] and line in report["details"]

    @pytest.mark.parametrize("name", sorted(cli.BIJECTIONS))
    def test_words_checked_per_family_not_per_object(self, monkeypatch, name):
        calls = {"as_word": 0, "listings": 0}

        def counting(key, f):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(words, "as_word", counting("as_word", words.as_word))
        for generator in self.GENERATORS:
            monkeypatch.setattr(maps, generator, counting("listings", getattr(maps, generator)))
        report = getattr(maps, f"verify_{name}")(*self.SMALL[name])
        assert report["ok"], report["details"][:3]
        # at most two word checks per generator listing, where a check per
        # mapped object makes more than that at each of these sizes
        assert calls["as_word"] <= 2 * calls["listings"]

    def test_altbin_image_outside_space_fails(self, monkeypatch):
        core = maps._altbin

        def leaky(stage, p, r):
            t, out, zeros = core(stage, p, r)
            return (t, out + b"\0", zeros) if stage == 2 else (t, out, zeros)

        monkeypatch.setattr(maps, "_altbin", leaky)
        report = verify_altbin(2, 3, 1)
        assert not report["ok"]
        assert report["details"] == [
            "altbin: stage 2 image is outside the signed space on 00010 with subset [2]",
            "altbin: stage 2 image is outside the signed space on 00001 with subset [1, 2]",
        ]

    def test_genalt_image_outside_domain_fails(self, monkeypatch):
        core = maps._genalt
        # stage 0 lengthens every word that starts with a 1
        monkeypatch.setattr(maps, "_genalt", lambda d, w: w + b"\0" if d == 0 and w[:1] == b"\1" else core(d, w))
        report = verify_genalt(4, 1)
        assert not report["ok"]
        assert any("outside the domain" in line for line in report["details"])
