"""Pointwise behaviour of every constructive map, plus the exhaustive
verifiers at small sizes."""

import pytest

from rascal.errors import DomainViolation
from rascal.generate import words_with_ascents
from rascal.maps import (
    MarkedWord,
    altbin_involution,
    ascseq_to_word,
    divider_decode,
    divider_encode,
    genalt_involution,
    in_altbin_fix,
    ratio_map,
    run_profile,
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
    word_weight,
)
from rascal.words import as_word, asc, word_str


class TestRunProfile:
    def test_round_trip_on_small_words(self):
        from rascal.maps import assemble_profile
        from rascal.generate import all_binary_words

        for n in range(9):
            for w in all_binary_words(n):
                x0, pairs, y0 = run_profile(w)
                assert assemble_profile(x0, pairs, y0) == w
                assert len(pairs) == asc(w)


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
        assert in_altbin_fix(pair, r)
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

    def test_weight(self):
        assert word_weight("1100") == 1
        assert word_weight("1110") == -1

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
        ],
    )
    def test_pinned(self, verifier, args, checked):
        report = verifier(*args)
        assert (report["ok"], report["checked"], report["details"]) == (True, checked, [])


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
