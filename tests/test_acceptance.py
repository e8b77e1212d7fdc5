"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them).  All comparisons are exact
integers; the only tolerances are the stated wall-clock budgets."""

import time
from contextlib import contextmanager

from rascal.cli import main
from rascal.generate import (
    ascent_sequences,
    avoiders,
    words_with_ascents,
)
from rascal.identities import verify_range
from rascal.maps import (
    ascseq_to_word,
    verify_altbin,
    verify_divider,
    verify_genalt,
    verify_ratio,
    verify_strip,
    verify_subset,
    verify_sym,
    word_to_ascseq,
)
from rascal.numbers import TriangleCache, e_defect, rascal_gen_value, triangle_rows
from rascal.words import asc, word_str

from reference import brute_count

PATTERNS = ("001", "210")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_triangle_fidelity(capsys):
    with criterion(1, "triangle fidelity"):
        start = time.perf_counter()
        code = main(["triangle", "6"])
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == (
            "1\n"
            "1 1\n"
            "1 2 1\n"
            "1 3 3 1\n"
            "1 4 5 4 1\n"
            "1 5 7 7 5 1\n"
            "1 6 9 10 9 6 1\n"
        )
        assert elapsed < 1.0


def test_criterion_2_method_cross_agreement():
    with criterion(2, "method cross-agreement"):
        start = time.perf_counter()
        cache = TriangleCache()
        closed = triangle_rows(200)
        linear = triangle_rows(200, method="linear", cache=cache)
        # building the product triangle asserts exact divisibility at
        # every interior cell; InexactDivision would abort the test
        multiplicative = triangle_rows(200, method="multiplicative", cache=cache)
        assert closed == linear == multiplicative
        for n in range(17):
            assert triangle_rows(n, method="enumeration")[n] == closed[n][: n + 1]
        assert time.perf_counter() - start < 60.0


def test_criterion_3_combinatorial_interpretation():
    with criterion(3, "combinatorial interpretation"):
        for n in range(17):
            for j in range(5):
                for k in range(n + 1):
                    family = list(words_with_ascents(n, k, j))
                    assert len(family) == rascal_gen_value(n, k, j), (n, k, j)
        nine = [word_str(w) for w in words_with_ascents(6, 4, 1)]
        assert len(nine) == 9 == rascal_gen_value(6, 4, 1)
        assert nine == [
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


def test_criterion_4_ascent_sequence_bridge():
    with criterion(4, "ascent-sequence bridge"):
        length4 = [word_str(w) for w in ascent_sequences(4)]
        assert len(length4) == 15
        assert length4 == sorted(
            [
                "0000", "0001", "0010", "0100", "0011", "0101", "0110", "0111",
                "0012", "0102", "0112", "0120", "0121", "0122", "0123",
            ]
        )
        avoider4 = [word_str(w) for w in avoiders(4, PATTERNS)]
        assert avoider4 == ["0000", "0100", "0110", "0111", "0120", "0121", "0122", "0123"]

        for n in range(10):
            by_ascents: dict[int, list] = {}
            for w in avoiders(n + 1, PATTERNS):
                by_ascents.setdefault(asc(w), []).append(w)
            for k in range(n + 1):
                family = by_ascents.get(k, [])
                expected = rascal_gen_value(n, k, 1)
                assert len(family) == expected, (n, k)
                # round trip through the bijection in both directions
                words = [ascseq_to_word(w) for w in family]
                assert sorted(words) == list(words_with_ascents(n, k, 1))
                for w, b in zip(family, words):
                    assert word_to_ascseq(b) == w


ORACLE_GRIDS = {
    "row_sum": {"n": (0, 16)},
    "col_sum": {"k": (0, 16), "r": (0, 16)},
    "triangle_sum": {"n": (2, 16)},
    "alt_row_sum": {"n": (0, 16)},
    "alt_binomial": {"r": (2, 5), "n": (0, 16), "k": (0, 16)},
    "product_formula": {"n": (1, 16), "m": (1, 16)},
    "subset_ie": {"n": (1, 16), "m": (1, 12)},
    "binom_corollary": {"n": (1, 16), "m": (1, 16)},
    "gen_row_sum": {"n": (0, 16), "j": (0, 5)},
    "half_pow2": {"j": (0, 3)},
    "forward_diff": {"n": (0, 16), "j": (0, 4)},
    "gen_alt_row_sum": {"n": (0, 16), "j": (0, 5)},
}

FORMULA_GRIDS = {
    "row_sum": {"n": (0, 200)},
    "col_sum": {"k": (0, 200), "r": (0, 200)},
    "triangle_sum": {"n": (2, 200)},
    "alt_row_sum": {"n": (0, 200)},
    "alt_binomial": {"r": (2, 5), "n": (0, 200), "k": (0, 200)},
    "product_formula": {"n": (1, 200), "m": (1, 200)},
    "subset_ie": {"n": (1, 200), "m": (1, 12)},
    "binom_corollary": {"n": (1, 200), "m": (1, 200)},
    "gen_row_sum": {"n": (0, 200), "j": (0, 5)},
    "half_pow2": {"j": (0, 3)},
    "forward_diff": {"n": (0, 200), "j": (0, 4)},
    "gen_alt_row_sum": {"n": (0, 200), "j": (0, 5)},
}


def test_criterion_5_identity_suite():
    with criterion(5, "identity suite"):
        start = time.perf_counter()
        for name, grid in ORACLE_GRIDS.items():
            report = verify_range(name, grid, oracle=True, max_cells=1 << 21)
            assert report.passed, (name, "oracle", report.failures[:3])
        for name, grid in FORMULA_GRIDS.items():
            report = verify_range(name, grid, max_cells=1 << 21)
            assert report.passed, (name, "formula", report.failures[:3])
        assert time.perf_counter() - start < 300.0


def test_criterion_6_documented_discrepancy():
    with criterion(6, "documented discrepancy"):
        stated = verify_range("weighted_row_sum", {"n": (0, 16)}, oracle=True)
        assert not stated.passed
        assert stated.failures[0] == ((("n", 2),), 6, 5)
        assert stated.corrected_passed


def test_criterion_7_bijection_suite():
    with criterion(7, "bijection/involution suite"):
        for report in (
            verify_sym(10),
            verify_strip(10),
            verify_subset(10, 3),
            verify_divider(10, 3),
        ):
            assert report["ok"], report["details"][:3]
        for n in range(2, 11):
            for k in range(1, n):
                report = verify_ratio(n, k)
                assert report["ok"], report["details"][:3]
                assert report["image_size"] == report["target_size"] - 1
        for r in (2, 3, 4):
            for n in range(11):
                for k in range(n + 1):
                    report = verify_altbin(r, n, k)
                    assert report["ok"], (r, n, k, report["details"][:3])
                    assert report["signed_sum"] == 0
        for n in range(11):
            for j in range(4):
                report = verify_genalt(n, j)
                assert report["ok"], (n, j, report["details"][:3])


def test_criterion_8_e_table():
    with criterion(8, "E table"):
        for n in range(2, 41):
            for k in range(1, n):
                assert e_defect(n, k, 1) == 1, (n, k)
        for n in range(41):
            for k in range(n + 1):
                for j in range(5):
                    assert e_defect(n, k, j) >= 0, (n, k, j)
        factors = (
            brute_count(6, 3, 2),
            brute_count(4, 2, 2),
            brute_count(5, 3, 2),
            brute_count(5, 2, 2),
        )
        assert factors == (19, 6, 10, 10)
        assert e_defect(6, 3, 2) == factors[0] * factors[1] - factors[2] * factors[3] == 14


def test_criterion_9_determinism(capsys):
    with criterion(9, "determinism"):
        code1 = main(["verify", "all"])
        first = capsys.readouterr()
        code2 = main(["verify", "all"])
        second = capsys.readouterr()
        assert (code1, first.out, first.err) == (code2, second.out, second.err)
