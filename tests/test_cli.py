"""Command-line behaviour: golden outputs, formats, exit codes."""

import ast
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rascal
from rascal.cli import BIJECTIONS, main
from rascal.numbers import e_defect

SRC = Path(__file__).resolve().parent.parent / "src"

# full stdout of `rascal bijection <name>` at the default arguments
BIJECTION_DEFAULTS = {
    "sym": "sym: PASS (255 checks)\n",
    "strip": "strip: PASS (1419 checks)\n",
    "ascseq": "ascseq: PASS (255 checks)\n",
    "subset": "subset: PASS (1530 checks)\n",
    "divider": "divider: PASS (765 checks)\n",
    "ratio": "image 9 of 10, missed: 110000 mark 1\nratio: PASS (19 checks)\n",
    "altbin": "signed sum 0\naltbin: PASS (44 checks)\n",
    "genalt": "signed sum -2\ngenalt: PASS (52 checks)\n",
}

TRIANGLE6 = "1\n1 1\n1 2 1\n1 3 3 1\n1 4 5 4 1\n1 5 7 7 5 1\n1 6 9 10 9 6 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """Exit code, stdout, stderr and seconds of a command that the
    parser refuses."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err, seconds


class TestValue:
    def test_basic(self, capsys):
        assert run(capsys, "value", "6", "3") == (0, "10\n", "")

    def test_outside_triangle(self, capsys):
        assert run(capsys, "value", "3", "5") == (0, "0\n", "")

    def test_generalized(self, capsys):
        assert run(capsys, "value", "6", "3", "--j", "2") == (0, "19\n", "")

    def test_huge_j(self, capsys):
        start = time.perf_counter()
        assert run(capsys, "value", "5", "2", "--j", "100000000") == (0, "10\n", "")
        assert time.perf_counter() - start < 1.0

    def test_methods(self, capsys):
        for method in ("closed", "multiplicative", "linear", "enumeration"):
            code, out, _ = run(capsys, "value", "5", "2", "--method", method)
            assert (code, out) == (0, "7\n")

    @pytest.mark.parametrize("method", ["linear", "multiplicative"])
    def test_recurrence_table_cap(self, capsys, monkeypatch, method):
        # the (n+1)(n+2)/2-cell table is refused before it is built; at
        # j = 1 the linear route builds two of them, layers 0 and 1
        monkeypatch.setenv("RASCAL_MAX_CELLS", "100")
        start = time.perf_counter()
        code, _, err = run(capsys, "value", "1500", "3", "--method", method)
        assert (code, time.perf_counter() - start < 1.0) == (3, True)
        cells = {"linear": 2254502, "multiplicative": 1127251}[method]
        assert f"{cells} cells" in err

    @pytest.mark.parametrize("n, k, j", [(10000, 5000, 5000), (20000, 10000, 10000)])
    def test_closed_route_priced(self, capsys, monkeypatch, n, k, j):
        # the binomial terms i = 2..min(j, k, n-k) times n+1 bits each
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, "value", str(n), str(k), "--j", str(j))
        assert (code, out, time.perf_counter() - start < 1.0) == (3, "", True)
        assert f"needs {(j - 1) * (n + 1)} cells" in err

    def test_j1_not_priced(self, capsys, monkeypatch):
        # one multiply, whatever n: 5 * 1999995 + 1
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        assert run(capsys, "value", "2000000", "5") == (0, "9999976\n", "")

    def test_closed_route_under_budget(self, capsys, monkeypatch):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        # 501,501 cells; sum_i C(500, i)^2 = C(1000, 500)
        code, out, _ = run(capsys, "value", "1000", "500", "--j", "500")
        assert (code, out) == (0, f"{math.comb(1000, 500)}\n")

    def test_multiplicative_needs_j1(self, capsys):
        code, _, err = run(capsys, "value", "6", "3", "--j", "2", "--method", "multiplicative")
        assert code == 2
        assert "multiplicative" in err


class TestTriangle:
    def test_display(self, capsys):
        assert run(capsys, "triangle", "6") == (0, TRIANGLE6, "")

    def test_single_row(self, capsys):
        assert run(capsys, "triangle", "0") == (0, "1\n", "")

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "triangle", "2", "--format", "bfile")
        assert code == 0
        assert out == "0 1\n1 1\n2 1\n3 1\n4 2\n5 1\n"

    def test_bfile_offset(self, capsys):
        code, out, _ = run(capsys, "triangle", "1", "--format", "bfile", "--offset", "1")
        assert out == "1 1\n2 1\n3 1\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "triangle", "2", "--format", "csv")
        assert out.splitlines()[0] == "n,k,value"
        assert out.splitlines()[-1] == "2,2,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "triangle", "3", "--format", "json")
        blob = json.loads(out)
        assert blob["rows"][3] == [1, 3, 3, 1]

    def test_resource_limit(self, capsys):
        code, _, err = run(capsys, "triangle", "5000")
        assert code == 3
        assert "resource limit" in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RASCAL_MAX_CELLS", "10")
        code, _, err = run(capsys, "triangle", "20")
        assert code == 3

    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
    @pytest.mark.parametrize("argv", [("triangle", "3"), ("value", "6", "3")])
    def test_bad_env_cap(self, capsys, monkeypatch, raw, argv):
        monkeypatch.setenv("RASCAL_MAX_CELLS", raw)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "RASCAL_MAX_CELLS" in err and repr(raw) in err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "words", "--n", "6", "--k", "4", "--j", "1", "--count-only"
        )
        assert (code, out) == (0, "9\n")

    def test_words_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "words", "--n", "3", "--k", "1", "--j", "2")
        assert out == "001\n010\n100\n"

    def test_words_all_k(self, capsys):
        code, out, _ = run(capsys, "enumerate", "words", "--n", "2", "--count-only")
        assert out == "4\n"  # every 2-letter word has at most one ascent

    def test_words_all_k_cap(self, capsys, monkeypatch):
        # the closed-form total over every k, sum_{t <= 9} C(10, t) = 1023,
        # is checked before listing: admitted at a cap of 1023 only
        argv = ("enumerate", "words", "--n", "10", "--j", "4", "--count-only")
        monkeypatch.setenv("RASCAL_MAX_CELLS", "1022")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "words listing needs more than 1022 cells" in err
        monkeypatch.setenv("RASCAL_MAX_CELLS", "1023")
        assert run(capsys, *argv)[:2] == (0, "1023\n")

    def test_avoiders(self, capsys):
        code, out, _ = run(capsys, "enumerate", "avoiders", "--n", "4", "--patterns", "001,210")
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[-1] == "0123"

    def test_avoiders_with_ascents(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "avoiders", "--n", "4", "--patterns", "001,210", "--k", "1"
        )
        assert out == "0100\n0110\n0111\n"

    def test_avoiders_with_two_digit_letters(self, capsys):
        # letters past 9 print in decimal, one after another
        argv = ("enumerate", "avoiders", "--n", "12", "--patterns", "001,210", "--k", "10")
        code, out, _ = run(capsys, *argv)
        staircase = "0123456789"
        assert (code, out) == (0, "".join(f"{staircase}10{x}\n" for x in range(11)))
        assert out.splitlines()[-1] == "01234567891010"

    def test_subsets(self, capsys):
        code, out, _ = run(capsys, "enumerate", "subsets", "--n", "4", "--k", "2", "--j", "0")
        assert (code, out) == (0, "3 4\n")

    def test_ascseq(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascseq", "--n", "4", "--count-only")
        assert out == "15\n"

    def test_ascseq_with_ascents(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascseq", "--n", "4", "--k", "1")
        assert (code, out) == (0, "0001\n0010\n0011\n0100\n0110\n0111\n")

    def test_words_all_k_merged(self, capsys):
        code, out, _ = run(capsys, "enumerate", "words", "--n", "4", "--j", "0")
        assert (code, out) == (0, "0000\n1000\n1100\n1110\n1111\n")
        code, out, _ = run(capsys, "enumerate", "words", "--n", "12", "--j", "2", "--count-only")
        assert (code, out) == (0, f"{sum(math.comb(12, t) for t in range(6))}\n")

    def test_long_avoiders_at_default_budget(self, capsys, monkeypatch):
        # the pruned tree to length 50 has 251,175 nodes, under 2^20
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        code, out, _ = run(capsys, "enumerate", "avoiders", "--n", "50", "--patterns", "001,210", "--count-only")
        assert (code, out) == (0, f"{math.comb(50, 3) + 50}\n")

    def test_ascseq_cap_exit(self, capsys, monkeypatch):
        # Fishburn(11) = 1,422,074 is over the default 2^20 budget
        code, _, err = run(capsys, "enumerate", "ascseq", "--n", "11")
        assert code == 3
        # Fishburn(6) = 217 sequences: one cell short of the budget
        monkeypatch.setenv("RASCAL_MAX_CELLS", "216")
        code, out, err = run(capsys, "enumerate", "ascseq", "--n", "6", "--count-only")
        assert (code, out) == (3, "")
        assert "resource limit" in err

    def test_ascseq_cap_raised(self, capsys, monkeypatch):
        # exactly Fishburn(6) cells admit length 6
        monkeypatch.setenv("RASCAL_MAX_CELLS", "217")
        code, out, _ = run(capsys, "enumerate", "ascseq", "--n", "6", "--count-only")
        assert code == 0
        assert out == "217\n"

    def test_bad_pattern(self, capsys):
        code, _, err = run(capsys, "enumerate", "avoiders", "--n", "4", "--patterns", "12")
        assert code == 2

    def test_missing_flags(self, capsys):
        code, out, err, _ = refused(capsys, "enumerate", "words")
        assert (code, out) == (2, "")
        assert "--n" in err

    @pytest.mark.parametrize(
        "family, sizes",
        [("ascseq", ("--n", "4")), ("words", ("--n", "4")), ("subsets", ("--n", "4", "--k", "2"))],
    )
    def test_patterns_only_for_avoiders(self, capsys, family, sizes):
        # listing every object while ignoring --patterns would be a wrong answer
        code, out, err, seconds = refused(
            capsys, "enumerate", family, *sizes, "--patterns", "001,210", "--count-only"
        )
        assert (code, out, seconds < 1.0) == (2, "", True)
        assert "--patterns" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("ascseq", "--n", "4", "--j", "0", "--count-only"), "--j 0"),
            (("ascseq", "--n", "4", "--j", "-7"), "--j -7"),
            (("avoiders", "--n", "4", "--j", "9"), "--j 9"),
            *[((family, "--k", "1"), "--n") for family in ("words", "ascseq", "avoiders", "subsets")],
            (("subsets", "--n", "4", "--j", "1"), "--k"),
        ],
        ids=" ".join,
    )
    def test_option_outside_family_refused(self, capsys, argv, option):
        # --patterns outside avoiders is test_patterns_only_for_avoiders
        code, out, err, seconds = refused(capsys, "enumerate", *argv)
        assert (code, out, seconds < 1.0) == (2, "", True)
        assert option in err


class TestVerify:
    def test_single_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "row_sum", "--n-max", "16", "--oracle")
        assert code == 0
        assert out.startswith("row_sum: PASS")

    def test_weighted_row_sum_fails_with_both_variants_shown(self, capsys):
        code, out, _ = run(capsys, "verify", "weighted_row_sum", "--n-max", "8")
        assert code == 1
        head = out.splitlines()[0]
        assert "FAIL" in head and "corrected=PASS" in head
        assert "  stated fails at n=2: lhs=6 rhs=5" in out.splitlines()[1]

    def test_corrected_failure_reported(self, capsys, monkeypatch):
        # a corrected variant that fails is shown, not hidden behind the stated one
        ident = rascal.identities.get_identity("weighted_row_sum")
        wrong = ident._replace(corrected_rhs=lambda n: ident.corrected_rhs(n) + (n == 3))
        monkeypatch.setitem(rascal.identities._REGISTRY, "weighted_row_sum", wrong)
        report = rascal.verify_range("weighted_row_sum", {"n": (0, 8)})
        assert report.corrected_passed is False
        assert report.corrected_failures == (((("n", 3),), 20, 21),)
        code, out, _ = run(capsys, "verify", "weighted_row_sum", "--n-max", "8")
        assert code == 1 and "corrected=FAIL" in out.splitlines()[0]
        assert "  corrected fails at n=3: lhs=20 rhs=21" in out.splitlines()

    def test_all_runs_registry(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all", "--n-max", "12", "--k-max", "8", "--r-max", "4",
            "--m-max", "6", "--j-max", "3",
        )
        assert code == 1  # the stated weighted row sum keeps failing, by design
        lines = out.splitlines()
        assert lines[-1] == "12/13 identities pass"
        assert sum(1 for line in lines if ": PASS" in line or ": FAIL" in line) == 13

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "no_such_identity")
        assert code == 2

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "row_sum", "--n-max", "10", "--format", "json")
        blob = json.loads(out)
        assert blob["identity"] == "row_sum"
        assert blob["cells"] == 11
        assert blob["failures"] == []
        assert blob["elapsed_ms"] == 0.0  # timing only with --timing

    def test_json_all_is_array(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all", "--n-max", "8", "--k-max", "6", "--r-max", "3",
            "--m-max", "4", "--j-max", "2", "--format", "json",
        )
        blob = json.loads(out)
        assert isinstance(blob, list) and len(blob) == 13

    def test_determinism(self, capsys):
        args = ("verify", "all", "--n-max", "10", "--k-max", "6", "--r-max", "3",
                "--m-max", "5", "--j-max", "2")
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert (code1, out1, err1) == (code2, out2, err2)


class TestBijection:
    def test_ratio_report(self, capsys):
        code, out, _ = run(capsys, "bijection", "ratio", "--n", "3", "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "image 3 of 4, missed: 110 mark 1"
        assert out.splitlines()[-1].startswith("ratio: PASS")

    def test_genalt_signed_sum(self, capsys):
        code, out, _ = run(capsys, "bijection", "genalt", "--n", "6", "--j", "1")
        assert code == 0
        assert out.splitlines()[0] == "signed sum -2"

    def test_ascseq_pass(self, capsys):
        code, out, _ = run(capsys, "bijection", "ascseq", "--n-max", "8")
        assert code == 0
        assert out.splitlines()[-1].startswith("ascseq: PASS")

    def test_altbin(self, capsys):
        code, out, _ = run(capsys, "bijection", "altbin", "--r", "2", "--n", "2", "--k", "1")
        assert code == 0
        assert out.splitlines()[0] == "signed sum 0"

    @pytest.mark.parametrize("name", sorted(BIJECTIONS))
    def test_default_output(self, capsys, name):
        assert run(capsys, "bijection", name) == (0, BIJECTION_DEFAULTS[name], "")

    @pytest.mark.parametrize("name", sorted(BIJECTIONS))
    def test_negative_sizes(self, capsys, name):
        for param in BIJECTIONS[name]:
            flag = "--" + param.replace("_", "-")
            code, out, err = run(capsys, "bijection", name, flag, "-1")
            assert (code, out) == (2, ""), (name, param)
            assert "-1" in err, (name, param, err)

    def test_each_remaining_name(self, capsys):
        for name in ("sym", "strip", "subset", "divider"):
            j_max = ("--j-max", "2") if "j_max" in BIJECTIONS[name] else ()
            code, out, _ = run(capsys, "bijection", name, "--n-max", "6", *j_max)
            assert code == 0, (name, out)

    @pytest.mark.parametrize("name", sorted(BIJECTIONS))
    def test_options_of_other_verifiers_refused(self, capsys, name):
        others = {option for options in BIJECTIONS.values() for option in options}
        for option in sorted(others - set(BIJECTIONS[name])):
            flag = "--" + option.replace("_", "-")
            code, out, err, seconds = refused(capsys, "bijection", name, flag, "3")
            assert (code, out, seconds < 1.0) == (2, "", True), (name, flag)
            assert f"unrecognized arguments: {flag} 3" in err, (name, flag, err)


# one small run of every command; each must be refused under a tiny budget
TINY_CAP_RUNS = [
    ("value", "8", "3", "--method", "enumeration"),
    ("triangle", "3"),
    ("enumerate", "words", "--n", "6"),
    ("enumerate", "ascseq", "--n", "6"),
    ("enumerate", "avoiders", "--n", "6", "--patterns", "001,210"),
    ("enumerate", "subsets", "--n", "6", "--k", "3"),
    ("verify", "all"),
    *[("bijection", name) for name in sorted(BIJECTIONS)],
    ("etable", "4", "1"),
]

# absurd sizes, refused under the default budget without building anything
ABSURD_RUNS = [
    ("value", "100000000000", "3", "--method", "enumeration"),
    ("enumerate", "ascseq", "--n", "1000000"),
    ("enumerate", "avoiders", "--n", "1000000"),
    ("enumerate", "subsets", "--n", "1000000", "--k", "500000"),
    ("bijection", "sym", "--n-max", "1000000000"),
    ("bijection", "strip", "--n-max", "1000000000"),
    ("bijection", "ascseq", "--n-max", "1000000000"),
    ("bijection", "subset", "--n-max", "1000000000", "--j-max", "3"),
    ("bijection", "divider", "--n-max", "1000000000", "--j-max", "3"),
    ("bijection", "ratio", "--n", "1000000000000", "--k", "5"),
    ("bijection", "altbin", "--r", "1000000000000", "--n", "6", "--k", "2"),
    ("bijection", "genalt", "--n", "1000000000", "--j", "3"),
    ("bijection", "genalt", "--n", "2", "--j", "100000000"),
    ("enumerate", "words", "--n", "10000000"),
    ("enumerate", "words", "--n", "3000000", "--j", "0"),
    ("enumerate", "words", "--n", "10000000", "--j", "10000000"),
    ("enumerate", "words", "--n", "10000", "--k", "5000", "--j", "5000", "--count-only"),
    ("enumerate", "subsets", "--n", "10000", "--k", "5000", "--j", "5000", "--count-only"),
    ("verify", "product_formula", "--n-max", "3000", "--m-max", "3000"),
    # 465 cells, but 2^m signed products in each
    ("verify", "subset_ie", "--n-max", "30", "--m-max", "30"),
    ("verify", "alt_binomial", "--r-max", "40", "--n-max", "400", "--k-max", "400"),
    ("verify", "alt_binomial", "--r-max", "100000000", "--n-max", "100000000"),
    ("verify", "row_sum", "--n-max", "1" + "0" * 23),
    ("verify", "product_formula", "--n-max", "100000000", "--m-max", "0"),
    ("verify", "alt_binomial", "--r-max", "100000000", "--n-max", "100000000", "--k-max", "0"),
    ("verify", "alt_binomial", "--r-max", "100000000", "--n-max", "0", "--k-max", "0"),
    ("enumerate", "avoiders", "--n", "1000000", "--patterns", "001,210"),
    ("enumerate", "ascseq", "--n", "1000000", "--k", "3"),
    # the top row of a closed triangle is priced before any row is built
    ("triangle", "1000", "--j", "500", "--format", "bfile"),
    ("triangle", "400", "--j", "200", "--format", "bfile"),
    # the oracle's profile counts are priced before each is run
    ("verify", "half_pow2", "--oracle", "--j-max", "1000"),
]


class TestBudget:
    @pytest.mark.parametrize("argv", TINY_CAP_RUNS, ids=" ".join)
    def test_tiny_cap_exits_3(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("RASCAL_MAX_CELLS", "2")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out, time.perf_counter() - start < 1.0) == (3, "", True)
        assert err.startswith("resource limit: ")

    @pytest.mark.parametrize("argv", ABSURD_RUNS, ids=" ".join)
    def test_absurd_size_exits_3(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out, time.perf_counter() - start < 1.0) == (3, "", True)

    @pytest.mark.parametrize(
        "argv",
        [
            ("value", "1000", "500", "--j", "300", "--method", "linear"),
            ("triangle", "1000", "--j", "200", "--method", "linear", "--format", "bfile"),
        ],
        ids=" ".join,
    )
    def test_linear_layers_priced(self, capsys, monkeypatch, argv):
        # one table of rows 0..1000 fits the default budget; the j + 1
        # layers that the linear route builds at bound j do not
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out, time.perf_counter() - start < 1.0) == (3, "", True)
        assert "linear recurrence table" in err

    def test_pattern_search_priced(self, monkeypatch):
        # letters 0..8, each repeated 5 times, have one level too few for
        # 0123456789: the unpriced walk was still running at 10 s
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        word = tuple(x for x in range(9) for _ in range(5))
        start = time.perf_counter()
        with pytest.raises(rascal.ResourceLimit, match="pattern search needs more than"):
            rascal.contains_pattern(word, "0123456789")
        assert time.perf_counter() - start < 1.0

    def test_pattern_search_boundary(self, monkeypatch):
        # 12 letters against a 3-letter pattern: 1 + 12 + 66 + 220 = 299
        # partial embeddings
        word = tuple(range(12))
        monkeypatch.setenv("RASCAL_MAX_CELLS", "298")
        with pytest.raises(rascal.ResourceLimit, match="more than 298 cells"):
            rascal.contains_pattern(word, "210")
        monkeypatch.setenv("RASCAL_MAX_CELLS", "299")
        assert (rascal.contains_pattern(word, "012"), rascal.contains_pattern(word, "210")) == (True, False)

    def test_bijection_subset_small_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RASCAL_MAX_CELLS", "10")
        start = time.perf_counter()
        code, _, err = run(capsys, "bijection", "subset", "--n-max", "40", "--j-max", "3")
        assert (code, time.perf_counter() - start < 1.0) == (3, True)
        assert "more than 10 cells" in err

    def test_enumerate_k_boundary(self, capsys, monkeypatch):
        # R(10, 5; 2) = 1 + 25 + 100 = 126 words: admitted at a cap of 126 only
        argv = ("enumerate", "words", "--n", "10", "--k", "5", "--j", "2", "--count-only")
        for family in ("words", "subsets"):
            argv = ("enumerate", family, *argv[2:])
            monkeypatch.setenv("RASCAL_MAX_CELLS", "125")
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "") and "more than 125 cells" in err
            monkeypatch.setenv("RASCAL_MAX_CELLS", "126")
            assert run(capsys, *argv)[:2] == (0, "126\n")

    def test_words_all_k_priced_by_row_total(self, capsys, monkeypatch):
        # every k at j = 0 is 1 + C(n, 1) words: two terms pass the default
        # cap, where the per-k terms R(n, k; 0) = 1 would take 2^20 draws
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        code, out, _ = run(capsys, "enumerate", "words", "--n", "10000000", "--j", "0", "--count-only")
        assert (code, out, time.perf_counter() - start < 0.25) == (3, "", True)

    def test_bijection_ascseq_tree_boundary(self, capsys, monkeypatch):
        # lengths 1..9 of the {001,210} tree: C(11, 5) + C(11, 3) = 627 nodes
        monkeypatch.setenv("RASCAL_MAX_CELLS", "626")
        code, out, err = run(capsys, "bijection", "ascseq", "--n-max", "8")
        assert (code, out) == (3, "") and "more than 626 cells" in err
        monkeypatch.setenv("RASCAL_MAX_CELLS", "627")
        assert run(capsys, "bijection", "ascseq", "--n-max", "8")[:2] == (0, "ascseq: PASS (255 checks)\n")

    def test_verify_all_oracle_exits_1(self, capsys, monkeypatch):
        # the oracle prints the closed form's report byte for byte
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "all", "--oracle")
        assert (code, time.perf_counter() - start < 10.0) == (1, True)
        assert out == run(capsys, "verify", "all")[1]

    def test_oracle_profiles_small_cap(self, capsys, monkeypatch):
        argv = ("verify", "forward_diff", "--n-max", "16", "--j-max", "4", "--oracle")
        monkeypatch.setenv("RASCAL_MAX_CELLS", "1000")
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "counting oracle profiles" in err and "over the cap 1000" in err
        monkeypatch.delenv("RASCAL_MAX_CELLS")
        assert run(capsys, *argv)[0] == 0

    def test_empty_leading_axis_not_walked(self, capsys, monkeypatch):
        # r starts at 2, so no run of (n, k) is walked however long it is
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        argv = ("verify", "alt_binomial", "--r-max", "1", "--n-max", "100000000", "--k-max", "100000000")
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert (code, time.perf_counter() - start < 1.0) == (0, True)
        assert out.startswith("alt_binomial: PASS cells=0 ")

    def test_verify_grid_small_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RASCAL_MAX_CELLS", "10")
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "row_sum", "--n-max", "100000000")
        assert (code, time.perf_counter() - start < 1.0) == (3, True)
        assert "grid for identity row_sum needs 100000001 cells, over the cap 10" in err
        monkeypatch.setenv("RASCAL_MAX_CELLS", "11")
        assert run(capsys, "verify", "row_sum", "--n-max", "10")[0] == 0

    def test_evaluate_prices_its_rows(self, monkeypatch):
        # 1,500 term columns of 3,001 cells each, and the row: the unpriced
        # build was still running after 30 s
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(rascal.ResourceLimit, match="closed-form row needs 4504501 cells"):
            rascal.evaluate("gen_row_sum", {"n": 3000, "j": 1500})
        assert time.perf_counter() - start < 1.0

    def test_evaluate_priced_by_its_terms(self, monkeypatch):
        # one cell of 2^60 signed products
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(rascal.ResourceLimit, match="subset_ie needs 1152921504606846976 cells"):
            rascal.evaluate("subset_ie", {"n": 100, "m": 60})
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "300", "--format", "bfile"),
            ("verify", "all"),
            ("verify", "all", "--oracle"),
            ("bijection", "subset"),
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("raw", [None, "1048576"])
    def test_one_env_read_per_command(self, capsys, monkeypatch, argv, raw):
        # every price inside a command reads the cap main read once
        env = EnvReads(os.environ)
        env.pop("RASCAL_MAX_CELLS", None)
        if raw is not None:
            env["RASCAL_MAX_CELLS"] = raw
        monkeypatch.setattr(os, "environ", env)
        code, out, _ = run(capsys, *argv)
        assert (code, env.reads) == (1 if argv[0] == "verify" else 0, 1)
        assert out

    @pytest.mark.parametrize(
        "call",
        [
            lambda: rascal.maps.verify_sym(6),
            lambda: rascal.maps.verify_strip(6),
            lambda: rascal.maps.verify_ascseq(8),
            lambda: rascal.maps.verify_subset(10, 3),
            lambda: rascal.maps.verify_divider(6, 2),
            lambda: rascal.maps.verify_ratio(6, 3),
            lambda: rascal.maps.verify_altbin(3, 5, 2),
            lambda: rascal.maps.verify_genalt(6, 2),
            lambda: list(rascal.restricted_subsets(10, 5, 2)),
            lambda: list(rascal.all_binary_words(8)),
            lambda: list(rascal.ascent_sequences(6)),
        ],
        ids=[
            "verify_sym(6)", "verify_strip(6)", "verify_ascseq(8)", "verify_subset(10, 3)",
            "verify_divider(6, 2)", "verify_ratio(6, 3)", "verify_altbin(3, 5, 2)", "verify_genalt(6, 2)",
            "restricted_subsets(10, 5, 2)", "all_binary_words(8)", "ascent_sequences(6)",
        ],
    )
    @pytest.mark.parametrize("raw", [None, "1048576"])
    def test_one_env_read_per_library_call(self, monkeypatch, call, raw):
        # outside a command a library call reads the variable at each price;
        # these price once, at their edge: verify_ascseq walks its trees
        # unpriced, where each public avoiders call priced its tree again
        env = EnvReads(os.environ)
        env.pop("RASCAL_MAX_CELLS", None)
        if raw is not None:
            env["RASCAL_MAX_CELLS"] = raw
        monkeypatch.setattr(os, "environ", env)
        assert call() and env.reads == 1

    def test_cap_scope_ends_with_its_call(self, capsys, monkeypatch):
        # a cap that a call set does not outlive it, returned or raised:
        # rascal_gen_value(6, 3, 3) prices 14 cells
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        with pytest.raises(rascal.ResourceLimit, match="over the cap 15350"):
            rascal.verify_range("gen_row_sum", {"n": (300, 300), "j": (50, 50)}, max_cells=15350)
        assert run(capsys, "triangle", "3")[0] == 0
        monkeypatch.setenv("RASCAL_MAX_CELLS", "7")
        with pytest.raises(rascal.ResourceLimit, match="14 cells, over the cap 7"):
            rascal.rascal_gen_value(6, 3, 3)
        assert run(capsys, "value", "6", "3", "--j", "3")[0] == 3
        monkeypatch.setenv("RASCAL_MAX_CELLS", "14")
        assert rascal.rascal_gen_value(6, 3, 3) == 20


class TestEtable:
    def test_j1_interior_ones(self, capsys):
        code, out, _ = run(capsys, "etable", "10", "1")
        assert code == 0
        blocks = out.split("# j=1\n")
        j1_rows = [line.split() for line in blocks[1].splitlines()]
        for n, row in enumerate(j1_rows):
            for k, value in enumerate(row):
                expected = "1" if 1 <= k <= n - 1 else "0"
                assert value == expected, (n, k)

    def test_entry_6_3_2(self, capsys):
        code, out, _ = run(capsys, "etable", "6", "2", "--format", "csv")
        assert "6,3,2,14" in out.splitlines()

    def test_j0_all_zero(self, capsys):
        code, out, _ = run(capsys, "etable", "4", "0")
        values = {
            v for line in out.splitlines() if not line.startswith("#") for v in line.split()
        }
        assert values == {"0"}

    def test_negative_entries_reported(self, capsys, monkeypatch):
        # a triangle whose R(2, 1) reads 0: E(2, 1, 0) = 0 * R(0, 0) - R(1, 1) * R(1, 0) = -1
        rows = rascal.cli.triangle_rows

        def dented(n_max, j):
            got = rows(n_max, j)
            got[2][1] = 0
            return got

        monkeypatch.setattr(rascal.cli, "triangle_rows", dented)
        code, out, err = run(capsys, "etable", "3", "0")
        assert (code, out.splitlines()[-1], err) == (0, "NEGATIVE: E(2,1,0) = -1", "")
        code, out, err = run(capsys, "etable", "3", "0", "--format", "csv")
        assert (code, "2,1,0,-1" in out.splitlines(), err) == (0, True, "negative entries: 1\n")

    def test_no_negative_flagging_when_clean(self, capsys):
        code, out, _ = run(capsys, "etable", "8", "2")
        assert "NEGATIVE" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "etable", "6", "2", "--format", "json")
        blob = json.loads(out)
        assert blob["tables"]["2"][6][3] == 14
        assert blob["negatives"] == []

    def test_every_cell_is_the_single_cell_defect(self, capsys):
        # the tables are built from whole rows; e_defect prices each cell alone
        code, out, _ = run(capsys, "etable", "40", "4", "--format", "json")
        tables = json.loads(out)["tables"]
        assert code == 0 and sorted(tables) == ["0", "1", "2", "3", "4"]
        for j, rows in tables.items():
            assert rows == [[e_defect(n, k, int(j)) for k in range(n + 1)] for n in range(41)], j


# each option abbreviates a longer one and is refused, not read as it
ABBREVIATED = [
    (("verify", "row_sum", "--n", "5"), "--n"),
    (("verify", "all", "--j", "1"), "--j"),
    (("triangle", "3", "--form", "csv"), "--form"),
    (("value", "6", "3", "--meth", "linear"), "--meth"),
    (("etable", "2", "1", "--form", "json"), "--form"),
    (("enumerate", "words", "--n", "3", "--count"), "--count"),
]


class TestUsage:
    @pytest.mark.parametrize(
        "argv, option", ABBREVIATED, ids=lambda v: " ".join(v) if isinstance(v, tuple) else None
    )
    def test_abbreviation_refused(self, capsys, argv, option):
        code, out, err, seconds = refused(capsys, *argv)
        assert (code, out, seconds < 1.0) == (2, "", True)
        assert f"unrecognized arguments: {option}" in err

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["value", "six", "3"])
        assert info.value.code == 2


class TestNegativeSizes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("etable", "5", "-1"), "j_max must be >= 0, got -1"),
            (("etable", "-3", "2"), "n_max must be >= 0, got -3"),
            (("etable", "-3", "2", "--format", "csv"), "n_max must be >= 0, got -3"),
            (("triangle", "-2"), "n_max must be >= 0, got -2"),
            (("triangle", "-2", "--format", "csv"), "n_max must be >= 0, got -2"),
            (("verify", "row_sum", "--n-max", "-3"), "n_max must be >= 0, got -3"),
            (("verify", "alt_binomial", "--k-max", "-1"), "k_max must be >= 0, got -1"),
            (("verify", "alt_binomial", "--r-max", "-2"), "r_max must be >= 0, got -2"),
            (("verify", "product_formula", "--m-max", "-1"), "m_max must be >= 0, got -1"),
            (("verify", "all", "--j-max", "-4"), "j_max must be >= 0, got -4"),
            (("enumerate", "words", "--n", "-3"), "n must be >= 0, got -3"),
            (("enumerate", "words", "--n", "-3", "--count-only"), "n must be >= 0, got -3"),
            (("enumerate", "words", "--n", "3", "--k", "-1"), "k must be >= 0, got -1"),
            (("enumerate", "subsets", "--n", "-3", "--k", "1"), "n must be >= 0, got -3"),
            (("enumerate", "subsets", "--n", "3", "--k", "-1"), "k must be >= 0, got -1"),
            (("enumerate", "ascseq", "--n", "4", "--k", "-1"), "k must be >= 0, got -1"),
            (("enumerate", "ascseq", "--n", "4", "--k", "-1", "--count-only"), "k must be >= 0, got -1"),
            (("enumerate", "avoiders", "--n", "4", "--k", "-1"), "k must be >= 0, got -1"),
            (("enumerate", "avoiders", "--n", "4", "--patterns", "001,210", "--k", "-2", "--count-only"),
             "k must be >= 0, got -2"),
            (("verify", "half_pow2", "--n-max", "3"), "half_pow2 takes j, not --n-max"),
            (("verify", "alt_binomial", "--m-max", "2", "--j-max", "1"),
             "alt_binomial takes r, n, k, not --m-max --j-max"),
            (("enumerate", "avoiders", "--n", "4", "--patterns", "0a1"), "'0a1' is not a word of decimal digits"),
            (("enumerate", "avoiders", "--n", "4", "--patterns", ",", "--count-only"),
             "--patterns ',' names no pattern"),
            (("enumerate", "avoiders", "--n", "4", "--patterns", "", "--count-only"),
             "--patterns '' names no pattern"),
            (("triangle", "2", "--offset", "7"), "--offset applies to --format bfile only"),
            (("triangle", "2", "--format", "csv", "--offset", "0"), "--offset applies to --format bfile only"),
            (("etable", "2", "1", "--format", "json", "--offset", "3"), "--offset applies to --format bfile only"),
            (("verify", "row_sum", "--n-max", "3", "--timing"), "--timing applies to --format json only"),
            (("triangle", "100000", "--method", "multiplicative", "--j", "2"),
             "the multiplicative route is defined for j = 1 only"),
            (("value", "100000", "5", "--method", "multiplicative", "--j", "2"),
             "the multiplicative route is defined for j = 1 only"),
            (("triangle", "100000", "--j", "-1"), "j must be >= 0, got -1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_refused_with_value_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


# modules each command must leave unloaded.  One table, so a top-level
# import added to cli or to a module it loads fails here with its name.
# No command loads dataclasses, nor with it inspect, ast and dis: the
# test adds HEAVY to every row.
HEAVY = ("dataclasses", "inspect")
LEAN = ("rascal.generate", "rascal.words", "rascal.identities", "rascal.maps")
STARTUP_CASES = [
    (("value", "6", "3"), LEAN),
    (("triangle", "30", "--format", "csv"), LEAN),
    (("etable", "6", "2"), LEAN),
    (("enumerate", "words", "--n", "6"), ("rascal.identities", "rascal.maps")),
    (("enumerate", "subsets", "--n", "6", "--k", "3"), ("rascal.identities", "rascal.maps")),
    (("verify", "row_sum", "--n-max", "10"), ("rascal.maps", "rascal.generate", "rascal.words")),
    (("verify", "row_sum", "--n-max", "10", "--oracle"), ("rascal.maps",)),
    (("bijection", "subset"), ("rascal.identities",)),
]


def loaded_modules(code: str, *flags: str, watch=HEAVY) -> set[str]:
    """The rascal.* and `watch` modules a fresh interpreter, given `flags`,
    has loaded after running `code`, started as the `rascal` script is."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": "1"}
    env.pop("RASCAL_MAX_CELLS", None)
    report = (
        "\nprint(*sorted(m for m in sys.modules"
        f" if m.startswith('rascal.') or m in {watch!r}), file=sys.__stdout__)"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", "import os, sys\n" + code + report],
        capture_output=True, env=env, timeout=60, text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestStartup:
    @pytest.mark.parametrize("argv, unloaded", STARTUP_CASES, ids=lambda v: " ".join(v))
    def test_command_loads_only_its_layers(self, argv, unloaded):
        code = (
            "sys.stdout = open(os.devnull, 'w')\n"
            f"from rascal.cli import main\nmain({list(argv)!r})"
        )
        leaked = sorted(loaded_modules(code) & {*unloaded, *HEAVY})
        assert not leaked, f"`rascal {' '.join(argv)}` loaded {', '.join(leaked)}"

    def test_import_rascal_loads_no_submodule(self):
        assert loaded_modules("import rascal") == set()

    def test_verify_without_site_loads_no_file_machinery(self):
        # under -S no .pth file preloads importlib.resources, so whatever
        # verify imports to read default_grids.json shows here
        code = "sys.stdout = open(os.devnull, 'w')\nfrom rascal.cli import main\nmain(['verify', 'row_sum', '--n-max', '10'])"
        machinery = ("pathlib", "tempfile", "zipfile", "typing")
        assert not loaded_modules(code, "-S", watch=machinery) & set(machinery)


# every name `rascal` exported when its __init__ imported them eagerly,
# less the helpers since removed because nothing in the system called them
OLD_EXPORTS = {
    "errors": "DomainViolation InexactDivision RascalError ResourceLimit UnknownIdentity",
    "generate": "RestrictedSubset all_binary_words ascent_sequences avoiders canonical_avoiders"
    " count_words_with_ascents fishburn_numbers restricted_subsets words_with_ascents",
    "identities": "IdentityReport default_grids evaluate identity_names list_identities verify_range",
    "maps": "MarkedWord SignedPair altbin_involution ascseq_to_word divider_decode divider_encode"
    " genalt_involution ratio_map signed_pair strip subset_to_word sym_map unstrip"
    " word_to_ascseq word_to_subset",
    "numbers": "TriangleCache choose closed_row e_defect rascal_gen_value rascal_value triangle_rows",
    "words": "Word as_word asc contains_001 contains_210 contains_pattern des is_ascent_sequence"
    " is_pattern is_rgf reduce_word word_str",
}
OLD_NAMES = {name: module for module, names in OLD_EXPORTS.items() for name in names.split()}


class TestLazyPackage:
    @pytest.mark.parametrize("name", sorted(OLD_NAMES))
    def test_export_is_the_submodule_object(self, name):
        module = importlib.import_module(f"rascal.{OLD_NAMES[name]}")
        assert getattr(rascal, name) is getattr(module, name)

    def test_star_import_and_dir_list_every_export(self):
        namespace: dict = {}
        exec("from rascal import *", namespace)
        assert set(OLD_NAMES) <= set(namespace)
        assert set(OLD_NAMES) <= set(dir(rascal))
        assert set(rascal.__all__) == set(OLD_NAMES)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(rascal, "no_such_name")
        assert not hasattr(rascal, "_restricted_elements")
        assert not hasattr(rascal, "reverse_word")

    def test_every_export_is_used(self):
        # names the library, demos and benchmark read, by parsing their source
        files = [p for p in (SRC / "rascal").glob("*.py") if p.name != "__init__.py"]
        for folder in ("demos", "perfbench"):
            files += (SRC.parent / folder).glob("*.py")
        used = set()
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
        exempt = {
            # the tests' reference for the avoider tree's invariant that a
            # prefix avoiding 001 is restricted growth, which avoiders relies on
            "is_rgf",
            # the validating constructor of SignedPair
            "signed_pair",
            # the reduction that defines an occurrence, and the tests'
            # brute-force reference for contains_pattern
            "reduce_word",
            # the validating binomial; the library calls its unchecked
            # core numbers._choose on its hot paths
            "choose",
        }
        assert sorted(set(rascal.__all__) - used) == sorted(exempt)

    def test_every_private_definition_is_used(self):
        # a private function, method or class that nothing in the library,
        # demos or benchmark reads is dead (perfbench alone reads _memo)
        library = sorted((SRC / "rascal").glob("*.py"))
        files = [*library, *(SRC.parent / "demos").glob("*.py"), *(SRC.parent / "perfbench").glob("*.py")]
        defined, used = set(), set()
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
                elif path in library and isinstance(node, ast.FunctionDef | ast.ClassDef):
                    if node.name.startswith("_") and not node.name.endswith("__"):
                        defined.add(f"{path.stem}.{node.name}")
        assert {"identities._grid_size", "identities._memo", "maps._ratio"} <= defined
        assert sorted(d for d in defined if d.split(".")[1] not in used) == []

    def test_limits_alone_owns_the_cap(self):
        # only limits reads the environment, a price never names its cap,
        # and no object carries one: run_capped is the one place a cap is set.
        # Outside limits no code words a refusal (constructs ResourceLimit),
        # no function takes a cap and only cli.main reads it, once
        readers, capped_calls, cap_attributes = set(), [], []
        refusals, cap_params, cap_reads = [], [], []
        arity = {"max_cells": 0, "check_cells": 2, "check_sum": 2}
        for path in sorted((SRC / "rascal").glob("*.py")):
            tree = ast.parse(path.read_text())
            functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                    readers.add(path.stem)
                elif isinstance(node, ast.Attribute) and node.attr == "_cap":
                    cap_attributes.append(f"{path.stem}:{node.lineno}")
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in arity and len(node.args) + len(node.keywords) != arity[name]:
                        capped_calls.append(f"{path.stem}:{node.lineno}")
                    if path.stem != "limits" and name == "ResourceLimit":
                        refusals.append(f"{path.stem}:{node.lineno}")
                    if path.stem != "limits" and name == "max_cells":
                        # named by the innermost function around the call
                        around = [f.name for f in functions if node in ast.walk(f)]
                        cap_reads.append(".".join([path.stem, *around[-1:]]))
                elif isinstance(node, ast.FunctionDef | ast.Lambda) and getattr(node, "name", "") != "run_capped":
                    params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
                    if "cap" in [a.arg for a in params]:
                        cap_params.append(f"{path.stem}:{node.lineno}")
        assert (readers, capped_calls, cap_attributes) == ({"limits"}, [], [])
        assert (refusals, cap_params, cap_reads) == ([], [], ["cli.main"])

    def test_enumerate_keeps_no_price(self):
        # generate._check_restricted and the generators price every listing
        tree = ast.parse((SRC / "rascal" / "cli.py").read_text())
        [items] = [f for f in ast.walk(tree) if getattr(f, "name", "") == "_enumerate_items"]
        calls = [n.func for n in ast.walk(items) if isinstance(n, ast.Call)]
        called = {getattr(f, "id", getattr(f, "attr", None)) for f in calls}
        assert "_check_restricted" in called and not called & {"check_cells", "check_sum"}

    def test_version_and_submodules(self):
        assert rascal.__version__ == "0.1.0"
        assert rascal.maps is importlib.import_module("rascal.maps")


class EnvReads(dict):
    """A copy of the environment that counts the reads of RASCAL_MAX_CELLS."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "RASCAL_MAX_CELLS"
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == "RASCAL_MAX_CELLS"
        return super().__getitem__(key)


class CountingStdout(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


class SizedStdout:
    """A stdout that keeps the size and the line count of each write, not its text."""

    def __init__(self) -> None:
        self.sizes, self.lines = [], []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        self.lines.append(text.count("\n"))
        return len(text)

    def flush(self) -> None:
        pass


# exit code and sha256 of stdout, each recorded at the default budget
# before a change that had to keep it byte for byte
OUTPUT_SHA256 = {
    ("triangle", "40", "--format", "csv"):
        (0, "5d141b7dd215993035bc2fc3ea79554a42bb6a63cbd30f0f2b9f6a333ae60303"),
    ("etable", "12", "3", "--format", "csv"):
        (0, "ad1f4dba513c98f6e942dc20627609b31353f12e2af99495661d28e15dbd99b0"),
    ("enumerate", "words", "--n", "12", "--j", "2"):
        (0, "68c03be3b8103cd8f1b7bb1d716e9dad4084f5c6b172cc4c47986d681fb392d4"),
    ("etable", "12", "3", "--format", "bfile", "--offset", "1"):
        (0, "4bba71de2e9d6dfa1d52f2d78ec7419f62bb417fc8076dc6fac71aa392cf3348"),
    # the one documented weighted_row_sum failure
    ("verify", "all"):
        (1, "76fbaa90f3f5de9a9ee9586285911ece7325fd91e82b1f297bfe301220b6df35"),
    # the oracle prints the closed form's table byte for byte
    ("verify", "all", "--oracle"):
        (1, "76fbaa90f3f5de9a9ee9586285911ece7325fd91e82b1f297bfe301220b6df35"),
    # elapsed_ms is 0.0 without --timing
    ("verify", "all", "--format", "json"):
        (1, "0666ee1ccc49340343a77da5873db1b3911078804197e5c9526119dc24c2b435"),
    ("bijection", "altbin"):
        (0, "4578d60630de05fbaba280415ef102596f6705dfed1de182f9e00a1fa94902bf"),
    ("bijection", "ascseq"):
        (0, "2b8e86a0df02e45a1a1140caaba72f38c8627d4758c71dc217293e0c45b70212"),
    ("bijection", "divider"):
        (0, "de55b52f409bc5764df181be06ec1474227d732817be6995a197dc777d733b71"),
    ("bijection", "genalt"):
        (0, "e887c42e8bf5fc60da80c12f2ca9a9ccde094485506e4b1a105c0a5141a98ca3"),
    ("bijection", "ratio"):
        (0, "1deffeab7000009817e945e99095058ed97b63a429a382254fa17995a3393bf5"),
    ("bijection", "strip"):
        (0, "0af5737b0dc5ea187b063882a08367a854400864242eeaa4b568d454decdb13a"),
    ("bijection", "subset"):
        (0, "22bfbf2905b6d63dfcce483e9d7339c2c8c17427a9732b145e51bce2b2fd15e7"),
    ("bijection", "sym"):
        (0, "03014196dd35de01072e7ccc55509f7d7477bb70219a4e6ac474683cbc2a18e4"),
}


class TestWholeOutput:
    def counted(self, monkeypatch, *argv):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
        monkeypatch.undo()
        return code, stdout.getvalue(), stdout.writes

    def test_triangle_csv_one_write_per_row(self, monkeypatch):
        code, out, writes = self.counted(monkeypatch, "triangle", "300", "--format", "csv")
        assert (code, writes <= 303) == (0, True), writes
        assert out.count("\n") == 1 + 301 * 302 // 2
        assert out.endswith("300,299,300\n300,300,1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "subsets", "--n", "10", "--k", "5", "--j", "2"),
            ("enumerate", "avoiders", "--n", "6", "--patterns", "001,210"),
            ("enumerate", "ascseq", "--n", "5", "--count-only"),
            ("triangle", "60"),
            ("etable", "12", "3"),
            ("verify", "all", "--n-max", "8", "--k-max", "6", "--r-max", "3", "--m-max", "4", "--j-max", "2"),
            ("bijection", "ratio"),
            ("value", "6", "3"),
        ],
        ids=" ".join,
    )
    def test_one_write(self, monkeypatch, argv):
        code, out, writes = self.counted(monkeypatch, *argv)
        assert out and writes == 1

    @pytest.mark.parametrize(
        "argv, lines",
        [
            # every word of length 10: exactly one write's worth
            pytest.param(("enumerate", "words", "--n", "10", "--j", "5"), [1024], id="enumerate words --n 10 --j 5"),
            # sum_{t <= 5} C(12, t) = 1,586 words
            pytest.param(("enumerate", "words", "--n", "12", "--j", "2"), [1024, 562], id="enumerate words --n 12 --j 2"),
            # a header and 1,891 cells
            pytest.param(("triangle", "60", "--format", "csv"), [1024, 868], id="triangle 60 --format csv"),
        ],
    )
    def test_writes_of_1024_lines(self, monkeypatch, argv, lines):
        stdout = SizedStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert (main(list(argv)), stdout.lines) == (0, lines)

    @pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256), ids=" ".join)
    def test_bytes_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_SHA256[argv]


# a child's cli.main call with a SizedStdout, that reports its writes and how far
# its peak RSS (ru_maxrss, in KiB on Linux) rose during the call
SIZED_RUN = """
import json, resource, sys
from rascal import generate, words
from test_cli import SizedStdout, main
stdout = sys.stdout = SizedStdout()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(sys.argv[1:])
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps([code, stdout.sizes, stdout.lines, grown]), file=sys.__stdout__)
"""


class TestStreamedOutput:
    @pytest.mark.parametrize("family", ["words", "subsets"])
    def test_listing_memory_does_not_grow(self, family):
        # R(400, 200; 1) = 40,001 lines of 400 or 800 bytes, 16 or 32 MB in all.
        # Read from ru_maxrss in a child: tracemalloc makes these listings 7-10 times slower
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}
        env.pop("RASCAL_MAX_CELLS", None)
        argv = ["enumerate", family, "--n", "400", "--k", "200", "--j", "1"]
        done = subprocess.run(
            [sys.executable, "-c", SIZED_RUN, *argv], capture_output=True, env=env, timeout=120, text=True
        )
        code, sizes, lines, grown_kib = json.loads(done.stdout)
        assert (code, sum(lines), done.stderr) == (0, 40_001, "")
        assert len(sizes) >= 40 and max(sizes) < 1 << 20
        assert grown_kib < 8 << 10

    def test_only_write_writes_stdout(self):
        # cli._write is the one writer: no other code names sys.stdout, and every print names its file
        outside, prints = [], []
        for path in sorted((SRC / "rascal").glob("*.py")):
            tree = ast.parse(path.read_text())
            writers = [f for f in ast.walk(tree) if getattr(f, "name", "") == "_write"]
            inside = {id(node) for f in writers if path.stem == "cli" for node in ast.walk(f)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr == "stdout" and getattr(node.value, "id", "") == "sys":
                    if id(node) not in inside:
                        outside.append(f"{path.stem}:{node.lineno}")
                elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "print":
                    if "file" not in [k.arg for k in node.keywords]:
                        prints.append(f"{path.stem}:{node.lineno}")
        assert (outside, prints) == ([], [])

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "1000", "--format", "csv"),
            ("triangle", "1000", "--format", "bfile"),
            ("enumerate", "words", "--n", "22", "--k", "11", "--j", "3"),
        ],
        ids=" ".join,
    )
    def test_reader_closing_early_ends_quietly(self, argv):
        # a reader that takes one line and closes the pipe, as `| head -1` does
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("RASCAL_MAX_CELLS", None)
        child = subprocess.Popen(
            [sys.executable, "-m", "rascal.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=60), err, first.endswith(b"\n")) == (0, b"", True)
