"""The identity registry, grid verification, and the documented
disagreement between the stated weighted row sum and enumeration."""

import json
import tracemalloc
from itertools import combinations, groupby, product, repeat
from math import comb, prod
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rascal import identities
from rascal.errors import DomainViolation, ResourceLimit, UnknownIdentity
from rascal.identities import (
    ClosedValues,
    EnumerationCounts,
    Identity,
    IdentityReport,
    default_grids,
    evaluate,
    get_identity,
    identity_names,
    list_identities,
    verify_range,
)
from rascal.numbers import (
    TriangleCache,
    _enum_row_counts,
    closed_row,
    closed_value,
    rascal_gen_value,
    rascal_value,
    triangle_rows,
)


def eager_fill(source):
    """`source` with the per-cell memo fill the value sources used to
    make: every cell served keyed into `filled`, a row's cells in k order
    as the row is built.  The reference for the `_memo` view."""

    class Eager(source):
        def __init__(self):
            super().__init__()
            self.filled = {}
            self.rows = {}

        def __call__(self, n, k, j=1):
            key = (n, k, j)
            got = self.filled.get(key)
            if got is None:
                got = self.filled[key] = self.count(n, k, j)
            return got

        def row(self, n, j=1):
            got = self.rows.get((n, j))
            if got is None:
                got = self.rows[n, j] = self._row(n, j)
                self.filled.update(zip(zip(repeat(n), range(n + 1), repeat(j)), got))
            return got

    return Eager


def in_domain(ident, point):
    """Whether `point` lies in the identity's domain: its one-cell grid
    keeps that cell after clipping to the bounds."""
    return identities._grid_size(ident, {p: (x, x) for p, x in point.items()}, 1) == 1


SMALLEST_POINT = {
    "row_sum": {"n": 0},
    "col_sum": {"k": 0, "r": 0},
    "weighted_row_sum": {"n": 0},
    "triangle_sum": {"n": 2},
    "alt_binomial": {"r": 2, "n": 0, "k": 0},
    "alt_row_sum": {"n": 0},
    "product_formula": {"n": 1, "m": 1},
    "subset_ie": {"n": 1, "m": 1},
    "binom_corollary": {"n": 1, "m": 1},
    "gen_row_sum": {"n": 0, "j": 0},
    "half_pow2": {"j": 0},
    "forward_diff": {"n": 0, "j": 0},
    "gen_alt_row_sum": {"n": 0, "j": 0},
}


class TestRegistry:
    def test_thirteen_entries(self):
        entries = list_identities()
        assert len(entries) == 13
        assert any(name == "row_sum" for name, _, _ in entries)

    def test_names_unique(self):
        names = identity_names()
        assert len(names) == len(set(names))

    def test_every_entry_covers_smallest_point(self):
        assert set(SMALLEST_POINT) == set(identity_names())
        for name, params in SMALLEST_POINT.items():
            lhs, rhs = evaluate(name, params)
            assert isinstance(lhs, int) and isinstance(rhs, int)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            evaluate("no_such_identity", {"n": 3})

    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("capped_middle", {"a": (0, None), "b": (0, "a"), "c": (0, None)}),
            ("capped_by_first", {"a": (0, None), "b": (0, None), "c": (0, "a")}),
        ],
    )
    def test_register_refuses_other_bounds_shapes(self, name, bounds):
        before = dict(identities._REGISTRY)
        with pytest.raises(ValueError, match=f"{name}: only the last parameter may be capped"):
            identities._register(name, "0 = 0", bounds, lambda v, a, b, c: 0, lambda a, b, c: 0)
        assert identities._REGISTRY == before

    @pytest.mark.parametrize(
        "sides, message",
        [
            ({"lhs": lambda v, m, n: 0}, "lhs must take v, n, m, in that order"),
            ({"rhs": lambda m, n: 0}, "rhs must take n, m, in that order"),
            ({"step": lambda v, n, m, prev: 0}, "step must take v, prev, n, m, in that order"),
            ({"corrected_rhs": lambda n: 0}, "corrected_rhs must take n, m, in that order"),
            ({"rhs_step": lambda n, prev, m: 0}, "rhs_step must take prev, n, m, in that order"),
            ({"cost": lambda m, n: 0}, "cost must take n, m, in that order"),
        ],
        ids=["lhs", "rhs", "step", "corrected_rhs", "rhs_step", "cost"],
    )
    def test_register_refuses_swapped_parameters(self, sides, message):
        # verify_range calls every side positionally, in bounds order
        before = dict(identities._REGISTRY)
        sides = {"lhs": lambda v, n, m: 0, "rhs": lambda n, m: 0, **sides}
        with pytest.raises(ValueError, match=f"swapped: {message}"):
            identities._register("swapped", "0 = 0", {"n": (0, None), "m": (0, "n")}, **sides)
        assert identities._REGISTRY == before

    def test_domain_enforced(self):
        with pytest.raises(DomainViolation):
            evaluate("product_formula", {"n": 2, "m": 5})
        with pytest.raises(DomainViolation):
            evaluate("row_sum", {"n": 3, "m": 1})
        with pytest.raises(DomainViolation):
            evaluate("row_sum", {})


class TestValueTypes:
    """Named and immutable, printed as Name(field=value, ...); an Identity
    holds a dict of bounds, so it has no hash."""

    def test_identity(self):
        ident = Identity("row_sum", "sum", {"n": (0, None)}, max, min, note="x")
        assert repr(ident) == (
            "Identity(name='row_sum', statement='sum', bounds={'n': (0, None)},"
            " lhs=<built-in function max>, rhs=<built-in function min>, corrected_rhs=None,"
            " step=None, rhs_step=None, cost=None, note='x')"
        )
        with pytest.raises(AttributeError):
            ident.rhs = max
        assert ident == Identity("row_sum", "sum", {"n": (0, None)}, max, min, None, None, None, None, "x")
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(ident)

    def test_identity_report(self):
        report = verify_range("row_sum", {"n": (0, 3)})
        assert report == IdentityReport("row_sum", "n=0..3", 4, (), None, report.elapsed_ms)
        assert repr(report._replace(elapsed_ms=1.5)) == (
            "IdentityReport(identity='row_sum', grid='n=0..3', cells=4, failures=(),"
            " corrected_failures=None, elapsed_ms=1.5)"
        )
        with pytest.raises(AttributeError):
            report.cells = 5
        assert hash(report) == hash(IdentityReport(*report))


class TestEvaluateExamples:
    def test_row_sum(self):
        assert evaluate("row_sum", {"n": 6}) == (42, 42)

    def test_alt_row_sum(self):
        assert evaluate("alt_row_sum", {"n": 6}) == (-2, -2)

    def test_triangle_sum(self):
        assert evaluate("triangle_sum", {"n": 2}) == (2, 2)

    def test_product_formula(self):
        assert evaluate("product_formula", {"n": 4, "m": 2}) == (12, 12)

    def test_weighted_row_sum_disagrees_at_two(self):
        assert evaluate("weighted_row_sum", {"n": 2}) == (6, 5)

    def test_weighted_row_sum_corrected(self):
        assert evaluate("weighted_row_sum", {"n": 2}, variant="corrected") == (6, 6)

    def test_no_corrected_variant(self):
        with pytest.raises(DomainViolation):
            evaluate("row_sum", {"n": 3}, variant="corrected")


class TestVerifyRange:
    def test_gen_row_sum_grid(self):
        report = verify_range("gen_row_sum", {"n": (0, 30), "j": (0, 4)})
        assert report.passed
        assert report.cells == 155

    def test_alt_binomial_grid(self):
        report = verify_range("alt_binomial", {"r": (2, 5), "n": (0, 12), "k": (0, 12)})
        assert report.passed

    def test_half_pow2(self):
        report = verify_range("half_pow2", {"j": (0, 3)})
        assert report.passed
        assert report.cells == 4

    def test_forward_diff_constant(self):
        report = verify_range("forward_diff", {"n": (0, 60), "j": (0, 4)})
        assert report.passed

    def test_weighted_row_sum_both_variants(self):
        report = verify_range("weighted_row_sum", {"n": (0, 8)})
        assert not report.passed
        assert report.corrected_passed
        first = report.failures[0]
        assert first == ((("n", 2),), 6, 5)
        assert len(report.failures) == 7  # every n from 2 through 8

    def test_domain_filtering(self):
        report = verify_range("product_formula", {"n": (1, 10), "m": (1, 10)})
        assert report.cells == 55  # pairs with m <= n
        assert report.passed

    def test_missing_range(self):
        with pytest.raises(DomainViolation):
            verify_range("col_sum", {"k": (0, 3)})

    def test_extra_range(self):
        # the same refusal as evaluate's: a key the identity does not take
        message = r"row_sum takes \['n'\], not \['q'\]"
        with pytest.raises(DomainViolation, match=message):
            verify_range("row_sum", {"n": (0, 5), "q": (0, 3)})
        with pytest.raises(DomainViolation, match=message):
            evaluate("row_sum", {"n": 5, "q": 0})

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: verify_range("row_sum", {"n": (0, 2.5)}), "n must be an integer, got 2.5"),
            (lambda: verify_range("row_sum", {"n": 5}), r"row_sum needs a \(lo, hi\) range for n, not 5"),
            (lambda: verify_range("row_sum", {"n": (0, 1, 2)}), r"range for n, not \(0, 1, 2\)"),
            (lambda: evaluate("row_sum", {"n": 2.0}), "n must be an integer, got 2.0"),
            (lambda: evaluate("col_sum", {"k": 1, "r": "2"}), "r must be an integer, got '2'"),
        ],
        ids=["float bound", "not a pair", "triple", "float value", "str value"],
    )
    def test_non_integer_input_named(self, call, message):
        with pytest.raises(DomainViolation, match=message):
            call()

    def test_empty_grid_not_walked(self):
        # itertools.product would list the 10^8-value axes before the
        # first run; a grid with no cell is never walked
        tracemalloc.start()
        try:
            report = verify_range("alt_binomial", {"r": (2, 1), "n": (0, 10**8), "k": (0, 10**8)})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.cells, report.failures) == (0, ())
        assert peak < 1 << 20

    def test_cell_cap(self):
        with pytest.raises(ResourceLimit):
            verify_range("row_sum", {"n": (0, 50)}, max_cells=10)

    def test_subset_ie_priced_by_its_terms(self, monkeypatch):
        # cells (n, m) with 1 <= m <= n <= 3 build 2 + (2 + 4) + (2 + 4 + 8) terms
        grid = {"n": (1, 3), "m": (1, 3)}
        assert verify_range("subset_ie", grid, max_cells=22).cells == 6
        with pytest.raises(ResourceLimit, match="subset_ie needs more than 21 cells"):
            verify_range("subset_ie", grid, max_cells=21)
        # one cell of evaluate: 2^10 terms
        monkeypatch.setenv("RASCAL_MAX_CELLS", "1024")
        assert evaluate("subset_ie", {"n": 12, "m": 10})[0] == evaluate("product_formula", {"n": 12, "m": 10})[0]
        monkeypatch.setenv("RASCAL_MAX_CELLS", "1023")
        with pytest.raises(ResourceLimit, match="subset_ie needs 1024 cells, over the cap 1023"):
            evaluate("subset_ie", {"n": 12, "m": 10})

    def test_oracle_mode_small(self):
        for name in ("row_sum", "col_sum", "triangle_sum", "alt_row_sum"):
            grid = {p: (lo, min(hi, 10)) for p, (lo, hi) in default_grids()[name].items()}
            report = verify_range(name, grid, oracle=True)
            assert report.passed, report.failures[:2]

    def test_report_dict_schema(self):
        report = verify_range("weighted_row_sum", {"n": (0, 4)})
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        assert set(back) == {"identity", "grid", "cells", "failures", "elapsed_ms", "corrected"}
        assert back["identity"] == "weighted_row_sum"
        assert back["cells"] == 5
        assert back["failures"][0] == {"params": {"n": 2}, "lhs": 6, "rhs": 5}
        assert back["corrected"]["failures"] == []

    def test_reports_deterministic_apart_from_timing(self):
        a = verify_range("row_sum", {"n": (0, 20)}).to_dict(timing=False)
        b = verify_range("row_sum", {"n": (0, 20)}).to_dict(timing=False)
        assert a == b


class TestInternalEquality:
    def test_subset_ie_equals_product_lhs(self):
        # the inclusion/exclusion expansion matches the plain product
        for n in range(1, 15):
            for m in range(1, n + 1):
                lhs_sum, rhs = evaluate("subset_ie", {"n": n, "m": m})
                lhs_prod, rhs2 = evaluate("product_formula", {"n": n, "m": m})
                assert lhs_sum == lhs_prod
                assert rhs == rhs2

    @pytest.mark.parametrize("source, hi", [(ClosedValues, 60), (EnumerationCounts, 14)])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_subset_ie_lhs_is_the_stated_sum(self, source, hi, data):
        n = data.draw(st.integers(1, hi))
        m = data.draw(st.integers(1, min(n, 10)))
        # the statement read literally: each subset S of {1..m}, its sign (-1)^(m-|S|)
        v = source()
        stated = sum(
            (-1) ** (m - size) * prod(v(n, i) for i in subset)
            for size in range(m + 1)
            for subset in combinations(range(1, m + 1), size)
        )
        assert get_identity("subset_ie").lhs(source(), n, m) == stated

    def test_subset_ie_reads_each_factor_once_in_order(self):
        calls = []

        class Recording(ClosedValues):
            def __call__(self, *key):
                calls.append(key)
                return super().__call__(*key)

        for n, m in ((1, 1), (9, 6), (12, 12)):
            calls.clear()
            get_identity("subset_ie").lhs(Recording(), n, m)
            assert calls == [(n, i) for i in range(1, m + 1)]

    def test_binom_corollary_consistent(self):
        from math import factorial

        for n in range(1, 15):
            for m in range(1, n + 1):
                lhs, rhs = evaluate("binom_corollary", {"n": n, "m": m})
                assert lhs == rhs
                assert rhs % factorial(m) ** 2 == 0


class TestWeightedRowSumGroundTruth:
    def test_corrected_matches_literal_pair_counting(self):
        # count (w1, w2) pairs outright: w1 any word with k ones, w2 in
        # the k-ones at-most-one-ascent family
        for n in range(12):
            per_k_words = [0] * (n + 1)
            per_k_family = [0] * (n + 1)
            for bits in product((0, 1), repeat=n):
                k = sum(bits)
                per_k_words[k] += 1
                ascents = sum(1 for i in range(1, n) if bits[i - 1] < bits[i])
                if ascents <= 1:
                    per_k_family[k] += 1
            pairs = sum(per_k_words[k] * per_k_family[k] for k in range(n + 1))
            lhs, corrected = evaluate("weighted_row_sum", {"n": n}, variant="corrected")
            assert lhs == pairs
            assert corrected == pairs
            _, stated = evaluate("weighted_row_sum", {"n": n})
            if n >= 2:
                assert stated != pairs


class TestGenAltRowSum:
    def test_odd_lengths_vanish(self):
        for n in range(1, 40, 2):
            for j in range(5):
                lhs, rhs = evaluate("gen_alt_row_sum", {"n": n, "j": j})
                assert lhs == rhs == 0

    def test_zero_length_edge(self):
        for j in range(5):
            lhs, rhs = evaluate("gen_alt_row_sum", {"n": 0, "j": j})
            assert lhs == rhs == 1

    def test_even_lengths(self):
        report = verify_range("gen_alt_row_sum", {"n": (0, 60), "j": (0, 5)})
        assert report.passed


class TestEnumerationSource:
    def test_counts_match_closed_values(self):
        counts = EnumerationCounts()
        for n in range(10):
            for k in range(n + 1):
                for j in range(4):
                    from rascal.numbers import rascal_gen_value

                    assert counts(n, k, j) == rascal_gen_value(n, k, j)

    def test_rows_match_word_filter(self):
        # the 2^n filter of numbers is independent of the profile walks
        counts = EnumerationCounts()
        for n in range(15):
            for j in range(5):
                assert counts.row(n, j) == _enum_row_counts(n, j), (n, j)

    def test_no_table_cell_filled_twice(self, monkeypatch):
        sources = []

        class Recording(EnumerationCounts):
            def __init__(self, *args):
                super().__init__(*args)
                sources.append(self)

        monkeypatch.setattr(identities, "EnumerationCounts", Recording)
        report = verify_range("forward_diff", {"n": (0, 16), "j": (0, 4)}, oracle=True)
        assert (report.cells, report.failures) == (85, ())
        # the running total is the table's cells plus, for each row in the
        # order built, its new term columns and its own n + 1 cells
        [v] = sources
        built, rows = set(), 0
        for n, j in ((n, j) for n, k, j in v._served if k is None):
            grown = (n, j - 1) in built
            rows += (len(range(j if grown else 0, min(j, n // 2) + 1)) + 1) * (n + 1)
            built.add((n, j))
        assert v._table.filled == sum(map(len, v._table.columns)) + rows

    def test_profile_walks_priced(self):
        # forward_diff on this grid reads rows n <= 25 at j <= 4: a profile
        # table of 26 x 5 cells and row charges take the total to 5,420
        grid = {"n": (0, 16), "j": (0, 4)}
        with pytest.raises(ResourceLimit, match="over the cap 5419"):
            verify_range("forward_diff", grid, oracle=True, max_cells=5419)
        assert verify_range("forward_diff", grid, oracle=True, max_cells=5420).passed

    def test_default_grids_cover_registry(self):
        grids = default_grids()
        assert set(grids) == set(identity_names())
        for name, grid in grids.items():
            ident = get_identity(name)
            assert set(grid) == set(ident.params)


STEPPED = [name for name in identity_names() if get_identity(name).step]
RHS_STEPPED = [name for name in identity_names() if get_identity(name).rhs_step]


class TestFolds:
    def test_stepped_entries(self):
        assert STEPPED == ["col_sum", "triangle_sum", "product_formula", "binom_corollary"]
        assert RHS_STEPPED == ["col_sum", "product_formula", "binom_corollary", "gen_row_sum"]

    @pytest.mark.parametrize("name", STEPPED)
    @pytest.mark.parametrize("source, hi", [(ClosedValues, 300), (EnumerationCounts, 10)])
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_step_extends_previous_cell(self, name, source, hi, data):
        ident = get_identity(name)
        values = data.draw(st.lists(st.integers(0, hi), min_size=len(ident.params), max_size=len(ident.params)))
        cell = dict(zip(ident.params, values))
        prev = {**cell, ident.params[-1]: values[-1] - 1}
        assume(in_domain(ident, cell) and in_domain(ident, prev))
        v = source()
        assert ident.step(v, ident.lhs(v, **prev), **cell) == ident.lhs(source(), **cell)

    @pytest.mark.parametrize("name", RHS_STEPPED)
    @pytest.mark.parametrize("source, hi", [(ClosedValues, 300), (EnumerationCounts, 10)])
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_rhs_step_extends_previous_cell(self, name, source, hi, data):
        ident = get_identity(name)
        values = data.draw(st.lists(st.integers(0, hi), min_size=len(ident.params), max_size=len(ident.params)))
        cell = dict(zip(ident.params, values))
        prev = {**cell, ident.params[-1]: values[-1] - 1}
        assume(in_domain(ident, cell) and in_domain(ident, prev))
        # the folded right side equals the stated one and the left side
        assert ident.rhs_step(ident.rhs(**prev), **cell) == ident.rhs(**cell) == ident.lhs(source(), **cell)

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize(
        "name, origin, mid",
        [
            ("col_sum", {"k": (0, 12), "r": (0, 9)}, {"k": (0, 12), "r": (5, 9)}),
            ("product_formula", {"n": (1, 14), "m": (1, 7)}, {"n": (1, 14), "m": (3, 7)}),
        ],
    )
    def test_grid_start_does_not_matter(self, monkeypatch, oracle, name, origin, mid):
        folded = [verify_range(name, g, oracle=oracle).to_dict(timing=False) for g in (origin, mid)]
        assert [r["failures"] for r in folded] == [[], []]
        # the same grids with every left side, then every right side, from scratch
        ident = get_identity(name)
        for unfolded in ({"step": None}, {"rhs_step": None}):
            monkeypatch.setitem(identities._REGISTRY, name, ident._replace(**unfolded))
            assert [verify_range(name, g, oracle=oracle).to_dict(timing=False) for g in (origin, mid)] == folded

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize(
        "name, grid, cells",
        [
            ("product_formula", {"n": (1, 14), "m": (1, 20)}, 105),
            ("binom_corollary", {"n": (0, 14), "m": (3, 20)}, 78),
            ("alt_binomial", {"r": (2, 3), "n": (0, 9), "k": (2, 7)}, 66),
        ],
    )
    def test_clipped_last_axis_restarts_fold(self, monkeypatch, oracle, name, grid, cells):
        # the last axis runs only up to n, so each run is a different length
        folded = verify_range(name, grid, oracle=oracle).to_dict(timing=False)
        assert (folded["cells"], folded["failures"]) == (cells, [])
        ident = get_identity(name)
        for unfolded in ({"step": None}, {"rhs_step": None}):
            monkeypatch.setitem(identities._REGISTRY, name, ident._replace(**unfolded))
            assert verify_range(name, grid, oracle=oracle).to_dict(timing=False) == folded

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("col_sum", {"k": (0, 6), "r": (0, 5)}),
            ("product_formula", {"n": (6, 10), "m": (1, 5)}),
            ("binom_corollary", {"n": (6, 10), "m": (2, 5)}),
            ("gen_row_sum", {"n": (0, 12), "j": (0, 5)}),
        ],
    )
    def test_wrong_stated_rhs_fails_at_run_ends(self, monkeypatch, name, grid):
        # a stated side off by one at the last cell of each run, with its
        # step unchanged: folding it through the run would hide the error
        ident = get_identity(name)
        top = grid[ident.params[-1]][1]

        def wrong(*values):
            return ident.rhs(*values) + (values[-1] == top)

        monkeypatch.setitem(identities._REGISTRY, name, ident._replace(rhs=wrong))
        report = verify_range(name, grid)
        heads = list(product(*(range(lo, hi + 1) for lo, hi in list(grid.values())[:-1])))
        assert [params for params, _, _ in report.failures] == [
            tuple(zip(ident.params, (*head, top))) for head in heads
        ]
        # and off by one everywhere: the first cell of each run fails too
        monkeypatch.setitem(identities._REGISTRY, name, ident._replace(rhs=lambda *p: ident.rhs(*p) + 1))
        assert len(verify_range(name, grid).failures) == report.cells

    def test_gen_row_sum_right_side_reads_new_binomials(self, monkeypatch):
        # sum_{k <= 2j+1} C(n, k) from scratch at both ends of each run, two new
        # binomials at each inner cell: 2 + 4 * 2 + 12 calls per n, not
        # sum_{j <= 5} (2j + 2) = 42
        calls = []
        choose = identities._choose
        monkeypatch.setattr(identities, "_choose", lambda n, k: calls.append((n, k)) or choose(n, k))
        assert verify_range("gen_row_sum", {"n": (0, 100), "j": (0, 5)}).passed
        assert len(calls) == 101 * (2 + 4 * 2 + 12)


# the domains as predicates, one per entry, for checking the bounds walk
DOMAINS = {
    "row_sum": lambda n: n >= 0,
    "col_sum": lambda k, r: k >= 0 and r >= 0,
    "weighted_row_sum": lambda n: n >= 0,
    "triangle_sum": lambda n: n >= 2,
    "alt_binomial": lambda r, n, k: r >= 2 and 0 <= k <= n,
    "alt_row_sum": lambda n: n >= 0,
    "product_formula": lambda n, m: 1 <= m <= n,
    "subset_ie": lambda n, m: 1 <= m <= n,
    "binom_corollary": lambda n, m: 1 <= m <= n,
    "gen_row_sum": lambda n, j: n >= 0 and j >= 0,
    "half_pow2": lambda j: j >= 0,
    "forward_diff": lambda n, j: n >= 0 and j >= 0,
    "gen_alt_row_sum": lambda n, j: n >= 0 and j >= 0,
}


class TestBounds:
    def test_reference_covers_registry(self):
        assert list(DOMAINS) == identity_names()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_walk_visits_the_filtered_product(self, data):
        name = data.draw(st.sampled_from(identity_names()))
        ident = get_identity(name)
        # lows may be negative and highs below lows, so axes may be empty
        ends = st.integers(-3, 7)
        grid = {p: (data.draw(ends), data.draw(ends)) for p in ident.params}
        expected = [
            tuple(zip(ident.params, cell))
            for cell in product(*(range(lo, hi + 1) for lo, hi in grid.values()))
            if DOMAINS[name](*cell)
        ]
        visited = []

        def recording(*values):
            visited.append(("rhs", tuple(zip(ident.params, values))))
            return ident.rhs(*values)

        def recording_step(prev, *values):
            visited.append(("rhs_step", tuple(zip(ident.params, values))))
            return ident.rhs_step(prev, *values)

        sides = {"rhs": recording, "rhs_step": ident.rhs_step and recording_step}
        with patch.dict(identities._REGISTRY, {name: ident._replace(**sides)}):
            report = verify_range(name, grid)
        assert [cell for _, cell in visited] == expected
        assert report.cells == len(expected)
        # the stated side at both ends of each run of the last axis, the step between
        for _, run in groupby(visited, key=lambda kind_cell: kind_cell[1][:-1]):
            kinds = [kind for kind, _ in run]
            inner = ["rhs_step" if ident.rhs_step else "rhs"] * (len(kinds) - 2)
            assert kinds == ["rhs", *inner, "rhs"][: len(kinds)]


class TestRows:
    @pytest.mark.parametrize("source", [ClosedValues, EnumerationCounts])
    def test_row_fills_memo_in_k_order(self, source):
        v = source()
        v(5, 3, 2)
        assert v.row(5, 2) == [v(5, k, 2) for k in range(6)]
        assert list(v._memo) == [(5, 3, 2)] + [(5, k, 2) for k in (0, 1, 2, 4, 5)]
        assert v.row(5, 2) is v.row(5, 2)
        # grown from the row (n, j-1): one new term column for j = 2 at n = 7,
        # none for j = 3 > 5 // 2
        v.row(7, 1)
        v(7, 4, 2)
        assert v.row(7, 2) == [v(7, k, 2) for k in range(8)] == [rascal_gen_value(7, k, 2) for k in range(8)]
        v(5, 1, 3)
        assert v.row(5, 3) == [v(5, k, 3) for k in range(6)] == [1, 5, 10, 10, 5, 1]
        assert list(v._memo)[6:] == (
            [(7, k, 1) for k in range(8)]
            + [(7, 4, 2)] + [(7, k, 2) for k in (0, 1, 2, 3, 5, 6, 7)]
            + [(5, 1, 3)] + [(5, k, 3) for k in (0, 2, 3, 4, 5)]
        )

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(0, 300), st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True))
    def test_rows_in_any_j_order(self, n, order):
        # some rows grow from the layer below, the rest are built from scratch
        v = ClosedValues()
        for j in order:
            assert v.row(n, j) == closed_row(n, j) == [rascal_gen_value(n, k, j) for k in range(n + 1)], j

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        st.integers(0, 14) | st.integers(15, 300),
        st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True),
    )
    def test_oracle_rows_in_any_j_order(self, n, order):
        # the oracle's rows, grown or built from its profile table, against
        # the 2^n word filter at small n and the closed form beyond
        v = EnumerationCounts()
        for j in order:
            assert v.row(n, j) == (_enum_row_counts(n, j) if n <= 14 else closed_row(n, j)), j

    @pytest.mark.parametrize(
        "name, grid",
        [("gen_alt_row_sum", {"n": (0, 14), "j": (0, 5)}), ("forward_diff", {"n": (0, 10), "j": (0, 4)})],
    )
    def test_verify_fills_memo_as_comprehension_would(self, monkeypatch, name, grid):
        sources = []

        class Grown(ClosedValues):
            def __init__(self):
                super().__init__()
                sources.append(self)

        class Plain(Grown):
            def _row(self, n, j):
                return [self(n, k, j) for k in range(n + 1)]

        reports = []
        for source in (Grown, Plain):
            monkeypatch.setattr(identities, "ClosedValues", source)
            reports.append(verify_range(name, grid).to_dict(timing=False))
        grown, plain = sources
        assert list(grown._memo.items()) == list(plain._memo.items())
        assert reports[0] == reports[1]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.sampled_from([ClosedValues, EnumerationCounts]),
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 12), st.integers(-1, 13), st.integers(0, 7)),
            max_size=40,
        ),
    )
    def test_memo_view_equals_eager_fill(self, source, calls):
        # cells served before, after and without their rows, rows grown
        # from the layer below or built whole, cells outside 0..n
        v, ref = source(), eager_fill(source)()
        for is_row, n, k, j in calls:
            if is_row:
                assert v.row(n, j) == ref.row(n, j)
            else:
                assert v(n, k, j) == ref(n, k, j)
        assert list(v._memo.items()) == list(ref.filled.items())

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 80), st.integers(0, 7)), min_size=1, max_size=12),
        st.sampled_from(["drawn", "rising", "falling", "repeated"]),
    )
    def test_column_store_in_any_row_order(self, asks, order):
        # one ClosedValues grows one store of term columns C(0.., i)
        asks = {"drawn": asks, "rising": sorted(asks), "falling": sorted(asks, reverse=True)}.get(
            order, asks + asks[::-1] + asks
        )
        v = ClosedValues()
        for n, j in asks:
            assert v.row(n, j) == [closed_value(n, k, j) for k in range(n + 1)], (n, j)
        top = max(n for n, _ in asks)
        for i, col in v._cols.items():
            assert col == [comb(k, i) for k in range(len(col))] and len(col) <= top + 1, i

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(0, 120), st.integers(0, 7))
    def test_triangle_rows_share_one_column_store(self, n_max, j):
        cache = TriangleCache()
        rows = triangle_rows(n_max, j, method="closed", cache=cache)
        assert rows == [[closed_value(n, k, j) for k in range(n + 1)] for n in range(n_max + 1)]
        # the top row comes first and builds every column to its full length
        assert sorted(cache._cols) == list(range(1, min(j, n_max // 2) + 1))
        assert all(col == [comb(k, i) for k in range(n_max + 1)] for i, col in cache._cols.items())

    def test_row_grid_stores_rows_once(self):
        tracemalloc.start()
        try:
            assert verify_range("gen_alt_row_sum", {"n": (0, 200), "j": (0, 5)}).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 15.1 MB when every row cell was also keyed into a per-cell memo
        assert peak < 6 << 20
