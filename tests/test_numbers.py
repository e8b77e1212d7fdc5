"""Rascal values across routes, helper quantities, and the recurrences."""

import os
import time
from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal.errors import DomainViolation, InexactDivision, ResourceLimit
from rascal.limits import run_capped
from rascal.numbers import (
    TriangleCache,
    _choose,
    closed_row,
    closed_value,
    e_defect,
    rascal_gen_value,
    rascal_value,
    triangle_rows,
)

from reference import brute_count

RASCAL_DISPLAY = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 3, 3, 1],
    [1, 4, 5, 4, 1],
    [1, 5, 7, 7, 5, 1],
    [1, 6, 9, 10, 9, 6, 1],
]


class TestRascalValue:
    def test_closed_example(self):
        assert rascal_value(6, 3, "closed") == 10

    def test_multiplicative_example(self):
        assert rascal_value(6, 4, "multiplicative") == 9

    def test_outside_triangle_every_method(self):
        for method in ("closed", "multiplicative", "linear", "enumeration"):
            assert rascal_value(3, 5, method) == 0
            assert rascal_value(-1, 0, method) == 0
            assert rascal_value(4, -2, method) == 0

    def test_linear_example(self):
        assert rascal_value(5, 2, "linear") == 7

    def test_boundary_is_one(self):
        for n in range(0, 12):
            for method in ("closed", "multiplicative", "linear"):
                assert rascal_value(n, 0, method) == 1
                assert rascal_value(n, n, method) == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            rascal_value(3, 1, "magic")
        with pytest.raises(DomainViolation, match="n must be an integer, got 6.0"):
            rascal_value(6.0, 3)

    def test_methods_agree_medium(self):
        cache = TriangleCache()
        for n in range(61):
            for k in range(n + 1):
                closed = rascal_value(n, k)
                assert rascal_value(n, k, "linear", cache=cache) == closed
                assert rascal_value(n, k, "multiplicative", cache=cache) == closed

    def test_enumeration_agrees_small(self):
        for n in range(11):
            row = triangle_rows(n, method="enumeration")[n]
            assert row == [rascal_value(n, k) for k in range(n + 1)]

    def test_enumeration_cap(self, monkeypatch):
        with pytest.raises(ResourceLimit):
            rascal_value(25, 3, "enumeration")
        monkeypatch.setenv("RASCAL_MAX_CELLS", "255")
        with pytest.raises(ResourceLimit):
            rascal_value(8, 3, "enumeration")  # 2^8 words, one over the cap
        monkeypatch.setenv("RASCAL_MAX_CELLS", "256")
        assert rascal_value(8, 3, "enumeration") == 16


class TestRascalGenValue:
    def test_j1_matches_triangle(self):
        assert rascal_gen_value(4, 2, 1, "closed") == 5

    def test_j0_is_one_inside(self):
        assert rascal_gen_value(5, 2, 0, "closed") == 1

    def test_j2_example(self):
        # ground truth: the 2^6 filter
        assert brute_count(6, 3, 2) == 19
        assert rascal_gen_value(6, 3, 2, "closed") == 19

    def test_j1_agrees_with_rascal_value_everywhere(self):
        for n in range(-2, 40):
            for k in range(-2, n + 3):
                assert rascal_gen_value(n, k, 1) == rascal_value(n, k)

    def test_methods_agree(self):
        cache = TriangleCache()
        for n in range(31):
            for k in range(n + 1):
                for j in range(5):
                    closed = rascal_gen_value(n, k, j)
                    assert rascal_gen_value(n, k, j, "linear", cache=cache) == closed

    def test_enumeration_route_small(self):
        for n in range(9):
            for k in range(n + 1):
                for j in range(4):
                    assert rascal_gen_value(n, k, j, "enumeration") == brute_count(n, k, j)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            rascal_gen_value(3, 1, -1)
        with pytest.raises(DomainViolation, match="n must be an integer, got 6.0"):
            rascal_gen_value(6.0, 3, 2)

    def test_multiplicative_route_at_j1(self):
        cache = TriangleCache()
        for n in range(41):
            for k in range(-1, n + 2):
                assert rascal_gen_value(n, k, 1, "multiplicative", cache=cache) == closed_value(n, k, 1)

    def test_routes_fill_their_own_tables(self):
        # the product route gives the additive route's values, so only its
        # table shows that it ran the product recurrence
        product, linear = TriangleCache(), TriangleCache()
        rascal_gen_value(8, 3, 1, "multiplicative", cache=product)
        triangle_rows(8, method="linear", cache=linear)
        assert (len(product._product), len(product._linear)) == (9, 0)
        assert (len(linear._product), len(linear._linear)) == (0, 2)

    def test_huge_j_sums_only_nonzero_terms(self):
        start = time.perf_counter()
        assert rascal_gen_value(5, 2, 10**8) == 10
        # every word of length 60 with 30 ones has at most 30 ascents
        assert rascal_gen_value(60, 30, 10**12) == comb(60, 30)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_j1_free_at_any_cap(self, data):
        # R(n, k) = k(n-k) + 1 is one multiply: no binomial term to price
        n = data.draw(st.integers(-2, 10**30))
        k = data.draw(st.integers(-2, max(n, 0) + 2))
        with mock.patch.dict(os.environ, {"RASCAL_MAX_CELLS": "0"}):
            assert rascal_gen_value(n, k) == rascal_value(n, k) == (k * (n - k) + 1 if 0 <= k <= n else 0)

    @settings(max_examples=100, derandomize=True)
    @given(st.data())
    def test_closed_price_is_its_binomial_terms(self, data):
        # t = min(j, k, n-k) >= 2: the terms i = 2..t, each of up to n + 1 bits
        n = data.draw(st.integers(4, 400))
        k, j = data.draw(st.integers(2, n - 2)), data.draw(st.integers(2, n))
        cells = (min(j, k, n - k) - 1) * (n + 1)
        assert run_capped(cells, rascal_gen_value, n, k, j) == literal_closed_value(n, k, j)
        with pytest.raises(ResourceLimit, match=f"needs {cells} cells, over the cap {cells - 1}"):
            run_capped(cells - 1, rascal_gen_value, n, k, j)

    def test_closed_route_priced(self, monkeypatch):
        # the 99,999 binomial terms i = 2..100,000 of up to 200,001 bits each
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match=f"needs {99999 * 200001} cells"):
            rascal_gen_value(200000, 100000, 100000)
        assert time.perf_counter() - start < 1.0


# a bad route is refused before the (n+1)(n+2)/2-cell table is priced:
# each call is far over the default budget
BAD_ROUTES = [
    ({"method": "magic"}, "unknown method 'magic'"),
    ({"j": -1}, "j must be >= 0, got -1"),
    ({"j": 2, "method": "multiplicative"}, "the multiplicative route is defined for j = 1 only"),
]


class TestRouteChecked:
    @pytest.mark.parametrize("route, message", BAD_ROUTES)
    def test_triangle_rows(self, route, message):
        with pytest.raises(ValueError, match=message):
            triangle_rows(100000, **route)

    @pytest.mark.parametrize("route, message", BAD_ROUTES)
    def test_rascal_gen_value(self, route, message):
        with pytest.raises(ValueError, match=message):
            rascal_gen_value(100000, 5, **route)


class TestChoose:
    def test_values(self):
        # the library's unchecked binomial, 0 outside 0 <= k <= n
        assert [_choose(6, k) for k in range(-1, 8)] == [0, 1, 6, 15, 20, 15, 6, 1, 0]
        assert _choose(-2, 1) == 0


def literal_closed_value(n, k, j):
    """sum_{i <= min(j, k, n-k)} C(k, i) * C(n-k, i), every term a binomial."""
    if not 0 <= k <= n:
        return 0
    return sum(comb(k, i) * comb(n - k, i) for i in range(min(j, k, n - k) + 1))


class TestClosedValue:
    def test_early_returns_against_literal_sum(self):
        # the cells that return before any binomial: j <= 1, k or n - k
        # below 2, and cells outside the triangle
        for n in range(-3, 41):
            for k in range(-3, n + 4):
                for j in range(9):
                    if j < 2 or min(k, n - k) < 2:
                        assert closed_value(n, k, j) == literal_closed_value(n, k, j), (n, k, j)

    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_random_large_against_literal_sum(self, data):
        n = data.draw(st.integers(0, 5000))
        k = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, 3) | st.integers(0, 60))
        assert closed_value(n, k, j) == literal_closed_value(n, k, j)

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(-3, 300), st.integers(-3, 303), st.integers(0, 8))
    def test_matches_edge_and_row(self, n, k, j):
        # closed_row shares no code with closed_value
        expected = closed_row(n, j)[k] if 0 <= k <= n else 0
        assert closed_value(n, k, j) == rascal_gen_value(n, k, j) == expected == literal_closed_value(n, k, j)


class TestClosedRow:
    def test_exhaustive_small(self):
        for n in range(41):
            for j in range(7):
                assert closed_row(n, j) == [rascal_gen_value(n, k, j) for k in range(n + 1)], (n, j)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 400), st.integers(0, 250))
    def test_random_large(self, n, j):
        # closed_row(400, 250) is priced at 16,120,601 cells, over 2^20
        with mock.patch.dict(os.environ, {"RASCAL_MAX_CELLS": str(1 << 24)}):
            assert closed_row(n, j) == [rascal_gen_value(n, k, j) for k in range(n + 1)]

    def test_row_sums_cover_every_word(self):
        # j >= n/2 admits every word: the row sums to 2^n
        for n in range(30):
            assert sum(closed_row(n, n)) == 2**n

    def test_empty_and_negative(self):
        assert closed_row(-1, 2) == []
        with pytest.raises(ValueError):
            closed_row(3, -1)
        with pytest.raises(DomainViolation, match="n must be an integer, got 4.0"):
            closed_row(4.0, 1)

    @pytest.mark.parametrize("n, j", [(2000, 1000), (1000, 500), (3000000, 2)])
    def test_absurd_row_refused_before_building(self, monkeypatch, n, j):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="closed-form row"):
            closed_row(n, j)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 60), st.integers(0, 8))
    def test_price_is_one_table_per_term_column_and_the_row(self, n, j):
        cells = min(j, n // 2) * (n + 1) * (n + 2) // 2 + n + 1
        with mock.patch.dict(os.environ, {"RASCAL_MAX_CELLS": str(cells)}):
            assert closed_row(n, j) == [closed_value(n, k, j) for k in range(n + 1)]
            os.environ["RASCAL_MAX_CELLS"] = str(cells - 1)
            with pytest.raises(ResourceLimit, match=f"needs {cells} cells"):
                closed_row(n, j)


def prefix_suffix_count(n, k, lead, trail):
    """The strip count verify_strip reads: words of length n with k ones
    and at most one ascent that start with `lead` ones and end with
    `trail` zeros, R(n - lead - trail, k - lead)."""
    return closed_value(n - lead - trail, k - lead)


class TestPrefixSuffixCount:
    def test_lemma_example(self):
        assert prefix_suffix_count(6, 3, 1, 1) == 5

    def test_empty_constraint(self):
        for n in range(8):
            for k in range(n + 1):
                assert prefix_suffix_count(n, k, 0, 0) == rascal_value(n, k)

    def test_derived_example(self):
        # ground truth: filter the words of B_4(6) directly
        words = [
            bits
            for bits in product((0, 1), repeat=6)
            if sum(bits) == 4
            and sum(1 for i in range(1, 6) if bits[i - 1] < bits[i]) <= 1
        ]
        direct = [w for w in words if w[:2] == (1, 1) and w[-1] == 0]
        assert len(direct) == 3
        assert prefix_suffix_count(6, 4, 2, 1) == 3

    def test_matches_filtering(self):
        for n in range(9):
            for k in range(n + 1):
                for lead in range(k + 1):
                    for trail in range(n - k + 1):
                        direct = 0
                        for bits in product((0, 1), repeat=n):
                            if sum(bits) != k:
                                continue
                            ascents = sum(
                                1 for i in range(1, n) if bits[i - 1] < bits[i]
                            )
                            if ascents > 1:
                                continue
                            if all(b == 1 for b in bits[:lead]) and all(
                                b == 0 for b in bits[n - trail :]
                            ):
                                direct += 1
                        assert prefix_suffix_count(n, k, lead, trail) == direct


class TestEDefect:
    def test_priced(self, monkeypatch):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="closed-form value"):
            e_defect(300000, 150000, 150000)
        assert time.perf_counter() - start < 1.0

    def test_j1_example(self):
        assert e_defect(6, 3, 1) == 1

    def test_j1_not_priced(self, monkeypatch):
        # all four j = 1 cells are one multiply each, at any n
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        assert e_defect(10**6, 5, 1) == 1

    def test_k0_column(self):
        for n in range(2, 10):
            for j in range(4):
                assert e_defect(n, 0, j) == 0

    def test_j2_example_vs_oracle(self):
        factors = (
            brute_count(6, 3, 2),
            brute_count(4, 2, 2),
            brute_count(5, 3, 2),
            brute_count(5, 2, 2),
        )
        assert factors == (19, 6, 10, 10)
        assert e_defect(6, 3, 2) == 19 * 6 - 10 * 10 == 14

    def test_j1_interior_is_one(self):
        for n in range(2, 61):
            for k in range(1, n):
                assert e_defect(n, k, 1) == 1

    def test_nonnegative_on_tabulated_grid(self):
        worst = min(
            e_defect(n, k, j)
            for n in range(41)
            for k in range(n + 1)
            for j in range(5)
        )
        assert worst >= 0


class TestTriangleRows:
    def test_display(self):
        assert triangle_rows(6, 1) == RASCAL_DISPLAY

    def test_j0(self):
        assert triangle_rows(2, 0) == [[1], [1, 1], [1, 1, 1]]

    def test_j2_row4(self):
        # with j = 2 every 4-bit word qualifies, so the row is binomial
        assert [brute_count(4, k, 2) for k in range(5)] == [1, 4, 6, 4, 1]
        assert triangle_rows(4, 2)[4] == [1, 4, 6, 4, 1]

    def test_rows_symmetric_and_unimodal(self):
        for j in range(6):
            for n, row in enumerate(triangle_rows(40, j)):
                assert row == row[::-1]
                peak = len(row) // 2
                assert all(row[i] <= row[i + 1] for i in range(peak))
                assert all(row[i] >= row[i + 1] for i in range(peak, len(row) - 1))

    def test_cell_cap(self, monkeypatch):
        with pytest.raises(ResourceLimit):
            triangle_rows(2000)
        monkeypatch.setenv("RASCAL_MAX_CELLS", "10")
        with pytest.raises(ResourceLimit):
            triangle_rows(20)

    def test_negative_n_max(self):
        assert triangle_rows(-1) == []

    def test_whole_route_priced_first(self, monkeypatch):
        # the output fits the budget, the 201 layers do not: refused by
        # the top row before any lower row is built
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        cache = TriangleCache()
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="linear recurrence table"):
            triangle_rows(1000, 200, method="linear", cache=cache)
        assert (time.perf_counter() - start < 1.0, cache._linear) == (True, [])


class TestTablePrice:
    @pytest.mark.parametrize("route", ["linear", "multiplicative"])
    def test_absurd_table_refused_before_building(self, monkeypatch, route):
        monkeypatch.delenv("RASCAL_MAX_CELLS", raising=False)
        cache = TriangleCache()
        build = cache.linear_row if route == "linear" else cache.product_row
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match=f"{route} recurrence table"):
            build(5000)
        assert time.perf_counter() - start < 1.0
        assert (cache._linear, cache._product) == ([], [])

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 30), st.integers(0, 4))
    def test_linear_price_is_the_table_built(self, n, j):
        with mock.patch.dict(os.environ):
            os.environ.pop("RASCAL_MAX_CELLS", None)
            cache = TriangleCache()
            row = cache.linear_row(n, j)
            cells = sum(len(r) for layer in cache._linear for r in layer)
            os.environ["RASCAL_MAX_CELLS"] = str(cells)
            assert TriangleCache().linear_row(n, j) == row
            os.environ["RASCAL_MAX_CELLS"] = str(cells - 1)
            with pytest.raises(ResourceLimit, match=f"needs {cells} cells"):
                TriangleCache().linear_row(n, j)


class TestRecurrences:
    def test_symmetry(self):
        for j in range(6):
            for n in range(101):
                for k in range(n + 1):
                    assert rascal_gen_value(n, k, j) == rascal_gen_value(n, n - k, j)

    def test_generalized_product_recurrence(self):
        # R(n,k)*R(n-u-l,k-l) = R(n-u,k)*R(n-l,k-l) + u*l on its domain
        for n in range(61):
            for u in range(n + 1):
                for k in range(n - u + 1):
                    for lead in range(k + 1):
                        lhs = rascal_value(n, k) * rascal_value(n - u - lead, k - lead)
                        rhs = (
                            rascal_value(n - u, k) * rascal_value(n - lead, k - lead)
                            + u * lead
                        )
                        assert lhs == rhs

    def test_inexact_division_named(self):
        # a wrong row 0 leaves 2 / 3 at the first interior cell
        cache = TriangleCache()
        cache._product = [[3], [1, 1]]
        with pytest.raises(InexactDivision, match="not divisible at n=2, k=1: 2 / 3"):
            cache.product_row(2)

    def test_shift_recurrence(self):
        for n in range(61):
            for m in range(61):
                for k in range(n + 1):
                    assert rascal_value(n + m, k) == rascal_value(n, k) + rascal_value(
                        m + k, k
                    ) - 1

    def test_ratio_identity(self):
        for n in range(101):
            for k in range(1, n):
                assert k * rascal_value(n - 1, k - 1) - 1 == (k - 1) * rascal_value(n, k)

    def test_generalized_additive_recurrence(self):
        for n in range(2, 61):
            for k in range(n + 1):
                for j in range(1, 6):
                    assert rascal_gen_value(n, k, j) == (
                        rascal_gen_value(n - 1, k, j)
                        + rascal_gen_value(n - 1, k - 1, j)
                        - rascal_gen_value(n - 2, k - 1, j)
                        + rascal_gen_value(n - 2, k - 1, j - 1)
                    )

    def test_cache_is_reusable_and_consistent(self):
        cache = TriangleCache()
        first = rascal_value(30, 7, "linear", cache=cache)
        second = rascal_value(60, 11, "linear", cache=cache)
        assert first == rascal_value(30, 7)
        assert second == rascal_value(60, 11)
        assert cache.linear_row(30, 1)[7] == first
