"""Rascal numbers by several independent computation routes.

R(n, k) = k*(n-k) + 1 inside the triangle (0 <= k <= n) and 0 outside;
it counts binary words of length n with k ones and at most one ascent.
The generalization R(n, k; j) counts at most j ascents and equals
sum_{i=0..j} C(k, i) * C(n-k, i).

Four routes are implemented and cross-checked by the test suite:

* closed         -- the binomial closed form above: `closed_value` sums
                    one cell's terms, 1 + k(n-k) for i <= 1 and binomials
                    from i = 2; `_closed_row`, the one row builder, adds
                    one term column per i, kept in a shared store, to a half row
* linear         -- additive recurrence
                    R(n,k) = R(n-1,k) + R(n-1,k-1) - R(n-2,k-1) + 1
                    (generalized: the final +1 becomes a j-1 layer term)
* multiplicative -- product recurrence
                    R(n,k) = (R(n-1,k)*R(n-1,k-1) + 1) / R(n-2,k-1),
                    asserting exact divisibility at every cell
* enumeration    -- literally filter all 2^n binary words (priced at 2^n cells)

Both recurrences apply to interior cells 1 <= k <= n-1 only; boundary
columns k = 0 and k = n are the base value 1; the product recurrence is
defined for j = 1 only.  `rascal_value` is `rascal_gen_value` at j = 1.
`_route_row` dispatches over the routes once `_check_route` has passed;
each route prices what it builds: a closed value its binomial terms from
i = 2 (none at j <= 1, so `rascal_gen_value(2000000, 5)` and
`e_defect(10**6, 5, 1)` pass any cap), closed rows in `closed_row`, every
recurrence layer in `TriangleCache`.  Python ints make all arithmetic exact.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul

from .errors import InexactDivision
from .limits import check_cells, require_sizes

METHODS = ("closed", "multiplicative", "linear", "enumeration")


def _choose(n: int, k: int) -> int:
    """C(n, k), 0 outside 0 <= k <= n, on integer sizes, unchecked."""
    return math.comb(n, k) if 0 <= k <= n else 0


class TriangleCache:
    """Explicit memo for the recurrence tables and the closed rows' term columns.

    One instance owns its tables outright; nothing is shared through
    module globals, so callers control reuse and lifetime.  Tables are
    append-only: safe to share once construction is done.  A call that
    must grow a table first prices the whole table it asks for.
    """

    def __init__(self) -> None:
        self._linear: list[list[list[int]]] = []  # [j][n][k]
        self._product: list[list[int]] = []       # [n][k]
        self._cols: dict[int, list[int]] = {}     # [i][k], see _closed_row

    # -- additive recurrence -------------------------------------------------

    def linear_row(self, n: int, j: int = 1) -> list[int]:
        """Row n of layer j; layer j is built from layers 0..j."""
        require_sizes(n=n, j=j)
        if len(self._linear) <= j or len(self._linear[j]) <= n:
            check_cells(_table_cells(n, j + 1), "linear recurrence table")
            self._linear += [[] for _ in range(j + 1 - len(self._linear))]
            for layer, rows in enumerate(self._linear[: j + 1]):
                while len(rows) <= n:
                    rows.append(self._build_linear_row(layer, len(rows)))
        return self._linear[j][n]

    def _build_linear_row(self, j: int, n: int) -> list[int]:
        if n < 2 or j == 0:
            return [1] * (n + 1)
        prev = self._linear[j][n - 1]
        prev2 = self._linear[j][n - 2]
        below = self._linear[j - 1][n - 2]
        row = [1]
        for k in range(1, n):
            row.append(prev[k] + prev[k - 1] - prev2[k - 1] + below[k - 1])
        row.append(1)
        return row

    # -- product recurrence --------------------------------------------------

    def product_row(self, n: int) -> list[int]:
        require_sizes(n=n)
        if len(self._product) <= n:
            check_cells(_table_cells(n), "multiplicative recurrence table")
            while len(self._product) <= n:
                self._product.append(self._build_product_row(len(self._product)))
        return self._product[n]

    def _build_product_row(self, n: int) -> list[int]:
        if n < 2:
            return [1] * (n + 1)
        prev = self._product[n - 1]
        prev2 = self._product[n - 2]
        row = [1]
        for k in range(1, n):
            numerator = prev[k] * prev[k - 1] + 1
            q, r = divmod(numerator, prev2[k - 1])
            if r:
                raise InexactDivision(
                    f"product recurrence not divisible at n={n}, k={k}: "
                    f"{numerator} / {prev2[k - 1]}"
                )
            row.append(q)
        row.append(1)
        return row


def _table_cells(n: int, layers: int = 1) -> int:
    """Cells in rows 0..n of `layers` triangle tables."""
    return layers * (n + 1) * (n + 2) // 2


def _enum_row_counts(n: int, j: int) -> list[int]:
    """Counts per ones-count k of length-n binary words with <= j ascents,
    by filtering all 2^n words."""
    from .generate import all_binary_words  # only this route loads generate and words
    from .words import _asc

    words = all_binary_words(n)  # priced at 2^n before the counts exist
    counts = [0] * (n + 1)
    for bits in words:
        if _asc(bits) <= j:
            counts[sum(bits)] += 1
    return counts


def _check_route(method: str, j: int) -> None:
    """Refuse a bad route before anything is priced: a known method, and
    j = 1 on the multiplicative route (the caller has checked j >= 0)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "multiplicative" and j != 1:
        raise ValueError("the multiplicative route is defined for j = 1 only")


def _route_row(method: str, n: int, j: int, cache: TriangleCache) -> list[int]:
    """Row n of R(., .; j) by one route; the caller has checked the
    route.  Each route prices what it builds: a closed row as in
    `closed_row`, from the term columns stored in `cache`."""
    if method == "closed":
        check_cells(_table_cells(n, min(j, n // 2)) + n + 1, "closed-form row")
        return _closed_row(n, j, cache._cols)
    if method == "linear":
        return cache.linear_row(n, j)
    if method == "multiplicative":
        return cache.product_row(n)
    return _enum_row_counts(n, j)


def rascal_value(
    n: int,
    k: int,
    method: str = "closed",
    *,
    cache: TriangleCache | None = None,
) -> int:
    """R(n, k) = R(n, k; 1) by the chosen route; 0 outside the triangle.

    `cache` lets callers reuse recurrence tables across calls; when
    omitted, a throwaway one is built.
    """
    return rascal_gen_value(n, k, 1, method, cache=cache)


def rascal_gen_value(
    n: int,
    k: int,
    j: int = 1,
    method: str = "closed",
    *,
    cache: TriangleCache | None = None,
) -> int:
    """R(n, k; j): binary words of length n, k ones, at most j ascents."""
    if not (type(n) is type(k) is type(j) is int and j >= 0):  # else these refuse a size
        require_sizes(negative_ok=True, n=n, k=k)
        require_sizes(j=j)
    _check_route(method, j)
    if not 0 <= k <= n:
        return 0
    if method == "closed":
        if j > 1:  # binomial terms i = 2..min(j, k, n-k), up to n + 1 bits each; none below
            check_cells(max(0, min(j, k, n - k) - 1) * (n + 1), "closed-form value")
        return closed_value(n, k, j)
    return _route_row(method, n, j, cache or TriangleCache())[k]


def closed_row(n: int, j: int = 1) -> list[int]:
    """R(n, k; j) for k = 0..n by the closed form, priced first like
    the closed triangle up to row n: one table of rows 0..n per term
    column it adds, plus the row itself."""
    require_sizes(negative_ok=True, n=n)
    require_sizes(j=j)
    return _route_row("closed", n, j, TriangleCache())


def _closed_row(n: int, j: int, cols: dict, below: list[int] | None = None) -> list[int]:
    """R(n, k; j) for k = 0..n, unchecked: the all-ones row of j = 0, or
    `below`, the row (n, j-1), with the term columns C(k, i) * C(n-k, i)
    added for i up to min(j, n // 2) (the rest vanish).  Only the half
    k <= n // 2 is summed: the row is symmetric in k <-> n-k.  Column
    `cols[i]` of the caller's store grows in place to C(0..n, i): read
    forwards it gives C(k, i), backwards from C(n, i) it gives C(n-k, i)."""
    h = n // 2 + 1
    half = [1] * h if below is None else below[:h]
    for i in range(1 if below is None else j, min(j, n // 2) + 1):
        col = cols.setdefault(i, [])
        col += map(math.comb, range(len(col), n + 1), repeat(i))
        half = list(map(add, half, map(mul, col[:h], col[n : n - h : -1])))
    return half + half[: (n + 1) // 2][::-1]


def closed_value(n: int, k: int, j: int = 1) -> int:
    """R(n, k; j) for j >= 0 by the closed form, unchecked: 0 outside
    the triangle, else the terms C(k, i) * C(n-k, i) for i <= min(j, k,
    n-k) (the rest vanish), the first two as 1 + k(n-k), so binomials
    start at i = 2.  `rascal_gen_value` is its validating edge."""
    if not 0 <= k <= n:
        return 0
    m = n - k
    total = 1 + k * m  # the terms i = 0 and i = 1: C(k, 1) * C(m, 1) = k * m
    if j < 2:
        return total if j == 1 else 1
    for i in range(2, min(j, k, m) + 1):
        total += math.comb(k, i) * math.comb(m, i)
    return total


def e_defect(n: int, k: int, j: int = 1) -> int:
    """R(n,k;j) * R(n-2,k-1;j)  -  R(n-1,k;j) * R(n-1,k-1;j).

    For j = 1 this is identically 1 at interior cells (the +1 of the
    product recurrence); for larger j it is tabulated, not closed-form.
    Checked and priced once, by `rascal_gen_value` at (n, k): no other
    of the four cells costs more, and all four are 0 when it is.
    """
    return rascal_gen_value(n, k, j) * closed_value(n - 2, k - 1, j) - (
        closed_value(n - 1, k, j) * closed_value(n - 1, k - 1, j)
    )


def triangle_rows(
    n_max: int,
    j: int = 1,
    *,
    method: str = "closed",
    cache: TriangleCache | None = None,
) -> list[list[int]]:
    """Rows 0..n_max of the triangle for ascent bound j, built top row
    first so that a route prices its whole work before it builds any."""
    require_sizes(negative_ok=True, n_max=n_max)
    require_sizes(j=j)
    _check_route(method, j)
    if n_max < 0:
        return []
    check_cells(_table_cells(n_max), "triangle")
    cache = cache or TriangleCache()
    return [list(_route_row(method, n, j, cache)) for n in range(n_max, -1, -1)][::-1]
