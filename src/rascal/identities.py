"""A registry of summation and product identities with a grid verifier.

Each entry carries the statement as written, executable evaluators for
both sides, and its parameter domain as `bounds`: `{param: (lo, hi)}`
in parameter order, where `lo` is an int or None and `hi` is None,
or for the last parameter the name of the one before it (`_register`
refuses any other shape), so "1 <= m <= n" is `{"n": (None, None),
"m": (1, "n")}`.  The parameter names and the domain text both come
from `bounds`.  Verification never repairs a failing formula: where
enumeration contradicts a stated right-hand side, a corrected variant
is registered alongside it and reports show both, so the discrepancy
stays visible as a permanent regression check.

Left-hand sides are expressed through a value source `v(n, k, j=1)`,
which is either the closed form or an enumeration count (the product
rule over run-length profile counts, never a binomial); that is what
lets the same registry run against brute-force ground truth.  Row sums
read a whole row through `v.row(n, j)`, which each source builds once
per (n, j) and keeps in its one store, `_served`, under (n, None, j)
(`_memo` is a per-cell view built on read for the perfbench `layers`
probe only; ROADMAP item 3 removes it): the closed form's rows come from
the unchecked `numbers._closed_row` (row (n, j) grown from a built row
(n, j-1) by one term column from its column store) and cells from
`numbers.closed_value`; the enumeration source builds whole rows from
its profile table.

An entry whose sum runs along its last parameter also carries a
`step(v, prev, *params)`, the left side at `params` from `prev`, the
left side one less on that parameter, and may carry a `rhs_step(prev,
*params)`, the same for the right side.  `verify_range` clips each grid
axis to its bounds given the earlier values and, before evaluating a
cell, prices the grid in closed form (`_grid_size`), then lazily the
terms its cells build where an entry gives a `cost` (2^m for
`subset_ie`).  It walks the leading axes, independent as only the last
is capped, with `itertools.product`, and folds each run of the last
axis with `step` and `rhs_step`, so each cell costs only its new terms;
the stated `rhs` is still evaluated at both ends of every run, so it is
never trusted from its step alone.  Sides are called positionally, in
`bounds` order, as `_register` checks.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product, repeat
from math import factorial, perm, prod
from operator import mul

from .errors import DomainViolation, UnknownIdentity
from . import limits
from .numbers import _choose, _closed_row, closed_value


class ClosedValues:
    """Closed-form value source.  `_served` keeps what it served, in
    order: each cell under (n, k, j), each row once under (n, None, j).
    Subclasses change only `count`, which fills a cell, and `_row`."""

    count = staticmethod(closed_value)

    def __init__(self) -> None:
        self._served: dict[tuple[int, int | None, int], int | list[int]] = {}
        self._cols: dict[int, list[int]] = {}

    def __call__(self, n: int, k: int, j: int = 1) -> int:
        key = (n, k, j)
        got = self._served.get(key)
        if got is None:
            got = self._served[key] = self.count(n, k, j)
        return got

    def row(self, n: int, j: int = 1) -> list[int]:
        """[v(n, k, j) for k in 0..n], built once per (n, j) and read only."""
        got = self._served.get((n, None, j))
        if got is None:
            got = self._served[n, None, j] = self._row(n, j)
        return got

    @property
    def _memo(self) -> dict[tuple[int, int, int], int]:
        """Each cell served, by (n, k, j) in per-cell memo order, built on
        read only for the perfbench `layers` probe; ROADMAP item 3 deletes it."""
        memo = {}
        for (n, k, j), got in self._served.items():
            if k is None:
                memo.update(zip(zip(repeat(n), range(n + 1), repeat(j)), got))
            else:
                memo[n, k, j] = got
        return memo

    def _row(self, n: int, j: int) -> list[int]:
        """The row (n, j) from the cached row (n, j-1) by its one new term
        column, if that row was built, else from scratch; columns from `_cols`
        (keys 1 up).  Priced first: n + 1 cells, and n + 1 per column new to
        `_cols`; a column it holds grows only as far as the row reads."""
        new = max(0, min(j, n // 2) - len(self._cols))
        limits.check_cells((new + 1) * (n + 1), "closed-form row")
        return _closed_row(n, j, self._cols, self._served.get((n, None, j - 1)))


class EnumerationCounts(ClosedValues):
    """Value source backed by enumeration (the oracle): cells and rows by the
    product rule over one `generate.ProfileTable` of run-length profile
    counts (its `count` and `row`, a row grown from a built row (n, j-1)),
    priced first by the table's one running total.  Only this source
    loads `generate` (and with it `words`)."""

    def __init__(self) -> None:
        from .generate import ProfileTable

        super().__init__()
        self._table = ProfileTable()
        self.count = self._table.count

    def _row(self, n: int, j: int) -> list[int]:
        return self._table.row(n, j, self._served.get((n, None, j - 1)))


class Identity(
    namedtuple(
        "Identity",
        "name statement bounds lhs rhs corrected_rhs step rhs_step cost note",
        defaults=(None, None, None, None, ""),
    )
):
    __slots__ = ()

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.bounds)

    @property
    def domain_desc(self) -> str:
        """The bounds as text, e.g. "r >= 2, 0 <= k <= n"."""
        text = ", ".join(
            f"{p} >= {lo}" if hi is None else " <= ".join(str(x) for x in (lo, p, hi) if x is not None)
            for p, (lo, hi) in self.bounds.items()
            if (lo, hi) != (None, None)
        )
        return f"{text} ({self.note})" if self.note else text


class IdentityReport(
    namedtuple("IdentityReport", "identity grid cells failures corrected_failures elapsed_ms")
):
    """Outcome of checking one identity over a parameter grid: each
    failure is (((param, value), ...), lhs, rhs)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def corrected_passed(self) -> bool | None:
        if self.corrected_failures is None:
            return None
        return not self.corrected_failures

    def to_dict(self, *, timing: bool = True) -> dict:
        out: dict = {
            "identity": self.identity,
            "grid": self.grid,
            "cells": self.cells,
            "failures": _failure_dicts(self.failures),
            "elapsed_ms": round(self.elapsed_ms, 3) if timing else 0.0,
        }
        if self.corrected_failures is not None:
            out["corrected"] = {"failures": _failure_dicts(self.corrected_failures)}
        return out


def _failure_dicts(failures) -> list[dict]:
    return [{"params": dict(params), "lhs": lhs, "rhs": rhs} for params, lhs, rhs in failures]


_REGISTRY: dict[str, Identity] = {}


def _register(name: str, statement: str, bounds, lhs, rhs, **options) -> None:
    if name in _REGISTRY:
        raise ValueError(f"duplicate identity name {name!r}")
    caps = [hi for _, hi in bounds.values()]
    if any(caps[:-1]) or caps[-1] not in (None, *list(bounds)[-2:-1]):
        raise ValueError(f"{name}: only the last parameter may be capped, by the one before it")
    sides = {"lhs": lhs, "rhs": rhs, **options}  # verify_range calls each one positionally
    for role, side in sides.items():
        lead = {"lhs": ("v",), "step": ("v", "prev"), "rhs_step": ("prev",)}.get(role, ())
        code = getattr(side, "__code__", None)
        if code and code.co_varnames[: code.co_argcount] != (*lead, *bounds):
            raise ValueError(f"{name}: {role} must take {', '.join((*lead, *bounds))}, in that order")
    _REGISTRY[name] = Identity(name, statement, bounds, lhs, rhs, **options)


def get_identity(name: str) -> Identity:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownIdentity(f"no identity named {name!r}") from None


def list_identities() -> list[tuple[str, str, str]]:
    """(name, statement, parameter domain) for every registered identity."""
    return [(i.name, i.statement, i.domain_desc) for i in _REGISTRY.values()]


def identity_names() -> list[str]:
    return list(_REGISTRY)


# ---------------------------------------------------------------------------
# registry entries


def _alt_sum(row) -> int:
    """sum_k (-1)^k * row[k]"""
    return sum(row[::2]) - sum(row[1::2])


def _binomial_row(n):
    """C(n, k) for k = 0..n, each from the one before."""
    return accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)


def _triangle_row_sum(v, n):
    """sum_{k=1..n-1} R(n,k), cell by cell: the end cells k = 0 and
    k = n are not in the sum, so they are not fetched."""
    return sum(v(n, k) for k in range(1, n))


@lru_cache(maxsize=64)
def _signed_binomials(r: int) -> tuple[int, ...]:
    """(-1)^(r-t) * C(r, t) for t = 0..r."""
    return tuple(c if (r - t) % 2 == 0 else -c for t, c in enumerate(_binomial_row(r)))


def _subset_ie_lhs(v, n: int, m: int) -> int:
    """The 2^m subset products prod_{i in S} -R(n, i), each built once, in
    place; (-1)^(m-|S|) prod R = (-1)^m prod -R, so the sign comes last."""
    terms = [1]
    for i in range(1, m + 1):
        r = -v(n, i)
        terms += [t * r for t in terms]
    return -sum(terms) if m % 2 else sum(terms)


_register(
    "row_sum",
    "sum_{k=0..n} R(n,k) = C(n+1,3) + n + 1",
    {"n": (0, None)},
    lambda v, n: sum(v.row(n)),
    lambda n: _choose(n + 1, 3) + n + 1,
)

_register(
    "col_sum",
    "sum_{i=0..r} R(k+i,k) = k*C(r+1,2) + r + 1",
    {"k": (0, None), "r": (0, None)},
    lambda v, k, r: sum(v(k + i, k) for i in range(r + 1)),
    lambda k, r: k * _choose(r + 1, 2) + r + 1,
    step=lambda v, prev, k, r: prev + v(k + r, k),
    rhs_step=lambda prev, k, r: prev + k * r + 1,
)

# As stated this fails from n = 2 on (6 vs 5); direct pair counting gives
# the first term 2^(n-1)*C(n,2), registered as the corrected variant.
_register(
    "weighted_row_sum",
    "sum_{k=0..n} C(n,k)*R(n,k) = 2^(n-2)*C(n,2) + 2^n",
    {"n": (0, None)},
    lambda v, n: sum(map(mul, _binomial_row(n), v.row(n))),
    lambda n: (_choose(n, 2) * 2 ** (n - 2) if n >= 2 else 0) + 2**n,
    corrected_rhs=lambda n: (_choose(n, 2) * 2 ** (n - 1) if n >= 2 else 0) + 2**n,
)

_register(
    "triangle_sum",
    "sum_{i=1..n} sum_{k=1..i-1} R(i,k) = C(n+2,4) + C(n,2)",
    {"n": (2, None)},
    lambda v, n: sum(_triangle_row_sum(v, i) for i in range(1, n + 1)),
    lambda n: _choose(n + 2, 4) + _choose(n, 2),
    step=lambda v, prev, n: prev + _triangle_row_sum(v, n),
)

_register(
    "alt_binomial",
    "sum_{t=0..r} (-1)^(r-t)*C(r,t)*R(n+t,k) = 0",
    {"r": (2, None), "n": (None, None), "k": (0, "n")},
    lambda v, r, n, k: sum(map(mul, _signed_binomials(r), map(v, range(n, n + r + 1), repeat(k)))),
    lambda r, n, k: 0,
)

_register(
    "alt_row_sum",
    "sum_{k=0..n} (-1)^k*R(n,k) = 0 if n odd, else 1 - n/2",
    {"n": (0, None)},
    lambda v, n: _alt_sum(v.row(n)),
    lambda n: 0 if n % 2 else 1 - n // 2,
)

_register(
    "product_formula",
    "prod_{k=1..m} (R(n,k) - 1) = m! * ff(n-1, m)",
    {"n": (None, None), "m": (1, "n")},
    lambda v, n, m: prod(v(n, k) - 1 for k in range(1, m + 1)),
    lambda n, m: factorial(m) * perm(n - 1, m),
    step=lambda v, prev, n, m: prev * (v(n, m) - 1),
    rhs_step=lambda prev, n, m: prev * m * (n - m),
)

_register(
    "subset_ie",
    "sum_{S subset of {1..m}} (-1)^(m-|S|) * prod_{i in S} R(n,i) = m! * ff(n-1, m)",
    {"n": (None, None), "m": (1, "n")},
    _subset_ie_lhs,
    lambda n, m: factorial(m) * perm(n - 1, m),
    cost=lambda n, m: 2**m,
    note="cost grows as 2^m",
)

_register(
    "binom_corollary",
    "prod_{k=1..m} (R(n,k) - 1) = (m!)^2 * C(n-1,m)   [cross-multiplied form]",
    {"n": (None, None), "m": (1, "n")},
    lambda v, n, m: prod(v(n, k) - 1 for k in range(1, m + 1)),
    lambda n, m: factorial(m) ** 2 * _choose(n - 1, m),
    step=lambda v, prev, n, m: prev * (v(n, m) - 1),
    rhs_step=lambda prev, n, m: prev * m * (n - m),
)

_register(
    "gen_row_sum",
    "sum_{k=0..n} R(n,k;j) = sum_{k=0..2j+1} C(n,k)",
    {"n": (0, None), "j": (0, None)},
    lambda v, n, j: sum(v.row(n, j)),
    lambda n, j: sum(_choose(n, k) for k in range(2 * j + 2)),
    rhs_step=lambda prev, n, j: prev + _choose(n, 2 * j) + _choose(n, 2 * j + 1),
)

_register(
    "half_pow2",
    "sum_{k=0..4j+3} R(4j+3,k;j) = 2^(4j+2)",
    {"j": (0, None)},
    lambda v, j: sum(v.row(4 * j + 3, j)),
    lambda j: 2 ** (4 * j + 2),
)

_register(
    "forward_diff",
    "(2j+1)-th forward difference in n of sum_k R(n,k;j) = 1",
    {"n": (0, None), "j": (0, None)},
    lambda v, n, j: sum(  # the rows first: a refused row leaves _signed_binomials as it was
        map(mul, [sum(v.row(n + t, j)) for t in range(2 * j + 2)], _signed_binomials(2 * j + 1))
    ),
    lambda n, j: 1,
)

_register(
    "gen_alt_row_sum",
    "sum_{k=0..n} (-1)^k*R(n,k;j) = 0 if n odd, else (-1)^j*C(n/2-1,j) with C(-1,j) = (-1)^j",
    {"n": (0, None), "j": (0, None)},
    lambda v, n, j: _alt_sum(v.row(n, j)),
    lambda n, j: _gen_alt_rhs(n, j),
)


def _gen_alt_rhs(n: int, j: int) -> int:
    if n % 2:
        return 0
    if n == 0:
        # C(-1, j) = (-1)^j by convention, so the signs cancel
        return 1
    return (-1) ** j * _choose(n // 2 - 1, j)


# ---------------------------------------------------------------------------
# evaluation and grid verification


def evaluate(name: str, params: dict[str, int], variant: str = "stated") -> tuple[int, int]:
    """Both sides of the named identity at one parameter point."""
    ident = get_identity(name)
    grid = {p: (x, x) for p, x in params.items()} if isinstance(params, dict) else params
    _require_params(ident, grid, "values")
    if _grid_size(ident, grid)[0] != 1:
        raise DomainViolation(f"{params} is outside the domain ({ident.domain_desc})")
    if variant not in ("stated", "corrected"):
        raise DomainViolation(f"unknown variant {variant!r}")
    rhs_fn = ident.rhs if variant == "stated" else ident.corrected_rhs
    if rhs_fn is None:
        raise DomainViolation(f"{name} has no corrected variant")
    if ident.cost:
        limits.check_cells(ident.cost(**params), name)
    return ident.lhs(ClosedValues(), **params), rhs_fn(**params)


def _require_params(ident: Identity, grid, what: str) -> None:
    """Refuse `grid` unless its keys are exactly the identity's parameters,
    each mapped to a (lo, hi) pair of integers."""
    if not isinstance(grid, dict):
        raise DomainViolation(f"{ident.name} needs a dict of {what}, not {grid!r}")
    missing = [p for p in ident.params if p not in grid]
    if missing:
        raise DomainViolation(f"{ident.name} needs {what} for {missing}")
    extra = [p for p in grid if p not in ident.params]
    if extra:
        raise DomainViolation(f"{ident.name} takes {list(ident.params)}, not {extra}")
    for p, pair in grid.items():
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise DomainViolation(f"{ident.name} needs a (lo, hi) range for {p}, not {pair!r}")
        for x in pair:
            limits.require_sizes(negative_ok=True, **{p: x})


def _axes(ident: Identity, grid) -> list[tuple[int, int, str | None]]:
    """(lo, hi, bound_hi) for each axis: its grid range with lo raised
    to the bound, and the earlier parameter that caps it."""
    return [
        (grid[p][0] if lo is None else max(grid[p][0], lo), grid[p][1], hi)
        for p, (lo, hi) in ident.bounds.items()
    ]


def _tied_cells(t: int, lo: int, hi: int) -> int:
    """The cells of the runs lo..min(hi, x) for every x < t."""
    width = max(0, hi - lo + 1)
    u = min(max(t - lo, 0), width)
    return u * (u + 1) // 2 + max(0, t - 1 - hi) * width


def _grid_size(ident: Identity, grid) -> tuple[int, int]:
    """The grid cells inside the domain and the units the grid is charged,
    in closed form: the values of the leading axes times the cells of the
    last axis summed over the runs of the axis before it.  Every run and
    every value of the leading axes costs at least one unit, so the units
    count the empty runs too, and a grid of empty or one-cell runs is
    priced without walking it.  A one-value axis 0..0 goes first, so even
    a one-axis grid has an axis before its last."""
    *lead, (start, stop, _), (lo, hi, tie) = [(0, 0, None), *_axes(ident, grid)]
    copies = prod(max(0, b - a + 1) for a, b, _ in lead)
    runs, width = max(0, stop - start + 1), max(0, hi - lo + 1)
    if tie:  # the run at x is lo..min(hi, x)
        cells = max(0, _tied_cells(stop + 1, lo, hi) - _tied_cells(start, lo, hi))
        empty = runs if hi < lo else min(max(lo - start, 0), runs)
    else:
        cells, empty = runs * width, 0 if width else runs
    return copies * cells, copies * max(1, cells + empty)


def _runs(ident: Identity, grid):
    """(leading axes' values, last axis clipped to its bounds) per run."""
    *lead, (lo, hi, tie) = _axes(ident, grid)
    for head in product(*(range(a, b + 1) for a, b, _ in lead)):
        yield head, range(lo, (hi if tie is None else min(hi, head[-1])) + 1)


def verify_range(
    name: str,
    grid: dict[str, tuple[int, int]],
    *,
    oracle: bool = False,
    max_cells: int | None = None,
) -> IdentityReport:
    """Evaluate one identity over a full parameter grid.

    `grid` maps each parameter to an inclusive (lo, hi) range, clipped
    to the identity's bounds; the grid is priced before any cell is
    evaluated.  Every remaining cell is evaluated (no short-circuit) so
    the report lists every failure.  With `oracle=True` the left side
    uses enumeration counts instead of the closed form.  The first cell
    of each run of the last axis is summed from scratch; every later
    cell folds the one before with the entry's `step`, and every inner
    cell its right side with `rhs_step`, where the entry has them.
    Every price inside the call is against `max_cells`, else the current cap.
    """
    ident = get_identity(name)
    _require_params(ident, grid, "grid ranges")
    return limits.run_capped(max_cells, _verify_grid, ident, grid, oracle)


def _verify_grid(ident: Identity, grid, oracle: bool) -> IdentityReport:
    cells, units = _grid_size(ident, grid)
    limits.check_cells(units, f"grid for identity {ident.name}")
    # _runs's product lists its axes up front, so walk only a grid with cells: each is then <= cap
    if cells and ident.cost:  # the terms its cells build, summed lazily
        limits.check_sum((ident.cost(*h, x) for h, axis in _runs(ident, grid) for x in axis), ident.name)
    v = EnumerationCounts() if oracle else ClosedValues()
    left, step, right, rstep, fixed = ident.lhs, ident.step, ident.rhs, ident.rhs_step, ident.corrected_rhs
    failures, corrected_failures = [], []
    start = time.perf_counter()
    for head, axis in _runs(ident, grid) if cells else ():
        first, last = axis.start, axis.stop - 1
        for x in axis:
            lhs = step(v, lhs, *head, x) if step and x > first else left(v, *head, x)
            rhs = rstep(rhs, *head, x) if rstep and first < x < last else right(*head, x)
            if lhs != rhs:
                failures.append((tuple(zip(ident.params, (*head, x))), lhs, rhs))
            if fixed is not None and lhs != (corrected := fixed(*head, x)):
                corrected_failures.append((tuple(zip(ident.params, (*head, x))), lhs, corrected))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return IdentityReport(
        identity=ident.name,
        grid=", ".join(f"{p}={grid[p][0]}..{grid[p][1]}" for p in ident.params),
        cells=cells,
        failures=tuple(failures),
        corrected_failures=None if fixed is None else tuple(corrected_failures),
        elapsed_ms=elapsed_ms,
    )


def default_grids() -> dict[str, dict[str, tuple[int, int]]]:
    """The pinned desk-scale grids used by `verify all` (shipped as a
    versioned data file so CI runs are reproducible)."""
    raw = json.loads(__loader__.get_data(os.path.join(os.path.dirname(__file__), "default_grids.json")))
    return {
        name: {p: (lo, hi) for p, (lo, hi) in spec.items()} for name, spec in raw.items()
    }
