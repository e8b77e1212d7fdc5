"""A model-based test of the value stores: a recurrence TriangleCache shared
by every route, the ClosedValues and EnumerationCounts value sources, a
ProfileTable and the identities' signed-binomial cache, called under small
drawn caps, sometimes nested."""

import copy
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from rascal.errors import ResourceLimit
from rascal.generate import ProfileTable
from rascal.identities import ClosedValues, EnumerationCounts, _signed_binomials, evaluate
from rascal.limits import max_cells, run_capped
from rascal.numbers import METHODS, TriangleCache, closed_value, rascal_gen_value, triangle_rows

sizes = st.integers(0, 12)
bounds = st.integers(0, 4)
# one or two nested scopes; None keeps the cap of the scope around it
caps = st.lists(st.none() | st.integers(0, 120), min_size=1, max_size=2)


def fresh_row(n, j):
    """Row (n, j) from fresh closed_value calls, sharing no store."""
    return [closed_value(n, k, j) for k in range(n + 1)]


def capped(scopes, fn, *args):
    """fn(*args) inside one run_capped scope per cap, outermost first."""
    if len(scopes) == 1:
        return run_capped(scopes[0], fn, *args)
    return run_capped(scopes[0], capped, scopes[1:], fn, *args)


def holds(old, new) -> bool:
    """Whether `new` keeps all of `old`: each list a prefix of its new
    list, each dict entry still there, and every other value equal."""
    if isinstance(old, dict):
        return old.keys() <= new.keys() and all(holds(v, new[key]) for key, v in old.items())
    if isinstance(old, list | tuple):
        return len(old) <= len(new) and all(map(holds, old, new))
    return old == new


class Stores(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = TriangleCache()
        self.closed = ClosedValues()
        self.counts = EnumerationCounts()
        self.table = ProfileTable()
        _signed_binomials.cache_clear()  # a process-wide lru_cache: start it empty
        self.signed = set()  # the r of every row a returned evaluate call read

    def held(self):
        """What every store holds, and its tables' running totals."""
        held = {
            "cache": (self.cache._linear, self.cache._product, self.cache._cols),
            "closed": (self.closed._served, self.closed._cols),
            "counts": (self.counts._served, self.counts._table.columns),
            "table": self.table.columns,
        }
        filled = (self.counts._table.filled, self.table.filled, _signed_binomials.cache_info().currsize)
        return copy.deepcopy(held), filled

    def call(self, scopes, fn, *args):
        """fn(*args) under the caps: a refusal leaves every store as it was,
        a return only adds to them, and the cap outside is the cap again."""
        cap = max_cells()
        before, filled = self.held()
        try:
            got = capped(scopes, fn, *args)
        except ResourceLimit:
            got = None
            assert self.held() == (before, filled)
        else:
            after, now = self.held()
            assert holds(before, after) and all(map(int.__le__, filled, now))
        assert max_cells() == cap
        return got

    @rule(scopes=caps, n=sizes, k=st.integers(-1, 13), j=bounds, method=st.sampled_from(METHODS))
    def route_value(self, scopes, n, k, j, method):
        j = 1 if method == "multiplicative" else j
        got = self.call(scopes, lambda: rascal_gen_value(n, k, j, method, cache=self.cache))
        assert got in (None, closed_value(n, k, j))

    @rule(scopes=caps, n_max=sizes, j=bounds, method=st.sampled_from(METHODS))
    def route_rows(self, scopes, n_max, j, method):
        j = 1 if method == "multiplicative" else j
        got = self.call(scopes, lambda: triangle_rows(n_max, j, method=method, cache=self.cache))
        assert got in (None, [fresh_row(n, j) for n in range(n_max + 1)])

    @rule(scopes=caps, source=st.sampled_from(("closed", "counts")), n=sizes, k=sizes, j=bounds)
    def source_cell(self, scopes, source, n, k, j):
        got = self.call(scopes, getattr(self, source).cell, n, k, j)
        assert got in (None, closed_value(n, k, j))

    @rule(scopes=caps, source=st.sampled_from(("closed", "counts")), n=sizes, j=bounds)
    def source_row(self, scopes, source, n, j):
        got = self.call(scopes, getattr(self, source).row, n, j)
        assert got in (None, fresh_row(n, j))

    @rule(scopes=caps, n=sizes, k=sizes, j=bounds)
    def table_count(self, scopes, n, k, j):
        assert self.call(scopes, self.table.count, n, k, j) in (None, closed_value(n, k, j))

    @rule(scopes=caps, n=sizes, j=bounds, grown=st.booleans())
    def table_row(self, scopes, n, j, grown):
        below = fresh_row(n, j - 1) if grown and j else None
        assert self.call(scopes, self.table.row, n, j, below) in (None, fresh_row(n, j))

    @rule(scopes=caps, r=st.integers(2, 5), n=sizes, k=sizes)
    def alt_binomial(self, scopes, r, n, k):
        got = self.call(scopes, evaluate, "alt_binomial", {"r": r, "n": n, "k": min(k, n)})
        assert got in (None, (0, 0))
        if got:
            self.signed.add(r)

    @rule(scopes=caps, n=sizes, j=bounds)
    def forward_diff(self, scopes, n, j):
        got = self.call(scopes, evaluate, "forward_diff", {"n": n, "j": j})
        assert got in (None, (1, 1))
        if got:
            self.signed.add(2 * j + 1)

    @invariant()
    def oracle_builds_no_columns(self):
        """Only ClosedValues._row reads the closed-form term columns, so the
        enumeration source never builds them."""
        assert "_cols" not in vars(self.counts)

    @invariant()
    def signed_rows(self):
        """The signed-binomial cache holds the rows of the returned calls, each
        (-1)^(r-t) * C(r, t); a refused call added none (checked in `call`)."""
        assert _signed_binomials.cache_info().currsize == len(self.signed)
        for r in self.signed:
            assert _signed_binomials(r) == tuple((-1) ** (r - t) * math.comb(r, t) for t in range(r + 1))


Stores.TestCase.settings = settings(
    max_examples=60, stateful_step_count=12, derandomize=True, deadline=None
)
TestStores = Stores.TestCase
