"""One resource budget: every path that builds values or objects is priced
in cells from exact counts of its inputs, before anything is built, by the
library call that builds it, against one cap: the one `run_capped` set, else
RASCAL_MAX_CELLS, else 2^20.  Only this module compares a price with the
cap and words the refusal: `check_cells` one count, `check_sum` a lazy
total.  Binary-word enumeration costs 2^n, a walk of every ascent sequence
the Fishburn number, the pruned {001, 210}-avoider tree its nodes, a
closed-form value (and an E-table defect) its binomial terms from i = 2
times their bits (none at j <= 1: `rascal_value` is `rascal_gen_value` at
j = 1), a closed-form row a triangle up to it per term column plus its own
cells (in an identity's value source, n + 1 per column new to its store),
a recurrence table its cells in every layer it grows, a word or subset
listing R(n, k; j) and one of every k sum_{t <= 2j+1} C(n, t), the profile
oracle each growth of its profile table plus each row's new term columns
and own cells, a pattern search (contains_pattern) the partial embeddings
it can try, sum_{d <= min(m, n)} C(n, d) for m pattern letters in n word
letters.  The shared input rules live here too: require_sizes, and
require_subset, the one reader of a subset argument.
"""

import os
from contextvars import ContextVar, copy_context

from .errors import DomainViolation, ResourceLimit

DEFAULT_MAX_CELLS = 1 << 20

ENV_MAX_CELLS = "RASCAL_MAX_CELLS"

_scoped_cap: ContextVar[int | None] = ContextVar("rascal_max_cells", default=None)


def max_cells() -> int:
    """Current cell cap: the scoped cap, else env var, else default."""
    cap = _scoped_cap.get()
    if cap is not None:
        return cap
    raw = os.environ.get(ENV_MAX_CELLS)
    if not raw:
        return DEFAULT_MAX_CELLS
    if not raw.strip().isdecimal():
        raise DomainViolation(f"{ENV_MAX_CELLS}={raw!r} is not a non-negative integer")
    return int(raw)


def run_capped(cap: int | None, fn, /, *args):
    """The one place a cap is chosen: fn(*args) with every price inside it
    against `cap`, else the current cap, until the call returns or raises."""
    scope = copy_context()
    scope.run(_scoped_cap.set, max_cells() if cap is None else cap)
    return scope.run(fn, *args)


def require_sizes(*, negative_ok: bool = False, **sizes: int) -> None:
    """Raise DomainViolation naming the first size that is not an int (a
    bool or other int subclass is not) or (unless `negative_ok`) is negative."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise DomainViolation(f"{name} must be an integer, got {value!r}")
        if value < 0 and not negative_ok:
            raise DomainViolation(f"{name} must be >= 0, got {value}")


def require_subset(subset, n: int) -> tuple[int, ...]:
    """The elements of any iterable `subset`, read once into a tuple; raise
    DomainViolation naming the value unless they are exact ints within 1..n,
    the rule of require_sizes (no bool, other int subclass or float)."""
    elements = None
    try:
        elements = tuple(subset)
        if all(type(e) is int and 1 <= e <= n for e in elements):
            return elements
        shown = subset if type(subset) is tuple else sorted(elements)  # a tuple as given
    except TypeError:  # no iterable, named as given, or a mix that does not sort
        shown = subset if elements is None else list(elements)
    raise DomainViolation(f"subset {shown!r} not within {{1..{n}}}")


def check_cells(count: int, what: str) -> None:
    """Raise ResourceLimit if `count` exceeds the active cell cap; a count
    of 0 fits any cap, so the cap is not read for it."""
    if count and count > (cap := max_cells()):
        raise ResourceLimit(f"{what} needs {count} cells, over the cap {cap}")


def check_sum(terms, what: str) -> None:
    """Raise ResourceLimit once the running total of `terms` passes the
    cap.  Terms are drawn lazily, so an absurd size is refused after the
    few terms it takes to pass the cap."""
    cap = max_cells()
    total = 0
    for term in terms:
        total += term
        if total > cap:
            raise ResourceLimit(f"{what} needs more than {cap} cells")
