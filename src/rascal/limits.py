"""One resource budget: every path that builds values or objects is priced
in cells from exact counts of its inputs, before anything is built,
against RASCAL_MAX_CELLS (else 2^20), by the library call that builds it.
Binary-word enumeration costs 2^n, a walk of every ascent sequence the
Fishburn number, the pruned {001, 210}-avoider tree its nodes, a
closed-form value (and an E-table defect) its terms times their bits, a
closed-form row a triangle up to it per term column plus its own cells,
a recurrence table its cells in every layer it grows, a restricted-subset
listing R(n, k; j), the profile oracle the C(t, r) profiles it walks.
"""

import os

from .errors import DomainViolation, ResourceLimit

DEFAULT_MAX_CELLS = 1 << 20

ENV_MAX_CELLS = "RASCAL_MAX_CELLS"


def max_cells(override: int | None = None) -> int:
    """Current cell cap: explicit override, else env var, else default."""
    if override is not None:
        return override
    raw = os.environ.get(ENV_MAX_CELLS)
    if not raw:
        return DEFAULT_MAX_CELLS
    if not raw.strip().isdecimal():
        raise DomainViolation(f"{ENV_MAX_CELLS}={raw!r} is not a non-negative integer")
    return int(raw)


def require_sizes(**sizes: int) -> None:
    """Raise DomainViolation naming the first negative size."""
    for name, value in sizes.items():
        if value < 0:
            raise DomainViolation(f"{name} must be >= 0, got {value}")


def check_cells(count: int, what: str, override: int | None = None) -> None:
    """Raise ResourceLimit if `count` exceeds the active cell cap."""
    cap = max_cells(override)
    if count > cap:
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
