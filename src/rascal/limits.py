"""Resource caps.

Caps are deliberate, conservative defaults guarding the brute-force
paths; callers raise them explicitly (function argument, CLI flag, or
the RASCAL_MAX_CELLS environment variable for grid-shaped work).
"""

import os

from .errors import DomainViolation, ResourceLimit

DEFAULT_MAX_CELLS = 1 << 20
DEFAULT_ENUM_CAP = 20     # max word length for 2^n filtering
DEFAULT_ASCSEQ_CAP = 12   # max ascent-sequence length for full generation

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


def check_cells(count: int, what: str, override: int | None = None) -> None:
    """Raise ResourceLimit if `count` exceeds the active cell cap."""
    cap = max_cells(override)
    if count > cap:
        raise ResourceLimit(f"{what} needs {count} cells, over the cap {cap}")
