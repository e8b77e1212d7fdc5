"""Generators for the word families counted by Rascal numbers.

Every stream yields in strictly increasing lexicographic order, so
listings are deterministic and diffable.  The slow 2^n oracle and the
fast structured generators are kept separate on purpose: the structured
routes are cross-checked against brute force by the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice, product
from collections.abc import Iterator

from .errors import DomainViolation, ResourceLimit
from .limits import max_cells
from .words import (
    Word,
    _asc,
    _contains_001,
    _contains_210,
    as_word,
    contains_pattern,
    is_pattern,
    word_str,
)


def all_binary_words(n: int) -> Iterator[Word]:
    """All 2^n binary words of length n, lexicographic with 0 < 1."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    cap = max_cells()
    if n >= cap.bit_length():  # 2^n > cap, without building 2^n
        raise ResourceLimit(f"2^{n} binary words exceed the cap {cap}")
    return product((0, 1), repeat=n)


def _head_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Tuples (a_0, a_1, ..., a_parts) with a_0 >= 0, a_i >= 1, summing to total."""
    if parts == 0:
        yield (total,)
        return
    for head in range(total - parts + 1):
        for rest in _positive_compositions(total - head, parts):
            yield (head,) + rest


def _positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def words_with_ascents(n: int, k: int, j: int = 1) -> Iterator[Word]:
    """The words of length n with k ones and at most j ascents.

    Built structurally: a word with exactly r ascents is
    1^x0 0^y1 1^x1 ... 0^yr 1^xr 0^y0 with the x's summing to k and the
    y's to n-k (outer runs may be empty, inner runs may not), so we walk
    run-length profiles instead of filtering 2^n words.
    """
    if j < 0:
        raise ValueError("ascent bound j must be >= 0")
    if n < 0 or k < 0 or k > n:
        return
    out: list[Word] = []
    for r in range(min(j, k, n - k) + 1):
        for xs in _head_compositions(k, r):
            ones_runs = xs  # (x_0, x_1..x_r)
            for ys in _head_compositions(n - k, r):
                bits: list[int] = [1] * ones_runs[0]
                for i in range(1, r + 1):
                    bits.extend([0] * ys[i])
                    bits.extend([1] * ones_runs[i])
                bits.extend([0] * ys[0])
                out.append(tuple(bits))
    out.sort()
    yield from out


def _profile_count(total: int, parts: int) -> int:
    """How many _head_compositions(total, parts) there are, counted by
    walking them: the oracle never takes a binomial from the closed form."""
    return sum(1 for _ in _head_compositions(total, parts))


def _count_by_profiles(profile_count, n: int, k: int, j: int) -> int:
    """|B_k^(j)(n)| by the product rule: a word with exactly r ascents is
    a free pair of an r-part profile of its k ones and one of its n-k
    zeros (see words_with_ascents), so it sums
    profile_count(k, r) * profile_count(n-k, r) over r."""
    if j < 0:
        raise ValueError("ascent bound j must be >= 0")
    if n < 0 or k < 0 or k > n:
        return 0
    return sum(
        profile_count(k, r) * profile_count(n - k, r) for r in range(min(j, k, n - k) + 1)
    )


def count_words_with_ascents(n: int, k: int, j: int = 1) -> int:
    """|B_k^(j)(n)| from the run-length profiles of words_with_ascents,
    each side's profiles walked and counted once per r, then multiplied;
    no letters and no binomials, so this is the cheap oracle for large
    identity grids."""
    return _count_by_profiles(_profile_count, n, k, j)


def fishburn_numbers() -> Iterator[int]:
    """How many ascent sequences have length 0, 1, 2, ... (OEIS A022493),
    counted by (ascents, last letter) state without building any."""
    yield 1
    states = Counter({(0, 0): 1})
    while True:
        yield sum(states.values())
        grown = Counter()
        for (ascents, last), count in states.items():
            for x in range(ascents + 2):
                grown[ascents + (x > last), x] += count
        states = grown


def ascent_sequences(n: int) -> Iterator[Word]:
    """All ascent sequences of length n (lexicographic; Fishburn counts)."""
    if n < 0:
        raise ValueError("length must be >= 0")
    cap = max_cells()
    if any(count > cap for count in islice(fishburn_numbers(), n + 1)):
        raise ResourceLimit(f"ascent sequences of length {n} number more than the cap {cap}")
    if n == 0:
        yield ()
        return

    def extend(prefix: tuple[int, ...], ascents: int) -> Iterator[Word]:
        if len(prefix) == n:
            yield prefix
            return
        last = prefix[-1]
        for x in range(ascents + 2):
            yield from extend(prefix + (x,), ascents + (1 if x > last else 0))

    yield from extend((0,), 0)


def _avoids_all(w: Word, patterns: tuple[Word, ...]) -> bool:
    """Pattern checks on an ascent sequence built here, so the linear
    special cases skip the public re-check of the word."""
    for p in patterns:
        if p == (0, 0, 1):
            if _contains_001(w):
                return False
        elif p == (2, 1, 0):
            if _contains_210(w):
                return False
        elif contains_pattern(w, p):
            return False
    return True


def avoiders(n: int, patterns=(), k: int | None = None) -> Iterator[Word]:
    """Ascent sequences of length n avoiding every given pattern,
    optionally restricted to exactly k ascents."""
    pats = tuple(as_word(p) for p in patterns)
    for p in pats:
        if not is_pattern(p):
            raise ValueError(f"{word_str(p)} is not a pattern (not self-reduced)")
    for w in ascent_sequences(n):
        if not _avoids_all(w, pats):
            continue
        if k is not None and _asc(w) != k:
            continue
        yield w


def canonical_avoiders(n: int, k: int) -> Iterator[Word]:
    """The {001, 210}-avoiding ascent sequences of length n with exactly
    k ascents, built directly from their closed form.

    Such a sequence is the staircase 0 1 ... k padded with copies of k,
    or the staircase, y copies of k, then a constant block of some
    letter x < k.  Must agree elementwise with the filtering oracle
    avoiders(n, {001, 210}, k).
    """
    if n < 0 or k < 0:
        return
    if n == 0:
        if k == 0:
            yield ()
        return
    if k > n - 1:
        return
    staircase = tuple(range(k))
    tail = n - k  # positions left after the staircase; all hold k or k then x
    for y in range(1, tail):
        for x in range(k):
            yield staircase + (k,) * y + (x,) * (tail - y)
    yield staircase + (k,) * tail


@dataclass(frozen=True)
class RestrictedSubset:
    """A k-subset of {1..n} meeting {1..n-k} in at most j elements."""

    elements: tuple[int, ...]
    n: int
    k: int
    j: int

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if list(elems) != sorted(set(elems)):
            raise DomainViolation(f"subset elements must be sorted and distinct: {elems}")
        if any(e < 1 or e > self.n for e in elems):
            raise DomainViolation(f"subset {elems} not within {{1..{self.n}}}")
        if len(elems) != self.k:
            raise DomainViolation(f"subset {elems} has size {len(elems)}, expected {self.k}")
        if self.j < 0:
            raise DomainViolation("intersection bound j must be >= 0")
        low = sum(1 for e in elems if e <= self.n - self.k)
        if low > self.j:
            raise DomainViolation(
                f"subset {elems} meets {{1..{self.n - self.k}}} in {low} > {self.j} elements"
            )


def _restricted_elements(n: int, k: int, j: int) -> list[tuple[int, ...]]:
    """The sorted element tuples of restricted_subsets(n, k, j), correct
    by construction and so not checked one by one.

    Built as a low part (t <= j elements of {1..n-k}) times a high part
    (k-t elements of {n-k+1..n}), so the cost follows the output.
    """
    if j < 0:
        raise ValueError("intersection bound j must be >= 0")
    if n < 0 or k < 0 or k > n:
        return []
    low, high = range(1, n - k + 1), range(n - k + 1, n + 1)
    return sorted(
        lo + hi
        for t in range(min(j, k) + 1)
        for lo in combinations(low, t)
        for hi in combinations(high, k - t)
    )


def restricted_subsets(n: int, k: int, j: int) -> Iterator[RestrictedSubset]:
    """All k-subsets of {1..n} whose intersection with {1..n-k} has at
    most j elements, in lexicographic order of the sorted element lists."""
    for elements in _restricted_elements(n, k, j):
        yield RestrictedSubset(elements, n, k, j)
