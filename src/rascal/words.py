"""Word statistics, pattern containment and reduction, and the
ascent-sequence and restricted-growth predicates.

A word is a tuple of nonnegative integers.  Every public function also
accepts a compact digit string ("2051159858") or any iterable of ints.
"""

from __future__ import annotations

from .errors import DomainViolation

Word = tuple[int, ...]

# Letters above this bound are rejected up front: real inputs here are
# bounded by word length, so a huge letter is a caller bug.
MAX_LETTER = 1 << 16


def as_word(w) -> Word:
    """Coerce a digit string or an iterable of ints or bools into a word tuple."""
    if isinstance(w, tuple) and all(type(x) is int and 0 <= x <= MAX_LETTER for x in w):
        return w
    if isinstance(w, str):
        if w and not w.isdecimal():
            raise ValueError(f"{w!r} is not a word of decimal digits")
        return tuple(map(int, w))  # one letter 0..9 per digit
    letters = tuple(w)
    for x in letters:
        if not isinstance(x, int):
            raise ValueError(f"letter {x!r} is not an integer")
        if not 0 <= x <= MAX_LETTER:
            raise ValueError(f"letter {x} is outside 0..{MAX_LETTER}")
    return tuple(map(int, letters))


def word_str(w) -> str:
    """Compact display form: letters concatenated as digits."""
    return "".join(str(x) for x in as_word(w))


def binary_word(w) -> Word:
    """Like as_word, but rejects non-bit letters."""
    word = as_word(w)
    if not all(x in (0, 1) for x in word):
        raise DomainViolation(f"{word_str(word)} is not a binary word")
    return word


def asc(w) -> int:
    """Number of ascents of w."""
    return _asc(as_word(w))


def _asc(w: Word) -> int:
    """asc on a word tuple already checked by as_word."""
    return sum(1 for i in range(1, len(w)) if w[i - 1] < w[i])


def des(w) -> int:
    """Number of descents of w."""
    w = as_word(w)
    return sum(1 for i in range(1, len(w)) if w[i - 1] > w[i])


def reduce_word(w) -> Word:
    """Relabel letters by rank: the i-th smallest distinct letter becomes i-1."""
    w = as_word(w)
    rank = {x: i for i, x in enumerate(sorted(set(w)))}
    return tuple(rank[x] for x in w)


def is_pattern(w) -> bool:
    """True iff w is its own reduction."""
    w = as_word(w)
    return reduce_word(w) == w


def contains_pattern(w, p) -> bool:
    """True iff some subsequence of w reduces to the pattern p.

    Generic backtracking over subsequence embeddings; fine at desk
    scale (short patterns, words up to a few dozen letters).  See
    contains_001 / contains_210 for the linear-time special cases.
    """
    w = as_word(w)
    p = as_word(p)
    if not is_pattern(p):
        raise ValueError(f"{word_str(p)} is not a pattern (not self-reduced)")
    m, n = len(p), len(w)
    if m == 0:
        return True
    if m > n:
        return False

    def extend(start: int, chosen: tuple[int, ...]) -> bool:
        d = len(chosen)
        if d == m:
            return True
        for i in range(start, n - (m - d) + 1):
            x = w[i]
            ok = True
            for e, y in enumerate(chosen):
                # the partial embedding must stay order-isomorphic to p
                if (p[e] < p[d]) != (y < x) or (p[e] > p[d]) != (y > x):
                    ok = False
                    break
            if ok and extend(i + 1, chosen + (x,)):
                return True
        return False

    return extend(0, ())


def contains_001(w) -> bool:
    """Linear-time test for an occurrence i<j<l with w_i = w_j < w_l."""
    seen: set[int] = set()
    repeated_min: int | None = None
    for x in as_word(w):
        if repeated_min is not None and x > repeated_min:
            return True
        if x in seen:
            if repeated_min is None or x < repeated_min:
                repeated_min = x
        else:
            seen.add(x)
    return False


def contains_210(w) -> bool:
    """Linear-time test for a strictly decreasing subsequence of length 3."""
    prefix_max: int | None = None
    mid_best: int | None = None  # largest letter preceded by a strictly larger one
    for x in as_word(w):
        if mid_best is not None and x < mid_best:
            return True
        if prefix_max is not None and prefix_max > x:
            if mid_best is None or x > mid_best:
                mid_best = x
        if prefix_max is None or x > prefix_max:
            prefix_max = x
    return False


def is_ascent_sequence(w) -> bool:
    """True iff w_1 = 0 and each later letter is at most one more than
    the ascent count of the preceding prefix.  The empty word counts."""
    w = as_word(w)
    if not w:
        return True
    if w[0] != 0:
        return False
    ascents = 0
    for i in range(1, len(w)):
        if w[i] > ascents + 1:
            return False
        if w[i] > w[i - 1]:
            ascents += 1
    return True


def is_rgf(w) -> bool:
    """Restricted growth: the first occurrence of each letter x >= 1 is
    preceded by an occurrence of x - 1."""
    w = as_word(w)
    top = -1  # largest letter whose first occurrence has been passed
    for x in w:
        if x > top + 1:
            return False
        if x == top + 1:
            top = x
    return True
