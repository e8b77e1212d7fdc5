"""Word statistics, pattern containment and the ascent-sequence predicate.

A word is a tuple of nonnegative integers.  Every public function also
accepts a compact digit string ("2051159858") or any iterable of ints.
The letter contract: exact ints 0..2^16 are accepted, bools and other int
subclasses come back as ints, and anything else is refused with a
ValueError naming the letter.  One reader, _letters, reads each word once:
bytes as given, and a tuple of letters up to 255 or a string of ASCII
digits into bytes in one C-level pass, from which word_str prints letters
below 10; any other word letter by letter, with the same values and
messages.  A word that is not iterable is refused with a ValueError
naming it.  A pattern is read by as_word once; is_pattern tests the tuple.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import gt, le, lt

from .limits import check_sum

Word = tuple[int, ...]

# Letters above this bound are rejected up front: real inputs here are
# bounded by word length, so a huge letter is a caller bug.
MAX_LETTER = 1 << 16

_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
# letters 0..9 as ASCII digits, every larger letter as a non-digit
_TO_DIGITS = bytes(range(48, 58)).ljust(256, b"-")


def as_word(w) -> Word:
    """Coerce a digit string or an iterable of ints or bools into a word tuple."""
    return tuple(_letters(w))


def _letters(w) -> bytes | Word:
    """The letters of w, read and checked once: bytes as given; a tuple of
    ints 0..255 or a string of ASCII digits as bytes, in one C-level pass;
    any other word letter by letter into a tuple, with the message that
    names the first bad letter.  bytes() also takes an object that only
    has __index__, which is no int, so sum() must come out an int first."""
    if type(w) is bytes:
        return w
    if type(w) is tuple:
        try:
            if type(sum(w)) is int:
                return bytes(w)
        except (TypeError, ValueError):
            pass
    elif isinstance(w, str):
        if w and not w.isdecimal():
            raise ValueError(f"{w!r} is not a word of decimal digits")
        return w.encode().translate(_FROM_DIGITS) if w.isascii() else tuple(map(int, w))
    try:
        letters = tuple(w)
    except TypeError:
        raise ValueError(f"{w!r} is not a word") from None
    for x in letters:
        if not isinstance(x, int):
            raise ValueError(f"letter {x!r} is not an integer")
        if not 0 <= x <= MAX_LETTER:
            raise ValueError(f"letter {x} is outside 0..{MAX_LETTER}")
    return tuple(map(int, letters))


def word_str(w) -> str:
    """Compact display form: letters concatenated as digits."""
    letters = _letters(w)
    if type(letters) is bytes and (digits := letters.translate(_TO_DIGITS)).isdigit():
        return digits.decode()
    return "".join([str(x) for x in letters])  # str(x) calls are specialized, map(str) is not


def asc(w) -> int:
    """Number of ascents of w."""
    return _asc(as_word(w))


def _asc(w: Word) -> int:
    """asc on a word tuple already checked by as_word."""
    return sum(map(lt, w, w[1:]))


def des(w) -> int:
    """Number of descents of w."""
    w = as_word(w)
    return sum(map(gt, w, w[1:]))


def is_pattern(w) -> bool:
    """True iff w is its own reduction: its d distinct letters have maximum d - 1."""
    w = as_word(w)
    return max(w, default=-1) == len({*w}) - 1


def _as_pattern(p) -> Word:
    """as_word(p), refused unless is_pattern, which reads only the checked tuple."""
    if is_pattern(p := as_word(p)):
        return p
    raise ValueError(f"{word_str(p)} is not a pattern (not self-reduced)")


def contains_pattern(w, p) -> bool:
    """True iff some subsequence of w reduces to the pattern p.

    A backtracking walk over subsequence embeddings, priced before it
    starts by the partial embeddings it can try: sum_{d <= min(m, n)}
    C(n, d) for m pattern letters in n word letters.  Each candidate
    letter is tested in O(1), but the walk is still exponential in the
    worst case (general pattern containment is NP-complete).  See
    contains_001 / contains_210 for the linear-time special cases.
    """
    w = as_word(w)
    p = _as_pattern(p)
    if 0 < len(p) <= len(w):
        check_sum((comb(len(w), d) for d in range(len(p) + 1)), "pattern search")
    return _contains(w, p)


def _contains(w: Word, p: Word, last: int | None = None) -> bool:
    """contains_pattern on a checked word and pattern, unpriced.  With
    `last`, only the occurrences in w + (last,) that end at `last`: the
    pattern's last letter is walked first, pinned to `last`, and the
    other m - 1 are searched in w."""
    m, n = len(p), len(w)
    first = 1 if last is not None and m else 0
    bounds = _bounds((p[-1], *p[:-1]) if first else p)
    chosen = [0] * m + [-1, MAX_LETTER + 1]  # the sentinels, at depths -2 and -1
    if first:
        chosen[0] = last

    def extend(start: int, d: int) -> bool:
        if d == m:
            return True
        lo, hi = bounds[d]
        low, high = (chosen[lo] - 1, chosen[lo] + 1) if lo == hi else (chosen[lo], chosen[hi])
        for i in range(start, n - m + d + 1):
            if low < w[i] < high:
                chosen[d] = w[i]
                if extend(i + 1, d + 1):
                    return True
        return False

    return extend(0, first)


@lru_cache(maxsize=256)
def _bounds(p: Word) -> tuple[tuple[int, int], ...]:
    """For each depth d of a walk embedding p, the two earlier depths
    whose letters bound the letter at d: an earlier equal pattern letter
    pins it, given twice; else the nearest smaller and larger earlier
    pattern letters bracket it, or the sentinels when there are none."""
    bounds = []
    for d, x in enumerate(p):
        lo = max((e for e in range(d) if p[e] <= x), key=p.__getitem__, default=-2)
        hi = min((e for e in range(d) if p[e] > x), key=p.__getitem__, default=-1)
        bounds.append((lo, lo) if lo >= 0 and p[lo] == x else (lo, hi))
    return tuple(bounds)


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
    # one more than the ascents before each later letter, from 1
    bounds = accumulate(map(lt, w, w[1:]), initial=1)
    return not w or w[0] == 0 and all(map(le, w[1:], bounds))
