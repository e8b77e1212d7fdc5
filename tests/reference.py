"""Brute-force references that the tests check the package against.

The package ships none of them and none reads the package: each is
written from its definition, so it shares no code with what it checks.
A word is a digit string or any iterable of ints.
"""

from itertools import product


def reduce_word(w) -> tuple[int, ...]:
    """Relabel letters by rank: the i-th smallest distinct letter becomes i - 1."""
    w = tuple(map(int, w))
    rank = {x: i for i, x in enumerate(sorted({*w}))}
    return tuple(map(rank.__getitem__, w))


def is_rgf(w) -> bool:
    """Restricted growth: the first occurrence of each letter x >= 1 is
    preceded by an occurrence of x - 1."""
    firsts = tuple(dict.fromkeys(map(int, w)))  # each letter at its first occurrence
    return firsts == tuple(range(len(firsts)))


def brute_count(n: int, k: int, j: int = 1) -> int:
    """R(n, k; j) by the 2^n filter: binary words of length n with k ones
    and at most j ascents."""
    return sum(
        1 for bits in product((0, 1), repeat=n) if sum(bits) == k and sum(map(int.__lt__, bits, bits[1:])) <= j
    )


MAX_LETTER = 1 << 16


class DomainViolation(ValueError):
    """Stands for rascal's DomainViolation: a refusal is compared by the
    name of its type and by its message."""


def binary_family_word(w, j=None, what=""):
    """A binary word read the way the maps read one as a tuple: the letter
    contract of words.as_word, letter by letter (exact ints 0..2^16, bools
    and other int subclasses as ints, or a string of decimal digits), then
    the binary check, then, given j, the bound of j ascents that `what`
    names in its message."""
    if isinstance(w, str):
        if w and not w.isdecimal():
            raise ValueError(f"{w!r} is not a word of decimal digits")
        word = tuple(map(int, w))
    else:
        try:
            letters = tuple(w)
        except TypeError:
            raise ValueError(f"{w!r} is not a word") from None
        for x in letters:
            if not isinstance(x, int):
                raise ValueError(f"letter {x!r} is not an integer")
            if not 0 <= x <= MAX_LETTER:
                raise ValueError(f"letter {x} is outside 0..{MAX_LETTER}")
        word = tuple(map(int, letters))
    shown = "".join(map(str, word))
    if not {*word} <= {0, 1}:
        raise DomainViolation(f"{shown} is not a binary word")
    ascents = sum(map(int.__lt__, word, word[1:]))
    if j is not None and ascents > j:
        raise DomainViolation(f"{what}: {shown} has {ascents} ascents, more than {j}")
    return word


def ascseq_word(w) -> tuple[int, ...]:
    """The binary word of a {001,210}-avoiding ascent sequence w (a tuple
    of ints), read letter by letter: the staircase 0..k-1 (k = max(w)),
    a run of k's, then a constant tail below k; refusals carry the
    messages of maps.ascseq_to_word."""
    shown = "".join(map(str, w))
    if not w:
        raise DomainViolation("the empty sequence is outside the family (lengths are n+1 >= 1)")
    k = max(w)
    n = len(w) - 1
    if w[:k] != tuple(range(k)):
        raise DomainViolation(f"{shown} does not start with the staircase 0..{k - 1}")
    rest = w[k:]
    y = 0
    while y < len(rest) and rest[y] == k:
        y += 1
    if y == 0:
        raise DomainViolation(f"{shown} is missing its largest letter after the staircase")
    tail = rest[y:]
    if not tail:
        return (1,) * k + (0,) * (n - k)
    x_letter = tail[0]
    if any(t != x_letter for t in tail) or x_letter >= k:
        raise DomainViolation(f"{shown} does not end in a constant block below {k}")
    x = k - x_letter
    return (1,) * (k - x) + (0,) * y + (1,) * x + (0,) * (n - k - y)
