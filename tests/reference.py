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
