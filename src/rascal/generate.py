"""Generators for the word families counted by Rascal numbers.

Every stream yields in strictly increasing lexicographic order, so
listings are deterministic and diffable.  The slow oracles and the fast
structured generators are kept separate on purpose, and the test suite
checks each generator against its oracle: words_with_ascents walks runs
lazily, while count_words_with_ascents counts run-length profiles in a
ProfileTable of running sums and all_binary_words lists all 2^n words;
avoiders walks a pruned tree of ascent-sequence prefixes, while
ascent_sequences walks the whole tree unpruned.  None sorts its stream or
builds it whole.  The word and subset walks recurse only while ascents or
low elements are left to place: a word (or subset) is yielded by the
frame that places its last ascent (or low element), with no generator of
its own, and each word is one slice of a run template after its head.
all_binary_words, ascent_sequences, avoiders and restricted_subsets price
their edge before the first object (2^n, the Fishburn numbers, the avoider
tree's nodes, R(n, k; j) by `_check_restricted`), count_words_with_ascents
its profile cells; words_with_ascents and canonical_avoiders price nothing.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate, chain, combinations, islice, pairwise, product, repeat
from math import comb
from collections.abc import Iterator
from operator import add, mul

from .errors import DomainViolation
from .limits import check_cells, check_sum, require_sizes, require_subset
from .words import Word, _as_pattern, _contains


def all_binary_words(n: int) -> Iterator[Word]:
    """All 2^n binary words of length n, lexicographic with 0 < 1."""
    require_sizes(n=n)
    # 2^n = 1 + 1 + 2 + ... + 2^(n-1), drawn only until the total passes the cap
    check_sum(chain((1,), (1 << i for i in range(n))), f"listing 2^{n} binary words")
    return product((0, 1), repeat=n)


def words_with_ascents(n: int, k: int, j: int = 1) -> Iterator[Word]:
    """The words of length n with k ones and at most j ascents, lazily
    and in lexicographic order.

    Walked run by run: a word is 0^y 1^x 0^y' 1^x' ... and each 0-run
    followed by ones costs one ascent.  Longer 0-runs come first and
    shorter 1-runs come first, so the words come out sorted with nothing
    to sort; the walk keeps one generator per ascent (at most j + 1).
    """
    require_sizes(negative_ok=True, n=n, k=k)
    require_sizes(j=j)
    if n < 0 or k < 0 or k > n:
        return
    if k == 0:
        yield (0,) * n
        return
    for lead in range(n - k if j else 0, -1, -1):
        yield from _one_runs((0,) * lead, n - k - lead, k, j - (lead > 0))


def _one_runs(prefix: Word, zeros: int, ones: int, left: int) -> Iterator[Word]:
    """prefix (empty or ending in 0) then a 1-run, followed by the
    `zeros` zeros and the rest of the `ones` ones with at most `left`
    more ascents, in lexicographic order.  A word whose last 1-run this
    call places is yielded here, one slice of a run template after its
    head, so only a prefix with ascents still to place opens a generator."""
    if left and zeros:
        for x in range(1, ones):
            head = prefix + (1,) * x
            rest = zeros + ones - x
            # 0^y 1^(ones-x) 0^(zeros-y), the rest of the word, starts at cut = zeros - y
            runs = (0,) * zeros + (1,) * (ones - x) + (0,) * zeros
            for cut in range(zeros):  # y = zeros, ..., 1
                if cut and left > 1 and x < ones - 1:
                    yield from _one_runs(head + runs[cut:zeros], cut, ones - x, left - 1)
                else:
                    yield head + runs[cut : cut + rest]
    yield prefix + (1,) * ones + (0,) * zeros


class ProfileTable:
    """The profile counts P(t, r), how many (a_0, ..., a_r) with a_0 >= 0
    and a_i >= 1 sum to t, as columns [P(0, r), ..., P(T, r)] for r = 0..R,
    grown in place by running sums, with no binomial: a longer column
    extends by P(t, r) = P(t-1, r) + P(t-1, r-1), a new column is the
    running sum of the one below it.  Each growth, and each cell a caller
    charges, joins a running total, priced before it is allocated."""

    def __init__(self) -> None:
        self.columns: list[list[int]] = []
        self.filled = 0

    def grow(self, t: int, r: int, cells: int = 0) -> list[list[int]]:
        """The columns, grown in place to hold at least P(0..t, 0..r).  The
        growth and the caller's own `cells` are priced as one total before
        either joins `filled`, so a refused call leaves the table as it was."""
        cols = self.columns
        height, width = len(cols[0]) if cols else 0, len(cols)
        if t < height and r < width and not cells:
            return cols
        new_height, new_width = max(t + 1, height), max(r + 1, width)
        filled = self.filled + cells + new_height * new_width - height * width
        check_cells(filled, "counting oracle profiles")
        self.filled = filled
        if cols and new_height > height:
            cols[0].extend(repeat(1, new_height - height))
            for below, col in zip(cols, cols[1:]):
                # accumulate yields its initial first, so the popped last cell goes back
                col.extend(accumulate(below[height - 1 : new_height - 1], initial=col.pop()))
        for _ in range(width, new_width):
            cols.append([0, *accumulate(cols[-1][:-1])] if cols else [1] * new_height)
        return cols

    def count(self, n: int, k: int, j: int) -> int:
        """|B_k^(j)(n)| by the product rule: a word with exactly r ascents is
        1^x0 0^y1 1^x1 ... 0^yr 1^xr 0^y0, the x's summing to k and the y's
        to n-k (outer runs may be empty, inner runs may not), a free pair of
        an r-part profile of its ones and one of its zeros, so it sums
        P(k, r) * P(n-k, r) over r, read from the table."""
        if n < 0 or k < 0 or k > n:
            return 0
        r = min(j, k, n - k)
        return sum(col[k] * col[n - k] for col in self.grow(max(k, n - k), r)[: r + 1])

    def row(self, n: int, j: int, below: list[int] | None = None) -> list[int]:
        """[count(n, k, j) for k = 0..n], each column read forwards and reversed:
        `below`, the row (n, j-1), plus its one new column (none once j > n // 2),
        else every column; its columns read and own n + 1 cells charged first."""
        terms = range(0 if below is None else j, min(j, n // 2) + 1)
        cols = self.grow(n, terms.stop - 1, (len(terms) + 1) * (n + 1))
        row = below or [0] * (n + 1)
        for col in cols[terms.start : terms.stop]:
            head = col[: n + 1]
            row = list(map(add, row, map(mul, head, reversed(head))))
        return row


def count_words_with_ascents(n: int, k: int, j: int = 1) -> int:
    """|B_k^(j)(n)| from the run-length profiles of words_with_ascents,
    each side's profiles counted, then multiplied; no letters and no
    binomials in the count, so this is the cheap oracle for large
    identity grids.  Priced first by the cells of its profile table,
    (max(k, n-k) + 1) * (min(j, k, n-k) + 1)."""
    require_sizes(negative_ok=True, n=n, k=k)
    require_sizes(j=j)
    return ProfileTable().count(n, k, j)


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


def _check_fishburn(n: int) -> None:
    """Price a walk of every ascent sequence of length up to n by the Fishburn
    numbers, charged by their steps: they never decrease, so the total is each in turn."""
    counts = chain((0,), islice(fishburn_numbers(), n + 1))
    check_sum((b - a for a, b in pairwise(counts)), f"walking the ascent sequences of length {n}")


def ascent_sequences(n: int) -> Iterator[Word]:
    """All ascent sequences of length n (lexicographic; Fishburn counts).

    Unpruned depth-first walk with an explicit stack, the children of a
    prefix pushed last letter first; the prefixes of length n - 1 are
    expanded in place.  The small-n oracle for the pruned avoiders tree.
    """
    require_sizes(n=n)
    _check_fishburn(n)
    if n <= 1:
        yield (0,) * n
        return
    stack = [((0,), 0)]
    while stack:
        prefix, ascents = stack.pop()
        last = prefix[-1]
        if len(prefix) == n - 1:
            for x in range(ascents + 2):
                yield prefix + (x,)
            continue
        for x in range(ascents + 1, -1, -1):
            stack.append((prefix + (x,), ascents + (x > last)))


def avoider_nodes(n: int) -> int:
    """The nodes of the {001, 210}-avoider tree down to length n: there
    are C(l, 3) + l avoiders of each length l >= 1, so
    sum_{l <= n} (C(l, 3) + l) = C(n + 1, 4) + C(n + 1, 2)."""
    return comb(n + 1, 4) + comb(n + 1, 2)


def avoiders(n: int, patterns=(), k: int | None = None) -> Iterator[Word]:
    """Ascent sequences of length n avoiding every given pattern,
    optionally restricted to exactly k ascents, in lexicographic order.
    Priced before the first yield: by the tree's avoider_nodes(n) when
    001 and 210 are both avoided, else by the Fishburn numbers.
    """
    try:
        patterns = iter(patterns)
    except TypeError:
        raise ValueError(f"{patterns!r} is not a collection of patterns") from None
    pats = tuple(map(_as_pattern, patterns))
    require_sizes(n=n)
    require_sizes(negative_ok=True, k=0 if k is None else k)
    if (0, 0, 1) in pats and (2, 1, 0) in pats:
        check_cells(avoider_nodes(n), f"the {{001,210}}-avoider tree to length {n}")
    else:
        _check_fishburn(n)
    yield from _avoiders(n, pats, k)


def _avoiders(n: int, pats: tuple[Word, ...], k: int | None = None) -> Iterator[Word]:
    """avoiders on checked sizes and patterns, unpriced: a depth-first walk
    over ascent-sequence prefixes that cuts every prefix containing a
    pattern.  Each node carries its ascents, its largest letter, the least
    letter seen twice (a later larger letter completes 001) and the largest
    letter with a larger one before it (a later smaller letter completes
    210); any other pattern is searched for only where it ends at the new
    last letter, its other letters in the parent prefix, which avoids it.
    With k, prefixes that cannot end with k ascents are cut."""
    no001, no210 = (0, 0, 1) in pats, (2, 1, 0) in pats
    others = [p for p in pats if p not in ((0, 0, 1), (2, 1, 0))]
    root = (0,) * min(n, 1)  # the one ascent sequence of length <= 1
    if (k is not None and not 0 <= k < max(n, 1)) or any(_contains(root, p) for p in others):
        return
    if n <= 1:
        yield root
        return
    # (prefix, ascents, largest letter, least repeated letter, largest
    # letter below an earlier one); n and 0 stand for "none".  A prefix
    # avoiding 001 is a restricted growth word, so x <= top means x is a
    # repeat; the repeated letter is read only when 001 is avoided.
    stack: list[tuple[Word, int, int, int, int]] = [(root, 0, 0, n, 0)]
    while stack:
        prefix, ascents, top, low, high = stack.pop()
        last = prefix[-1]
        left = n - len(prefix) - 1  # letters still to come after the child
        children = []
        for x in range(high if no210 else 0, (min(ascents, low - 1) if no001 else ascents) + 2):
            up = ascents + (x > last)
            if k is not None and not up <= k <= up + left:
                continue
            if others and any(_contains(prefix, p, x) for p in others):
                continue
            child = prefix + (x,)
            if left:
                children.append((child, up, max(top, x), x if x <= top else low, x if x < top else high))
            else:
                yield child
        stack.extend(reversed(children))


def canonical_avoiders(n: int, k: int) -> Iterator[Word]:
    """The {001, 210}-avoiding ascent sequences of length n with exactly
    k ascents, built directly from their closed form.

    Such a sequence is the staircase 0 1 ... k padded with copies of k,
    or the staircase, y copies of k, then a constant block of some
    letter x < k.  Must agree elementwise with the filtering oracle
    avoiders(n, {001, 210}, k).
    """
    require_sizes(negative_ok=True, n=n, k=k)
    if n < 0 or not 0 <= k < max(n, 1):
        return
    staircase = tuple(range(k))
    tail = n - k  # positions left after the staircase; all hold k or k then x
    for y in range(1, tail):
        head = staircase + (k,) * y
        for x in range(k):
            yield head + (x,) * (tail - y)
    yield staircase + (k,) * tail


class RestrictedSubset(namedtuple("RestrictedSubset", "elements n k j")):
    """A k-subset of {1..n} meeting {1..n-k} in at most j elements."""

    __slots__ = ()

    def __new__(cls, elements, n: int, k: int, j: int) -> RestrictedSubset:
        require_sizes(n=n, k=k, j=j)
        elems = require_subset(elements, n)
        if list(elems) != sorted(set(elems)):
            raise DomainViolation(f"subset elements must be sorted and distinct: {elems}")
        if len(elems) != k:
            raise DomainViolation(f"subset {elems} has size {len(elems)}, expected {k}")
        low = sum(1 for e in elems if e <= n - k)
        if low > j:
            raise DomainViolation(f"subset {elems} meets {{1..{n - k}}} in {low} > {j} elements")
        return super().__new__(cls, elems, n, k, j)


def _check_restricted(n: int, k: int | None, j: int, what: str) -> None:
    """The one listing price, drawn term by term only until past the cap:
    R(n, k; j) objects as C(k, i) * C(n-k, i) for i <= min(j, k, n-k), or
    with k None those of every k, sum_k R(n, k; j), as C(n, t) for
    t <= min(2j+1, n) (the gen_row_sum identity)."""
    if k is None:
        return check_sum((comb(n, t) for t in range(min(2 * j + 1, n) + 1)), what)
    check_sum((comb(k, i) * comb(n - k, i) for i in range(min(j, k, n - k) + 1)), what)


def _restricted_elements(n: int, k: int, j: int, head=(), start: int = 1) -> Iterator[tuple[int, ...]]:
    """The element tuples of restricted_subsets(n, k, j), lazily and in
    lexicographic order, correct by construction and so not checked one by
    one.  Unpriced: its callers price it by `_check_restricted` first.

    Every low element ({1..n-k}, at most j of them) is below every high one,
    so after `head` it takes each low element from `start` in turn, with j
    one less, then every combination of the high block: nothing to sort,
    and the recursion is at most min(j, k, n-k) deep.  A subset whose last
    low element this call places is yielded here, with no generator of its own."""
    if not 0 <= k <= n:
        return
    left = k - len(head)
    highs = range(n - k + 1, n + 1)
    for low in range(start, n - k + 1) if j and left else ():
        lower = head + (low,)
        if j > 1 and left > 1 and low < n - k:
            yield from _restricted_elements(n, k, j - 1, lower, low + 1)
        else:
            for high in combinations(highs, left - 1):
                yield lower + high
    for high in combinations(highs, left):
        yield head + high


def restricted_subsets(n: int, k: int, j: int) -> Iterator[RestrictedSubset]:
    """All k-subsets of {1..n} whose intersection with {1..n-k} has at
    most j elements, in lexicographic order of the sorted element lists."""
    require_sizes(negative_ok=True, n=n, k=k)
    require_sizes(j=j)
    _check_restricted(n, k, j, "subsets listing")
    for elements in _restricted_elements(n, k, j):
        yield RestrictedSubset._make((elements, n, k, j))
