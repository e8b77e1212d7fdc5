"""Executable bijections, near-bijections, and sign-reversing involutions
on the word families, each paired with an exhaustive small-size verifier.

The maps act pointwise and never enumerate; the verify_* functions
materialize the small domains and return a plain dict report consumed
by the CLI and the tests.  The five bijection verifiers (sym, strip,
ascseq, subset, divider) share one check, _check_bijection: every image
lies in a target family built by a generator (never by the map under
test), the inverse undoes the map, and the image is the whole target.
Each verifier adds only its own counting facts.  The ratio, altbin and
genalt verifiers check their injection and involutions directly.
Before building anything, every verifier prices the objects it will
check from closed forms against the one cell budget (limits.check_sum).
BIJECTIONS maps each verifier's name to the function and the names of
its arguments; `rascal bijection` is a lookup in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice, product

from .errors import DomainViolation
from .generate import (
    RestrictedSubset,
    avoiders,
    canonical_avoiders,
    fishburn_numbers,
    restricted_subsets,
    words_with_ascents,
)
from .limits import check_sum
from .numbers import choose, rascal_gen_value, rascal_value
from .words import Word, as_word, asc, binary_word, complement, reverse_word, word_str


# ---------------------------------------------------------------------------
# helper views on binary words


def _leading(w: Word, bit: int) -> int:
    run = 0
    for x in w:
        if x != bit:
            break
        run += 1
    return run


def _trailing(w: Word, bit: int) -> int:
    run = 0
    for x in reversed(w):
        if x != bit:
            break
        run += 1
    return run


def run_profile(b) -> tuple[int, list[tuple[int, int]], int]:
    """Decompose a binary word as 1^x0 (0^y_i 1^x_i)_{i=1..m} 0^y0.

    Returns (x0, [(y_1, x_1), ..., (y_m, x_m)], y0) where m = asc(b);
    inner runs are positive, outer runs may be empty.
    """
    b = binary_word(b)
    x0 = _leading(b, 1)
    y0 = _trailing(b, 0) if len(b) > x0 else 0
    middle = b[x0 : len(b) - y0]
    pairs: list[tuple[int, int]] = []
    i = 0
    while i < len(middle):
        zeros = 0
        while i < len(middle) and middle[i] == 0:
            zeros += 1
            i += 1
        ones = 0
        while i < len(middle) and middle[i] == 1:
            ones += 1
            i += 1
        pairs.append((zeros, ones))
    return x0, pairs, y0


def assemble_profile(x0: int, pairs: list[tuple[int, int]], y0: int) -> Word:
    bits: list[int] = [1] * x0
    for zeros, ones in pairs:
        bits.extend([0] * zeros)
        bits.extend([1] * ones)
    bits.extend([0] * y0)
    return tuple(bits)


def word_weight(b) -> int:
    """(-1) ** (number of ones)."""
    return -1 if sum(binary_word(b)) % 2 else 1


def _require_family(b: Word, j: int, what: str) -> None:
    if asc(b) > j:
        raise DomainViolation(f"{what}: {word_str(b)} has {asc(b)} ascents, more than {j}")


# ---------------------------------------------------------------------------
# symmetry: reverse-then-complement


def sym_map(b) -> Word:
    """Reverse then complement: swaps the roles of ones and zeros, so it
    carries words with k ones onto words with n-k ones and is an
    involution on the at-most-one-ascent family."""
    b = binary_word(b)
    _require_family(b, 1, "sym_map")
    return complement(reverse_word(b))


# ---------------------------------------------------------------------------
# prefix/suffix stripping


def strip(b, lead_ones: int, trail_zeros: int) -> Word:
    """Remove `lead_ones` leading 1's and `trail_zeros` trailing 0's."""
    b = binary_word(b)
    if lead_ones < 0 or trail_zeros < 0:
        raise DomainViolation("strip lengths must be >= 0")
    if _leading(b, 1) < lead_ones:
        raise DomainViolation(f"{word_str(b)} does not start with {lead_ones} ones")
    if _trailing(b, 0) < trail_zeros:
        raise DomainViolation(f"{word_str(b)} does not end with {trail_zeros} zeros")
    return b[lead_ones : len(b) - trail_zeros]


def unstrip(b, lead_ones: int, trail_zeros: int) -> Word:
    """Prepend 1's and append 0's; inverse of strip on its image."""
    b = binary_word(b)
    if lead_ones < 0 or trail_zeros < 0:
        raise DomainViolation("unstrip lengths must be >= 0")
    return (1,) * lead_ones + b + (0,) * trail_zeros


# ---------------------------------------------------------------------------
# binary words <-> {001,210}-avoiding ascent sequences


def word_to_ascseq(b) -> Word:
    """Send a word of length n with k ones and at most one ascent to a
    {001,210}-avoiding ascent sequence of length n+1 with k ascents.

    The zero-ascent word 1^k 0^(n-k) maps to the staircase 0 1 ... k
    padded with k's; the one-ascent word 1^(k-x) 0^y 1^x 0^(n-k-y) maps
    to the staircase, y copies of k, then k-x repeated.
    """
    b = binary_word(b)
    _require_family(b, 1, "word_to_ascseq")
    n = len(b)
    k = sum(b)
    staircase = tuple(range(k))
    if asc(b) == 0:
        return staircase + (k,) * (n + 1 - k)
    x0, pairs, y0 = run_profile(b)
    (y, x), = pairs
    return staircase + (k,) * y + (k - x,) * (n + 1 - k - y)


def ascseq_to_word(w) -> Word:
    """Inverse of word_to_ascseq; rejects sequences outside the
    {001,210}-avoiding family."""
    w = as_word(w)
    if not w:
        raise DomainViolation("the empty sequence is outside the family (lengths are n+1 >= 1)")
    k = max(w)
    n = len(w) - 1
    staircase = tuple(range(k))
    if w[:k] != staircase:
        raise DomainViolation(f"{word_str(w)} does not start with the staircase 0..{k - 1}")
    rest = w[k:]
    y = 0
    while y < len(rest) and rest[y] == k:
        y += 1
    if y == 0:
        raise DomainViolation(f"{word_str(w)} is missing its largest letter after the staircase")
    tail = rest[y:]
    if not tail:
        return (1,) * k + (0,) * (n - k)
    x_letter = tail[0]
    if any(t != x_letter for t in tail) or x_letter >= k:
        raise DomainViolation(f"{word_str(w)} does not end in a constant block below {k}")
    x = k - x_letter
    return (1,) * (k - x) + (0,) * y + (1,) * x + (0,) * (n - k - y)


# ---------------------------------------------------------------------------
# binary words <-> restricted subsets


def word_to_subset(b, j: int) -> RestrictedSubset:
    """Send a word with k ones and m <= j ascents to a k-subset of {1..n}
    meeting {1..n-k} in exactly m elements.

    The inner zero runs give the low part by partial sums; the inner one
    runs give, by partial sums, the complement (inside {1..k}) of the
    high part shifted down by n-k.
    """
    b = binary_word(b)
    if j < 0:
        raise DomainViolation("intersection bound j must be >= 0")
    _require_family(b, j, "word_to_subset")
    n = len(b)
    k = sum(b)
    x0, pairs, y0 = run_profile(b)
    low: list[int] = []
    acc = 0
    for zeros, _ones in pairs:
        acc += zeros
        low.append(acc)
    ones_partial: set[int] = set()
    acc = 0
    for _zeros, ones in pairs:
        acc += ones
        ones_partial.add(acc)
    high = [v + (n - k) for v in range(1, k + 1) if v not in ones_partial]
    return RestrictedSubset(tuple(sorted(low + high)), n, k, j)


def subset_to_word(s: RestrictedSubset) -> Word:
    """Inverse of word_to_subset."""
    n, k = s.n, s.k
    low = [e for e in s.elements if e <= n - k]
    high = [e for e in s.elements if e > n - k]
    shifted = {e - (n - k) for e in high}
    ones_partial = [v for v in range(1, k + 1) if v not in shifted]
    if len(ones_partial) != len(low):
        raise DomainViolation(
            f"subset {s.elements} is not consistent for n={n}, k={k}"
        )
    pairs: list[tuple[int, int]] = []
    prev_zero = 0
    prev_one = 0
    for zero_sum, one_sum in zip(low, ones_partial):
        pairs.append((zero_sum - prev_zero, one_sum - prev_one))
        prev_zero, prev_one = zero_sum, one_sum
    x0 = k - prev_one
    y0 = (n - k) - prev_zero
    return assemble_profile(x0, pairs, y0)


# ---------------------------------------------------------------------------
# divider encoding of subsets of {1..n}


def divider_encode(subset, n: int) -> Word:
    """Write a divider before position i for each i in the subset, label
    the sections 0..|S| left to right, fill even sections with 1's and
    odd sections with 0's."""
    s = sorted(set(subset))
    if any(e < 1 or e > n for e in s):
        raise DomainViolation(f"subset {s} not within {{1..{n}}}")
    cuts = [1] + s + [n + 1]
    bits: list[int] = []
    for section in range(len(cuts) - 1):
        width = cuts[section + 1] - cuts[section]
        bits.extend([1 - section % 2] * width)
    return tuple(bits)


def divider_decode(b) -> tuple[int, ...]:
    """Inverse of divider_encode: position 1 when the word starts with 0,
    plus every position where the letter changes."""
    b = binary_word(b)
    s = []
    if b and b[0] == 0:
        s.append(1)
    for i in range(2, len(b) + 1):
        if b[i - 2] != b[i - 1]:
            s.append(i)
    return tuple(s)


# ---------------------------------------------------------------------------
# marked words and the ratio near-bijection


@dataclass(frozen=True)
class MarkedWord:
    """A binary word with one of its 1's circled (1-based position)."""

    word: Word
    mark: int

    def __post_init__(self) -> None:
        w = binary_word(self.word)
        object.__setattr__(self, "word", w)
        if not 1 <= self.mark <= len(w) or w[self.mark - 1] != 1:
            raise DomainViolation(
                f"mark {self.mark} is not the position of a 1 in {word_str(w)}"
            )

    def __str__(self) -> str:
        return f"{word_str(self.word)} mark {self.mark}"


def ratio_map(mw: MarkedWord) -> MarkedWord:
    """Injective map from (word, circled non-first 1) to (word starting
    with 1, circled 1): a word already starting with 1 is fixed; a word
    starting with 0 has all its 1's in one run, which is split before
    the circled 1 and the right half rotated to the front.

    Exactly one target is never hit: 1^k 0^(n-k) with its first 1 circled.
    """
    w = mw.word
    _require_family(w, 1, "ratio_map")
    first_one = w.index(1) + 1  # a mark exists, so there is a 1
    if mw.mark == first_one:
        raise DomainViolation(f"{mw}: the circled 1 must not be the first 1")
    if w[0] == 1:
        return mw
    # starts with 0 and has at most one ascent: the 1's form one run
    run_start = w.index(1)
    run_end = run_start
    while run_end < len(w) and w[run_end] == 1:
        run_end += 1
    p = mw.mark - 1
    rotated = w[p:run_end] + w[:p] + w[run_end:]
    return MarkedWord(rotated, 1)


# ---------------------------------------------------------------------------
# signed pairs and the alternating-binomial involutions


@dataclass(frozen=True)
class SignedPair:
    """A subset of {1..r} with a binary word, carrying sign (-1)^(r-|S|)."""

    subset: frozenset[int]
    word: Word
    weight: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "word", binary_word(self.word))
        if self.weight not in (1, -1):
            raise DomainViolation("weight must be +1 or -1")


def signed_pair(subset, word, r: int) -> SignedPair:
    """Build a SignedPair, checking it lies in the alternating-sum set:
    the word must end in at least r - |S| zeros."""
    s = frozenset(subset)
    w = binary_word(word)
    if any(e < 1 or e > r for e in s):
        raise DomainViolation(f"subset {sorted(s)} not within {{1..{r}}}")
    if _trailing(w, 0) < r - len(s):
        raise DomainViolation(
            f"{word_str(w)} ends in fewer than {r - len(s)} zeros"
        )
    return SignedPair(s, w, (-1) ** ((r - len(s)) % 2))


def _toggle(s: frozenset[int], x: int) -> frozenset[int]:
    return s - {x} if x in s else s | {x}


def in_altbin_fix(pair: SignedPair, r: int) -> bool:
    """Fixed points of the first involution: the word ends in exactly
    r - |S| zeros and r is in S."""
    return r in pair.subset and _trailing(pair.word, 0) == r - len(pair.subset)


def altbin_involution(stage: int, pair: SignedPair, r: int, n: int, k: int) -> SignedPair:
    """The two sign-reversing involutions behind the identity
    sum_j (-1)^(r-j) C(r,j) R(n+j, k) = 0 for r >= 2.

    Stage 1 toggles r in the subset unless the word ends in exactly
    r - |S| zeros with r already in S (those are the fixed points).
    Stage 2 acts on those fixed points, toggling 1 while moving one zero
    between the trailing run and the inner run; it has no fixed points.
    """
    if r < 2:
        raise DomainViolation("the alternating-sum construction needs r >= 2")
    if not 0 <= k <= n:
        raise DomainViolation("need 0 <= k <= n")
    if stage not in (1, 2):
        raise DomainViolation("stage must be 1 or 2")
    s, w = pair.subset, pair.word
    if len(w) != n + r or sum(w) != k:
        raise DomainViolation(f"{word_str(w)} is not a length-{n + r} word with {k} ones")
    _require_family(w, 1, "altbin_involution")
    if any(e < 1 or e > r for e in s):
        raise DomainViolation(f"subset {sorted(s)} not within {{1..{r}}}")
    trailing = _trailing(w, 0)
    if trailing < r - len(s):
        raise DomainViolation(f"{word_str(w)} ends in fewer than {r - len(s)} zeros")

    if stage == 1:
        if in_altbin_fix(pair, r):
            return pair
        return signed_pair(_toggle(s, r), w, r)

    if not in_altbin_fix(pair, r):
        raise DomainViolation("stage 2 applies to fixed points of stage 1 only")
    x0, pairs, y0 = run_profile(w)
    if len(pairs) != 1:
        raise DomainViolation(
            f"{word_str(w)} is not of the one-ascent shape required in stage 2"
        )
    (mid, x), = pairs
    if 1 in s:
        moved = assemble_profile(x0, [(mid - 1, x)], y0 + 1)
    else:
        moved = assemble_profile(x0, [(mid + 1, x)], y0 - 1)
    return signed_pair(_toggle(s, 1), moved, r)


# ---------------------------------------------------------------------------
# the alternating-row-sum involution chain


def in_genalt_fix(w, d: int, j: int) -> bool:
    """Is w a fixed point of the involutions 0..d of the chain?"""
    w = binary_word(w)
    if asc(w) > j:
        return False
    x0, pairs, y0 = run_profile(w)
    if x0 % 2 or y0 != 0:
        return False
    for t in range(1, min(d, len(pairs)) + 1):
        y_t, x_t = pairs[t - 1]
        if x_t % 2 == 0 or y_t != 1:
            return False
    return True


def genalt_involution(d: int, w, j: int) -> Word:
    """Stage d of the sign-reversing involution chain that collapses the
    alternating row sum sum_k (-1)^k R(n, k; j).

    Stage 0 moves one letter between the leading 1-run and the trailing
    0-run to make the leading run even; stage d >= 1 (on fixed points of
    the earlier stages) adjusts the d-th inner (0-run, 1-run) pair.
    Every stage flips the parity of the number of ones except on its
    fixed points.
    """
    w = binary_word(w)
    if d < 0:
        raise DomainViolation("stage must be >= 0")
    _require_family(w, j, "genalt_involution")
    x0, pairs, y0 = run_profile(w)
    if d == 0:
        if x0 % 2:
            return assemble_profile(x0 - 1, pairs, y0 + 1)
        if y0 > 0:
            return assemble_profile(x0 + 1, pairs, y0 - 1)
        return w
    if not in_genalt_fix(w, d - 1, j):
        raise DomainViolation(
            f"{word_str(w)} is not a fixed point of stages 0..{d - 1}"
        )
    if len(pairs) < d:
        return w
    y_d, x_d = pairs[d - 1]
    if x_d % 2 == 0:
        new = pairs.copy()
        new[d - 1] = (y_d + 1, x_d - 1)
        return assemble_profile(x0, new, y0)
    if y_d > 1:
        new = pairs.copy()
        new[d - 1] = (y_d - 1, x_d + 1)
        return assemble_profile(x0, new, y0)
    return w


# ---------------------------------------------------------------------------
# exhaustive verifiers (small sizes; used by the CLI and the test suite)


def _report(ok: bool, checked: int, details: list[str], **extra) -> dict:
    out = {"ok": ok, "checked": checked, "details": details}
    out.update(extra)
    return out


def _require_sizes(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 0:
            raise DomainViolation(f"{name} must be >= 0, got {value}")


def _check_bijection(tag, where, domain, target, f, f_inv, show, details) -> int:
    """Add a line to `details` for each domain object that f sends outside
    `target` or that f_inv does not recover, and one if the image is not
    all of `target`; return the number of objects checked."""
    image = set()
    checked = 0
    for checked, x in enumerate(domain, 1):
        y = f(x)
        if y not in target:
            details.append(f"{tag}: image of {show(x)} is outside the target family")
        if f_inv(y) != x:
            details.append(f"{tag}: round trip fails on {show(x)}")
        image.add(y)
    if image != target:
        details.append(f"{tag}: not onto at ({where})")
    return checked


def verify_sym(n_max: int) -> dict:
    """sym_map is a bijection from the k-ones family onto the (n-k)-ones
    family and squares to the identity."""
    _require_sizes(n_max=n_max)
    check_sum((rascal_value(n, k) for n in range(n_max + 1) for k in range(n + 1)), "sym check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        for k in range(n + 1):
            target = set(words_with_ascents(n, n - k, 1))
            checked += _check_bijection(
                "sym", f"n={n}, k={k}", words_with_ascents(n, k, 1), target,
                sym_map, sym_map, word_str, details,
            )
    return _report(not details, checked, details)


def verify_strip(n_max: int) -> dict:
    """strip is a bijection from the constrained family onto the smaller
    one, with unstrip as two-sided inverse, in the counted quantity."""
    _require_sizes(n_max=n_max)
    domains = (
        rascal_value(n - lead - trail, k - lead)
        for n in range(n_max + 1)
        for k in range(n + 1)
        for lead in range(k + 1)
        for trail in range(n - k + 1)
    )
    check_sum(domains, "strip check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        for k in range(n + 1):
            family = list(words_with_ascents(n, k, 1))
            for lead, trail in product(range(k + 1), range(n - k + 1)):
                where = f"n={n}, k={k}, lead={lead}, trail={trail}"
                domain = [b for b in family if _leading(b, 1) >= lead and _trailing(b, 0) >= trail]
                expected = rascal_value(n - lead - trail, k - lead)
                if len(domain) != expected:
                    details.append(f"strip: count {len(domain)} != R = {expected} at ({where})")
                target = set(words_with_ascents(n - lead - trail, k - lead, 1))
                checked += _check_bijection(
                    "strip", where, domain, target, lambda b: strip(b, lead, trail),
                    lambda b: unstrip(b, lead, trail), word_str, details,
                )
    return _report(not details, checked, details)


def verify_ascseq(n_max: int) -> dict:
    """word_to_ascseq is a bijection onto the {001,210}-avoiding ascent
    sequences of length n+1 with k ascents, inverse ascseq_to_word.
    Priced by the Fishburn(n+1) ascent sequences it filters for each n."""
    _require_sizes(n_max=n_max)
    check_sum(islice(fishburn_numbers(), 1, n_max + 2), "ascseq check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        targets: dict[int, set[Word]] = {}
        for w in avoiders(n + 1, ((0, 0, 1), (2, 1, 0))):
            targets.setdefault(asc(w), set()).add(w)
        for k in range(n + 1):
            target = targets.get(k, set())
            if target != set(canonical_avoiders(n + 1, k)):
                details.append(f"ascseq: canonical family differs at n={n + 1}, k={k}")
            checked += _check_bijection(
                "ascseq", f"n={n}, k={k}", words_with_ascents(n, k, 1), target,
                word_to_ascseq, ascseq_to_word, word_str, details,
            )
    return _report(not details, checked, details)


def verify_subset(n_max: int, j_max: int) -> dict:
    """word_to_subset / subset_to_word are mutually inverse bijections."""
    _require_sizes(n_max=n_max, j_max=j_max)
    families = (  # both directions, with R(n, k; j) = R(n, k; n) for j > n
        2 * rascal_gen_value(n, k, min(j, n))
        for n in range(n_max + 1)
        for k in range(n + 1)
        for j in range(j_max + 1)
    )
    check_sum(families, "subset check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        for k, j in product(range(n + 1), range(j_max + 1)):
            where = f"n={n}, k={k}, j={j}"
            family = list(words_with_ascents(n, k, j))
            subsets = list(restricted_subsets(n, k, j))
            if len(family) != len(subsets):
                details.append(f"subset: family sizes differ at ({where})")
            to_subset = partial(word_to_subset, j=j)
            checked += _check_bijection(
                "subset", where, family, set(subsets), to_subset, subset_to_word, word_str, details
            )
            checked += _check_bijection(
                "subset", where, subsets, set(family), subset_to_word, to_subset,
                lambda s: str(s.elements), details,
            )
    return _report(not details, checked, details)


def verify_divider(n_max: int, j_max: int) -> dict:
    """divider_encode is a bijection from subsets of size <= 2j+1 onto
    the at-most-j-ascent words, with divider_decode as inverse."""
    _require_sizes(n_max=n_max, j_max=j_max)
    subsets = (
        choose(n, t)
        for n in range(n_max + 1)
        for j in range(j_max + 1)
        for t in range(min(n, 2 * j + 1) + 1)
    )
    check_sum(subsets, "divider check")
    details: list[str] = []
    checked = 0
    for n, j in product(range(n_max + 1), range(j_max + 1)):
        where = f"n={n}, j={j}"
        domain = [s for t in range(min(n, 2 * j + 1) + 1) for s in combinations(range(1, n + 1), t)]
        target = {w for k in range(n + 1) for w in words_with_ascents(n, k, j)}
        encode = partial(divider_encode, n=n)
        checked += _check_bijection(
            "divider", where, domain, target, encode, divider_decode, str, details
        )
        expected = sum(choose(n, t) for t in range(2 * j + 2))
        if len(domain) != expected:
            details.append(f"divider: subset count {len(domain)} != {expected} at ({where})")
    return _report(not details, checked, details)


def verify_ratio(n: int, k: int) -> dict:
    """ratio_map is injective from the non-first-circled set into the
    starts-with-1 set and misses exactly one element."""
    if not 0 < k < n:
        raise DomainViolation(f"the ratio construction needs 0 < k < n, got n={n}, k={k}")
    check_sum(((k - 1) * rascal_value(n, k), k * rascal_value(n - 1, k - 1)), "ratio check")
    details: list[str] = []
    family = list(words_with_ascents(n, k, 1))
    source = [
        MarkedWord(w, i + 1)
        for w in family
        for i in range(len(w))
        if w[i] == 1 and i != w.index(1)
    ]
    target = [
        MarkedWord(w, i + 1)
        for w in family
        if w and w[0] == 1
        for i in range(len(w))
        if w[i] == 1
    ]
    target_set = set(target)
    image = set()
    for mw in source:
        out = ratio_map(mw)
        if out not in target_set:
            details.append(f"ratio: image of ({mw}) is outside the target set")
        image.add(out)
    if len(image) != len(source):
        details.append("ratio: map is not injective")
    missed = [mw for mw in target if mw not in image]
    if len(missed) != 1:
        details.append(f"ratio: expected exactly one missed element, got {len(missed)}")
    elif missed[0] != MarkedWord((1,) * k + (0,) * (n - k), 1):
        details.append(f"ratio: missed element is {missed[0]}, not the expected one")
    if (len(source), len(target)) != ((k - 1) * rascal_value(n, k), k * rascal_value(n - 1, k - 1)):
        details.append("ratio: source/target sizes disagree with the counting identity")
    return _report(
        not details,
        len(source) + len(target),
        details,
        image_size=len(image),
        target_size=len(target),
        missed=[str(m) for m in missed],
    )


def _altbin_space(r: int, n: int, k: int) -> list[SignedPair]:
    pairs = []
    for size in range(r + 1):
        for subset in combinations(range(1, r + 1), size):
            for w in words_with_ascents(n + r, k, 1):
                if _trailing(w, 0) >= r - size:
                    pairs.append(signed_pair(subset, w, r))
    return pairs


def verify_altbin(r: int, n: int, k: int) -> dict:
    """Both stages are sign-reversing involutions; stage 2 has no fixed
    points, so the signed sum collapses to zero."""
    if r < 2 or not 0 <= k <= n:
        raise DomainViolation(
            f"the alternating-sum check needs r >= 2 and 0 <= k <= n, got r={r}, n={n}, k={k}"
        )
    # 2^r * R(n+r, k) pairs scanned, summed by subset size
    check_sum((choose(r, t) * rascal_value(n + r, k) for t in range(r + 1)), "altbin check")
    details: list[str] = []
    space = _altbin_space(r, n, k)
    signed_sum = sum(p.weight for p in space)
    formula = sum(
        (-1) ** (r - t) * choose(r, t) * rascal_value(n + t, k) for t in range(r + 1)
    )
    if signed_sum != formula:
        details.append(f"altbin: signed sum {signed_sum} != binomial sum {formula}")
    fixed = []
    for p in space:
        q = altbin_involution(1, p, r, n, k)
        if q == p:
            fixed.append(p)
            if not in_altbin_fix(p, r):
                details.append("altbin: unexpected stage-1 fixed point")
            continue
        if q.weight != -p.weight:
            details.append("altbin: stage 1 does not reverse sign")
        if altbin_involution(1, q, r, n, k) != p:
            details.append("altbin: stage 1 is not an involution")
    if len(fixed) != len([p for p in space if in_altbin_fix(p, r)]):
        details.append("altbin: fixed set differs from its description")
    for p in fixed:
        q = altbin_involution(2, p, r, n, k)
        if q == p:
            details.append("altbin: stage 2 has a fixed point")
            continue
        if q.weight != -p.weight:
            details.append("altbin: stage 2 does not reverse sign")
        if altbin_involution(2, q, r, n, k) != p:
            details.append("altbin: stage 2 is not an involution")
    if signed_sum != 0:
        details.append(f"altbin: signed sum is {signed_sum}, expected 0")
    return _report(not details, len(space), details, signed_sum=signed_sum)


def verify_genalt(n: int, j: int) -> dict:
    """Each stage of the chain is a sign-reversing involution on the
    fixed points of the previous ones; the final fixed-point signed sum
    equals the alternating row sum."""
    _require_sizes(n=n, j=j)
    # each of the j + 1 stages visits at most the whole domain
    check_sum(((j + 1) * rascal_gen_value(n, k, j) for k in range(n + 1)), "genalt check")
    details: list[str] = []
    domain: list[Word] = []
    for k in range(n + 1):
        domain.extend(words_with_ascents(n, k, j))
    checked = 0
    current = domain
    for d in range(j + 1):
        next_fixed = []
        for w in current:
            out = genalt_involution(d, w, j)
            checked += 1
            if out == w:
                next_fixed.append(w)
                continue
            if word_weight(out) != -word_weight(w):
                details.append(f"genalt: stage {d} does not reverse sign on {word_str(w)}")
            if abs(sum(out) - sum(w)) != 1:
                details.append(f"genalt: stage {d} moves more than one 1 on {word_str(w)}")
            if genalt_involution(d, out, j) != w:
                details.append(f"genalt: stage {d} is not an involution on {word_str(w)}")
        if {w for w in current if in_genalt_fix(w, d, j)} != set(next_fixed):
            details.append(f"genalt: stage-{d} fixed set differs from its description")
        current = next_fixed
    fixed_sum = sum(word_weight(w) for w in current)
    total = sum((-1) ** k * rascal_gen_value(n, k, j) for k in range(n + 1))
    if fixed_sum != total:
        details.append(f"genalt: fixed-point sum {fixed_sum} != alternating row sum {total}")
    if n % 2 == 1 and current:
        details.append("genalt: odd length should leave no fixed points")
    return _report(not details, checked, details, signed_sum=fixed_sum, fixed_points=len(current))


# name -> (verifier, the names of its arguments); `rascal bijection`
# looks names up here and takes each argument from the option of the
# same name.
BIJECTIONS = {
    "sym": (verify_sym, ("n_max",)),
    "strip": (verify_strip, ("n_max",)),
    "ascseq": (verify_ascseq, ("n_max",)),
    "subset": (verify_subset, ("n_max", "j_max")),
    "divider": (verify_divider, ("n_max", "j_max")),
    "ratio": (verify_ratio, ("n", "k")),
    "altbin": (verify_altbin, ("r", "n", "k")),
    "genalt": (verify_genalt, ("n", "j")),
}
