"""Executable bijections, near-bijections, and sign-reversing involutions
on the word families, each paired with an exhaustive small-size verifier.

Each map is split in two.  A private core (_sym, _to_subset, _altbin,
...) works on trusted binary words held as bytes -- for altbin, on
(S, w, z) triples, z the zeros w ends in -- and checks nothing.  The
public function validates its input once, at the edge: _bits passes a
binary word once to words._letters and tests the letters it returns for
0 and 1; the edge takes the ascent count and the end runs from those
bytes in C-level passes, calls the core and returns its word as a tuple.
MarkedWord, SignedPair and generate.RestrictedSubset are namedtuples
that check their fields when called; one built by a core or from fields
checked at the edge is made with _make, which checks nothing.  One codec
splits a word 1^x0 0^y1 1^x1 ... 0^ym 1^xm 0^y0 into runs and builds one
back: _runs returns [x0, y1, x1, ..., ym, xm, y0] (2m + 2 lengths, the
inner ones positive) with one bytes.find per run, and _from_runs joins
such a list, ones first.  The subset cores and the genalt chain past
stage 0 read runs only through it, and they, the divider encoder and the
ascseq inverse build words only through it.  The end runs, the ascent
count, _to_ascseq, _divider_decode and _ratio keep their one C-level
read, which a list of runs only slows.  The maps act pointwise; the
verify_* functions list the small domains with the generators, run the
cores on them (validating nothing per object) and test every image for
membership in a generator-built target, so a core that emits a bad
object fails.  The five bijection verifiers (sym, strip, ascseq, subset,
divider) share _check_bijection: every image lies in the target, the
inverse undoes the map, and the image is the whole target; each adds
its own counting facts.  The altbin and genalt verifiers run each stage
of their chains through _check_involution: every moved object lands in
the signed set, changes its grade by one (so its sign flips) and comes
back, and the fixed points are those of a separate description
(_altbin_fixed, _genalt_fixed), on which the next stage acts.  Every
verifier prices its objects from closed forms once (limits.check_sum),
then lists them with unpriced walks (generate._avoiders).  Each core
runs once per distinct object: _check_involution skips the partner of
an object that passed, and verify_subset (per (n, k)) and verify_divider
(per n) keep one functools.cache per core over the families of every j.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from functools import cache, partial
from itertools import accumulate, combinations, product
from operator import itemgetter, mul, sub

from .errors import DomainViolation
from .generate import (
    RestrictedSubset,
    _avoiders,
    _restricted_elements,
    avoider_nodes,
    canonical_avoiders,
    words_with_ascents,
)
from .limits import check_cells, check_sum, require_sizes, require_subset
from .numbers import _choose, closed_value
from .words import Word, _asc, _letters, as_word, word_str

# ---------------------------------------------------------------------------
# binary words as bytes

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _bits(b) -> bytes:
    """The binary word b as bytes, read once by _letters."""
    s = _letters(b)
    if type(s) is bytes and not s.translate(None, b"\x00\x01"):
        return s
    if {*s} <= {0, 1}:  # a word read letter by letter
        return bytes(s)
    raise DomainViolation(f"{word_str(s)} is not a binary word")


def _require_family(s: bytes, j: int, what: str) -> bytes:
    """`s`, a binary word, refused if it has more than j ascents."""
    ascents = s.count(b"\x00\x01")  # the factors 01
    if ascents > j:
        raise DomainViolation(f"{what}: {word_str(s)} has {ascents} ascents, more than {j}")
    return s


def _leading_ones(s: bytes) -> int:
    return len(s) - len(s.lstrip(b"\x01"))


def _trailing_zeros(s: bytes) -> int:
    return len(s) - 1 - s.rfind(1)


def _runs(s: bytes) -> list[int]:
    """[x0, y1, x1, ..., ym, xm, y0] for s = 1^x0 0^y1 1^x1 ... 0^ym 1^xm 0^y0, m = asc(s)."""
    runs, start, letter = [], 0, 0  # each find ends the run of 1 - letter
    while (i := s.find(letter, start)) >= 0:
        runs.append(i - start)
        start, letter = i, 1 - letter
    runs.append(len(s) - start)
    return runs if letter else runs + [0]  # a word that ends in 1 has y0 = 0


def _from_runs(runs) -> bytes:
    """The word of the run lengths in the list `runs`, ones first: inverse of _runs."""
    return b"".join(map(mul, (b"\x01", b"\x00") * len(runs), runs))


# ---------------------------------------------------------------------------
# symmetry: reverse-then-complement


def sym_map(b) -> Word:
    """Reverse then complement: swaps the roles of ones and zeros, so it
    carries words with k ones onto words with n-k ones and is an
    involution on the at-most-one-ascent family."""
    return tuple(_sym(_require_family(_bits(b), 1, "sym_map")))


def _sym(s: bytes) -> bytes:
    return s[::-1].translate(_FLIP)


# ---------------------------------------------------------------------------
# prefix/suffix stripping


def strip(b, lead_ones: int, trail_zeros: int) -> Word:
    """Remove `lead_ones` leading 1's and `trail_zeros` trailing 0's."""
    s = _bits(b)
    require_sizes(lead_ones=lead_ones, trail_zeros=trail_zeros)
    if _leading_ones(s) < lead_ones:
        raise DomainViolation(f"{word_str(s)} does not start with {lead_ones} ones")
    if _trailing_zeros(s) < trail_zeros:
        raise DomainViolation(f"{word_str(s)} does not end with {trail_zeros} zeros")
    return tuple(_strip(s, lead_ones, trail_zeros))


def _strip(s: bytes, lead_ones: int, trail_zeros: int) -> bytes:
    return s[lead_ones : len(s) - trail_zeros]


def unstrip(b, lead_ones: int, trail_zeros: int) -> Word:
    """Prepend 1's and append 0's; inverse of strip on its image."""
    s = _bits(b)
    require_sizes(lead_ones=lead_ones, trail_zeros=trail_zeros)
    check_cells(len(s) + lead_ones + trail_zeros, "unstrip")
    return tuple(_unstrip(s, lead_ones, trail_zeros))


def _unstrip(s: bytes, lead_ones: int, trail_zeros: int) -> bytes:
    return b"\x01" * lead_ones + s + b"\x00" * trail_zeros


# ---------------------------------------------------------------------------
# binary words <-> {001,210}-avoiding ascent sequences


def word_to_ascseq(b) -> Word:
    """Send a word of length n with k ones and at most one ascent to a
    {001,210}-avoiding ascent sequence of length n+1 with k ascents.

    The zero-ascent word 1^k 0^(n-k) maps to the staircase 0 1 ... k
    padded with k's; the one-ascent word 1^(k-x) 0^y 1^x 0^(n-k-y) maps
    to the staircase, y copies of k, then k-x repeated.
    """
    return _to_ascseq(_require_family(_bits(b), 1, "word_to_ascseq"))


def _to_ascseq(s: bytes) -> Word:
    n = len(s)
    k = s.count(1)
    staircase = tuple(range(k))
    ascent = s.find(b"\x00\x01")
    if ascent < 0:
        return staircase + (k,) * (n + 1 - k)
    lead = s.find(0)  # k - x
    y = ascent + 1 - lead
    return staircase + (k,) * y + (lead,) * (n + 1 - k - y)


def ascseq_to_word(w) -> Word:
    """Inverse of word_to_ascseq; rejects sequences outside the
    {001,210}-avoiding family."""
    return tuple(_from_ascseq(as_word(w)))


def _from_ascseq(w: Word) -> bytes:
    if not w:
        raise DomainViolation("the empty sequence is outside the family (lengths are n+1 >= 1)")
    k = max(w)
    if w[:k] != tuple(range(k)):
        raise DomainViolation(f"{word_str(w)} does not start with the staircase 0..{k - 1}")
    if w[k : k + 1] != (k,):
        raise DomainViolation(f"{word_str(w)} is missing its largest letter after the staircase")
    y = w.count(k)  # the staircase holds no k: a block of y k's, then a constant tail below k
    tail = w[k + y :]
    if w[k : k + y] != (k,) * y or tail[1:] != tail[:-1]:
        raise DomainViolation(f"{word_str(w)} does not end in a constant block below {k}")
    if not tail:  # 1^k 0^(n-k), n + 1 = k + y
        return _from_runs([k, y - 1])
    return _from_runs([tail[0], y, k - tail[0], len(tail) - 1])


# ---------------------------------------------------------------------------
# binary words <-> restricted subsets


def word_to_subset(b, j: int) -> RestrictedSubset:
    """Send a word with k ones and m <= j ascents to a k-subset of {1..n}
    meeting {1..n-k} in exactly m elements.

    The inner zero runs give the low part by partial sums; the inner one
    runs give, by partial sums, the complement (inside {1..k}) of the
    high part shifted down by n-k.
    """
    require_sizes(j=j)
    s = _require_family(_bits(b), j, "word_to_subset")
    return RestrictedSubset._make((_to_subset(s), len(s), s.count(1), j))


def _to_subset(s: bytes) -> tuple[int, ...]:
    """The elements, sorted: the low part is at most n-k, the high part above."""
    k = s.count(1)
    n_minus_k = len(s) - k
    runs = _runs(s)
    low = accumulate(runs[1:-1:2])  # the inner zero runs y1..ym
    ones_partial = set(accumulate(runs[2:-1:2]))  # the inner one runs x1..xm
    return (*low, *(v + n_minus_k for v in range(1, k + 1) if v not in ones_partial))


def subset_to_word(s: RestrictedSubset) -> Word:
    """Inverse of word_to_subset."""
    if not isinstance(s, RestrictedSubset):
        raise DomainViolation(f"subset_to_word takes a RestrictedSubset, not {s!r}")
    check_cells(s.n, "subset_to_word")
    return tuple(_from_subset(s.elements, s.n, s.k))


def _from_subset(elements: tuple[int, ...], n: int, k: int) -> bytes:
    """The partial sums of the inner zero and one runs, from 0, give the runs back."""
    m = bisect_right(elements, n - k)
    zeros = [0, *elements[:m], n - k]  # y1..ym, then y0, by differences
    ones = [n - k, *sorted(set(range(n - k + 1, n + 1)).difference(elements[m:]))]  # x1..xm, shifted by n-k
    runs = [n - ones[-1]] * (2 * m + 2)  # x0 = k - (x1 + ... + xm) leads
    runs[1::2] = map(sub, zeros[1:], zeros)
    runs[2::2] = map(sub, ones[1:], ones)
    return _from_runs(runs)


# ---------------------------------------------------------------------------
# divider encoding of subsets of {1..n}


def divider_encode(subset, n: int) -> Word:
    """Write a divider before position i for each i in the subset, label
    the sections 0..|S| left to right, fill even sections with 1's and
    odd sections with 0's."""
    require_sizes(n=n)
    elements = require_subset(subset, n)
    check_cells(n, "divider_encode")
    return tuple(_divider_encode(sorted(set(elements)), n))


def _divider_encode(s, n: int) -> bytes:
    """On the sorted elements s of a subset of {1..n}: the sections are runs."""
    cuts = [1, *s, n + 1]
    return _from_runs(list(map(sub, cuts[1:], cuts)))


def divider_decode(b) -> tuple[int, ...]:
    """Inverse of divider_encode: position 1 when the word starts with 0,
    plus every position where the letter changes."""
    return _divider_decode(_bits(b))


def _divider_decode(s: bytes) -> tuple[int, ...]:
    changes, i, letter = [], 0, 1  # read as if a 1 stood before position 1
    while (i := s.find(1 - letter, i)) >= 0:
        changes.append(i + 1)
        letter = 1 - letter
    return tuple(changes)


# ---------------------------------------------------------------------------
# marked words and the ratio near-bijection


class MarkedWord(namedtuple("MarkedWord", "word mark")):
    """A binary word with one of its 1's circled (1-based position)."""

    __slots__ = ()

    def __new__(cls, word, mark: int) -> MarkedWord:
        s = _bits(word)
        if type(mark) is not int or not 1 <= mark <= len(s) or s[mark - 1] != 1:
            raise DomainViolation(f"mark {mark} is not the position of a 1 in {word_str(s)}")
        return super().__new__(cls, tuple(s), mark)

    def __str__(self) -> str:
        return f"{word_str(self.word)} mark {self.mark}"


def ratio_map(mw: MarkedWord) -> MarkedWord:
    """Injective map from (word, circled non-first 1) to (word starting
    with 1, circled 1): a word already starting with 1 is fixed; a word
    starting with 0 has all its 1's in one run, which is split before
    the circled 1 and the right half rotated to the front.

    Exactly one target is never hit: 1^k 0^(n-k) with its first 1 circled.
    """
    if not isinstance(mw, MarkedWord):
        raise DomainViolation(f"ratio_map takes a MarkedWord, not {mw!r}")
    w = mw.word
    s = _require_family(bytes(w), 1, "ratio_map")
    if mw.mark == s.find(1) + 1:  # a mark exists, so there is a 1
        raise DomainViolation(f"{mw}: the circled 1 must not be the first 1")
    image = _ratio(w, mw.mark)
    return mw if image[0] is w else MarkedWord._make(image)  # a fixed word is returned as is


def _ratio(w: Word, mark: int) -> tuple[Word, int]:
    if w[0] == 1:
        return w, mark
    # starts with 0 and has at most one ascent: the 1's form one run
    run_end = (w + (0,)).index(0, w.index(1))
    p = mark - 1
    return w[p:run_end] + w[:p] + w[run_end:], 1


# ---------------------------------------------------------------------------
# signed pairs and the alternating-binomial involutions


class SignedPair(namedtuple("SignedPair", "subset word weight")):
    """A subset of {1..r} with a binary word, carrying sign (-1)^(r-|S|);
    r is not kept, so the subset is read within 1..len(word) (len = n + r)."""

    __slots__ = ()

    def __new__(cls, subset, word, weight: int) -> SignedPair:
        w = _bits(word)
        s = frozenset(require_subset(subset, len(w)))
        if type(weight) is not int or weight not in (1, -1):
            raise DomainViolation("weight must be +1 or -1")
        return super().__new__(cls, s, tuple(w), weight)


def signed_pair(subset, word, r: int) -> SignedPair:
    """Build a SignedPair, checking it lies in the alternating-sum set:
    the word must end in at least r - |S| zeros."""
    require_sizes(r=r)
    w = _bits(word)
    s, _ = _require_signed(subset, w, r)
    return SignedPair._make((s, tuple(w), (-1) ** (r - len(s))))


def _require_signed(subset, w: bytes, r: int) -> tuple[frozenset[int], int]:
    """S, read by require_subset, must lie in {1..r} and w must end in at
    least r - |S| zeros; returns S and how many zeros w ends in."""
    s = frozenset(require_subset(subset, r))
    zeros = _trailing_zeros(w)
    if zeros < r - len(s):
        raise DomainViolation(f"{word_str(w)} ends in fewer than {r - len(s)} zeros")
    return s, zeros


def _altbin_fixed(p: tuple[frozenset[int], bytes, int], r: int) -> bool:
    """Fixed points of the first involution: the word ends in exactly
    r - |S| zeros and r is in S."""
    return r in p[0] and p[2] == r - len(p[0])


def _require_altbin_sizes(r: int, n: int, k: int) -> None:
    require_sizes(negative_ok=True, r=r, n=n, k=k)
    if r < 2 or not 0 <= k <= n:
        raise DomainViolation(f"altbin needs r >= 2 and 0 <= k <= n, got r={r}, n={n}, k={k}")


def altbin_involution(stage: int, pair: SignedPair, r: int, n: int, k: int) -> SignedPair:
    """The two sign-reversing involutions behind the identity
    sum_j (-1)^(r-j) C(r,j) R(n+j, k) = 0 for r >= 2.

    Stage 1 toggles r in the subset unless the word ends in exactly
    r - |S| zeros with r already in S (those are the fixed points).
    Stage 2 acts on those fixed points, toggling 1 while moving one zero
    between the trailing run and the inner run; it has no fixed points.
    """
    _require_altbin_sizes(r, n, k)
    if type(stage) is not int or stage not in (1, 2):
        raise DomainViolation("stage must be 1 or 2")
    if not isinstance(pair, SignedPair):
        raise DomainViolation(f"altbin_involution takes a SignedPair, not {pair!r}")
    w = bytes(pair.word)
    if len(w) != n + r or w.count(1) != k:
        raise DomainViolation(f"{word_str(w)} is not a length-{n + r} word with {k} ones")
    _require_family(w, 1, "altbin_involution")
    s, zeros = _require_signed(pair.subset, w, r)
    if pair.weight != (-1) ** (r - len(s)):
        raise DomainViolation(
            f"{word_str(w)} with subset {sorted(s)} has weight {pair.weight},"
            f" not (-1)^(r-|S|) = {(-1) ** (r - len(s))}"
        )
    if stage == 2 and not _altbin_fixed((s, w, zeros), r):
        raise DomainViolation("stage 2 applies to fixed points of stage 1 only")
    t, moved, _zeros = _altbin(stage, (s, w, zeros), r)
    return SignedPair._make((t, tuple(moved), (-1) ** (r - len(t))))


def _altbin(stage: int, p: tuple[frozenset[int], bytes, int], r: int) -> tuple[frozenset[int], bytes, int]:
    """Stage 1 toggles r whenever the toggled pair keeps its r - |S|
    trailing zeros.  Stage 2 takes a stage-1 fixed point, which has the
    one-ascent shape 1^x0 0^mid 1^x 0^y0 with mid >= 2 when 1 is in S
    and y0 >= 1 when it is not, so the zero it moves changes y0 by one."""
    s, w, zeros = p
    if stage == 1:
        t = s - {r} if r in s else s | {r}
        return (t, w, zeros) if zeros >= r - len(t) else p
    x0 = w.find(0)
    if 1 in s:  # a zero of the inner run moves to the trailing run
        return s - {1}, w[:x0] + w[x0 + 1 :] + b"\x00", zeros + 1
    return s | {1}, w[:x0] + b"\x00" + w[x0:-1], zeros - 1


# ---------------------------------------------------------------------------
# the alternating-row-sum involution chain


def _genalt_fixed(w: bytes, d: int) -> bool:
    """Is w a fixed point of the involutions 0..d of the chain?"""
    if _leading_ones(w) % 2 or w[-1:] == b"\x00":  # stage 0 moves it
        return False
    runs = _runs(w)
    ys, xs = runs[1:-1:2][:d], runs[2:-1:2][:d]  # y_t and x_t for t = 1..min(d, m)
    return ys.count(1) == len(ys) and all(x % 2 for x in xs)


def genalt_involution(d: int, w, j: int) -> Word:
    """Stage d of the sign-reversing involution chain that collapses the
    alternating row sum sum_k (-1)^k R(n, k; j).

    Stage 0 moves one letter between the leading 1-run and the trailing
    0-run to make the leading run even; stage d >= 1 (on fixed points of
    the earlier stages) adjusts the d-th inner (0-run, 1-run) pair.
    Every stage flips the parity of the number of ones except on its
    fixed points.
    """
    require_sizes(d=d, j=j)
    s = _require_family(_bits(w), j, "genalt_involution")
    if d > 0 and not _genalt_fixed(s, d - 1):
        raise DomainViolation(f"{word_str(s)} is not a fixed point of stages 0..{d - 1}")
    return tuple(_genalt(d, s))


def _genalt(d: int, w: bytes) -> bytes:
    if d == 0:  # one letter between the leading 1-run and the trailing 0-run
        if _leading_ones(w) % 2:
            return w[1:] + b"\x00"
        return b"\x01" + w[:-1] if w[-1:] == b"\x00" else w
    runs = _runs(w)
    i = 2 * d  # runs[i - 1] and runs[i] are y_d and x_d
    if len(runs) < i + 2 or (runs[i] % 2 and runs[i - 1] == 1):
        return w
    step = 1 if runs[i] % 2 == 0 else -1  # a one of x_d joins y_d, or a zero of y_d joins x_d
    runs[i - 1] += step
    runs[i] -= step
    return _from_runs(runs)


# ---------------------------------------------------------------------------
# exhaustive verifiers (small sizes; used by the CLI and the test suite)


def _report(checked: int, details: list[str], **extra) -> dict:
    return {"ok": not details, "checked": checked, "details": details, **extra}


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


def _check_involution(tag, space, domain, members, f, grade, is_fixed, details, show) -> list:
    """Check one stage f of an involution chain on `domain`, which lies in
    `members`: each object f moves must land in `members`, change its
    grade by exactly one (so its sign flips) and come back under f, and
    the objects f fixes must be the ones `is_fixed` picks out, in domain
    order.  Once x passes, f(x) is skipped: its image, return and grade
    were checked with x.  The partner of an object that failed is
    checked on its own.  Add a line to `details` for each failure, naming
    a failing object by `show`; return the fixed objects."""
    fixed = []
    partners = set()
    for x in domain:
        if x in partners:
            continue
        y = f(x)
        if y == x:
            fixed.append(x)
            continue
        if y not in members:
            fault = f"image is outside the {space}"
        elif abs(grade(y) - grade(x)) != 1:
            fault = "does not change its grade by exactly one"
        elif f(y) != x:
            fault = "is not an involution"
        else:
            partners.add(y)
            continue
        details.append(f"{tag} {fault} on {show(x)}")
    if fixed != list(filter(is_fixed, domain)):
        details.append(f"{tag} fixed set differs from its description")
    return fixed


def verify_sym(n_max: int) -> dict:
    """sym_map is a bijection from the k-ones family onto the (n-k)-ones
    family and squares to the identity."""
    require_sizes(n_max=n_max)
    check_sum((closed_value(n, k) for n in range(n_max + 1) for k in range(n + 1)), "sym check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        families = [list(map(bytes, words_with_ascents(n, k, 1))) for k in range(n + 1)]
        for k in range(n + 1):
            checked += _check_bijection(
                "sym", f"n={n}, k={k}", families[k], set(families[n - k]),
                _sym, _sym, word_str, details,
            )
    return _report(checked, details)


def verify_strip(n_max: int) -> dict:
    """strip is a bijection from the constrained family onto the smaller
    one, with unstrip as two-sided inverse, in the counted quantity."""
    require_sizes(n_max=n_max)
    domains = (
        closed_value(n - lead - trail, k - lead)
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
            family = [(b, _leading_ones(b), _trailing_zeros(b)) for b in map(bytes, words_with_ascents(n, k, 1))]
            for lead, trail in product(range(k + 1), range(n - k + 1)):
                where = f"n={n}, k={k}, lead={lead}, trail={trail}"
                domain = [b for b, ones, zeros in family if ones >= lead and zeros >= trail]
                expected = closed_value(n - lead - trail, k - lead)
                if len(domain) != expected:
                    details.append(f"strip: count {len(domain)} != R = {expected} at ({where})")
                target = set(map(bytes, words_with_ascents(n - lead - trail, k - lead, 1)))
                checked += _check_bijection(
                    "strip", where, domain, target, lambda b: _strip(b, lead, trail),
                    lambda b: _unstrip(b, lead, trail), word_str, details,
                )
    return _report(checked, details)


def verify_ascseq(n_max: int) -> dict:
    """word_to_ascseq is a bijection onto the {001,210}-avoiding ascent
    sequences of length n+1 with k ascents, inverse ascseq_to_word.
    Priced by the nodes of the avoider tree it walks for each n."""
    require_sizes(n_max=n_max)
    check_sum((avoider_nodes(n + 1) for n in range(n_max + 1)), "ascseq check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        targets: dict[int, set[Word]] = {}
        for w in _avoiders(n + 1, ((0, 0, 1), (2, 1, 0))):
            targets.setdefault(_asc(w), set()).add(w)
        for k in range(n + 1):
            target = targets.get(k, set())
            if target != set(canonical_avoiders(n + 1, k)):
                details.append(f"ascseq: canonical family differs at n={n + 1}, k={k}")
            checked += _check_bijection(
                "ascseq", f"n={n}, k={k}", map(bytes, words_with_ascents(n, k, 1)), target,
                _to_ascseq, _from_ascseq, word_str, details,
            )
    return _report(checked, details)


def verify_subset(n_max: int, j_max: int) -> dict:
    """word_to_subset / subset_to_word are mutually inverse bijections."""
    require_sizes(n_max=n_max, j_max=j_max)
    families = (  # both directions
        2 * closed_value(n, k, j)
        for n in range(n_max + 1)
        for k in range(n + 1)
        for j in range(j_max + 1)
    )
    check_sum(families, "subset check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        for k in range(n + 1):
            # one cache per core over the nested families of every j
            to_subset, to_word = cache(_to_subset), cache(partial(_from_subset, n=n, k=k))
            for j in range(j_max + 1):
                where = f"n={n}, k={k}, j={j}"
                family = list(map(bytes, words_with_ascents(n, k, j)))
                subsets = list(_restricted_elements(n, k, j))
                if len(family) != len(subsets):
                    details.append(f"subset: family sizes differ at ({where})")
                checked += _check_bijection(
                    "subset", where, family, set(subsets), to_subset, to_word, word_str, details
                )
                checked += _check_bijection(
                    "subset", where, subsets, set(family), to_word, to_subset, str, details
                )
    return _report(checked, details)


def verify_divider(n_max: int, j_max: int) -> dict:
    """divider_encode is a bijection from subsets of size <= 2j+1 onto
    the at-most-j-ascent words, with divider_decode as inverse."""
    require_sizes(n_max=n_max, j_max=j_max)
    subsets = (
        _choose(n, t)
        for n in range(n_max + 1)
        for j in range(j_max + 1)
        for t in range(min(n, 2 * j + 1) + 1)
    )
    check_sum(subsets, "divider check")
    details: list[str] = []
    checked = 0
    for n in range(n_max + 1):
        # one cache per core over the nested domains of every j
        encode, decode = cache(partial(_divider_encode, n=n)), cache(_divider_decode)
        for j in range(j_max + 1):
            where = f"n={n}, j={j}"
            domain = [s for t in range(min(n, 2 * j + 1) + 1) for s in combinations(range(1, n + 1), t)]
            target = {w for k in range(n + 1) for w in map(bytes, words_with_ascents(n, k, j))}
            checked += _check_bijection("divider", where, domain, target, encode, decode, str, details)
    return _report(checked, details)


def verify_ratio(n: int, k: int) -> dict:
    """ratio_map is injective from the non-first-circled set into the
    starts-with-1 set and misses exactly one element."""
    require_sizes(negative_ok=True, n=n, k=k)
    if not 0 < k < n:
        raise DomainViolation(f"the ratio construction needs 0 < k < n, got n={n}, k={k}")
    expected = ((k - 1) * closed_value(n, k), k * closed_value(n - 1, k - 1))  # source, target
    check_sum(expected, "ratio check")
    details: list[str] = []
    family = list(words_with_ascents(n, k, 1))
    # (word, mark) pairs; MarkedWord, which validates, only for the report
    source = [(w, i + 1) for w in family for i in range(len(w)) if w[i] == 1 and i != w.index(1)]
    target = [(w, i + 1) for w in family if w and w[0] == 1 for i in range(len(w)) if w[i] == 1]
    target_set = set(target)
    image = set()
    for mw in source:
        out = _ratio(*mw)
        if out not in target_set:
            details.append(f"ratio: image of ({MarkedWord(*mw)}) is outside the target set")
        image.add(out)
    if len(image) != len(source):
        details.append("ratio: map is not injective")
    missed = [mw for mw in target if mw not in image]
    if len(missed) != 1:
        details.append(f"ratio: expected exactly one missed element, got {len(missed)}")
    elif missed[0] != ((1,) * k + (0,) * (n - k), 1):
        details.append(f"ratio: missed element is {MarkedWord(*missed[0])}, not the expected one")
    if (len(source), len(target)) != expected:
        details.append("ratio: source/target sizes disagree with the counting identity")
    shown = [str(MarkedWord(*mw)) for mw in missed]
    sizes = {"image_size": len(image), "target_size": len(target), "missed": shown}
    return _report(len(source) + len(target), details, **sizes)


def _altbin_space(r: int, words: list[tuple[bytes, int]]) -> list[tuple[frozenset[int], bytes, int]]:
    """The (S, w, z) triples of the signed set, from the (w, z) pairs of
    the words, each with the z zeros it ends in."""
    subsets = [frozenset(c) for size in range(r + 1) for c in combinations(range(1, r + 1), size)]
    return [(s, w, z) for s in subsets for w, z in words if z >= r - len(s)]


def verify_altbin(r: int, n: int, k: int) -> dict:
    """Both stages are sign-reversing involutions; stage 2 has no fixed
    points, so the signed sum collapses to zero."""
    _require_altbin_sizes(r, n, k)
    # 2^r * R(n+r, k) pairs scanned, summed by subset size
    check_sum((_choose(r, t) * closed_value(n + r, k) for t in range(r + 1)), "altbin check")
    details: list[str] = []
    space = _altbin_space(r, [(w, _trailing_zeros(w)) for w in map(bytes, words_with_ascents(n + r, k, 1))])
    members = set(space)
    sizes = Counter(map(len, map(itemgetter(0), space)))
    signed_sum = sum((-1) ** (r - t) * count for t, count in sizes.items())
    formula = sum((-1) ** (r - t) * _choose(r, t) * closed_value(n + t, k) for t in range(r + 1))
    if signed_sum != formula:
        details.append(f"altbin: signed sum {signed_sum} != binomial sum {formula}")
    fixed = space  # the grade is |S|; stage 2 acts on stage 1's fixed points and has none
    for stage, is_fixed in ((1, partial(_altbin_fixed, r=r)), (2, lambda p: False)):
        fixed = _check_involution(
            f"altbin: stage {stage}", "signed space", fixed, members,
            partial(_altbin, stage, r=r), lambda p: len(p[0]), is_fixed, details,
            lambda p: f"{word_str(p[1])} with subset {sorted(p[0])}",
        )
    if signed_sum != 0:
        details.append(f"altbin: signed sum is {signed_sum}, expected 0")
    return _report(len(space), details, signed_sum=signed_sum)


def verify_genalt(n: int, j: int) -> dict:
    """Each stage of the chain is a sign-reversing involution on the
    fixed points of the previous ones; the final fixed-point signed sum
    equals the alternating row sum."""
    require_sizes(n=n, j=j)
    # each of the j + 1 stages visits at most the whole domain
    check_sum(((j + 1) * closed_value(n, k, j) for k in range(n + 1)), "genalt check")
    details: list[str] = []
    domain = [w for k in range(n + 1) for w in map(bytes, words_with_ascents(n, k, j))]
    members = set(domain)
    checked = 0
    current = domain
    for d in range(j + 1):  # the grade is the number of ones
        checked += len(current)
        current = _check_involution(
            f"genalt: stage {d}", "domain", current, members, partial(_genalt, d), sum,
            partial(_genalt_fixed, d=d), details, word_str,
        )
    fixed_sum = sum((-1) ** sum(w) for w in current)
    total = sum((-1) ** k * closed_value(n, k, j) for k in range(n + 1))
    if fixed_sum != total:
        details.append(f"genalt: fixed-point sum {fixed_sum} != alternating row sum {total}")
    if n % 2 == 1 and current:
        details.append("genalt: odd length should leave no fixed points")
    return _report(checked, details, signed_sum=fixed_sum, fixed_points=len(current))
