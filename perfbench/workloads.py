"""The benchmark's operations: inputs made from a seed, the timed calls
into each rascal layer, and the checks on every output.

An operation (Op) is one batch of calls into one public function, so a
trace span covers a whole batch and its cost stays negligible next to
microsecond-scale calls.  Every output is checked outside the timed
interval: against a golden digest recorded at the commit that defined
the benchmark (verify reports, verifier reports, generator listings,
CLI stdout plus exit code), or, for seeded random objects, by round
trip and by membership tests that do not use the map under test.

Workloads (see BENCHMARK.json for why each was chosen):

  verify_formula   identities.verify_range, closed-form left sides
                   (the grids of `rascal verify all`)
  verify_oracle    identities.verify_range, enumeration left sides
  bijection_suite  maps verifiers, random large objects, generators
  cli_session      a fixed script of `rascal` commands, one process each
  layers           traced runs only: numbers, count oracle, grid file
                   and CLI formatting, which no workload calls directly

The seed permutes the order of every workload's operations and draws
the random objects of bijection_suite; all other inputs are fixed, so
the work-count guards are the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from math import comb
from time import perf_counter
from typing import Any, Callable

from rascal import cli, generate, identities, maps, numbers, words

from spawn import reference_s, run_cli, run_python, slowdown

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

WORKLOADS = ("verify_formula", "verify_oracle", "bijection_suite", "cli_session")

# verify_formula runs the pinned grids of `rascal verify all` (the
# package's default_grids.json when the benchmark was defined); the
# criterion-5 formula grids take 7-10 s a pass, too few fresh-process
# passes per run to be steady on a shared host.  verify_oracle runs the
# criterion-5 oracle grids.  Both are copied so that edits elsewhere
# cannot change the benchmark, and may never shrink: speed must come
# from the code.
FORMULA_GRIDS = {
    "row_sum": {"n": (0, 200)},
    "col_sum": {"k": (0, 60), "r": (0, 60)},
    "weighted_row_sum": {"n": (0, 200)},
    "triangle_sum": {"n": (2, 100)},
    "alt_binomial": {"r": (2, 5), "n": (0, 40), "k": (0, 40)},
    "alt_row_sum": {"n": (0, 200)},
    "product_formula": {"n": (1, 100), "m": (1, 100)},
    "subset_ie": {"n": (1, 40), "m": (1, 10)},
    "binom_corollary": {"n": (1, 100), "m": (1, 100)},
    "gen_row_sum": {"n": (0, 100), "j": (0, 5)},
    "half_pow2": {"j": (0, 3)},
    "forward_diff": {"n": (0, 60), "j": (0, 4)},
    "gen_alt_row_sum": {"n": (0, 200), "j": (0, 5)},
}
ORACLE_GRIDS = {
    "row_sum": {"n": (0, 16)},
    "col_sum": {"k": (0, 16), "r": (0, 16)},
    "triangle_sum": {"n": (2, 16)},
    "alt_row_sum": {"n": (0, 16)},
    "alt_binomial": {"r": (2, 5), "n": (0, 16), "k": (0, 16)},
    "product_formula": {"n": (1, 16), "m": (1, 16)},
    "subset_ie": {"n": (1, 16), "m": (1, 12)},
    "binom_corollary": {"n": (1, 16), "m": (1, 16)},
    "gen_row_sum": {"n": (0, 16), "j": (0, 5)},
    "half_pow2": {"j": (0, 3)},
    "forward_diff": {"n": (0, 16), "j": (0, 4)},
    "gen_alt_row_sum": {"n": (0, 16), "j": (0, 5)},
    "weighted_row_sum": {"n": (0, 16)},
}
GRID_CELL_CAP = 1 << 21

# (metric-name part, argv, expected exit code); `verify all` exits 1 by
# design because of the documented weighted_row_sum discrepancy.
CLI_SCRIPT = (
    ("value", ["value", "6", "3"], 0),
    ("triangle_bfile", ["triangle", "300", "--format", "bfile"], 0),
    ("triangle_multiplicative_csv", ["triangle", "300", "--method", "multiplicative", "--format", "csv"], 0),
    ("triangle_linear_json", ["triangle", "300", "--method", "linear", "--j", "3", "--format", "json"], 0),
    ("etable", ["etable", "40", "4"], 0),
    ("enumerate_words", ["enumerate", "words", "--n", "18", "--k", "9", "--j", "2", "--count-only"], 0),
    ("enumerate_avoiders", ["enumerate", "avoiders", "--n", "9", "--patterns", "001,210"], 0),
    ("enumerate_subsets", ["enumerate", "subsets", "--n", "18", "--k", "9", "--j", "2", "--count-only"], 0),
    ("verify_all", ["verify", "all"], 1),
    ("bijection_ascseq", ["bijection", "ascseq"], 0),
    ("bijection_subset", ["bijection", "subset", "--n-max", "10", "--j-max", "3"], 0),
    ("bijection_genalt", ["bijection", "genalt", "--n", "10", "--j", "3"], 0),
)

TRIANGLE_N = 300
TRIANGLE_CELLS = (TRIANGLE_N + 1) * (TRIANGLE_N + 2) // 2
FORMAT_REPEATS = 5
FISHBURN_9 = 31240  # ascent sequences of length 9 (OEIS A022493)
PATTERNS = ("001", "210")

# Random objects per batch in bijection_suite, and their lengths.
BATCH = 1200
MIN_LEN, MAX_LEN = 24, 64


@dataclass(frozen=True)
class Op:
    """One timed batch of calls into one public function.

    `metric` is the per-layer metric its span feeds: seconds, scaled by
    the metric's unit prefix (ms, us, ns), per `units(out)` units of
    work.  `golden` says the output's canonical form is compared with
    the recorded digest; `check` returns why the output is wrong, or
    None.  `counter`/`count` add to a work-count guard.  `seconds`, when
    set, takes the span's time from the output, for a cost measured as
    the difference of two calls.
    """

    name: str
    call: Callable[[], Any]
    metric: str
    units: Callable[[Any], int]
    golden: Callable[[Any], Any] | None = None
    check: Callable[[Any], str | None] | None = None
    counter: str | None = None
    count: Callable[[Any], int] | None = None
    seconds: Callable[[Any], float] | None = None


def one(_out) -> int:
    return 1


def digest(value) -> str:
    """sha256 of the canonical JSON text, hashed as it is encoded so a
    large output costs no second copy in memory."""
    sha = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode(value):
        sha.update(chunk.encode())
    return sha.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# independent reference statistics (the checks never use the code under test
# to judge itself)


def own_asc(w) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a < b)


def own_des(w) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def own_gen_value(n: int, k: int, j: int) -> int:
    if not 0 <= k <= n:
        return 0
    return sum(comb(k, i) * comb(n - k, i) for i in range(j + 1))


def own_profile(b) -> tuple[int, list[tuple[int, int]], int]:
    """b = 1^x0 (0^y 1^x)... 0^y0 as (x0, [(y, x), ...], y0)."""
    runs = [(bit, len(list(group))) for bit, group in groupby(b)]
    x0 = runs.pop(0)[1] if runs and runs[0][0] == 1 else 0
    y0 = runs.pop()[1] if runs and runs[-1][0] == 0 else 0
    return x0, [(runs[i][1], runs[i + 1][1]) for i in range(0, len(runs), 2)], y0


def own_is_ascseq(w) -> bool:
    if not w:
        return True
    if w[0] != 0:
        return False
    ascents = 0
    for prev, x in zip(w, w[1:]):
        if x > ascents + 1:
            return False
        ascents += x > prev
    return True


def own_has_001(w) -> bool:
    """Some letter repeats and a larger letter follows its second copy."""
    suffix_max = [-1] * (len(w) + 1)
    for i in range(len(w) - 1, -1, -1):
        suffix_max[i] = max(w[i], suffix_max[i + 1])
    seen = set()
    for i, x in enumerate(w):
        if x in seen and suffix_max[i + 1] > x:
            return True
        seen.add(x)
    return False


def own_has_210(w) -> bool:
    """Some letter has a larger letter before it and a smaller one after."""
    suffix_min = [float("inf")] * (len(w) + 1)
    for i in range(len(w) - 1, -1, -1):
        suffix_min[i] = min(w[i], suffix_min[i + 1])
    prefix_max = -1
    for i, x in enumerate(w):
        if prefix_max > x > suffix_min[i + 1]:
            return True
        prefix_max = max(prefix_max, x)
    return False


def first_bad(items, test) -> str | None:
    """Message naming the first item for which `test` returns a reason."""
    for item in items:
        why = test(item)
        if why:
            return f"{why}: {item!r}"[:300]
    return None


def strictly_increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# seeded random objects for bijection_suite (built by the benchmark itself)


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """(a_0, a_1..a_parts): a_0 >= 0, the rest >= 1, summing to total."""
    spare = total - parts
    cuts = sorted(rng.randint(0, spare) for _ in range(parts))
    bounds = [0, *cuts, spare]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    return [sizes[0]] + [s + 1 for s in sizes[1:]]


def assemble(x0: int, pairs, y0: int) -> tuple[int, ...]:
    bits = [1] * x0
    for y, x in pairs:
        bits += [0] * y + [1] * x
    return tuple(bits + [0] * y0)


def random_word(rng: random.Random, n: int, k: int, ascents: int) -> tuple[int, ...]:
    """Length n, k ones, exactly `ascents` ascents (needs ascents <= k, n-k)."""
    xs = composition(rng, k, ascents)
    ys = composition(rng, n - k, ascents)
    return assemble(xs[0], list(zip(ys[1:], xs[1:])), ys[0])


def random_family_word(rng: random.Random, j: int, n: int | None = None, k: int | None = None):
    n = rng.randint(MIN_LEN, MAX_LEN) if n is None else n
    k = rng.randint(0, n) if k is None else k
    return random_word(rng, n, k, rng.randint(0, min(j, k, n - k)))


def random_ascseq(rng: random.Random, n: int) -> tuple[int, ...]:
    w = [0]
    ascents = 0
    for _ in range(n - 1):
        x = rng.randint(0, ascents + 1)
        ascents += x > w[-1]
        w.append(x)
    return tuple(w)


def random_canonical(rng: random.Random, length: int) -> tuple[int, ...]:
    """A {001,210}-avoiding ascent sequence: staircase 0..k-1, then y >= 1
    copies of k, then copies of one letter x < k (or none)."""
    k = rng.randint(0, length - 1)
    tail = length - k
    y = rng.randint(1, tail)
    x = rng.randint(0, k - 1) if k and y < tail else k
    return tuple(range(k)) + (k,) * y + (x,) * (tail - y)


# ---------------------------------------------------------------------------
# verify_formula and verify_oracle


def verify_ops(grids: dict, oracle: bool) -> list[Op]:
    kind = "oracle" if oracle else "formula"
    return [
        Op(
            name=f"identities.{kind}.{name}",
            call=lambda name=name, grid=grid: identities.verify_range(
                name, grid, oracle=oracle, max_cells=GRID_CELL_CAP
            ),
            metric=f"identities.{kind}.{name}.us_per_cell",
            units=lambda report: report.cells,
            golden=lambda report: report.to_dict(timing=False),
            counter=f"identities.{kind}.cells",
        )
        for name, grid in grids.items()
    ]


# ---------------------------------------------------------------------------
# bijection_suite


def as_list(reports):
    return reports if isinstance(reports, list) else [reports]


def reports_ok(reports) -> str | None:
    return first_bad(as_list(reports), lambda r: None if r["ok"] else "verifier failed")


def checks_of(reports) -> int:
    return sum(r["checked"] for r in as_list(reports))


def verifier_ops() -> list[Op]:
    batches = {
        "sym": lambda: maps.verify_sym(10),
        "strip": lambda: maps.verify_strip(10),
        "subset": lambda: maps.verify_subset(10, 3),
        "divider": lambda: maps.verify_divider(10, 3),
        "ratio": lambda: [maps.verify_ratio(n, k) for n in range(2, 11) for k in range(1, n)],
        "altbin": lambda: [
            maps.verify_altbin(r, n, k) for r in (2, 3, 4) for n in range(11) for k in range(n + 1)
        ],
        "genalt": lambda: [maps.verify_genalt(n, j) for n in range(11) for j in range(4)],
        "ascseq": lambda: maps.verify_ascseq(8),
    }
    return [
        Op(
            name=f"maps.verify_{name}",
            call=call,
            metric=f"maps.verify_{name}.us_per_check",
            units=checks_of,
            golden=as_list,
            check=reports_ok,
            counter="maps.checks",
        )
        for name, call in batches.items()
    ]


def generator_ops() -> list[Op]:
    word_cells = ((24, 12, 2), (22, 11, 3))
    avoider_cells = [(n, k) for n in (30, 40) for k in range(n)]

    def words_ok(out):
        for (n, k, j), family in zip(word_cells, out):
            if len(family) != own_gen_value(n, k, j) or not strictly_increasing(family):
                return f"words_with_ascents({n}, {k}, {j}) has the wrong size or order"
            bad = first_bad(
                family, lambda w: None if len(w) == n and sum(w) == k and own_asc(w) <= j else "not in family"
            )
            if bad:
                return bad
        return None

    def subsets_ok(out):
        if len(out) != own_gen_value(18, 9, 2):
            return "restricted_subsets(18, 9, 2) has the wrong size"
        return first_bad(
            out,
            lambda s: None
            if len(s) == 9 and strictly_increasing(s) and 1 <= s[0] and s[-1] <= 18 and sum(e <= 9 for e in s) <= 2
            else "not a restricted subset",
        )

    def ascseqs_ok(out):
        if len(out) != FISHBURN_9 or not strictly_increasing(out):
            return "ascent_sequences(9) has the wrong size or order"
        return first_bad(out, lambda w: None if len(w) == 9 and own_is_ascseq(w) else "not an ascent sequence")

    def canonical_ok(out):
        for (n, k), family in zip(avoider_cells, out):
            if len(family) != own_gen_value(n - 1, k, 1):
                return f"canonical_avoiders({n}, {k}) has the wrong size"
            bad = first_bad(
                family,
                lambda w: None
                if len(w) == n and own_is_ascseq(w) and own_asc(w) == k and not own_has_001(w) and not own_has_210(w)
                else "not a {001,210}-avoider",
            )
            if bad:
                return bad
        return None

    def binary_ok(out):
        if len(out) != 1 << 16 or not strictly_increasing(out):
            return "all_binary_words(16) has the wrong size or order"
        return first_bad(out, lambda w: None if len(w) == 16 and set(w) <= {0, 1} else "not a binary word of length 16")

    def avoiders_ok(out):
        if len(out) != comb(9, 3) + 9:
            return "avoiders(9, 001/210) does not match row sum R(8, .)"
        return first_bad(out, lambda w: "contains 001 or 210" if own_has_001(w) or own_has_210(w) else None)

    def nested(out):
        return sum(map(len, out))

    # (name, metric unit, call, units, check); every listing is golden-checked
    specs = [
        ("words_with_ascents", "us_per_object",
         lambda: [list(generate.words_with_ascents(n, k, j)) for n, k, j in word_cells], nested, words_ok),
        ("restricted_subsets", "us_per_object",
         lambda: [s.elements for s in generate.restricted_subsets(18, 9, 2)], len, subsets_ok),
        ("ascent_sequences", "us_per_object", lambda: list(generate.ascent_sequences(9)), len, ascseqs_ok),
        ("canonical_avoiders", "us_per_object",
         lambda: [list(generate.canonical_avoiders(n, k)) for n, k in avoider_cells], nested, canonical_ok),
        ("all_binary_words", "us_per_object", lambda: list(generate.all_binary_words(16)), len, binary_ok),
        ("avoiders", "us_per_fishburn_seq",
         lambda: list(generate.avoiders(9, PATTERNS)), lambda out: FISHBURN_9, avoiders_ok),
    ]
    return [
        Op(
            name=f"generate.{name}",
            call=call,
            metric=f"generate.{name}.{unit}",
            units=units,
            golden=lambda out: out,
            check=check,
            counter="generate.objects",
            count=nested if units is nested else len,
        )
        for name, unit, call, units, check in specs
    ]


def map_ops(rng: random.Random) -> list[Op]:
    """Seeded random objects, n in [MIN_LEN, MAX_LEN], through every map
    and every inverse, each batch checked by round trip and membership."""
    ops: list[Op] = []

    def add(name: str, inputs: list, call, check, injective: bool = False) -> None:
        def check_batch(out):
            if injective and len(set(out)) != len(set(inputs)):
                return "distinct inputs share an image"
            return first_bad(zip(inputs, out), lambda pair: check(*pair))

        ops.append(
            Op(
                name=f"maps.{name}",
                call=lambda: [call(x) for x in inputs],
                metric=f"maps.{name}.us_per_object",
                units=len,
                check=check_batch,
                counter="maps.objects",
            )
        )

    # binary words with at most j ascents, j in 1..4
    family = []
    for _ in range(BATCH):
        j = rng.randint(1, 4)
        family.append((random_family_word(rng, j), j))

    def to_subset_ok(bj, s):
        b, j = bj
        n, k = len(b), sum(b)
        low = sum(1 for e in s.elements if e <= n - k)
        if (s.n, s.k, s.j) != (n, k, j) or low != own_asc(b) or not strictly_increasing(s.elements):
            return "subset has the wrong shape"
        return None if maps.subset_to_word(s) == b else "round trip fails"

    add("word_to_subset", family, lambda bj: maps.word_to_subset(*bj), to_subset_ok)

    subsets = []
    for _ in range(BATCH):
        n = rng.randint(MIN_LEN, MAX_LEN)
        k = rng.randint(0, n)
        j = rng.randint(1, 4)
        m = rng.randint(0, min(j, k, n - k))
        low = rng.sample(range(1, n - k + 1), m)
        high = rng.sample(range(n - k + 1, n + 1), k - m)
        subsets.append(generate.RestrictedSubset(tuple(sorted(low + high)), n, k, j))

    def to_word_ok(s, b):
        if len(b) != s.n or sum(b) != s.k or own_asc(b) > s.j:
            return "word outside the family"
        return None if maps.word_to_subset(b, s.j) == s else "round trip fails"

    add("subset_to_word", subsets, maps.subset_to_word, to_word_ok)

    one_ascent = [random_family_word(rng, 1) for _ in range(BATCH)]

    def to_ascseq_ok(b, w):
        if len(w) != len(b) + 1 or not words.is_ascent_sequence(w) or words.asc(w) != sum(b):
            return "not an ascent sequence of the right length and ascent count"
        if words.contains_001(w) or words.contains_210(w):
            return "image contains 001 or 210"
        return None if maps.ascseq_to_word(w) == b else "round trip fails"

    add("word_to_ascseq", one_ascent, maps.word_to_ascseq, to_ascseq_ok)

    canonical = [random_canonical(rng, rng.randint(MIN_LEN, MAX_LEN)) for _ in range(BATCH)]

    def to_binary_ok(w, b):
        if len(b) != len(w) - 1 or sum(b) != max(w) or own_asc(b) > 1:
            return "word outside the family"
        return None if maps.word_to_ascseq(b) == w else "round trip fails"

    add("ascseq_to_word", canonical, maps.ascseq_to_word, to_binary_ok)

    def sym_ok(b, out):
        if out != tuple(1 - x for x in reversed(b)):
            return "not reverse-complement"
        return None if maps.sym_map(out) == b else "not an involution"

    add("sym_map", one_ascent, maps.sym_map, sym_ok)

    strips = []
    for b in one_ascent:
        x0, _pairs, y0 = own_profile(b)
        strips.append((b, rng.randint(0, x0), rng.randint(0, y0)))

    def strip_ok(arg, out):
        b, lead, trail = arg
        if out != b[lead : len(b) - trail]:
            return "wrong letters removed"
        return None if maps.unstrip(out, lead, trail) == b else "unstrip does not invert"

    add("strip", strips, lambda arg: maps.strip(*arg), strip_ok)

    dividers = []
    for _ in range(BATCH):
        n = rng.randint(MIN_LEN, MAX_LEN)
        j = rng.randint(1, 4)
        dividers.append((tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 2 * j + 1)))), n, j))

    def encode_ok(arg, w):
        subset, n, j = arg
        if len(w) != n or own_asc(w) > j:
            return "encoding outside the at-most-j-ascent words"
        return None if maps.divider_decode(w) == subset else "decode does not invert"

    add("divider_encode", dividers, lambda arg: maps.divider_encode(arg[0], arg[1]), encode_ok)

    def decode_ok(bj, subset):
        b, j = bj
        if len(subset) > 2 * j + 1 or not strictly_increasing(subset):
            return "decoded subset too large or unsorted"
        return None if maps.divider_encode(subset, len(b)) == b else "encode does not invert"

    add("divider_decode", family, lambda bj: maps.divider_decode(bj[0]), decode_ok)

    marked = []
    for _ in range(BATCH):
        b = random_family_word(rng, 1)
        while sum(b) < 2:
            b = random_family_word(rng, 1)
        ones = [i + 1 for i, x in enumerate(b) if x == 1]
        marked.append(maps.MarkedWord(b, rng.choice(ones[1:])))

    def ratio_image(mw):
        """A word starting with 1 is fixed; 0^a 1^m 0^b with its (i+1)-th
        1 circled becomes 1^(m-i) 0^a 1^i 0^b with its first 1 circled."""
        x0, pairs, y0 = own_profile(mw.word)
        if x0:
            return mw
        (a, m), = pairs
        i = mw.mark - a - 1
        return maps.MarkedWord(assemble(m - i, [(a, i)], y0), 1)

    def ratio_ok(mw, out):
        return None if out == ratio_image(mw) else f"image {out} differs from {ratio_image(mw)}"

    add("ratio_map", marked, maps.ratio_map, ratio_ok, injective=True)

    altbin = []
    for _ in range(BATCH):
        r = rng.randint(2, 4)
        n = rng.randint(MIN_LEN - r, MAX_LEN - r)
        k = rng.randint(0, n)
        subset = frozenset(rng.sample(range(1, r + 1), rng.randint(0, r)))
        t = r - len(subset)
        word = random_family_word(rng, 1, n=n + r - t, k=k) + (0,) * t
        altbin.append((1, maps.SignedPair(subset, word, (-1) ** t), r, n, k))
    for _ in range(BATCH // 2):
        # stage-1 fixed points: r in S, exactly r - |S| trailing zeros, one ascent
        r = rng.randint(2, 4)
        n = rng.randint(MIN_LEN - r, MAX_LEN - r)
        k = rng.randint(1, n)
        subset = frozenset({r} | set(rng.sample(range(1, r), rng.randint(0, r - 1))))
        t = r - len(subset)
        x1 = rng.randint(1, k)
        word = assemble(k - x1, [(n + r - k - t, x1)], t)
        altbin.append((2, maps.SignedPair(subset, word, (-1) ** t), r, n, k))

    def altbin_ok(arg, out):
        stage, pair, r, n, k = arg
        if out == pair:
            fixed = stage == 1 and r in pair.subset and own_profile(pair.word)[2] == r - len(pair.subset)
            return None if fixed else "unexpected fixed point"
        if out.weight != -pair.weight:
            return "sign not reversed"
        return None if maps.altbin_involution(stage, out, r, n, k) == pair else "not an involution"

    add("altbin_involution", altbin, lambda arg: maps.altbin_involution(*arg), altbin_ok)

    genalt = [(0, b, j) for b, j in family]
    for _ in range(BATCH // 2):
        # fixed points of stages 0..d-1: even leading run, no trailing zeros,
        # the first d-1 inner pairs (1 zero, odd ones)
        j = rng.randint(1, 4)
        d = rng.randint(1, j)
        pairs = [(1, 2 * rng.randint(0, 4) + 1) for _ in range(d - 1)]
        pairs += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(rng.randint(0, j - d + 1))]
        genalt.append((d, assemble(2 * rng.randint(0, 5), pairs, 0), j))

    def genalt_fixed(d, w) -> bool:
        x0, pairs, y0 = own_profile(w)
        if d == 0:
            return x0 % 2 == 0 and y0 == 0
        return len(pairs) < d or (pairs[d - 1][1] % 2 == 1 and pairs[d - 1][0] == 1)

    def genalt_ok(arg, out):
        d, w, j = arg
        if out == w:
            return None if genalt_fixed(d, w) else "unexpected fixed point"
        if len(out) != len(w) or abs(sum(out) - sum(w)) != 1 or own_asc(out) > j:
            return "not a one-letter sign-reversing move"
        return None if maps.genalt_involution(d, out, j) == w else "not an involution"

    add("genalt_involution", genalt, lambda arg: maps.genalt_involution(*arg), genalt_ok)
    return ops


def word_ops(rng: random.Random) -> list[Op]:
    binary = [random_family_word(rng, rng.randint(0, 4)) for _ in range(BATCH)]
    ascseqs = [random_ascseq(rng, rng.randint(MIN_LEN, MAX_LEN)) for _ in range(BATCH)]
    canonical = [random_canonical(rng, rng.randint(MIN_LEN, MAX_LEN)) for _ in range(BATCH)]
    # generic pattern search backtracks, so it gets shorter words
    short = [random_ascseq(rng, rng.randint(8, 16)) for _ in range(BATCH // 4)]
    short += [random_canonical(rng, rng.randint(8, 16)) for _ in range(BATCH // 4)]
    starts_with_one = [(1,) + b for b in binary]
    mixed = binary + ascseqs
    sequences = ascseqs + canonical
    texts = ["".join(map(str, b)) for b in binary]
    own_contains = {"001": own_has_001, "210": own_has_210}

    specs = [
        ("as_word.str", texts, words.as_word, lambda s, w: w == tuple(int(c) for c in s)),
        ("as_word.tuple", mixed, words.as_word, lambda w, out: out == w),
        ("asc", mixed, words.asc, lambda w, out: out == own_asc(w)),
        ("des", mixed, words.des, lambda w, out: out == own_des(w)),
        ("contains_001", sequences, words.contains_001, lambda w, out: out == own_has_001(w)),
        ("contains_210", sequences, words.contains_210, lambda w, out: out == own_has_210(w)),
        ("contains_pattern", [(w, p) for w in short for p in PATTERNS],
         lambda wp: words.contains_pattern(*wp), lambda wp, out: out == own_contains[wp[1]](wp[0])),
        ("is_ascent_sequence", ascseqs + starts_with_one, words.is_ascent_sequence,
         lambda w, out: out == own_is_ascseq(w)),
    ]
    return [
        Op(
            name=f"words.{name}",
            call=lambda inputs=inputs, fn=fn: [fn(x) for x in inputs],
            metric=f"words.{name}.us_per_word",
            units=len,
            check=lambda out, inputs=inputs, ok=ok: first_bad(
                zip(inputs, out), lambda pair: None if ok(*pair) else "wrong statistic"
            ),
            counter="words.words",
        )
        for name, inputs, fn, ok in specs
    ]


# ---------------------------------------------------------------------------
# cli_session


def cli_ops() -> list[Op]:
    def check_code(expected):
        return lambda out: None if out[0] == expected else f"exit code {out[0]}, expected {expected}"

    return [
        Op(
            name=f"cli.{name}",
            call=lambda argv=argv: run_cli(argv),
            metric=f"cli.{name}.ms",
            units=one,
            golden=lambda out: [out[0], out[1].decode()],
            check=check_code(code),
            counter="cli.stdout_bytes",
            count=lambda out: len(out[1]),
        )
        for name, argv, code in CLI_SCRIPT
    ]


# ---------------------------------------------------------------------------
# layers: traced runs only


def formula_value_calls() -> list[tuple[int, int, int]]:
    """The rascal_gen_value calls verify_formula makes: the memo keys of
    every ClosedValues that verify_range builds over FORMULA_GRIDS."""
    sources = []

    class Recording(identities.ClosedValues):
        def __init__(self) -> None:
            super().__init__()
            sources.append(self)

    plain = identities.ClosedValues
    identities.ClosedValues = Recording
    try:
        for name, grid in FORMULA_GRIDS.items():
            identities.verify_range(name, grid, max_cells=GRID_CELL_CAP)
    finally:
        identities.ClosedValues = plain
    return [key for source in sources for key in source._memo]


def layer_ops() -> list[Op]:
    touched = formula_value_calls()
    defect_cells = [(n, k, j) for n in range(81) for k in range(n + 1) for j in range(5)]
    count_cells = [(n, k, j) for n in range(19) for k in range(n + 1) for j in range(4)]

    def format_cost(argv, method):
        """In-process `cli.main(argv)` minus the triangle_rows call it
        wraps, each the best of FORMAT_REPEATS alternating runs."""
        best_main = best_rows = float("inf")
        for _ in range(FORMAT_REPEATS):
            start = perf_counter()
            numbers.triangle_rows(TRIANGLE_N, method=method, cache=numbers.TriangleCache())
            best_rows = min(best_rows, perf_counter() - start)
            stdout = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            best_main = min(best_main, perf_counter() - start)
        return [code, stdout.getvalue()], best_main - best_rows

    def defects_ok(out):
        for (n, k, j), e in zip(defect_cells, out):
            if e < 0 or (j == 1 and 0 < k < n and e != 1):
                return f"E({n},{k},{j}) = {e}"
        return None

    def counts_ok(out):
        return first_bad(
            zip(count_cells, out), lambda cv: None if cv[1] == own_gen_value(*cv[0]) else "count differs"
        )

    def startup():
        code, stdout, _err, _s = run_python(["-c", "from rascal.cli import build_parser\nbuild_parser()"])
        return [code, stdout.decode()]

    def triangle(method):
        return Op(
            name=f"numbers.triangle_rows.{method}",
            call=lambda: numbers.triangle_rows(TRIANGLE_N, method=method, cache=numbers.TriangleCache()),
            metric=f"numbers.triangle_rows.{method}.us_per_cell",
            units=lambda rows: TRIANGLE_CELLS,
            golden=lambda rows: rows,
        )

    return [
        Op("identities.default_grids", identities.default_grids, "identities.default_grids.ms", one,
           golden=lambda grids: grids),
        triangle("closed"),
        triangle("linear"),
        triangle("multiplicative"),
        Op("numbers.rascal_gen_value", lambda: [numbers.rascal_gen_value(*c) for c in touched],
           "numbers.rascal_gen_value.us_per_call", len, golden=lambda out: out),
        Op("numbers.e_defect", lambda: [numbers.e_defect(*c) for c in defect_cells],
           "numbers.e_defect.us_per_cell", len, golden=lambda out: out, check=defects_ok),
        Op("generate.count_words_with_ascents",
           lambda: [generate.count_words_with_ascents(*c) for c in count_cells],
           "generate.count_words_with_ascents.ns_per_profile", sum, check=counts_ok),
        Op("cli.format.bfile", lambda: format_cost(["triangle", str(TRIANGLE_N), "--format", "bfile"], "closed"),
           "cli.format.bfile.us_per_line", lambda out: TRIANGLE_CELLS, golden=lambda out: out[0],
           seconds=lambda out: out[1]),
        Op("cli.format.csv",
           lambda: format_cost(
               ["triangle", str(TRIANGLE_N), "--method", "multiplicative", "--format", "csv"], "multiplicative"
           ),
           "cli.format.csv.us_per_line", lambda out: TRIANGLE_CELLS + 1, golden=lambda out: out[0],
           seconds=lambda out: out[1]),
        Op("cli.startup", startup, "cli.startup_ms", one, golden=lambda out: out),
    ]


# ---------------------------------------------------------------------------


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of `workload`, in seeded order."""
    rng = random.Random(seed)
    if workload == "verify_formula":
        ops = verify_ops(FORMULA_GRIDS, oracle=False)
    elif workload == "verify_oracle":
        ops = verify_ops(ORACLE_GRIDS, oracle=True)
    elif workload == "bijection_suite":
        ops = verifier_ops() + generator_ops() + map_ops(rng) + word_ops(rng)
    elif workload == "cli_session":
        ops = cli_ops()
    elif workload == "layers":
        ops = layer_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


@dataclass
class PassResult:
    """One pass: op_seconds holds each op's measured time, op_ref_seconds
    the same divided by the host's slowdown around it (see spawn.py)."""

    attempted: int = 0
    failed: int = 0
    errors: list | None = None
    op_seconds: dict | None = None
    op_ref_seconds: dict | None = None
    counts: Counter | None = None
    spans: list | None = None
    span_seconds: float = 0.0
    digests: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds.values())


def run_pass(workload: str, ops: list[Op], golden: dict | None) -> PassResult:
    """Time each op, then check its output and record its span outside
    the timed interval.

    A span is (metric, seconds corrected for the host's slowdown, units
    of work); span_seconds is the time spent building them, the trace's
    own cost.  With `golden` None the digests are collected instead of
    compared (used by record_golden.py).  Only one op's output is alive
    at a time, so the peak RSS does not depend on the seeded op order.
    """
    res = PassResult(errors=[], op_seconds={}, op_ref_seconds={}, counts=Counter(), spans=[], digests={})
    after = reference_s()
    for op in ops:
        res.attempted += 1
        before = after
        start = perf_counter()
        try:
            out = op.call()
            problem = None
        except Exception as exc:  # any raise is a failed operation, not a crash
            problem = f"raised {exc!r}"
        seconds = res.op_seconds[op.name] = perf_counter() - start
        after = reference_s()
        slow = slowdown(before, after)
        res.op_ref_seconds[op.name] = seconds / slow
        if problem:
            res.failed += 1
            res.errors.append(f"{op.name}: {problem}")
            continue
        try:
            if op.golden is not None:
                got = digest(op.golden(out))
                res.digests[op.name] = got
                if golden is not None and got != golden["digests"].get(op.name):
                    problem = "output differs from the golden digest"
            if problem is None and op.check is not None:
                problem = op.check(out)
            if op.counter:
                res.counts[op.counter] += (op.count or op.units)(out)
            span_start = perf_counter()
            span_s = seconds if op.seconds is None else op.seconds(out)
            res.spans.append((op.metric, span_s / slow, op.units(out)))
            res.span_seconds += perf_counter() - span_start
        except Exception as exc:  # a check that raises means a malformed output
            problem = f"check raised {exc!r}"
        del out
        if problem:
            res.failed += 1
            res.errors.append(f"{op.name}: {problem}")
    if golden is not None and workload in golden["counts"]:
        # the work-count guard: a pass that did other work than recorded fails
        res.attempted += 1
        expected = golden["counts"][workload]
        if dict(res.counts) != expected:
            res.failed += 1
            res.errors.append(f"work counts {dict(res.counts)} differ from golden {expected}")
    return res
