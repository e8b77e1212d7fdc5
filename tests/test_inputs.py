"""The structured inputs: every public callable that reads a word, a
pattern, a subset or a grid refuses a malformed one with DomainViolation
or ValueError naming it, never a bare TypeError or AttributeError, and
reads a one-shot iterator as the tuple it yields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal import generate, limits, maps, words
from rascal.generate import RestrictedSubset, avoiders
from rascal.identities import evaluate, verify_range
from rascal.maps import (
    MarkedWord,
    altbin_involution,
    ascseq_to_word,
    divider_decode,
    divider_encode,
    genalt_involution,
    signed_pair,
    strip,
    sym_map,
    unstrip,
    word_to_ascseq,
    word_to_subset,
)
from rascal.words import (
    _as_pattern,
    as_word,
    asc,
    contains_001,
    contains_210,
    contains_pattern,
    des,
    is_ascent_sequence,
    is_pattern,
    is_rgf,
    reduce_word,
    word_str,
)

# each public reader with the drawn value in the one structured argument it
# reads.  Not drawn: SignedPair, subset_to_word, ratio_map and
# altbin_involution's pair, which take the package's own value types
# (SignedPair, RestrictedSubset, MarkedWord), not a raw argument.
READERS = {
    "as_word": as_word,
    "word_str": word_str,
    "asc": asc,
    "des": des,
    "reduce_word": reduce_word,
    "is_pattern": is_pattern,
    "contains_001": contains_001,
    "contains_210": contains_210,
    "is_ascent_sequence": is_ascent_sequence,
    "is_rgf": is_rgf,
    "contains_pattern(word)": lambda x: contains_pattern(x, "01"),
    "contains_pattern(pattern)": lambda x: contains_pattern("0110", x),
    "avoiders(patterns)": lambda x: list(avoiders(4, x)),
    "avoiders(pattern)": lambda x: list(avoiders(4, [x])),
    "sym_map": sym_map,
    "strip": lambda x: strip(x, 0, 0),
    "unstrip": lambda x: unstrip(x, 1, 1),
    "word_to_ascseq": word_to_ascseq,
    "ascseq_to_word": ascseq_to_word,
    "word_to_subset": lambda x: word_to_subset(x, 1),
    "divider_decode": divider_decode,
    "MarkedWord": lambda x: MarkedWord(x, 1),
    "genalt_involution": lambda x: genalt_involution(0, x, 1),
    "divider_encode": lambda x: divider_encode(x, 3),
    "signed_pair(subset)": lambda x: signed_pair(x, "1000", 2),
    "signed_pair(word)": lambda x: signed_pair({1}, x, 2),
    "RestrictedSubset": lambda x: RestrictedSubset(x, 3, 2, 1),
    "evaluate": lambda x: evaluate("row_sum", x),
    "verify_range": lambda x: verify_range("row_sum", x),
}

atoms = st.none() | st.booleans() | st.integers(-1, 5) | st.floats(-2, 6) | st.text("0123a", max_size=3)
# hashable or not, sortable or not: ints, floats, None, text, lists and dicts
elements = atoms | st.lists(st.integers(0, 3), max_size=2) | st.dictionaries(st.integers(0, 3), atoms, max_size=1)
collections = st.lists(elements, max_size=4) | st.lists(elements, max_size=4).map(tuple)
grids = st.dictionaries(st.sampled_from(["n", "k"]), elements, max_size=2)
# every draw is a maker, so each reader gets its own copy of a one-shot iterator
malformed = (atoms | collections | grids).map(lambda x: lambda: x)
one_shot = st.lists(st.integers(1, 3), unique=True, max_size=3).map(sorted)


def outcome(read, make):
    """What `read` returns on a fresh value, or the ValueError (or its
    subclass DomainViolation) it raises; any other exception escapes."""
    try:
        return read(make())
    except ValueError as refusal:
        return type(refusal)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(malformed)
def test_malformed_inputs_refused_by_name(make):
    for name, read in READERS.items():
        try:
            outcome(read, make)
        except (TypeError, AttributeError) as escaped:
            pytest.fail(f"{name}({make()!r}) raised {type(escaped).__name__}: {escaped}")


@settings(max_examples=30, derandomize=True, deadline=None)
@given(one_shot)
def test_one_shot_iterator_read_as_its_tuple(elements):
    for name, read in READERS.items():
        assert outcome(read, lambda: iter(elements)) == outcome(read, lambda: tuple(elements)), name


REPRODUCTIONS = {
    "divider_encode(5, 3)": (lambda: divider_encode(5, 3), r"^subset 5 not within \{1..3\}$"),
    "RestrictedSubset(5, 3, 1, 1)": (lambda: RestrictedSubset(5, 3, 1, 1), r"^subset 5 not within \{1..3\}$"),
    "signed_pair([[1]], '00', 2)": (lambda: signed_pair([[1]], "00", 2), r"^subset \[\[1\]\] not within \{1..2\}$"),
    "divider_encode([[1]], 3)": (lambda: divider_encode([[1]], 3), r"^subset \[\[1\]\] not within \{1..3\}$"),
    "as_word(5)": (lambda: as_word(5), "^5 is not a word$"),
    "word_str(None)": (lambda: word_str(None), "^None is not a word$"),
    "asc(5)": (lambda: asc(5), "^5 is not a word$"),
    "sym_map(5)": (lambda: sym_map(5), "^5 is not a word$"),
    "MarkedWord(5, 1)": (lambda: MarkedWord(5, 1), "^5 is not a word$"),
    "contains_pattern(5, '01')": (lambda: contains_pattern(5, "01"), "^5 is not a word$"),
    "avoiders(3, [5])": (lambda: list(avoiders(3, [5])), "^5 is not a word$"),
    "avoiders(3, 5)": (lambda: list(avoiders(3, 5)), "^5 is not a collection of patterns$"),
    "verify_range('row_sum', 5)": (
        lambda: verify_range("row_sum", 5),
        "^row_sum needs a dict of grid ranges, not 5$",
    ),
    "evaluate('row_sum', 5)": (lambda: evaluate("row_sum", 5), "^row_sum needs a dict of values, not 5$"),
}


@pytest.mark.parametrize("call", sorted(REPRODUCTIONS))
def test_non_container_named(call):
    fn, message = REPRODUCTIONS[call]
    with pytest.raises(ValueError, match=message):
        fn()


def test_each_call_hands_its_raw_subset_to_the_reader(monkeypatch):
    # limits.require_subset is the only reader of a subset argument, once a call
    reads = []
    require_subset = limits.require_subset
    for module in (maps, generate):
        monkeypatch.setattr(module, "require_subset", lambda s, n: reads.append(s) or require_subset(s, n))
    pair = signed_pair([1, 2], "0001", 2)
    calls = [
        (divider_encode, (iter([3, 1]), 3), (0, 0, 1)),
        (RestrictedSubset, (iter([1, 3]), 3, 2, 1), RestrictedSubset((1, 3), 3, 2, 1)),
        (signed_pair, ([1, 2], "0001", 2), pair),
        (altbin_involution, (1, pair, 2, 2, 1), pair),
        (altbin_involution, (2, pair, 2, 2, 1), signed_pair([2], "0010", 2)),
    ]
    for call, args, image in calls:
        reads.clear()
        assert call(*args) == image
        raw = args[1].subset if call is altbin_involution else args[0]
        assert len(reads) == 1 and reads[0] is raw, call


def test_pattern_read_once(monkeypatch):
    # the raw pattern is read once; is_pattern reads only the checked tuple,
    # and the reduction is not on the path
    seen = []
    read = words.as_word
    monkeypatch.setattr(words, "as_word", lambda w: seen.append(w) or read(w))
    monkeypatch.setattr(words, "reduce_word", None)
    for raw in ("001", "210", [0, 1, 0], iter((1, 0))):
        seen.clear()
        p = _as_pattern(raw)
        assert seen == [raw, p], raw
    with pytest.raises(ValueError, match=r"^12 is not a pattern \(not self-reduced\)$"):
        _as_pattern("12")
    assert [is_pattern(w) for w in ("", "0", "0210", "01259", "11", "1")] == [True, True, True, False, False, False]
