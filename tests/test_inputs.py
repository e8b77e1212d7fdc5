"""The structured inputs: every public callable that reads a word, a
pattern, a subset, a grid or a cap refuses a malformed one with
DomainViolation or ValueError naming it, never a bare TypeError or
AttributeError, and reads a one-shot iterator as the tuple it yields.
The maps that read a binary word into bytes return and refuse what the
tuple edge they replaced (tests/reference.py) returns and refuses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rascal import generate, limits, maps, words
from rascal.generate import RestrictedSubset, avoiders
from rascal.identities import evaluate, verify_range
from rascal.maps import (
    MarkedWord,
    SignedPair,
    altbin_involution,
    ascseq_to_word,
    divider_decode,
    divider_encode,
    genalt_involution,
    ratio_map,
    signed_pair,
    strip,
    subset_to_word,
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
    word_str,
)

from reference import MAX_LETTER, binary_family_word

# each public reader with the drawn value in the one structured argument it
# reads; the maps that take the package's own value types refuse any other value
READERS = {
    "as_word": as_word,
    "word_str": word_str,
    "asc": asc,
    "des": des,
    "is_pattern": is_pattern,
    "contains_001": contains_001,
    "contains_210": contains_210,
    "is_ascent_sequence": is_ascent_sequence,
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
    "subset_to_word": subset_to_word,
    "MarkedWord": lambda x: MarkedWord(x, 1),
    "ratio_map": ratio_map,
    "altbin_involution(pair)": lambda x: altbin_involution(1, x, 2, 1, 1),
    "genalt_involution": lambda x: genalt_involution(0, x, 1),
    "divider_encode": lambda x: divider_encode(x, 3),
    "signed_pair(subset)": lambda x: signed_pair(x, "1000", 2),
    "signed_pair(word)": lambda x: signed_pair({1}, x, 2),
    "SignedPair(subset)": lambda x: SignedPair(x, "1000", 1),
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
    "SignedPair([[1]], '00', 1)": (lambda: SignedPair([[1]], "00", 1), r"^subset \[\[1\]\] not within \{1..2\}$"),
    # a map that takes a record refuses a plain tuple of its fields
    "ratio_map(((0, 1, 1), 2))": (
        lambda: ratio_map(((0, 1, 1), 2)),
        r"^ratio_map takes a MarkedWord, not \(\(0, 1, 1\), 2\)$",
    ),
    "subset_to_word(((1, 2), 3, 2, 1))": (
        lambda: subset_to_word(((1, 2), 3, 2, 1)),
        r"^subset_to_word takes a RestrictedSubset, not \(\(1, 2\), 3, 2, 1\)$",
    ),
    "altbin_involution(1, (frozenset(), (1, 0, 0), 1), 2, 1, 1)": (
        lambda: altbin_involution(1, (frozenset(), (1, 0, 0), 1), 2, 1, 1),
        r"^altbin_involution takes a SignedPair, not \(frozenset\(\), \(1, 0, 0\), 1\)$",
    ),
    # a cap follows the size rule
    "verify_range(max_cells='10')": (
        lambda: verify_range("row_sum", {"n": (0, 3)}, max_cells="10"),
        "^max_cells must be an integer, got '10'$",
    ),
    "verify_range(max_cells=-1)": (
        lambda: verify_range("row_sum", {"n": (0, 3)}, max_cells=-1),
        "^max_cells must be >= 0, got -1$",
    ),
    "verify_range(max_cells=True)": (
        lambda: verify_range("row_sum", {"n": (0, 3)}, max_cells=True),
        "^max_cells must be an integer, got True$",
    ),
    "verify_range(max_cells=2.5)": (
        lambda: verify_range("row_sum", {"n": (0, 3)}, max_cells=2.5),
        r"^max_cells must be an integer, got 2\.5$",
    ),
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
        (SignedPair, (iter([1, 2]), "0001", 1), pair),
        (altbin_involution, (1, pair, 2, 2, 1), pair),
        (altbin_involution, (2, pair, 2, 2, 1), signed_pair([2], "0010", 2)),
    ]
    for call, args, image in calls:
        reads.clear()
        assert call(*args) == image
        raw = args[1].subset if call is altbin_involution else args[0]
        assert len(reads) == 1 and reads[0] is raw, call


def test_pattern_read_once(monkeypatch):
    # the raw pattern is read once and is_pattern reads only the checked
    # tuple; the package has no reduction to call (it is a test reference)
    seen = []
    read = words.as_word
    monkeypatch.setattr(words, "as_word", lambda w: seen.append(w) or read(w))
    assert not hasattr(words, "reduce_word")
    for raw in ("001", "210", [0, 1, 0], iter((1, 0))):
        seen.clear()
        p = _as_pattern(raw)
        assert seen == [raw, p], raw
    with pytest.raises(ValueError, match=r"^12 is not a pattern \(not self-reduced\)$"):
        _as_pattern("12")
    assert [is_pattern(w) for w in ("", "0", "0210", "01259", "11", "1")] == [True, True, True, False, False, False]


# each public map that reads a binary word at its bytes edge: (the map on
# the drawn word, the ascent bound its edge names, or None for none)
EDGE_MAPS = {
    "sym_map": (sym_map, 1),
    "strip": (lambda w: strip(w, 1, 1), None),
    "unstrip": (lambda w: unstrip(w, 1, 1), None),
    "word_to_ascseq": (word_to_ascseq, 1),
    "word_to_subset": (lambda w: word_to_subset(w, 2), 2),
    "divider_decode": (divider_decode, None),
    "genalt_involution": (lambda w: genalt_involution(0, w, 2), 2),
    "MarkedWord": (lambda w: MarkedWord(w, 1), None),
    "SignedPair": (lambda w: SignedPair((), w, 1), None),
    "signed_pair": (lambda w: signed_pair((1,), w, 2), None),
}


@st.composite
def near_binary(draw):
    """A maker of a word of up to 200 letters, runs of 0s and 1s with up
    to two letters swapped for 2, a bool or a letter above 255, as a
    tuple, a list, a digit string or a one-shot iterator."""
    runs = draw(st.lists(st.tuples(st.sampled_from((0, 1)), st.integers(1, 60)), max_size=6))
    letters = [bit for bit, size in runs for _ in range(size)][:200]
    for _ in range(draw(st.integers(0, 2)) if letters else 0):
        at = draw(st.integers(0, len(letters) - 1))
        letters[at] = draw(st.sampled_from((2, True, False, 256, MAX_LETTER, MAX_LETTER + 1)))
    form = draw(st.sampled_from(("tuple", "list", "digits", "iterator")))
    if form == "digits":
        text = "".join(str(int(x)) for x in letters)
        return lambda: text
    return {"tuple": lambda: tuple(letters), "list": lambda: list(letters), "iterator": lambda: iter(letters)}[form]


def refusal_or(call):
    """repr(call()), which tells 1 from True and a tuple from a list, or the
    type name and message of the ValueError it raises."""
    try:
        return repr(call())
    except ValueError as refusal:
        return type(refusal).__name__, str(refusal)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(near_binary())
def test_bytes_edge_matches_tuple_edge(make):
    # each map returns on a raw word what it returns on the tuple that the
    # tuple edge (binary_word, then the ascent bound) reads, and refuses
    # what that edge refuses, with the same type and message
    for name, (call, j) in EDGE_MAPS.items():
        try:
            word = binary_family_word(make(), j, name)
        except ValueError as refusal:
            expected = type(refusal).__name__, str(refusal)
        else:
            expected = refusal_or(lambda: call(word))
        assert refusal_or(lambda: call(make())) == expected, name
