"""Each fast route shares no code with the oracle that checks it.

PAIRS names each (route, checker) pair by qualified name in src/rascal/,
with the test that compares the two sides.  From the source alone, the
guard computes the definitions each side can reach and asserts that the
two sets are disjoint.  They may share `limits` (prices and input rules),
`errors` (exception types) and the input-edge helpers of SHARED, each
with its reason.  A root that no longer exists fails the guard, so a
rename cannot quietly empty the table.  The guard parses the source and
imports nothing from the package.
"""

import ast
import re
import time

import pytest

from source_index import LIBRARY, ROOT, SourceIndex, library_index, parse

# (route, checker, the test that compares them)
PAIRS = [
    ("numbers.closed_value", "generate.ProfileTable.count",
     "tests/test_generate.py::TestWordsWithAscents::test_count_matches_closed_form_at_random_sizes"),
    ("numbers.closed_value", "numbers._closed_row",
     "tests/test_numbers.py::TestClosedValue::test_matches_edge_and_row"),
    ("numbers.closed_value", "numbers.TriangleCache.linear_row",
     "tests/test_numbers.py::TestRascalGenValue::test_methods_agree"),
    ("numbers.closed_value", "numbers.TriangleCache.product_row",
     "tests/test_numbers.py::TestRascalValue::test_methods_agree_medium"),
    ("numbers.closed_value", "numbers._enum_row_counts",
     "tests/test_numbers.py::TestRascalValue::test_enumeration_agrees_small"),
    ("numbers._closed_row", "generate.ProfileTable.row",
     "tests/test_identities.py::TestRows::test_oracle_rows_in_any_j_order"),
    ("numbers._closed_row", "numbers.TriangleCache.linear_row",
     "tests/test_acceptance.py::test_criterion_2_method_cross_agreement"),
    ("numbers._closed_row", "numbers.TriangleCache.product_row",
     "tests/test_acceptance.py::test_criterion_2_method_cross_agreement"),
    ("numbers._closed_row", "numbers._enum_row_counts",
     "tests/test_acceptance.py::test_criterion_2_method_cross_agreement"),
    ("generate.ProfileTable.row", "numbers._enum_row_counts",
     "tests/test_identities.py::TestEnumerationSource::test_rows_match_word_filter"),
    ("identities.ClosedValues.count", "identities.EnumerationCounts.count",
     "tests/test_identities.py::TestEnumerationSource::test_counts_match_closed_values"),
    ("identities.ClosedValues._row", "identities.EnumerationCounts._row",
     "tests/test_identities.py::TestRows::test_oracle_rows_in_any_j_order"),
    ("maps._to_ascseq", "generate.canonical_avoiders",
     "tests/test_maps.py::TestWordAscseqBridge::test_exhaustive"),
    ("maps._to_ascseq", "generate._avoiders",
     "tests/test_maps.py::TestWordAscseqBridge::test_exhaustive"),
    ("generate.canonical_avoiders", "generate._avoiders",
     "tests/test_generate.py::TestCanonicalAvoiders::test_matches_filtering_oracle"),
    ("maps._to_subset", "generate._restricted_elements",
     "tests/test_maps.py::TestSubsetBridge::test_exhaustive"),
    ("generate._avoiders", "generate.ascent_sequences",
     "tests/test_generate.py::TestAvoiders::test_tree_equals_filter"),
    ("generate.words_with_ascents", "generate.all_binary_words",
     "tests/test_generate.py::TestWordsWithAscents::test_structured_equals_brute_force"),
    ("generate.words_with_ascents", "generate.count_words_with_ascents",
     "tests/test_generate.py::TestWordsWithAscents::test_counts_match_values"),
    ("generate.words_with_ascents", "numbers.rascal_gen_value",
     "tests/test_acceptance.py::test_criterion_3_combinatorial_interpretation"),
    ("maps.word_to_ascseq", "generate.avoiders",
     "tests/test_acceptance.py::test_criterion_4_ascent_sequence_bridge"),
]

FREE_MODULES = ("limits", "errors")

# input-edge helpers that both sides of a pair may read, and why
SHARED = {
    "words.as_word": "reads a raw word or pattern into a tuple: the one letter contract",
    "words._letter_bytes": "as_word's one-pass check of a tuple or a digit string",
    "words._checked_word": "as_word's letter-by-letter check, which names the bad letter",
    "words.word_str": "prints a refused word in its message",
}


def shared_code(index: SourceIndex, route: str, checker: str) -> list[str]:
    """The definitions both sides reach, less the free modules and SHARED."""
    both = index.reach(route) & index.reach(checker)
    return sorted(d for d in both if d.split(".")[0] not in FREE_MODULES and d not in SHARED)


def broken_pairs(index: SourceIndex) -> dict:
    """Each pair of PAIRS whose sides share code, with what they share."""
    shared = {(route, checker): shared_code(index, route, checker) for route, checker, _ in PAIRS}
    return {pair: common for pair, common in shared.items() if common}


def mutated(module: str, old: str, new: str) -> SourceIndex:
    """The index of the package with one edit to one module's text."""
    texts = {path.stem: path.read_text() for path in sorted(LIBRARY.glob("*.py"))}
    assert texts[module].count(old) == 1, f"the mutation site in {module} moved"
    texts[module] = texts[module].replace(old, new)
    return SourceIndex({name: ast.parse(text) for name, text in texts.items()})


@pytest.mark.parametrize("route, checker, test", PAIRS, ids=[f"{r}|{c}" for r, c, _ in PAIRS])
def test_pair_shares_no_code(route, checker, test):
    assert shared_code(library_index(), route, checker) == [], f"compared by {test}"


def test_table_names_existing_comparing_tests():
    assert len(PAIRS) >= 13 and len({(r, c) for r, c, _ in PAIRS}) == len(PAIRS)
    for _, _, test in PAIRS:
        path, *names = test.split("::")
        scope = parse(ROOT / path).body
        for name in names:
            found = [n for n in scope if isinstance(n, ast.FunctionDef | ast.ClassDef) and n.name == name]
            assert found, f"{test} is not a test"
            scope = found[0].body


def test_every_shared_helper_is_defined_and_needed():
    index = library_index()
    assert set(SHARED) <= set(index.defs)
    needed = set()
    for route, checker, _ in PAIRS:
        needed |= index.reach(route) & index.reach(checker) & set(SHARED)
    assert needed == set(SHARED)


def test_readme_lists_the_table():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Cross-checks\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([\w.]+)` against `([\w.]+)`", section, re.M)
    assert listed == [(route, checker) for route, checker, _ in PAIRS]


# what a plain walk of names misses: (root, definitions it must reach, definitions it must not)
RESOLVED = {
    "function-local import": (
        "numbers._enum_row_counts", {"generate.all_binary_words", "words._asc"}, set()),
    "local import in __init__, and super()": (
        "identities.EnumerationCounts.__init__",
        {"generate.ProfileTable", "generate.ProfileTable.__init__", "identities.ClosedValues.__init__"}, set()),
    "self. by the class reached through": (
        "identities.EnumerationCounts.row",
        {"identities.ClosedValues.row", "identities.EnumerationCounts._row", "generate.ProfileTable.row"},
        {"identities.ClosedValues._row", "numbers._closed_row"}),
    "self. on the base class": (
        "identities.ClosedValues.row", {"identities.ClosedValues._row", "numbers._closed_row"},
        {"identities.EnumerationCounts._row", "generate.ProfileTable.row"}),
    "instance attribute set in __init__": (
        "identities.EnumerationCounts._row", {"generate.ProfileTable.row"}, {"identities.ClosedValues.row"}),
    "class-attribute alias": (
        "identities.ClosedValues.count", {"numbers.closed_value"}, {"generate.ProfileTable.count"}),
    "instance attribute over the class alias": (
        "identities.EnumerationCounts.count", {"generate.ProfileTable.count"}, {"numbers.closed_value"}),
    "function passed to partial": ("maps.verify_genalt", {"maps._genalt", "maps._genalt_fixed"}, set()),
    "function passed to cache": ("maps.verify_subset", {"maps._to_subset", "maps._from_subset"}, set()),
    "attribute of a parameter, any member of that name": (
        "numbers._route_row", {"numbers.TriangleCache.linear_row", "numbers.TriangleCache.product_row"}, set()),
}


@pytest.mark.parametrize("case", RESOLVED)
def test_references_resolved(case):
    root, reached, not_reached = RESOLVED[case]
    reach = library_index().reach(root)
    assert reached <= reach and not reach & not_reached


# (module, text, its replacement, the pairs the edit breaks)
MUTATIONS = {
    "canonical_avoiders calls maps._to_ascseq": (
        "generate",
        "    staircase = tuple(range(k))\n    tail = n - k",
        "    from .maps import _to_ascseq\n\n    staircase = _to_ascseq((1,) * k)[:k]\n    tail = n - k",
        {("maps._to_ascseq", "generate.canonical_avoiders")},
    ),
    "ProfileTable.count calls numbers.closed_value": (
        "generate",
        "        r = min(j, k, n - k)\n",
        "        from .numbers import closed_value\n\n        return closed_value(n, k, j)\n",
        {("numbers.closed_value", "generate.ProfileTable.count"),
         ("identities.ClosedValues.count", "identities.EnumerationCounts.count")},
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_guard_names_the_broken_pair(name):
    module, old, new, broken = MUTATIONS[name]
    assert broken_pairs(library_index()) == {}
    assert set(broken_pairs(mutated(module, old, new))) == broken


def test_missing_root_fails_the_guard():
    renamed = mutated("generate", "def canonical_avoiders(", "def listed_avoiders(")
    with pytest.raises(LookupError, match="generate.canonical_avoiders is not defined"):
        broken_pairs(renamed)
    with pytest.raises(LookupError, match="identities.ClosedValues.no_such_attribute"):
        library_index().reach("identities.ClosedValues.no_such_attribute")


def test_guard_runs_fast_on_fresh_source():
    start = time.perf_counter()
    index = SourceIndex({path.stem: ast.parse(path.read_text()) for path in sorted(LIBRARY.glob("*.py"))})
    assert broken_pairs(index) == {}
    assert time.perf_counter() - start < 1.0
