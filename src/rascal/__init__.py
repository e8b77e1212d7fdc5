"""Rascal triangle toolkit.

Exact Rascal numbers by independent routes, generators for the word
families they count, executable bijections and sign-reversing
involutions, and machine verification of the related identities.

`import rascal` loads no submodule: each name below is imported from
its submodule on first access (PEP 562), so code that needs only
`numbers` never pays for compiling `maps` or `identities`.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": "DomainViolation InexactDivision RascalError ResourceLimit UnknownIdentity",
    "generate": "RestrictedSubset all_binary_words ascent_sequences avoiders canonical_avoiders"
    " count_words_with_ascents fishburn_numbers restricted_subsets words_with_ascents",
    "identities": "IdentityReport default_grids evaluate identity_names list_identities verify_range",
    "maps": "MarkedWord SignedPair altbin_involution ascseq_to_word divider_decode divider_encode"
    " genalt_involution ratio_map signed_pair strip subset_to_word sym_map unstrip"
    " word_to_ascseq word_to_subset",
    "numbers": "TriangleCache closed_row e_defect rascal_gen_value rascal_value triangle_rows",
    "words": "Word as_word asc contains_001 contains_210 contains_pattern des is_ascent_sequence"
    " is_pattern word_str",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _EXPORTS:  # `rascal.maps` works after a bare `import rascal`
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
