"""Rascal triangle toolkit.

Exact Rascal numbers by independent routes, generators for the word
families they count, executable bijections and sign-reversing
involutions, and machine verification of the related identities.
"""

from .errors import (
    DomainViolation,
    InexactDivision,
    RascalError,
    ResourceLimit,
    UnknownIdentity,
)
from .generate import (
    RestrictedSubset,
    all_binary_words,
    ascent_sequences,
    avoiders,
    canonical_avoiders,
    count_words_with_ascents,
    fishburn_numbers,
    restricted_subsets,
    words_with_ascents,
)
from .identities import (
    IdentityReport,
    default_grids,
    evaluate,
    identity_names,
    list_identities,
    verify_range,
)
from .maps import (
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
from .numbers import (
    TriangleCache,
    choose,
    closed_row,
    e_defect,
    falling_factorial,
    prefix_suffix_count,
    rascal_gen_value,
    rascal_value,
    triangle_rows,
)
from .words import (
    Word,
    as_word,
    asc,
    ascent_positions,
    avoids,
    complement,
    contains_001,
    contains_210,
    contains_pattern,
    des,
    descent_positions,
    is_ascent_sequence,
    is_binary,
    is_pattern,
    is_rgf,
    reduce_word,
    reverse_word,
    word_str,
)

__version__ = "0.1.0"
