"""Factorization invariants of monoids generated by powers of rationals.

The additive submonoid of the nonnegative rationals generated by all
powers of a finite set of positive fractions carries surprisingly rich
factorization behavior: unique reduced representatives, length sets
that are unions of shifted progressions, prescribed delta sets, and
families with no atoms at all.  The modules here compute those objects
exactly, with `fractions.Fraction` end to end.
"""

from .exceptions import MultifracError
from .factorizer import (
    Factorization,
    RewriteStep,
    SearchCaps,
    apply_rewrite,
    enumerate_factorizations,
    evaluate,
    hub_normalize,
    is_max_length,
    rewrite_chain,
    solve_hub,
)
from .lengths import (
    MapComponent,
    MapUnion,
    aap_check,
    delta_of_element,
    delta_sample,
    hub_witness_sets,
    improper_divisor_pairs,
    is_length_set_infinite,
    is_single_difference,
    length_set,
    length_set_proper,
    union_of_lengths,
)
from .monoid import (
    GeneratorSet,
    accp_obstruction,
    atom_certificate,
    build_generator_set,
    canonical_atoms,
    classify_cyclic,
)
from .constructs import (
    delta_realization_check,
    delta_realization_generators,
    nonatomic_family,
    nonatomic_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "GeneratorSet",
    "MapComponent",
    "MapUnion",
    "MultifracError",
    "RewriteStep",
    "SearchCaps",
    "aap_check",
    "accp_obstruction",
    "apply_rewrite",
    "atom_certificate",
    "build_generator_set",
    "canonical_atoms",
    "classify_cyclic",
    "delta_of_element",
    "delta_realization_check",
    "delta_realization_generators",
    "delta_sample",
    "enumerate_factorizations",
    "evaluate",
    "hub_normalize",
    "hub_witness_sets",
    "improper_divisor_pairs",
    "is_length_set_infinite",
    "is_max_length",
    "is_single_difference",
    "length_set",
    "length_set_proper",
    "nonatomic_family",
    "nonatomic_witness",
    "rewrite_chain",
    "solve_hub",
    "union_of_lengths",
    "__version__",
]
