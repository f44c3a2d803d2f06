"""Factorization invariants of monoids generated by powers of rationals.

The additive submonoid of the nonnegative rationals generated by all
powers of a finite set of positive fractions carries surprisingly rich
factorization behavior: unique reduced representatives, length sets
that are unions of shifted progressions, prescribed delta sets, and
families with no atoms at all.  The modules here compute those objects
exactly, with `fractions.Fraction` end to end.

The public names are loaded on first use (PEP 562), so importing
the package, or one of its modules, does not import the others: a
command-line process pays only for the modules its verb needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "MultifracError": "exceptions",
    "Factorization": "factorizer",
    "RewriteStep": "factorizer",
    "SearchCaps": "factorizer",
    "apply_rewrite": "factorizer",
    "enumerate_factorizations": "factorizer",
    "evaluate": "factorizer",
    "hub_normalize": "factorizer",
    "rewrite_chain": "factorizer",
    "solve_hub": "factorizer",
    "witness_families": "factorizer",
    "MapComponent": "lengths",
    "MapUnion": "lengths",
    "aap_check": "lengths",
    "delta_of_element": "lengths",
    "delta_of_monoid": "lengths",
    "delta_sample": "lengths",
    "improper_divisor_pairs": "lengths",
    "is_single_difference": "lengths",
    "length_set": "lengths",
    "union_of_lengths": "lengths",
    "GeneratorSet": "monoid",
    "accp_obstruction": "monoid",
    "build_generator_set": "monoid",
    "canonical_atoms": "monoid",
    "classify_cyclic": "monoid",
    "delta_realization_check": "constructs",
    "delta_realization_generators": "constructs",
    "nonatomic_family": "constructs",
    "nonatomic_witness": "constructs",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
