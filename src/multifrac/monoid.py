"""Additive submonoids of the nonnegative rationals generated by all
powers of finitely many positive fractions.

A generator set B yields the monoid of all finite nonnegative-integer
combinations of b**e over b in B, e >= 0.  This module classifies single
generators, validates multi-generator sets, and decides the structural
flags the factorization machinery depends on:

* canonical: no integer generator and pairwise coprime denominators,
  which makes the power-normal-form machinery in `factorizer` applicable;
* hereditarily atomic: every generator has numerator >= denominator
  (a proper one embeds a non-atomic unit-fraction-like tail);
* accp obstructed: some generator is a proper fraction, which rules out
  the ascending chain condition on principal ideals.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .exceptions import DuplicateBase, NotAtomic, NotCanonical, ZeroGenerator
from .qcore import Rational, format_rational


class CyclicCase(str, Enum):
    INTEGER_BASE = "integer-base"
    UNIT_FRACTION_BASE = "unit-fraction-base"
    GENERIC = "generic"


class CyclicClassification(NamedTuple):
    """Atomicity trichotomy for the monoid generated by powers of one rational."""

    base: Rational
    case: CyclicCase
    atomic: bool
    atom_description: str


def classify_cyclic(r: Rational) -> CyclicClassification:
    """Classify the single-generator monoid <r**n : n >= 0>.

    Integer bases collapse every power into multiples of 1, unit-fraction
    bases kill atomicity altogether, and any other positive rational
    makes every power an atom.
    """
    if r <= 0:
        raise ZeroGenerator(f"generator must be positive, got {r}")
    if r.denominator == 1:
        return CyclicClassification(r, CyclicCase.INTEGER_BASE, True, "{1}")
    if r.numerator == 1:
        return CyclicClassification(r, CyclicCase.UNIT_FRACTION_BASE, False, "{}")
    desc = "{(" + format_rational(r) + ")^n : n >= 0}"
    return CyclicClassification(r, CyclicCase.GENERIC, True, desc)


class GeneratorSet(NamedTuple):
    """Validated, ascending tuple of generators plus structural flags.

    Like every record in this package it is a tuple of its fields, six
    of them, so ``len(B)`` is 6; the number of generators is ``len(B.bases)``.

    ``proper_part``/``improper_part`` hold indices of the bases below/above
    1; a base equal to 1 is an integer and lands in neither.  Three flags
    are derived from the split, not stored: ``is_hereditarily_atomic``
    (no proper generator), ``accp_obstructed`` (its negation) and
    ``minimal`` (True on a canonical set, None where it is undecided).
    """

    bases: tuple[Rational, ...]
    has_unit_fraction: bool
    has_integer: bool
    is_canonical: bool
    proper_part: tuple[int, ...]
    improper_part: tuple[int, ...]

    @property
    def is_hereditarily_atomic(self) -> bool:
        return not self.proper_part

    @property
    def accp_obstructed(self) -> bool:
        return bool(self.proper_part)

    @property
    def minimal(self) -> bool | None:
        return True if self.is_canonical else None

    def flags(self) -> dict[str, bool | None]:
        return {
            "has_unit_fraction": self.has_unit_fraction,
            "has_integer": self.has_integer,
            "is_canonical": self.is_canonical,
            "is_hereditarily_atomic": self.is_hereditarily_atomic,
            "accp_obstructed": self.accp_obstructed,
            "minimal": self.minimal,
        }


def build_generator_set(bases) -> GeneratorSet:
    """Validate and normalize a collection of positive rationals.

    Generators are sorted ascending.  Duplicates (after reduction) are
    rejected.  Unit fractions are legal and flagged; since no power of a
    unit fraction is an atom, the atom and length-set routes refuse such
    a set with `NotAtomic`, while membership and hubs still work.
    """
    values = list(bases)
    for b in values:
        if b <= 0:
            raise ZeroGenerator(f"generators must be positive, got {b}")
    ordered = tuple(sorted(values))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise DuplicateBase(f"duplicate generator {a}")

    has_int = any(b.denominator == 1 for b in ordered)
    coprime = all(
        gcd(a.denominator, b.denominator) == 1
        for i, a in enumerate(ordered)
        for b in ordered[i + 1 :]
    )
    return GeneratorSet(
        bases=ordered,
        has_unit_fraction=any(b.numerator == 1 and b.denominator > 1 for b in ordered),
        has_integer=has_int,
        is_canonical=not has_int and coprime,
        proper_part=tuple(i for i, b in enumerate(ordered) if b < 1),
        improper_part=tuple(i for i, b in enumerate(ordered) if b > 1),
    )


def accp_obstruction(B: GeneratorSet) -> Rational | None:
    """Smallest proper-fraction generator, if any.

    Any such generator yields a strictly descending divisibility chain,
    so the monoid cannot satisfy the ascending chain condition on
    principal ideals.
    """
    return B.bases[B.proper_part[0]] if B.proper_part else None


class Atom(NamedTuple):
    """One atom of a canonical monoid: a generator power b**e.

    The shared unit atom 1 = b**0 appears once with base_index None.
    """

    base_index: int | None
    exponent: int
    value: Rational


def canonical_atoms(B: GeneratorSet, e_max: int) -> list[Atom]:
    """Atoms of a canonical monoid up to the exponent cap.

    For canonical sets the atoms are exactly the generator powers; the
    unit atom is emitted first and only once.  The empty set generates
    the trivial monoid, which has no atoms at all.  A unit fraction 1/n
    is refused: (1/n)**e = n * (1/n)**(e + 1), so no power of it, and not
    1 = n * (1/n) either, is an atom.
    """
    if not B.is_canonical:
        raise NotCanonical("atoms are enumerated this way only for canonical sets")
    if B.has_unit_fraction:
        raise NotAtomic("a unit fraction's powers are not atoms")
    if not B.bases:
        return []
    atoms = [Atom(None, 0, Fraction(1))]
    for i, b in enumerate(B.bases):
        for e in range(1, e_max + 1):
            atoms.append(Atom(i, e, b**e))
    return atoms


def proper_reduction(B: GeneratorSet) -> GeneratorSet:
    """Generator set restricted to the bases below 1.

    The full monoid is atomic precisely when this reduction is, so many
    questions factor through it.  A set of proper fractions is its own
    reduction.
    """
    if len(B.proper_part) == len(B.bases):
        return B
    return build_generator_set(B.bases[i] for i in B.proper_part)


def generator_set_to_dict(B: GeneratorSet) -> dict:
    """JSON-ready form: {"bases": [...], "flags": {...}}."""
    return {
        "bases": [format_rational(b) for b in B.bases],
        "flags": B.flags(),
    }
