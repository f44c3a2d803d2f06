"""A walk through the one-generator classification.

The monoid generated by all powers of a single positive rational b
behaves in exactly one of three ways, decided by the shape of b alone.
Run me with: python3 demos/tour_cyclic_trichotomy.py
"""

from fractions import Fraction

from multifrac import (
    accp_obstruction,
    build_generator_set,
    canonical_atoms,
    classify_cyclic,
)


def show(r: Fraction) -> None:
    c = classify_cyclic(r)
    print(f"  base {r}: {c.case.value:>18}  atomic={c.atomic}  atoms={c.atom_description}")


def main() -> None:
    print("The trichotomy:")
    show(Fraction(3))
    show(Fraction(1, 2))
    show(Fraction(2, 3))
    print()
    print("An integer base folds every power into multiples of 1, so the")
    print("monoid is a numerical one with the single atom 1.  A unit")
    print("fraction 1/q keeps dividing itself: 1/q = q * (1/q^2) and so on,")
    print("so nothing is ever an atom.  Any other rational n/d makes every")
    print("power an atom, because a power cannot be recovered from the")
    print("shallower terms of its own geometric sequence.")
    print()

    print("Multi-generator sets inherit flags from their members:")
    hered = build_generator_set([Fraction(5, 2), Fraction(7, 3)])
    print(f"  {[str(b) for b in hered.bases]}: hereditarily atomic = "
          f"{hered.is_hereditarily_atomic}")
    mixed = build_generator_set([Fraction(5, 2), Fraction(2, 3)])
    print(f"  {[str(b) for b in mixed.bases]}: hereditarily atomic = "
          f"{mixed.is_hereditarily_atomic}, chain-condition obstruction = "
          f"{accp_obstruction(mixed)}")
    print()
    print("A proper fraction generator always breaks the ascending chain")
    print("condition on principal ideals: x > x*b > x*b^2 > ... is an")
    print("infinite descending divisibility chain.")
    print()

    canon = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
    print(f"Canonical set {[str(b) for b in canon.bases]} "
          f"(no integers, coprime denominators):")
    print("  the atoms are exactly the generator powers and 1:")
    print(f"  {[str(a.value) for a in canonical_atoms(canon, 2)]} up to exponent 2")


if __name__ == "__main__":
    main()
