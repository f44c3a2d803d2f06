"""Sets of lengths, delta sets, and unions.

L(x) collects the lengths of all factorizations of x.  Over canonical
proper-fraction sets it is described exactly: the hub length plus
independent unbounded progressions, one per generator in a witness
family.  Run me with: python3 demos/tour_sets_of_lengths.py
"""

from fractions import Fraction

from multifrac import (
    aap_check,
    build_generator_set,
    delta_of_element,
    improper_divisor_pairs,
    is_single_difference,
    length_set,
    solve_hub,
    union_of_lengths,
    witness_families,
)


def main() -> None:
    B23 = build_generator_set([Fraction(2, 3)])
    B25 = build_generator_set([Fraction(2, 5)])

    for B, x in [(B23, Fraction(2)), (B25, Fraction(2))]:
        mu = length_set(x, B)
        print(f"L({x}) over {{{B.bases[0]}}}: starts {mu.truncate(14)} ...")
        print(f"  delta set: {sorted(delta_of_element(x, B))}, "
              f"common generator gap: {is_single_difference(B)}")
    print()
    print("The gap |numerator - denominator| controls the spacing: with a")
    print("single generator the set of lengths is an arithmetic progression")
    print("with exactly that difference.")
    print()

    B = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
    hub = solve_hub(Fraction(4), B)
    print(f"Witness families for x = 4 over {[str(b) for b in B.bases]}:")
    print(f"  hub = {hub.c0} units, firing sets: {witness_families(hub, B)}")
    print(f"  four units can kick off either generator (2 units buy a 2/3")
    print(f"  chain, 4 units buy a 4/5 chain), but not both at once.")
    print(f"  L(4) truncated: {length_set(Fraction(4), B).truncate(12)} ...")
    print()

    MIXED = build_generator_set([Fraction(2, 3), Fraction(5, 2)])
    rep = improper_divisor_pairs(Fraction(2), MIXED)
    print(f"Mixed sets split members across the improper/proper divide:")
    for y, yp in rep.pairs:
        print(f"  2 = {y} (improper side) + {yp} (proper side)")
    print()

    print("Unions over all elements admitting a k-atom factorization:")
    rep = union_of_lengths(3, B23, 4, bound=24)
    print(f"  U_3 over {{2/3}} within [1, 24]: {list(rep.members)}")
    witness = aap_check(rep.members, 1, 0)
    print(f"  arithmetic-progression witness: anchor {witness.y}, "
          f"difference {witness.d}, run of {len(witness.s_star)}")


if __name__ == "__main__":
    main()
