"""Generator families with engineered factorization behavior.

Two constructions: a prime-seeded family whose monoid has no atoms at
all, and pairs of proper fractions whose monoids have a prescribed
arithmetic progression as their set of distances.  Run me with: python3 demos/tour_constructions.py
"""

from multifrac import (
    delta_realization_check,
    delta_realization_generators,
    nonatomic_family,
    nonatomic_witness,
)


def main() -> None:
    fam = nonatomic_family(2)
    print(f"Nonatomic family: {[str(b) for b in fam.bases]}")
    w = nonatomic_witness(fam, m=1, N_max=6)
    print(f"  splitting identity: {w.x} = "
          f"{w.alpha}*({w.b0})^{w.N} + {w.beta}*({w.b1})^{w.N}")
    print(f"  verified: {w.identity_holds()}")
    print()
    print("Each generator splits into strictly deeper powers, so no element")
    print("is ever an atom; the same identity then splits the pieces again,")
    print("forever.  The seed primes (2, 3, 11) are the smallest that work:")
    print("the shared denominator must exceed 2*3 + 1.")
    print()

    print("Delta realization: two proper generators with upward steps d(k-1)")
    print("and dk (for k = 1, one with step d) give the set of distances")
    print("exactly {d, 2d, ..., kd}.")
    for d in (1, 2):
        for k in (1, 2, 3):
            rep = delta_realization_check(d, k)
            gens = delta_realization_generators(d, k)
            print(f"  d={d}, k={k}: generators {[str(b) for b in gens.bases]}")
            print(f"    delta {list(rep.delta)}, required {list(rep.required)}, "
                  f"realized: {rep.realized()}")
            print("    witnesses " + ", ".join(f"{v} at x = {x}" for v, x in rep.witnesses))
    print()
    print("The delta set is exact: over proper generators the length set of")
    print("x depends only on which generators the hub of x can fire and on")
    print("how many units it holds, so finitely many hub shapes cover every")
    print("element of the monoid.")

if __name__ == "__main__":
    main()
