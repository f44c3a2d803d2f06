"""Hubs: the power normal form every factorization funnels through.

Over a canonical generator set (no integers, pairwise coprime
denominators) each member of the monoid has exactly one factorization
whose coefficient at every positive exponent of a base b stays below
b's denominator.  That representative, the hub, is computable two
independent ways, and every other factorization reaches it by downward
rewrites.  Run me with: python3 demos/tour_hub_factorizations.py
"""

from fractions import Fraction

from multifrac import (
    Factorization,
    SearchCaps,
    apply_rewrite,
    build_generator_set,
    enumerate_factorizations,
    evaluate,
    hub_normalize,
    length_set,
    rewrite_chain,
    solve_hub,
)


def pretty(z: Factorization, B) -> str:
    parts = [f"{z.c0}*1"] if z.c0 else []
    for (i, e, c) in z.terms:
        parts.append(f"{c}*({B.bases[i]})^{e}")
    return " + ".join(parts) if parts else "0"


def main() -> None:
    B = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
    print(f"Generators: {[str(b) for b in B.bases]}")
    print()

    x = Fraction(22, 15)
    hub = solve_hub(x, B)
    print(f"solve_hub({x}) peels congruences one denominator at a time:")
    print(f"  hub = {pretty(hub, B)}  (length {hub.length})")
    lengths = length_set(x, B)
    print(f"  lengths {lengths.truncate(hub.length + 4)}, finite: {not lengths.is_infinite()},"
          f" so the hub is a longest factorization")
    print()

    print("The same hub falls out of sweeping any factorization downward.")
    z = Factorization.from_terms(0, {(0, 1): 5})
    B1 = build_generator_set([Fraction(2, 3)])
    print(f"Start from {pretty(z, B1)} = {evaluate(z, B1)} over {{2/3}}:")
    normalized, trail = hub_normalize(z, B1)
    state = z
    for step in trail:
        state = apply_rewrite(state, step, B1)
        print(f"  {step.direction} at exponent {step.exponent} x{step.multiplicity}"
              f" -> {pretty(state, B1)}")
    assert state == normalized
    print()

    x = Fraction(2)
    caps = SearchCaps(e_max=2, len_max=7)
    found = sorted(enumerate_factorizations(x, B1, caps), key=lambda w: w.length)
    print(f"All factorizations of {x} over {{2/3}} within caps {caps}:")
    for w in found:
        print(f"  length {w.length}: {pretty(w, B1)}")
    print()

    first, last = found[0], found[-1]
    chain = rewrite_chain(first, last, B1)
    print(f"A rewrite chain connects any two of them ({len(chain)} steps):")
    state = first
    print(f"  {pretty(state, B1)}")
    for step in chain:
        state = apply_rewrite(state, step, B1)
        print(f"  -> {pretty(state, B1)}")
    assert state == last


if __name__ == "__main__":
    main()
