"""Formal factorizations over generator powers and their normal form.

A factorization of x is a nonnegative-integer combination
``x = c0 + sum c * b_i**e`` with exponents >= 1 inside the terms and c0
counting copies of the unit atom b**0 = 1.  Two factorizations of the
same value are connected by the exchange identity

    n(b) * b**e  =  d(b) * b**(e+1)

applied in either direction (n, d numerator and denominator of b).

For canonical generator sets (no integers, pairwise coprime
denominators) there is exactly one factorization in which every
positive-exponent coefficient is smaller than its base's denominator.
That representative is called the hub here; it is computable either by
exhaustive downward rewriting (`hub_normalize`) or directly from the
value by congruence peeling (`solve_hub`), and the two routes are kept
deliberately independent so they can check each other.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .exceptions import (
    BadIndex,
    NotCanonical,
    ValueMismatch,
)
from .monoid import GeneratorSet
from .qcore import Rational, format_rational


class SearchCaps(NamedTuple):
    """Bounds for the brute-force enumeration: max term exponent and max length."""

    e_max: int = 4
    len_max: int = 64


class _FactorizationFields(NamedTuple):
    c0: int = 0
    terms: tuple[tuple[int, int, int], ...] = ()


class Factorization(_FactorizationFields):
    """Immutable formal combination of generator powers.

    ``terms`` holds (base_index, exponent, coefficient) triples, sorted,
    with exponent >= 1 and coefficient >= 1; ``c0`` is the unit-atom count.
    Construction checks both.
    """

    __slots__ = ()

    def __new__(cls, c0: int = 0, terms: tuple[tuple[int, int, int], ...] = ()):
        if c0 < 0:
            raise ValueError(f"c0 must be nonnegative, got {c0}")
        keys = [(i, e) for (i, e, _) in terms]
        if sorted(set(keys)) != keys:
            raise ValueError("terms must be sorted and slot-unique")
        for i, e, c in terms:
            if i < 0 or e < 1 or c < 1:
                raise ValueError(f"bad term {(i, e, c)}")
        return super().__new__(cls, c0, terms)

    @classmethod
    def from_terms(cls, c0: int, terms) -> "Factorization":
        """Build from any {(base_index, exponent): coefficient} mapping."""
        items = terms.items() if hasattr(terms, "items") else terms
        cleaned = tuple(
            (i, e, c) for (i, e), c in sorted(items) if c != 0
        )
        return cls(c0, cleaned)

    @property
    def length(self) -> int:
        return self.c0 + sum(c for (_, _, c) in self.terms)

    def as_mapping(self) -> dict[tuple[int, int], int]:
        return {(i, e): c for (i, e, c) in self.terms}

    def max_exponent(self) -> int:
        return max((e for (_, e, _) in self.terms), default=0)


class RewriteStep(NamedTuple):
    """One application of the exchange identity, with multiplicity.

    direction "down" at exponent e >= 1 replaces m*d(b) copies of b**e by
    m*n(b) copies of b**(e-1); "up" at exponent e >= 0 replaces m*n(b)
    copies of b**e by m*d(b) copies of b**(e+1).  A down step changes the
    length by m*(n(b) - d(b)), an up step by m*(d(b) - n(b)).
    """

    base_index: int
    exponent: int
    direction: str
    multiplicity: int


def _check_indices(z: Factorization, B: GeneratorSet) -> None:
    for i, _, _ in z.terms:
        if i >= len(B.bases):
            raise BadIndex(f"term references base index {i}, set has {len(B.bases)}")


def evaluate(z: Factorization, B: GeneratorSet) -> Rational:
    """Exact value of the formal combination."""
    _check_indices(z, B)
    total = Fraction(z.c0)
    for i, e, c in z.terms:
        total += c * B.bases[i] ** e
    return total


def hub_normalize(z: Factorization, B: GeneratorSet):
    """Rewrite downward until every coefficient is below its denominator.

    Returns (hub, steps).  Each step carries division multiplicity q from
    c = q*d(b) + r, so the audit trail is short even for huge
    coefficients.  Mass only ever moves to lower exponents, hence one
    top-down sweep per base terminates.
    """
    if not B.is_canonical:
        raise NotCanonical("hub normalization requires a canonical generator set")
    _check_indices(z, B)
    work = z.as_mapping()
    c0 = z.c0
    steps: list[RewriteStep] = []
    for i in sorted({i for (i, _) in work}):
        d_i = B.bases[i].denominator
        n_i = B.bases[i].numerator
        top = max(e for (j, e) in work if j == i)
        for e in range(top, 0, -1):
            c = work.get((i, e), 0)
            if c < d_i:
                continue
            q, r = divmod(c, d_i)
            if r:
                work[(i, e)] = r
            else:
                del work[(i, e)]
            if e == 1:
                c0 += q * n_i
            else:
                work[(i, e - 1)] = work.get((i, e - 1), 0) + q * n_i
            steps.append(RewriteStep(i, e, "down", q))
    return Factorization.from_terms(c0, work), tuple(steps)


def solve_hub(x: Rational, B: GeneratorSet) -> Factorization | None:
    """Decide membership of x and return its hub, or None.

    The denominator of x splits, by gcds alone, into coprime parts
    q_i, where q_i collects every prime of den(x) that divides d(b_i):
    repeating ``g = gcd(rest, g)`` from ``g = gcd(rest, d(b_i))`` keeps
    dividing ``rest`` by those primes until none is left in it.  The split
    is exact because the denominators of a canonical set are pairwise
    coprime, so every prime of den(x) divides at most one d(b_i); a part
    of den(x) left over after every generator has taken its own lies in
    no power of any generator, and x is not a member.  x then splits by
    partial fractions into per-generator contributions rep/q_i.

    Peeling for generator i starts at the least level E with
    q_i | d(b_i)**E.  Any higher level e gives a coefficient of zero,
    since rep/q_i * d(b_i)**e is then a multiple of d(b_i), so starting
    higher changes nothing; in particular the largest prime exponent of
    q_i, which is never below E, yields the same hub.  Within one
    generator the top coefficient at level e is forced modulo d(b) by

        rem * d(b)**e  ===  c * n(b)**e   (mod d(b)),

    because every lower term still carries a factor of d(b) after
    clearing; integer shifts of rem are invisible mod d(b) for e >= 1, so
    the fractional representative suffices.  Peeling levels top-down
    determines all coefficients, and every rem it sees stays integral
    after scaling: rem * d(b)**E is an integer by the choice of E, and
    if t = rem * d(b)**e is one, then c is chosen so that d(b) divides
    t - c * n(b)**e, which is (rem - c * b**e) * d(b)**e; so the new rem
    times d(b)**(e-1) is an integer too, and after level 1 rem itself is
    one.  The contributions rep/q_i add up to x minus an integer (their
    sum times den(x) is congruent to num(x) modulo every q_i), so the
    leftover c0 is always an integer, and x is a member exactly when no
    part of den(x) is left over and c0 is nonnegative.

    When every generator is below 1, the hub is also the unique
    shortest factorization of x: a downward rewrite trades d(b) copies
    for n(b) < d(b) copies, so it strictly shortens, and every
    factorization rewrites down to the hub.
    """
    if not B.is_canonical:
        raise NotCanonical("hub solving requires a canonical generator set")
    if x < 0:
        return None
    if x == 0:
        return Factorization()
    if not B.bases:
        return None

    dx = x.denominator
    terms: dict[tuple[int, int], int] = {}
    if dx > 1:
        rest = dx
        parts: list[tuple[int, int]] = []
        for i, b in enumerate(B.bases):
            q = 1
            g = gcd(rest, b.denominator)
            while g > 1:
                q *= g
                rest //= g
                g = gcd(rest, g)
            if q > 1:
                parts.append((i, q))
        if rest > 1:
            return None
        for i, q in parts:
            b = B.bases[i]
            d_i, n_i = b.denominator, b.numerator
            cap, power = 1, d_i
            while power % q:
                cap, power = cap + 1, power * d_i
            # Fractional representative of this generator's contribution.
            rep = (x.numerator * pow((dx // q) % q, -1, q)) % q
            rem = Fraction(rep, q)
            for e in range(cap, 0, -1):
                t = rem * Fraction(d_i) ** e
                c = (t.numerator * pow(pow(n_i, e, d_i), -1, d_i)) % d_i
                if c:
                    terms[(i, e)] = c
                    rem -= c * b**e

    residue = x
    for (i, e), c in terms.items():
        residue -= c * B.bases[i] ** e
    if residue < 0:
        return None
    return Factorization.from_terms(int(residue), terms)


def witness_families(hub: Factorization, B: GeneratorSet) -> tuple[tuple[int, ...], ...]:
    """Which generators can fire upward chains out of a hub, family by family.

    Returns the sorted distinct unions V | U of base indices.  V lists
    the generators already holding n(b) copies at some exponent of the
    hub.  U runs over the index subsets whose combined kick-off cost, the
    sum of their numerators, fits inside the unit count c0; the empty
    subset always qualifies.  Each family supports independent unbounded
    chains, one per generator in it, and an upward exchange of b adds
    d(b) - n(b) to the length.  Over a canonical set of proper fractions
    every factorization of the hub's value x reaches the hub by downward
    rewrites, so L(x) is |hub| plus the union over the families W of
    <d(b) - n(b) : b in W>: it is infinite unless the families are ((),).
    """
    nums = [b.numerator for b in B.bases]
    v = {i for (i, _, c) in hub.terms if c >= nums[i]}
    subsets = (u for k in range(len(nums) + 1) for u in combinations(range(len(nums)), k))
    funded = (u for u in subsets if sum(nums[i] for i in u) <= hub.c0)
    return tuple(sorted({tuple(sorted(v.union(u))) for u in funded}))


def enumerate_factorizations(
    x: Rational, B: GeneratorSet, caps: SearchCaps
) -> list[Factorization]:
    """All factorizations of x with exponents <= e_max and length <= len_max.

    Ground-truth oracle: bounded search against the definition, valid for
    any generator set (no canonicity assumed) and deliberately independent
    of the hub machinery and of the length-set routes.  The only pruning
    beyond value and budget is an arithmetic necessity: any sum of the
    still-available slot values has denominator dividing their lcm
    ``suffix_den[k]``, so a remainder whose denominator does not divide it
    can never be completed.  Slots run highest exponent first so that
    pruning bites early.  Output order is deterministic (sorted by term
    tuple, then c0).

    The search runs on integers: every value is scaled by
    D = ``suffix_den[0]``, the lcm of all slot denominators, so a
    remainder R/D has denominator dividing ``suffix_den[k]`` exactly when
    D // ``suffix_den[k]`` divides R.  An x whose denominator does not
    divide D fails that test at the root and has no factorization.
    """
    if x < 0:
        return []
    slots = [
        (i, e)
        for i in range(len(B.bases))
        for e in range(caps.e_max, 0, -1)
    ]
    values = [B.bases[i] ** e for (i, e) in slots]
    # suffix_den[k] = lcm of denominators reachable from slot k onward.
    suffix_den = [1] * (len(slots) + 1)
    for k in range(len(slots) - 1, -1, -1):
        d = values[k].denominator
        suffix_den[k] = suffix_den[k + 1] * d // gcd(suffix_den[k + 1], d)
    D = suffix_den[0]
    x = Fraction(x)
    if D % x.denominator:
        return []
    scaled = [v.numerator * (D // v.denominator) for v in values]
    # The remainder R/D can still be completed from slot k on iff R % unit[k] == 0.
    unit = [D // s for s in suffix_den]
    last = len(slots)
    found: list[Factorization] = []

    def descend(k: int, R: int, budget: int, acc: dict) -> None:
        if k == last:
            c0 = R // D
            # The unit atom exists only when there is a generator at all.
            if c0 <= budget and (B.bases or c0 == 0):
                found.append(Factorization.from_terms(c0, dict(acc)))
            return
        v, step, slot = scaled[k], unit[k + 1], slots[k]
        for c in range(min(budget, R // v) + 1):
            rest = R - c * v
            if rest % step:
                continue
            if c:
                acc[slot] = c
            descend(k + 1, rest, budget - c, acc)
        acc.pop(slot, None)

    descend(0, x.numerator * (D // x.denominator), caps.len_max, {})
    return sorted(found, key=lambda z: (z.terms, z.c0))


def apply_rewrite(z: Factorization, step: RewriteStep, B: GeneratorSet) -> Factorization:
    """Apply one exchange step; raises ValueError if the source mass is missing."""
    _check_indices(z, B)
    i, e, m = step.base_index, step.exponent, step.multiplicity
    if i >= len(B.bases):
        raise BadIndex(f"no base with index {i}")
    d_i, n_i = B.bases[i].denominator, B.bases[i].numerator
    work = z.as_mapping()
    c0 = z.c0
    if step.direction == "down":
        if e < 1:
            raise ValueError("down steps need exponent >= 1")
        have = work.get((i, e), 0)
        if have < m * d_i:
            raise ValueError(f"need {m * d_i} at exponent {e}, have {have}")
        work[(i, e)] = have - m * d_i
        if e == 1:
            c0 += m * n_i
        else:
            work[(i, e - 1)] = work.get((i, e - 1), 0) + m * n_i
    elif step.direction == "up":
        if e == 0:
            if c0 < m * n_i:
                raise ValueError(f"need {m * n_i} unit atoms, have {c0}")
            c0 -= m * n_i
        else:
            have = work.get((i, e), 0)
            if have < m * n_i:
                raise ValueError(f"need {m * n_i} at exponent {e}, have {have}")
            work[(i, e)] = have - m * n_i
        work[(i, e + 1)] = work.get((i, e + 1), 0) + m * d_i
    else:
        raise ValueError(f"unknown direction {step.direction!r}")
    return Factorization.from_terms(c0, work)


def rewrite_chain(
    z: Factorization, z_target: Factorization, B: GeneratorSet
) -> tuple[RewriteStep, ...]:
    """Exchange-step chain from z to z_target, routed through the hub.

    Both endpoints normalize to the same hub (uniqueness), so the chain
    is the downward trail of z followed by the reversed, inverted trail
    of the target.
    """
    if evaluate(z, B) != evaluate(z_target, B):
        raise ValueMismatch(
            f"values differ: {evaluate(z, B)} vs {evaluate(z_target, B)}"
        )
    hub_a, down_a = hub_normalize(z, B)
    hub_b, down_b = hub_normalize(z_target, B)
    if hub_a != hub_b:
        raise AssertionError("equal values produced different hubs")
    inverted = tuple(
        RewriteStep(s.base_index, s.exponent - 1, "up", s.multiplicity)
        for s in reversed(down_b)
    )
    return down_a + inverted


def factorization_to_dict(z: Factorization, B: GeneratorSet) -> dict:
    """JSON-ready form with bases spelled by value, not index."""
    _check_indices(z, B)
    return {
        "c0": z.c0,
        "terms": [
            {"base": format_rational(B.bases[i]), "exp": e, "coeff": c}
            for (i, e, c) in z.terms
        ],
    }
