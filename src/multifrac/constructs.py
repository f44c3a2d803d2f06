"""Generator families with prescribed factorization behavior.

Two constructions live here.  The first, seeded by primes, produces
sets whose generators share a denominator, which destroys atomicity: a
generator decomposes into higher powers, certified by an exact identity
over the integers.  The second produces canonical sets of at most two
proper fractions whose monoids have the set of distances exactly
{d, 2d, ..., kd}, checked by the exact Δ(M) of `lengths.delta_of_monoid`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import NamedTuple

from .exceptions import BadLevel, BadSeed
from .lengths import delta_of_monoid
from .monoid import GeneratorSet, build_generator_set
from .qcore import PRIME_TEST_BOUND, Rational, format_rational, is_prime


def _next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = n + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


def default_nonatomic_seed(n: int) -> tuple[int, ...]:
    """Smallest prime chain usable for a nonatomic family of n generators."""
    if n < 2:
        raise BadLevel("the family needs at least two generators")
    primes = [2, 3]
    primes.append(_next_prime(primes[0] * primes[1] + 1))
    while len(primes) < n + 1:
        primes.append(_next_prime(primes[-1]))
    return tuple(primes)


def validate_nonatomic_seed(ps: tuple[int, ...], n: int) -> None:
    if len(ps) != n + 1:
        raise BadSeed(f"need {n + 1} primes for {n} generators, got {len(ps)}")
    for p in ps:
        if p >= PRIME_TEST_BOUND:
            raise BadSeed(f"{p} is too large: seed primes stay below {PRIME_TEST_BOUND}")
        if not is_prime(p):
            raise BadSeed(f"{p} is not prime")
    if not ps[0] < ps[1]:
        raise BadSeed("the first two primes must be ascending")
    if not ps[0] * ps[1] + 1 < ps[2]:
        raise BadSeed(
            f"the shared denominator {ps[2]} must exceed "
            f"{ps[0]}*{ps[1]} + 1 = {ps[0] * ps[1] + 1}"
        )
    for a, b in zip(ps[2:], ps[3:]):
        if not a < b:
            raise BadSeed(f"primes {a}, {b} out of order")


def nonatomic_family(n: int, seed: tuple[int, ...] | None = None) -> GeneratorSet:
    """Generator set with no atoms at all, despite avoiding unit fractions.

    The two lead generators p0/p2 and p1/p2 share the denominator p2, so
    the set is never canonical; every generator splits into higher
    powers of the pair, and splitting never stops.  For n > 2 the extra
    generators p0*p1/p_k keep the same property in larger sets.
    """
    if n < 2:
        raise BadLevel("the family needs at least two generators")
    ps = default_nonatomic_seed(n) if seed is None else seed
    validate_nonatomic_seed(ps, n)
    bases = [Fraction(ps[0], ps[2]), Fraction(ps[1], ps[2])]
    for k in range(3, n + 1):
        bases.append(Fraction(ps[0] * ps[1], ps[k]))
    return build_generator_set(bases)


class NonatomicWitness(NamedTuple):
    """Exact identity splitting a generator power into higher powers.

    Certifies x = alpha * b0**N + beta * b1**N where x = b0**m and
    N > m, with both coefficients positive, so x admits factorizations
    of unbounded depth and the monoid has no atoms.
    """

    x: Rational
    m: int
    N: int
    alpha: int
    beta: int
    b0: Rational
    b1: Rational

    def identity_holds(self) -> bool:
        return self.alpha * self.b0**self.N + self.beta * self.b1**self.N == self.x

    def to_dict(self) -> dict:
        return {
            "x": format_rational(self.x),
            "m": self.m,
            "N": self.N,
            "alpha": self.alpha,
            "beta": self.beta,
            "b0": format_rational(self.b0),
            "b1": format_rational(self.b1),
        }


def nonatomic_witness(
    B: GeneratorSet, m: int = 1, N_max: int = 24
) -> NonatomicWitness | None:
    """Search for the splitting identity of b0**m over a nonatomic family.

    The lead pair is recovered from the one denominator shared by two
    generators.  Exponents N are tried in ascending order over (m, N_max],
    and within each N the least beta >= 1 is taken, so the returned
    witness is deterministic.  Over the denominator p2**N the identity is
    alpha * a + beta * b = rhs with a, b = p0**N, p1**N, so beta solves
    beta * b = rhs (mod a): one class modulo a / gcd(a, b), found by one
    inverse, and empty unless gcd(a, b) divides rhs.  Both coefficients
    must be positive, since a single-term identity splits nothing, so N
    has a witness exactly when the least such beta has beta * b < rhs.
    Returns None when no identity exists below the cap.
    """
    if m < 1:
        raise BadLevel("the exponent m must be positive")
    by_den: dict[int, list[int]] = {}
    for b in B.bases:
        by_den.setdefault(b.denominator, []).append(b.numerator)
    shared = [q for q, nums in by_den.items() if len(nums) == 2]
    if len(shared) != 1:
        raise BadSeed("expected exactly one denominator shared by two generators")
    p2 = shared[0]
    p0, p1 = sorted(by_den[p2])
    for n_exp in range(m + 1, N_max + 1):
        rhs = p0**m * p2 ** (n_exp - m)
        a, b = p0**n_exp, p1**n_exp
        g = gcd(a, b)
        if rhs % g:
            continue
        modulus = a // g
        beta = rhs // g * pow(b // g, -1, modulus) % modulus or modulus
        if beta * b < rhs:
            witness = NonatomicWitness(
                x=Fraction(p0, p2) ** m,
                m=m,
                N=n_exp,
                alpha=(rhs - beta * b) // a,
                beta=beta,
                b0=Fraction(p0, p2),
                b1=Fraction(p1, p2),
            )
            assert witness.identity_holds()
            return witness
    return None


def delta_realization_generators(d: int, k: int) -> GeneratorSet:
    """Proper generators whose monoid has Δ(M) = {d, 2d, ..., kd}.

    For k >= 2 the two generators n1/(n1 + d(k-1)) and n2/(n2 + dk)
    have upward steps d(b) - n(b) equal to d(k-1) and dk, numerators at
    least 2 and coprime denominators; among such pairs the one with the
    least n1 + n2 is taken, ties going to the least n1.  For k = 1 it is
    the single generator n/(n + d) with the least n >= 2 coprime to d.

    Why Δ(M) is {d, ..., kd}.  The set is canonical and proper, so
    `length_set` describes every L(x).  With one generator it is
    |hub| + <d> or a single length, and x = n * b**1 has the former.
    With two, a witness family W (see `witness_families`) gives the
    semigroup of the steps in W, each a multiple of d, so every gap is a
    multiple of d; divide by d and set a = k - 1.  A length set is then
    a shift of a union of semigroups taken from {0}, <a>, <a + 1> and
    <a, a + 1>, where the families are V | U for a fixed V:
    - if both steps lie in one family, the union is <a, a + 1>, whose
      members in [ja, j(a + 1)] are consecutive while the step from
      j(a + 1) to (j + 1)a is a - j, so its gaps are 1, 2, ..., a;
    - otherwise the union is {0}, <a>, <a + 1> or <a> | <a + 1>, and
      the last has no gap above a, since <a> alone has none;
    - so no gap exceeds a + 1 = k, and the gap k comes only from <a + 1>.
    Both extremes occur: x = n1 * b1 + n2 * b2 holds both generators in
    V, giving <a, a + 1> and the gaps 1, ..., a, and x = n2 * b2 with no
    units gives <a + 1> alone and the gap k.
    """
    if d < 1:
        raise BadLevel("the difference d must be positive")
    if k < 1:
        raise BadLevel(f"the length k = {k} of the progression must be positive")
    if k == 1:
        n = next(n for n in count(2) if gcd(n, d) == 1)
        return build_generator_set([Fraction(n, n + d)])
    s1, s2 = d * (k - 1), d * k
    for total in count(4):
        for n1 in range(2, total - 1):
            n2 = total - n1
            if gcd(n1, s1) == gcd(n2, s2) == gcd(n1 + s1, n2 + s2) == 1:
                return build_generator_set([Fraction(n1, n1 + s1), Fraction(n2, n2 + s2)])


class DeltaRealizationReport(NamedTuple):
    """The exact Δ(M) of a construction against the progression it targets.

    ``witnesses`` pairs each value of ``delta`` with an element whose
    length set has that gap.
    """

    d: int
    k: int
    generators: GeneratorSet
    delta: tuple[int, ...]
    required: tuple[int, ...]
    witnesses: tuple[tuple[int, Rational], ...]

    def realized(self) -> bool:
        return self.delta == self.required


def delta_realization_check(d: int, k: int) -> DeltaRealizationReport:
    """Compare Δ(M) of `delta_realization_generators(d, k)` with {d, ..., kd}."""
    B = delta_realization_generators(d, k)
    found = delta_of_monoid(B)
    return DeltaRealizationReport(
        d=d,
        k=k,
        generators=B,
        delta=tuple(found),
        required=tuple(d * i for i in range(1, k + 1)),
        witnesses=tuple(found.items()),
    )
