"""Prime-seeded generator families with prescribed factorization behavior.

Two constructions live here.  The first produces sets whose generators
share a denominator, which destroys atomicity: a generator decomposes
into higher powers, certified by an exact identity over the integers.
The second produces canonical sets of proper fractions whose delta sets
are exactly {d, 2d, ..., (2K-1)d}: each level k contributes one pair of
generators whose upward steps have sizes 2dk and (2k-1)d, and a short
witness element built from that pair realizes the gaps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exceptions import BadLevel, BadSeed
from .lengths import MapUnion, delta_of_length_set, length_set
from .factorizer import Factorization, solve_hub
from .monoid import GeneratorSet, build_generator_set
from .qcore import Rational, format_rational, is_prime


class PrimeSeed(NamedTuple):
    """Primes feeding a construction, tagged with the rule they satisfy."""

    primes: tuple[int, ...]
    constraint_tag: str


def _next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = n + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


def default_nonatomic_seed(n: int) -> PrimeSeed:
    """Smallest prime chain usable for a nonatomic family of n generators."""
    if n < 2:
        raise BadLevel("the family needs at least two generators")
    primes = [2, 3]
    primes.append(_next_prime(primes[0] * primes[1] + 1))
    while len(primes) < n + 1:
        primes.append(_next_prime(primes[-1]))
    return PrimeSeed(tuple(primes), "nonatomic-family")


def validate_nonatomic_seed(seed: PrimeSeed, n: int) -> None:
    ps = seed.primes
    if len(ps) != n + 1:
        raise BadSeed(f"need {n + 1} primes for {n} generators, got {len(ps)}")
    for p in ps:
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


def nonatomic_family(n: int, seed: PrimeSeed | None = None) -> GeneratorSet:
    """Generator set with no atoms at all, despite avoiding unit fractions.

    The two lead generators p0/p2 and p1/p2 share the denominator p2, so
    the set is never canonical; every generator splits into higher
    powers of the pair, and splitting never stops.  For n > 2 the extra
    generators p0*p1/p_k keep the same property in larger sets.
    """
    if n < 2:
        raise BadLevel("the family needs at least two generators")
    if seed is None:
        seed = default_nonatomic_seed(n)
    validate_nonatomic_seed(seed, n)
    ps = seed.primes
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
    and within each N beta ascends from 1, so the returned witness is
    deterministic.  Both coefficients must be positive: a single-term
    identity would not split anything.  Returns None when no identity
    exists below the cap.
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
    x = Fraction(p0, p2) ** m
    for n_exp in range(m + 1, N_max + 1):
        rhs = p0**m * p2 ** (n_exp - m)
        beta = 1
        while beta * p1**n_exp < rhs:
            rest = rhs - beta * p1**n_exp
            if rest % p0**n_exp == 0:
                witness = NonatomicWitness(
                    x=x,
                    m=m,
                    N=n_exp,
                    alpha=rest // p0**n_exp,
                    beta=beta,
                    b0=Fraction(p0, p2),
                    b1=Fraction(p1, p2),
                )
                assert witness.identity_holds()
                return witness
            beta += 1
    return None


def delta_realization_primes(d: int, K: int) -> PrimeSeed:
    """Greedy prime choices for K generator pairs with target delta set.

    For index n from 2 to 2K + 1, take the smallest prime exceeding both
    the previous prime and d*n + 1, subject to a_n = p_n - d*n strictly
    increasing, and at even n >= 4 additionally a_n > a_{n-1} + 2d.  The
    last rule keeps the resulting numerators strictly increasing across
    levels, so each level's witness element sits below the next level's
    numerators.
    """
    if d < 1:
        raise BadLevel("the difference d must be positive")
    if K < 1:
        raise BadLevel("at least one generator pair is needed")
    primes: list[int] = []
    a_prev = 0
    for n in range(2, 2 * K + 2):
        floor = max(primes[-1] if primes else 2, d * n + 1)
        need = a_prev + 1
        if n >= 4 and n % 2 == 0:
            need = a_prev + 2 * d + 1
        p = _next_prime(floor)
        while p - d * n < need:
            p = _next_prime(p)
        primes.append(p)
        a_prev = p - d * n
    return PrimeSeed(tuple(primes), "delta-realization")


def delta_realization_generators(d: int, K: int) -> GeneratorSet:
    """Canonical set of K proper-fraction pairs realizing {d, ..., (2K-1)d}.

    Level k (1-based) contributes (p - 2dk)/p at index 2k and
    (q - 2dk + d)/q at index 2k + 1; their upward step sizes are 2dk and
    (2k - 1)d.
    """
    seed = delta_realization_primes(d, K)
    bases = []
    for k in range(1, K + 1):
        p = seed.primes[2 * k - 2]
        q = seed.primes[2 * k - 1]
        bases.append(Fraction(p - 2 * d * k, p))
        bases.append(Fraction(q - 2 * d * k + d, q))
    return build_generator_set(bases)


class DeltaRealizationReport(NamedTuple):
    """Observed against required delta values for one witness element.

    ``localized`` flags a heuristic sufficiency condition: every
    generator left out of the truncation has numerator above
    ceil(x) times the largest denominator in play, so factorizations of
    x cannot touch the missing levels and the truncated delta set equals
    the full one.
    """

    d: int
    k: int
    K: int
    generators: GeneratorSet
    x: Rational
    hub: Factorization
    lengths: MapUnion
    observed: tuple[int, ...]
    required: tuple[int, ...]
    inclusion: bool
    divisibility: bool
    localized: bool
    localization_bound: int
    next_numerator: int

    def realized(self) -> bool:
        return self.inclusion and self.divisibility


def delta_realization_check(d: int, k: int) -> DeltaRealizationReport:
    """Verify that level k's witness element realizes {d, 2d, ..., (2k-1)d}.

    The witness is z = n(b)·b**2 + n(b')·b'**2 over level k's pair, whose
    hub fires both generators and nothing else.  The generator set is
    truncated at level k; ``localized`` reports whether the first
    missing numerator clears the conservative bound ceil(x) * max
    denominator, which certifies that the truncation computes the same
    delta set as the untruncated family.
    """
    if k < 1:
        raise BadLevel(f"level {k} is not positive")
    K = k
    B = delta_realization_generators(d, K)
    extended = delta_realization_primes(d, K + 1)
    seed = PrimeSeed(extended.primes[: 2 * K], extended.constraint_tag)
    p = seed.primes[2 * k - 2]
    q = seed.primes[2 * k - 1]
    b_even = Fraction(p - 2 * d * k, p)
    b_odd = Fraction(q - 2 * d * k + d, q)
    # The generator set is sorted by value, so locate the pair explicitly.
    i_even = B.bases.index(b_even)
    i_odd = B.bases.index(b_odd)
    z = Factorization.from_terms(
        0, {(i_even, 2): b_even.numerator, (i_odd, 2): b_odd.numerator}
    )
    x = b_even.numerator * b_even**2 + b_odd.numerator * b_odd**2
    hub = solve_hub(x, B)
    assert hub == z, "the witness combination must already be the hub"
    lengths = length_set(x, B)
    observed = tuple(sorted(delta_of_length_set(lengths)))
    required = tuple(d * i for i in range(1, 2 * k))
    # First generator beyond the truncation: the even one of level K + 1,
    # whose numerator is the smallest among all excluded levels.
    next_num = extended.primes[2 * K] - 2 * d * (K + 1)
    bound = -(-x.numerator // x.denominator) * max(b.denominator for b in B.bases)
    return DeltaRealizationReport(
        d=d,
        k=k,
        K=K,
        generators=B,
        x=x,
        hub=hub,
        lengths=lengths,
        observed=observed,
        required=required,
        inclusion=set(required) <= set(observed),
        divisibility=all(v % d == 0 for v in observed),
        localized=next_num > bound,
        localization_bound=bound,
        next_numerator=next_num,
    )
