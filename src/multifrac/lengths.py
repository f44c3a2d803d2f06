"""Sets of lengths, their finite descriptions, and derived invariants.

The length set L(x) collects the lengths of all factorizations of x.
Over a canonical generator set of proper fractions, every length arises
from the hub by firing upward chains, and the whole set is a finite
union of shifted numerical semigroups.  `MapUnion` is the exact carrier
for such sets: each component is

    offset + <d1, d2, ...>

where <d1, d2, ...> is the additive monoid generated by the steps
d(b) - n(b) (Rosales & Garcia-Sanchez, *Numerical Semigroups*, 2009,
ch. 1, up to the gcd of the steps).  Improper generators contribute
only finitely many lengths per value, found by a complete search on
integers (every value scaled by a power of the improper denominators).
Every factorization splits across the proper/improper divide,
x = y + y', so L(x) is a finite union of the improper lengths of y plus
shifted proper-side length sets of y'.  One function, `_splittings`,
makes one pass over the improper powers for the candidates y with their
improper lengths and one proper-side hub solve per candidate; both
`length_set` and `improper_divisor_pairs` read it.  The splittings are
also read off the hub of x (see `improper_divisor_pairs`).

Derived invariants (delta sets, unions of sets of lengths, almost
arithmetic progressions) are computed from these descriptions with
explicit truncation bounds wherever the set itself is infinite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from typing import NamedTuple

from .exceptions import (
    ImproperBase,
    NotAtomic,
    NotCanonical,
    NotMember,
    ZeroLength,
)
from .factorizer import (
    Factorization,
    evaluate,
    solve_hub,
    witness_families,
)
from .monoid import (
    GeneratorSet,
    canonical_atoms,
    proper_reduction,
)
from .qcore import Rational


class _MapComponentFields(NamedTuple):
    offset: int
    steps: tuple[int, ...] = ()


class MapComponent(_MapComponentFields):
    """offset + the monoid generated by ``steps``; every step is unbounded.

    No steps means the single length ``offset``.  Steps keep the order
    and multiplicity of the generators they come from.
    """

    __slots__ = ()

    def __new__(cls, offset: int, steps: tuple[int, ...] = ()):
        if offset < 0:
            raise ValueError("offsets are lengths, hence nonnegative")
        if any(d < 1 for d in steps):
            raise ValueError(f"steps must be positive, got {steps}")
        return super().__new__(cls, offset, steps)

    def contains(self, v: int) -> bool:
        """Whether v = offset + a sum of steps, the two least decided in O(1).

        Let r = v - offset.  With no step, r must be 0; with one step s,
        r >= 0 and s | r.  Otherwise let a <= b be the two least steps,
        g = gcd(a, b), a' = a/g and b' = b/g.  The partial sums t <= r of
        the other steps are enumerated as a plain subset sum, and r is a
        member exactly when some n = r - t lies in <a, b>, that is, when
        g | n and m = n/g lies in <a', b'>.  The Apery set of <a', b'>
        with respect to a' is {0, b', ..., (a' - 1) b'} (Rosales &
        Garcia-Sanchez, *Numerical Semigroups*, 2009, ch. 1): b' is
        invertible modulo a', so a member x a' + y b' lies in the class
        of i b' (0 <= i < a') exactly when y = i mod a', and then y >= i
        makes it at least i b', which is itself a member.  So the least
        member congruent to m modulo a' is j b' with j = m * b'^-1 mod a',
        and m is a member exactly when j b' <= m.  These constants depend
        on the steps alone, so a scan that tests many v computes them
        once (`_apery_constants`).
        """
        r = v - self.offset
        if r < 0:
            return False
        if len(self.steps) < 2:
            return r == 0 if not self.steps else r % self.steps[0] == 0
        g, a, b, inv, rest = _apery_constants(self.steps)
        reach = {0}
        for d in rest:
            reach = {t + k * d for t in reach for k in range((r - t) // d + 1)}
        for t in reach:
            n, q = divmod(r - t, g)
            if q == 0 and n * inv % a * b <= n:
                return True
        return False

    def is_infinite(self) -> bool:
        return bool(self.steps)


@lru_cache(maxsize=1024)
def _apery_constants(steps: tuple[int, ...]) -> tuple[int, int, int, int, tuple[int, ...]]:
    """(g, a', b', b'^-1 mod a', the other steps) for `MapComponent.contains`.

    Kept for the last 1024 step tuples, so a long process stays bounded.
    """
    a, b, *rest = sorted(steps)
    g = gcd(a, b)
    a, b = a // g, b // g
    return g, a, b, pow(b, -1, a), tuple(rest)


class _MapUnionFields(NamedTuple):
    components: tuple[MapComponent, ...] = ()


class MapUnion(_MapUnionFields):
    """Finite union of MapComponents describing one set of lengths.

    The constructor takes any iterable of components and keeps each one
    once, sorted by (offset, steps), so equal sets built along different
    routes compare and serialize alike.  It is a tuple of its one field,
    so ``len(mu)`` is 1; the components are ``mu.components``.
    """

    __slots__ = ()

    def __new__(cls, components=()):
        return super().__new__(cls, tuple(sorted(set(components))))

    def contains(self, v: int) -> bool:
        return any(c.contains(v) for c in self.components)

    def is_empty(self) -> bool:
        return not self.components

    def min_value(self) -> int:
        if not self.components:
            raise ValueError("empty union has no minimum")
        return self.components[0].offset

    def is_infinite(self) -> bool:
        return any(c.is_infinite() for c in self.components)

    def truncate(self, bound: int) -> list[int]:
        """Sorted members in [0, bound], testing one residue class only.

        A member v of a component o + <S> is o plus a sum of steps.  Let
        o_min be the least offset and G the gcd of every step and of
        every o - o_min.  G divides o - o_min and every step, so it
        divides v - o_min, and v >= o >= o_min: every member of the union
        lies in o_min, o_min + G, ..., and the scan tests only those up
        to bound.  G = 0 only when the union is the single point o_min.
        """
        if not self.components:
            return []
        low = self.components[0].offset
        G = gcd(*(d for c in self.components for d in c.steps),
                *(c.offset - low for c in self.components))
        return [v for v in range(low, bound + 1, G or 1) if self.contains(v)]

    def to_dict(self) -> dict:
        return {
            "components": [
                {"offset": c.offset, "diffs": [{"d": d, "l": "inf"} for d in c.steps]}
                for c in self.components
            ]
        }


def _proper_components(offset: int, families, B: GeneratorSet) -> list[MapComponent]:
    """One component offset + <d(b) - n(b) : b in W> per witness family W."""
    steps = [b.denominator - b.numerator for b in B.bases]
    return [MapComponent(offset, tuple(steps[i] for i in fam)) for fam in families]


def _splittings(
    x: Rational, B: GeneratorSet, B_prop: GeneratorSet
) -> list[tuple[Fraction, set[int], Factorization]]:
    """(y, improper lengths of y, hub of x - y over B_prop) for every splitting.

    A splitting is x = y + y' with y a sum of improper atoms and y' in
    the monoid of B_prop = `proper_reduction(B)`; they come in
    increasing y.  Only the bases of B above 1 make improper atoms.

    A complete search on integers.  Every improper atom is at least 1,
    so a factorization of y <= x uses only powers b**e <= x, E being the
    largest such exponent.  Every such power has a denominator dividing
    D = prod d(b)**E, so every value is multiplied by D and the question
    stays exact on ints.  The slots are the powers b**e <= x, base by
    base with the highest exponent first; the unit atom 1 scales to D.

    The target class.  y' needs a denominator coprime to D on a
    canonical set, so Y = D * y must be congruent modulo D to r = D * x,
    its denominator inverted modulo D, and no y exists when that
    denominator shares a prime with D.

    The pass.  One walk over the power slots keeps every partial sum at
    most D * x together with the set of slot counts that reach it; two
    routes to one sum merge their counts.  Slot k tries every count that
    keeps the sum in range, with one prune: the later slots and the unit
    only ever add multiples of g, the gcd of their values (D among
    them), so a partial sum s not congruent to r modulo g can never end
    in the class of r, and dropping it loses no factorization.  It is
    the oracle's ``suffix_den`` check read on integers.  With h the gcd
    of g and the slot value v, h divides r - s by the previous slot's
    prune, and s + c * v = r (mod g) pins c to one residue class modulo
    g / h, which the pass steps through.  After the last power slot
    every surviving sum lies in the class of r and carries the counts
    of all its factorizations into powers alone.

    The sweep.  A factorization of Y either uses no unit or is one of
    Y - D plus a unit, so lengths(Y) = (lengths(Y - D) + 1) | counts(Y).
    Walking the class upward from its least surviving sum to D * x
    gives each candidate y with its improper lengths, and one
    `solve_hub` of x - y over B_prop keeps the splittings.  Without an
    improper generator there is no improper atom, and the one candidate
    is y = 0 with the length 0.  The pass shares nothing with
    `enumerate_factorizations`, against which the tests check it.
    """
    bases = [B.bases[i] for i in B.improper_part]
    x = Fraction(x)
    e_top = 0
    for b in bases:
        while b ** (e_top + 1) <= x:
            e_top += 1
    scale = 1
    for b in bases:
        scale *= b.denominator**e_top
    target = x * scale
    if gcd(target.denominator, scale) != 1:
        return []
    top = target.numerator // target.denominator
    r = target.numerator * pow(target.denominator, -1, scale) % scale
    values = [
        b.numerator**e * (scale // b.denominator**e)
        for b in bases
        for e in range(e_top, 0, -1)
    ]
    values = [v for v in values if v <= top]
    # gcds[k]: the gcd of slot k, every later slot and the unit.
    gcds = [scale]
    for v in reversed(values):
        gcds.append(gcd(v, gcds[-1]))
    gcds.reverse()
    level = {0: {0}} if r % gcds[0] == 0 else {}
    for v, h, g in zip(values, gcds, gcds[1:]):
        step = g // h
        inv = pow(v // h, -1, step)
        grown: dict[int, set[int]] = {}
        for s, counts in level.items():
            c = (r - s) // h * inv % step
            while s + c * v <= top:
                grown.setdefault(s + c * v, set()).update(n + c for n in counts)
                c += step
        level = grown
    if not level:
        return []
    split = []
    lens: set[int] = set()
    for Y in range(min(level), top + 1, scale) if bases else (0,):
        lens = {n + 1 for n in lens} | level.get(Y, set())
        y = Fraction(Y, scale)
        hub = solve_hub(x - y, B_prop)
        if hub is not None:
            split.append((y, lens, hub))
    return split


class ImproperDivisorReport(NamedTuple):
    """Splittings x = y + y' across the improper/proper divide.

    y runs over the submonoid spanned by the improper generators plus
    units, y' over the proper-side monoid.  Both sides may absorb units;
    the union over all pairs is unaffected by that overlap.
    """

    pairs: tuple[tuple[Rational, Rational], ...]


def improper_divisor_pairs(x: Rational, B: GeneratorSet) -> ImproperDivisorReport:
    """Enumerate all (y, y') with y + y' = x splitting improper from proper.

    The pairs are those of `_splittings`.  They are fixed by the hub z
    of x: with y0 the value of z's improper terms and c0 its unit count,
    they are (y0 + j, x - y0 - j) for 0 <= j <= c0, only j = c0 without
    a proper generator, only j = 0 without an improper one, and none for
    a non-member.  The hubs of y and x - y use disjoint generators, so
    their sum, units added, is a factorization of x with every
    coefficient below d(b): it is z.  So y - y0 is y's unit count j, and
    c0 - j that of x - y.
    """
    if not B.is_canonical:
        raise NotCanonical("the splitting needs a canonical set")
    if x < 0:
        raise NotMember(f"{x} is negative")
    return ImproperDivisorReport(
        tuple((y, x - y) for y, _, _ in _splittings(x, B, proper_reduction(B)))
    )


def length_set(x: Rational, B: GeneratorSet) -> MapUnion:
    """Exact L(x) for any canonical generator set.

    Every factorization of x splits into its improper atoms, of value y,
    and the rest, a factorization of y' = x - y over the proper side.
    So L(x) is the union over the splittings of the improper lengths of
    y plus L(y') over the proper side, which is one component
    |hub(y')| + <d(b) - n(b) : b in W> per witness family W of the hub
    of y' (see `witness_families` for why).  A set with no improper
    generator has the one splitting y = 0; one with no proper generator
    has the one splitting y = x.  The improper side bounds itself by x,
    so the set is exact, and x is a member exactly when it has a
    splitting.

    With an improper generator the pass can walk far before it finds
    that a non-member has no splitting, so one hub solve over B turns
    the non-member away first.  Without one the split is that hub solve.
    """
    if not B.is_canonical:
        raise NotCanonical("structural length sets need a canonical set")
    if B.has_unit_fraction:
        raise NotAtomic("a unit fraction's powers are not atoms")
    if x == 0:
        raise NotMember("length sets are taken over nonzero elements")
    if B.improper_part and solve_hub(x, B) is None:
        raise NotMember(f"{x} is not in the monoid")
    B_prop = proper_reduction(B)
    split = _splittings(x, B, B_prop)
    if not split:
        raise NotMember(f"{x} is not in the monoid")
    comps = []
    for _, lens, hub_yp in split:
        families = witness_families(hub_yp, B_prop)
        for n in lens:
            comps.extend(_proper_components(hub_yp.length + n, families, B_prop))
    return MapUnion(comps)


def delta_truncation_bound(mu: MapUnion) -> int:
    """Scan horizon T + 2P: the gaps of mu on [0, T + 2P] are all its gaps.

    The settling point T.  Take an infinite component o + <s> and let
    g = gcd(s).  The steps s/g generate a numerical semigroup whose
    Frobenius number is at most (a - 1)(b - 1) - 1, a and b its least
    and largest generators (Schur's bound, proved by Brauer, Amer. J.
    Math. 1942; Rosales & Garcia-Sanchez, *Numerical Semigroups*, 2009,
    ch. 1).  So o + g*n lies in the component for every n >= (a - 1)(b - 1),
    and from o + g(a - 1)(b - 1) on the component is exactly the residue
    class o mod g.  A finite component is the single point o.  T is the
    largest of these points, so every integer above T that lies in mu
    lies in one of the classes, and every member of a class above T
    lies in mu.

    The period P.  Above T, mu is the union of the classes (g, o mod g)
    of its infinite components.  A class (g, r) lies inside (h, q) when
    h divides g and r = q (mod h), so dropping every class that another
    one contains leaves the same union; P is the lcm of the moduli of
    the classes that remain.

    Why T + 2P is enough.  If mu is finite, every member is at most T.
    Otherwise, above T mu is periodic with period P, and every P
    consecutive integers above T hold a member, since every class
    modulus divides P.  A gap a < b between consecutive members with
    a <= T then has b <= T + P.  A gap with a > T moves down by a
    multiple of P to one with T < a <= T + P, and then b <= a + P <= T + 2P.
    Either way the gap shows up with both ends in [0, T + 2P].
    """
    if mu.is_empty():
        return 0
    settle = 0
    classes = set()
    for c in mu.components:
        if not c.steps:
            settle = max(settle, c.offset)
            continue
        g = gcd(*c.steps)
        a, b = min(c.steps) // g, max(c.steps) // g
        settle = max(settle, c.offset + g * (a - 1) * (b - 1))
        classes.add((g, c.offset % g))
    period = lcm(*(
        g for g, r in classes
        if not any((h, q) != (g, r) and g % h == 0 and (r - q) % h == 0 for h, q in classes)
    ))
    return settle + 2 * period


def delta_of_length_set(mu: MapUnion) -> set[int]:
    """Set of gaps between consecutive members; exact even when infinite."""
    members = mu.truncate(delta_truncation_bound(mu))
    return {b - a for a, b in zip(members, members[1:])}


def delta_of_element(x: Rational, B: GeneratorSet) -> set[int]:
    return delta_of_length_set(length_set(x, B))


def delta_of_monoid(B: GeneratorSet) -> dict[int, Rational]:
    """Exact Δ(M) of a canonical set of proper fractions, with witnesses.

    Maps each distance, ascending, to an element whose length set has
    that gap.  Δ(M) is the union of Δ(L(x)) over the nonzero x in M
    (Geroldinger & Halter-Koch, *Non-Unique Factorizations*, 2006).

    By `length_set`, L(x) = |hub| + the union over the witness families
    W of <d(b) - n(b) : b in W>, and a shift moves no gap, so Δ(L(x))
    depends on the families alone.  By `witness_families` they are the
    unions V | U, and from c0 = sum n(b) on every subset U qualifies, so
    they depend on V and min(c0, sum n(b)) and on nothing else.  Every
    such pair occurs: z = c0 + sum over V of n(b) * b**1 is a hub (each
    coefficient n(b) stays below d(b)) with exactly that V and c0.
    These shapes, bar the zero one, therefore meet every family that any
    element has, and the union of their delta sets is Δ(M).  Each shape
    is the witness of the distances it contributes first.
    """
    if not B.is_canonical:
        raise NotCanonical("the shape reduction needs a canonical set")
    if B.improper_part:
        raise ImproperBase("the shape reduction covers proper fractions only")
    if B.has_unit_fraction:
        raise NotAtomic("a unit fraction's powers are not atoms")
    nums = [b.numerator for b in B.bases]
    seen = set()
    witnesses: dict[int, Rational] = {}
    for size in range(len(nums) + 1):
        for V in combinations(range(len(nums)), size):
            for c0 in range(sum(nums) + 1):
                z = Factorization.from_terms(c0, {(i, 1): nums[i] for i in V})
                families = witness_families(z, B)
                if z.length == 0 or families in seen:
                    continue
                seen.add(families)
                components = _proper_components(z.length, families, B)
                for gap in delta_of_length_set(MapUnion(components)):
                    witnesses.setdefault(gap, evaluate(z, B))
    return dict(sorted(witnesses.items()))


def is_single_difference(B: GeneratorSet) -> int | None:
    """The common value of |n(b) - d(b)| across all bases, else None.

    When it exists, every set of lengths over B is an arithmetic
    progression with that difference, so every nonempty delta set is
    exactly {d}.  Empty sets have no common value.
    """
    gaps = {abs(b.numerator - b.denominator) for b in B.bases}
    if len(gaps) == 1:
        return next(iter(gaps))
    return None


def delta_sample(B: GeneratorSet, sample: list[Rational]) -> dict[Rational, set[int]]:
    """The delta set of each nonzero member of the sample, in sample order.

    Non-members and 0 are skipped, so the union of the values is a lower
    bound for the distance set of the whole monoid.  That union is exact
    when is_single_difference(B) yields some d and a sampled element
    already realizes {d}.
    """
    if B.has_unit_fraction:
        raise NotAtomic("a unit fraction's powers are not atoms")
    deltas: dict[Rational, set[int]] = {}
    for x in sample:
        try:
            deltas[x] = delta_of_element(x, B)
        except NotMember:
            continue
    return deltas


class UnionReport(NamedTuple):
    """Union of sets of lengths over all elements with a length-k factorization."""

    k: int
    bound: int
    members: tuple[int, ...]
    elasticity: int | None
    element_count: int


def union_of_lengths(
    k: int, B: GeneratorSet, e_max: int = 4, bound: int = 64
) -> UnionReport:
    """U_k: every length coexisting with length k, truncated at ``bound``.

    Elements with a k-atom factorization are generated as k-multisets of
    atoms with exponent <= e_max, deduplicated by value; the set of
    lengths of each is exact.  The elasticity rho_k = sup U_k depends on
    B alone: with theta = min({n(b) : b < 1} | {d(b) : b > 1}) it is k
    when k < theta and None (infinite) otherwise (Geroldinger &
    Halter-Koch, *Non-Unique Factorizations*, 2006; Chapman, Gotti &
    Gotti, Comm. Algebra 2020, for one generator).

    * k < theta.  A k-atom factorization has every coefficient at most
      k < d(b), so it is the hub, from which every factorization is
      reached by upward firings (`hub_normalize` rewrites the other way).
      None can start: a proper b needs n(b) > k copies of one power, the
      units counting at exponent 0, and an improper b n(b) > d(b) > k.
      So every pooled L(x) is {k}, and the members are complete.
    * k >= theta = n(b), b proper: x = k has k + <d(b) - n(b)> in L(x).
    * k >= theta = d(b), b improper: x = k * b**e has k in L(x) and,
      rewriting down from b**e to b, |hub(x)| >= k + e * (n(b) - d(b))
      for every e.
    """
    if k <= 0:
        raise ZeroLength("unions of sets of lengths start at k = 1")
    if not B.bases:
        raise NotMember("the trivial monoid has no nonzero element to take lengths of")
    atoms = canonical_atoms(B, e_max)
    values = {sum((a.value for a in combo), Fraction(0))
              for combo in combinations_with_replacement(atoms, k)}
    members = tuple(sorted({v for x in values for v in length_set(x, B).truncate(bound)}))
    theta = min(b.numerator if b < 1 else b.denominator for b in B.bases)
    return UnionReport(k, bound, members, k if k < theta else None, len(values))


class AapDecomposition(NamedTuple):
    """Witness that a finite set is an almost arithmetic progression.

    The set equals y + (s_prime | s_star | s_dprime) where s_prime sits
    inside [-N, -1], s_star = {0, d, ..., l*d} is a full progression,
    and s_dprime sits inside (l*d, l*d + N].  Every member is congruent
    to y modulo d.
    """

    y: int
    d: int
    N: int
    s_prime: tuple[int, ...]
    s_star: tuple[int, ...]
    s_dprime: tuple[int, ...]

    def reconstruct(self) -> list[int]:
        return sorted(
            self.y + v for v in (*self.s_prime, *self.s_star, *self.s_dprime)
        )


def aap_check(values, d: int, N: int) -> AapDecomposition | None:
    """First witness (smallest anchor y) that values form an AAP, or None."""
    if d < 1:
        raise ValueError("the difference d must be positive")
    if N < 0:
        raise ValueError("the fuzz bound N must be nonnegative")
    vs = sorted(set(values))
    if not vs:
        return None
    if len({v % d for v in vs}) > 1:
        # An AAP lives inside a single residue class y + d*Z.
        return None
    for y in vs:
        rel = [v - y for v in vs]
        s_prime = tuple(r for r in rel if r < 0)
        if s_prime and s_prime[0] < -N:
            continue
        s_star = []
        t = 0
        present = set(rel)
        while t in present:
            s_star.append(t)
            t += d
        top = s_star[-1]
        s_dprime = tuple(r for r in rel if r > top)
        if any(r > top + N for r in s_dprime):
            continue
        return AapDecomposition(y, d, N, s_prime, tuple(s_star), s_dprime)
    return None
