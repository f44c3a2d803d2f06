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
A mixed set splits every factorization across the proper/improper
divide, x = y + y', so L(x) becomes a finite union of the improper
lengths of y plus shifted proper-side length sets of y'; one pass over
the improper powers yields the candidate values y, and each gets one
hub solve on the proper side.

Derived invariants (delta sets, unions of sets of lengths, almost
arithmetic progressions) are computed from these descriptions with
explicit truncation bounds wherever the set itself is infinite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from typing import NamedTuple

from .exceptions import (
    ImproperBase,
    NotCanonical,
    NotMember,
    ZeroLength,
)
from .factorizer import (
    Factorization,
    SearchCaps,
    evaluate,
    solve_hub,
    witness_families,
)
from .monoid import (
    GeneratorSet,
    canonical_atoms,
    improper_reduction,
    proper_reduction,
)
from .qcore import Rational, format_rational


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
        """Membership by direct subset-sum over the steps."""
        reach = {self.offset}
        for d in self.steps:
            reach = {t + k * d for t in reach if t <= v for k in range((v - t) // d + 1)}
        return v in reach

    def is_infinite(self) -> bool:
        return bool(self.steps)

    def shifted(self, delta: int) -> "MapComponent":
        return MapComponent(self.offset + delta, self.steps)


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

    @classmethod
    def from_values(cls, values) -> "MapUnion":
        return cls(MapComponent(v) for v in values)

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
        """Sorted members in [0, bound]."""
        return [v for v in range(bound + 1) if self.contains(v)]

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


def _improper_value_caps(y: Rational, B_imp: GeneratorSet) -> SearchCaps:
    """Self-derived complete search bounds over improper generators.

    Every atom power exceeds 1, so a factorization of y has length at
    most floor(y), and a power b**e can only appear while b**e <= y.
    """
    e_self = 0
    for b in B_imp.bases:
        e = 0
        while b ** (e + 1) <= y:
            e += 1
        e_self = max(e_self, e)
    return SearchCaps(e_max=e_self, len_max=int(y))


class _ImproperSlots:
    """The improper atoms of value at most x, scaled to integers.

    ``caps`` are the bounds self-derived from x (`_improper_value_caps`).
    With E = caps.e_max, every power b**e with e <= E has a denominator
    dividing ``scale`` = prod d(b)**E, so all values here are multiplied
    by ``scale``.  The slots are the powers b**e <= x, base by base with
    the highest exponent first, then the unit atom 1, which exists only
    when there is an improper generator.

    Slot k carries g_k, the gcd of its value and of every later slot's
    value.  For a slot of value v, a count c leaves a remainder
    divisible by g_(k+1) exactly when c * v = rem (mod g_(k+1)), which
    pins c to one residue class modulo g_(k+1) / g_k; both searches step
    through that class only.  The memo of `lengths` lives as long as
    this object, that is one call of the public function that built it.
    """

    def __init__(self, x: Rational, B_imp: GeneratorSet):
        self.x = Fraction(x)
        self.caps = _improper_value_caps(x, B_imp)
        e_top = self.caps.e_max
        self.scale = 1
        for b in B_imp.bases:
            self.scale *= b.denominator**e_top
        top = self.x * self.scale
        self.top = top.numerator // top.denominator
        values = [
            b.numerator**e * (self.scale // b.denominator**e)
            for b in B_imp.bases
            for e in range(e_top, 0, -1)
        ]
        values = [v for v in values if v <= self.top]
        if B_imp.bases:
            values.append(self.scale)
        # (value, g_k, modulus of c, inverse of value / g_k); None marks the unit.
        self.slots: list[tuple[int, int, int | None, int]] = []
        g_next = 0
        for v in reversed(values):
            g = gcd(v, g_next)
            if g_next:
                step = g_next // g
                self.slots.append((v, g, step, pow(v // g, -1, step)))
            else:
                self.slots.append((v, g, None, 0))
            g_next = g
        self.slots.reverse()
        self._memo: dict[tuple[int, int], frozenset[int]] = {}

    def lengths(self, y: Rational) -> set[int]:
        """Lengths of the factorizations of y <= x (see `improper_lengths`)."""
        scaled = Fraction(y) * self.scale
        if scaled < 0 or scaled.denominator != 1:
            return set()
        rem = scaled.numerator
        if not self.slots:
            return {0} if rem == 0 else set()
        if rem % self.slots[0][1]:
            return set()
        return set(self._lengths_from(0, rem))

    def _lengths_from(self, k: int, rem: int) -> frozenset[int]:
        """Lengths of the sums of slots k, k+1, ... equal to rem, a multiple of g_k."""
        found = self._memo.get((k, rem))
        if found is None:
            v, g, step, inv = self.slots[k]
            if step is None:
                found = frozenset((rem // v,))
            else:
                out: set[int] = set()
                c = rem // g * inv % step
                while c * v <= rem:
                    out.update(n + c for n in self._lengths_from(k + 1, rem - c * v))
                    c += step
                found = frozenset(out)
            self._memo[(k, rem)] = found
        return found

    def splitting(self, B_prop: GeneratorSet) -> list[tuple[Fraction, Factorization]]:
        """(y, hub of x - y) for every splitting, in increasing y (see `improper_divisor_pairs`)."""
        scaled = self.x * self.scale
        if gcd(scaled.denominator, self.scale) != 1:
            return []
        if not self.slots:
            candidates = [0]
        else:
            r = scaled.numerator * pow(scaled.denominator, -1, self.scale) % self.scale
            level = {0} if r % self.slots[0][1] == 0 else set()
            for v, g, step, inv in self.slots[:-1]:
                level = {
                    t
                    for s in level
                    for t in range(s + (r - s) // g * inv % step * v, self.top + 1, step * v)
                }
            candidates = range(min(level), self.top + 1, self.scale) if level else []
        split = []
        for n in candidates:
            y = Fraction(n, self.scale)
            hub = solve_hub(self.x - y, B_prop)
            if hub is not None:
                split.append((y, hub))
        return split


def improper_lengths(y: Rational, B_imp: GeneratorSet) -> set[int]:
    """All factorization lengths of y over an all-improper set.

    A complete search on integers.  Every atom is at least 1, so a
    factorization of y uses only powers b**e <= y and has at most
    floor(y) atoms.  Every power b**e <= y has a denominator dividing
    D = prod d(b)**E (E the largest such e), so y and every atom are
    scaled by D and the question stays exact on ints.  The search fixes
    the count of one slot at a time, highest exponent first and the unit
    last, and tries every count that keeps the remainder nonnegative, so
    it meets every factorization of y.

    The one prune: the slots still to come only ever sum to multiples of
    g, the gcd of their values, so a remainder that g does not divide
    can never be completed, and dropping it loses no factorization.  It
    is the oracle's ``suffix_den`` check read on integers.  Results are
    memoised on (slot, remainder) within one call.  The route shares
    nothing with `enumerate_factorizations`, against which the tests
    check it.
    """
    if any(b <= 1 for b in B_imp.bases):
        raise ValueError("improper lengths need every base above 1")
    if y == 0:
        return {0}
    return _ImproperSlots(y, B_imp).lengths(y)


class ImproperDivisorReport(NamedTuple):
    """Splittings x = y + y' across the improper/proper divide.

    y runs over the submonoid spanned by the improper generators plus
    units, y' over the proper-side monoid.  Both sides may absorb units;
    the union over all pairs is unaffected by that overlap.  ``caps``
    records the bounds self-derived from x that the enumeration ran
    with; the enumeration is exhaustive, so the report is always
    complete.
    """

    x: Rational
    pairs: tuple[tuple[Rational, Rational], ...]
    caps: SearchCaps

    def to_dict(self) -> dict:
        return {
            "x": format_rational(self.x),
            "pairs": [
                {"improper": format_rational(y), "proper": format_rational(yp)}
                for y, yp in self.pairs
            ],
            "caps": {"e_max": self.caps.e_max, "len_max": self.caps.len_max},
            "complete": True,
        }


def _divisor_report(slots: _ImproperSlots, split) -> ImproperDivisorReport:
    pairs = tuple((y, slots.x - y) for y, _ in split)
    return ImproperDivisorReport(slots.x, pairs, slots.caps)


def improper_divisor_pairs(x: Rational, B: GeneratorSet) -> ImproperDivisorReport:
    """Enumerate all (y, y') with y + y' = x splitting improper from proper.

    y runs over the sums <= x of units and improper powers b**e <= x;
    y' must lie in the proper-side monoid, which one `solve_hub` per
    distinct y decides.

    The candidates come from one pass on integers, scaled by D as in
    `improper_lengths`, so y is Y / D.  The proper denominators are
    coprime to D (the set is canonical), so x - y can be a member only
    when Y is congruent modulo D to r = D * x, its denominator inverted
    modulo D; no other y is worth a hub solve.  The pass runs over the
    power slots and keeps the partial sums <= D * x, deduplicated by
    value, that agree with r modulo the gcd of the slots still to come,
    the unit D included: only those can still end in the class of r,
    the same lossless prune as in `improper_lengths`.  After the last
    power slot every surviving sum lies in that class, and units walk
    the class upward, so the candidates are its members from the least
    surviving sum up to D * x.
    """
    if not B.is_canonical:
        raise NotCanonical("the splitting needs a canonical set")
    if x < 0:
        raise NotMember(f"{x} is negative")
    if x == 0:
        return ImproperDivisorReport(x, ((Fraction(0), Fraction(0)),), SearchCaps(0, 0))
    slots = _ImproperSlots(x, improper_reduction(B))
    return _divisor_report(slots, slots.splitting(proper_reduction(B)))


def length_set(x: Rational, B: GeneratorSet) -> MapUnion:
    """Exact L(x) for any canonical generator set.

    Dispatches on the proper/improper makeup.  All-proper: one component
    |hub| + <d(b) - n(b) : b in W> per witness family W of the hub (see
    `witness_families` for why).  All-improper: the complete integer
    search of `improper_lengths`.  Mixed: the union of shifted
    proper-side sets over all splittings.  Every route is complete: the
    improper-side searches bound themselves by x.
    """
    return _length_set_parts(x, B)[1]


def _length_set_parts(
    x: Rational, B: GeneratorSet
) -> tuple[Factorization, MapUnion, ImproperDivisorReport | None]:
    """The hub of x, L(x) and, for a mixed set, the splitting behind it.

    A mixed L(x) is the union over the splittings x = y + y' of the
    improper lengths of y plus the proper-side components of y', which
    come from the hub of y' found while splitting.
    """
    if not B.is_canonical:
        raise NotCanonical("structural length sets need a canonical set")
    if x == 0:
        raise NotMember("length sets are taken over nonzero elements")
    hub = solve_hub(x, B)
    if hub is None:
        raise NotMember(f"{x} is not in the monoid")
    if not B.improper_part:
        return hub, MapUnion(_proper_components(hub.length, witness_families(hub, B), B)), None

    B_imp = improper_reduction(B)
    if not B.proper_part:
        return hub, MapUnion.from_values(improper_lengths(x, B_imp)), None

    B_prop = proper_reduction(B)
    slots = _ImproperSlots(x, B_imp)
    split = slots.splitting(B_prop)
    comps = []
    for y, hub_yp in split:
        prop = _proper_components(hub_yp.length, witness_families(hub_yp, B_prop), B_prop)
        comps.extend(c.shifted(n) for n in slots.lengths(y) for c in prop)
    return hub, MapUnion(comps), _divisor_report(slots, split)


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
    lengths of each is exact.  When some contributing set of lengths is
    unbounded the elasticity is reported as None (infinite) and that
    conclusion is exact.  Otherwise it is the longest length of any
    pooled element, the largest offset of its set, so ``bound`` clips
    the members but never the elasticity.  The member list is only as
    complete as the exponent cap, so it is never reported complete.
    """
    if k <= 0:
        raise ZeroLength("unions of sets of lengths start at k = 1")
    if not B.bases:
        raise ValueError("the trivial monoid has no sets of lengths")
    atoms = canonical_atoms(B, e_max)
    values = {sum((a.value for a in combo), Fraction(0))
              for combo in combinations_with_replacement(atoms, k)}
    union: set[int] = set()
    infinite = False
    longest = 0
    for x in sorted(values):
        mu = length_set(x, B)
        infinite = infinite or mu.is_infinite()
        longest = max(longest, max(c.offset for c in mu.components))
        union.update(mu.truncate(bound))
    members = tuple(sorted(union))
    elasticity = None if infinite else longest
    return UnionReport(
        k=k,
        bound=bound,
        members=members,
        elasticity=elasticity,
        element_count=len(values),
    )


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
        if any(r not in s_star for r in rel if 0 <= r <= top):
            continue
        if any(r > top + N for r in s_dprime):
            continue
        return AapDecomposition(y, d, N, s_prime, tuple(s_star), s_dprime)
    return None
