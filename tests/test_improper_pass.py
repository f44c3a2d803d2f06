"""The single improper pass against the route it replaced.

`lengths._splittings` finds the splittings x = y + y' and the
improper lengths of every y in one pass over the improper powers and a
sweep with the unit atom.  Before it, a memoised search gave the
improper lengths of one value at a time, a separate level pass gave the
candidate values, and `length_set` took one of three routes by the
proper/improper makeup of the set.  That older code is kept here, as
it was, so that the two stay independent routes to the same answers.

Two more references read everything off the one hub of x: the
splittings, which are the hub's improper part plus any share of its
units, and L(x) itself, as a union over the ways of spending the units
on kick-offs of the generators (`allocation_length_set`).  The runs are
derandomized, so each test sees the same examples on every run.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import improper_reduction
from multifrac.factorizer import solve_hub, witness_families
from multifrac.lengths import (
    MapComponent,
    MapUnion,
    improper_divisor_pairs,
    length_set,
)
from multifrac.monoid import build_generator_set, proper_reduction

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class OldSlots:
    """The improper powers b**e <= x scaled by D = prod d(b)**E, then the unit D.

    Slot k carries g_k, the gcd of its value and of every later slot's
    value; a count c of slot k keeps the remainder divisible by g_(k+1)
    exactly when it lies in one residue class modulo g_(k+1) / g_k.
    """

    def __init__(self, x, B_imp):
        self.x = Fraction(x)
        e_top = 0
        for b in B_imp.bases:
            e = 0
            while b ** (e + 1) <= x:
                e += 1
            e_top = max(e_top, e)
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
        self.slots = []
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
        self._memo = {}

    def lengths(self, y):
        scaled = Fraction(y) * self.scale
        if scaled < 0 or scaled.denominator != 1:
            return set()
        rem = scaled.numerator
        if not self.slots:
            return {0} if rem == 0 else set()
        if rem % self.slots[0][1]:
            return set()
        return set(self._lengths_from(0, rem))

    def _lengths_from(self, k, rem):
        found = self._memo.get((k, rem))
        if found is None:
            v, g, step, inv = self.slots[k]
            if step is None:
                found = frozenset((rem // v,))
            else:
                out = set()
                c = rem // g * inv % step
                while c * v <= rem:
                    out.update(n + c for n in self._lengths_from(k + 1, rem - c * v))
                    c += step
                found = frozenset(out)
            self._memo[(k, rem)] = found
        return found

    def splitting(self, B_prop):
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


def old_improper_lengths(y, B_imp):
    if y == 0:
        return {0}
    return OldSlots(y, B_imp).lengths(y)


def old_pairs(x, B):
    if x == 0:
        return ((Fraction(0), Fraction(0)),)
    slots = OldSlots(x, improper_reduction(B))
    return tuple((y, x - y) for y, _ in slots.splitting(proper_reduction(B)))


def _components(hub, B):
    steps = [b.denominator - b.numerator for b in B.bases]
    return [MapComponent(hub.length, tuple(steps[i] for i in fam)) for fam in witness_families(hub, B)]


def old_length_set(x, B):
    """L(x) by the old makeup routes: proper, all-improper or mixed."""
    if not B.improper_part:
        return MapUnion(_components(solve_hub(x, B), B))
    B_imp = improper_reduction(B)
    if not B.proper_part:
        return MapUnion(MapComponent(v) for v in old_improper_lengths(x, B_imp))
    B_prop = proper_reduction(B)
    slots = OldSlots(x, B_imp)
    comps = []
    for y, hub_yp in slots.splitting(B_prop):
        prop = _components(hub_yp, B_prop)
        comps.extend(MapComponent(c.offset + n, c.steps) for n in slots.lengths(y) for c in prop)
    return MapUnion(comps)


@st.composite
def canonical_sets(draw):
    """Zero to two bases below 1 and zero to two above it, at least one in all,
    with pairwise coprime denominators from 2, 3, 5 and 7 (no unit fraction)."""
    dens_prop = draw(st.permutations([3, 5, 7]))[: draw(st.integers(0, 2))]
    dens_imp = draw(st.permutations([d for d in (2, 3, 5, 7) if d not in dens_prop]))
    dens_imp = dens_imp[: draw(st.integers(0 if dens_prop else 1, 2))]
    bases = []
    for d in dens_prop:
        bases.append(Fraction(draw(st.integers(2, d - 1).filter(lambda n, d=d: gcd(n, d) == 1)), d))
    for d in dens_imp:
        bases.append(Fraction(draw(st.integers(d + 1, 2 * d + 1).filter(lambda n, d=d: gcd(n, d) == 1)), d))
    return build_generator_set(bases)


@st.composite
def heavy_elements(draw, B, cap: int = 60):
    """Up to 3 copies of each power b**e (e <= 3) of the bases below 1,
    then up to 15 of each unit and power of the bases above 1, in a
    drawn order, each count cut so that the sum stays at most ``cap``;
    most of the value is improper."""
    x = Fraction(0)
    for b in B.bases:
        if b < 1:
            x += sum(draw(st.integers(0, 3)) * b**e for e in (1, 2, 3))
    improper = [Fraction(1)] + [b**e for b in B.bases if b > 1 for e in (1, 2, 3)]
    for a in draw(st.permutations(improper)):
        x += min(draw(st.integers(0, 15)), int((cap - x) / a)) * a
    assume(0 < x <= cap)
    return x


@settings(PROPERTY, max_examples=100)
@given(st.data(), canonical_sets())
def test_length_set_and_splitting_equal_the_old_routes(data, B):
    x = data.draw(heavy_elements(B))
    assert length_set(x, B) == old_length_set(x, B)
    assert improper_divisor_pairs(x, B).pairs == old_pairs(x, B)
    # A value just off the monoid: no splitting on either route.
    off = x + Fraction(1, 11)
    assert improper_divisor_pairs(off, B).pairs == old_pairs(off, B) == ()


def hub_pairs(x, B):
    """The splittings read off the hub z of x: (y0 + j, x - y0 - j) for
    0 <= j <= c0, y0 the value of z's improper terms and c0 its units;
    only j = c0 without a proper generator, only j = 0 without an
    improper one, and none for a non-member."""
    z = solve_hub(x, B)
    if z is None:
        return ()
    y0 = sum((c * B.bases[i] ** e for i, e, c in z.terms if B.bases[i] > 1), Fraction(0))
    js = range(z.c0 + 1)
    if not B.proper_part:
        js = [z.c0]
    elif not B.improper_part:
        js = [0]
    return tuple((y0 + j, x - y0 - j) for j in js)


@settings(PROPERTY, max_examples=100)
@given(st.data(), canonical_sets().filter(lambda B: len(B.bases) <= 3))
def test_splittings_are_read_off_one_hub(data, B):
    x = data.draw(heavy_elements(B))
    if data.draw(st.integers(0, 99)) < 15:
        x += Fraction(1, 11)
    assert improper_divisor_pairs(x, B).pairs == hub_pairs(x, B)


def allocation_length_set(x, B):
    """L(x) as the union over the allocations of the hub's units.

    With z the hub of x and c0 its unit count, V holds the proper
    generators with some coefficient of z at least n(b).  Each proper
    subset U with sum of n(b) over U at most c0 funds the steps
    d(b) - n(b) over V | U.  The rest of the units fund k_b unit-level
    firings of each improper b (every k_b but the last free, the last as
    large as the rest allows); firing b as often as it can, level by
    level, F_b(k_b) times in all, bounds how often it fires, and every
    count t_b in [0, F_b(k_b)] takes (n(b) - d(b)) * t_b off |z|.
    """
    z = solve_hub(x, B)
    if z is None:
        return MapUnion()
    nums = [b.numerator for b in B.bases]
    dens = [b.denominator for b in B.bases]
    coeff = {(i, e): c for i, e, c in z.terms}
    v = {i for i, _, c in z.terms if i in B.proper_part and c >= nums[i]}

    def allocations(bases, budget):
        if not bases:
            yield ()
        elif len(bases) == 1:
            yield (budget // nums[bases[0]],)
        else:
            for k in range(budget // nums[bases[0]] + 1):
                for rest in allocations(bases[1:], budget - k * nums[bases[0]]):
                    yield (k, *rest)

    def cascade(i, k):
        carry = total = k
        e = 1
        while carry:
            carry = (coeff.get((i, e), 0) + carry * dens[i]) // nums[i]
            total += carry
            e += 1
        return total

    comps = []
    for size in range(len(B.proper_part) + 1):
        for u in combinations(B.proper_part, size):
            budget = z.c0 - sum(nums[i] for i in u)
            if budget < 0:
                continue
            steps = tuple(dens[i] - nums[i] for i in sorted(v.union(u)))
            for ks in allocations(B.improper_part, budget):
                boxes = [range(cascade(i, k) + 1) for i, k in zip(B.improper_part, ks)]
                for ts in product(*boxes):
                    drop = sum((nums[i] - dens[i]) * t for i, t in zip(B.improper_part, ts))
                    comps.append(MapComponent(z.length - drop, steps))
    return MapUnion(comps)


@settings(PROPERTY, max_examples=100)
@given(st.data(), canonical_sets())
def test_length_set_equals_the_allocation_route(data, B):
    x = data.draw(heavy_elements(B))
    assert length_set(x, B) == allocation_length_set(x, B)
