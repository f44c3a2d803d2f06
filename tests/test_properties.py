"""Property tests: the oracle, the hub solver, and the improper and mixed
routes against the oracle, plus laws that need no oracle.

Hypothesis draws small generator sets and elements.  The oracle
`enumerate_factorizations` is compared with a plain search over
fractions written here, and `solve_hub` with `hub_normalize`; the
oracle properties compare the structural code with the oracle (or a
plain search written here) at caps under which the search provably sees
every factorization it is compared on.  The last tests check laws of
every set of lengths, with no oracle, on elements too large for it, the
delta-scan horizon against a plain member sieve, the strided scan of
`MapUnion.truncate` against the plain filter, the two-step
membership test of `MapComponent.contains` against a plain subset sum,
and the elasticity of `union_of_lengths` against its enumeration and
its witnesses.
The runs are derandomized, so each test sees the same examples on every
run.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import improper_reduction
from multifrac.factorizer import (
    Factorization,
    SearchCaps,
    enumerate_factorizations,
    evaluate,
    hub_normalize,
    solve_hub,
    witness_families,
)
from multifrac.lengths import (
    MapComponent,
    MapUnion,
    delta_of_element,
    delta_of_length_set,
    delta_of_monoid,
    delta_sample,
    delta_truncation_bound,
    improper_divisor_pairs,
    length_set,
    union_of_lengths,
)
from multifrac.monoid import build_generator_set, proper_reduction

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _exponent_bound(x, bases) -> int:
    """Largest e with b**e <= x for some base b > 1 (0 if none)."""
    top = 0
    for b in bases:
        e = 0
        while b ** (e + 1) <= x:
            e += 1
        top = max(top, e)
    return top


@st.composite
def improper_sets(draw):
    """One or two distinct bases above 1; denominators need not be coprime."""
    bases = set()
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.integers(2, 5))
        n = draw(st.integers(d + 1, 2 * d + 1))
        if gcd(n, d) == 1:
            bases.add(Fraction(n, d))
    return build_generator_set(bases or {Fraction(3, 2)})


@st.composite
def mixed_sets(draw):
    """A canonical set with one base below 1 and one or two above it."""
    d_prop = draw(st.sampled_from([3, 5, 7]))
    rest = draw(st.permutations([d for d in (2, 3, 5, 7) if d != d_prop]))
    dens = [d_prop] + rest[: draw(st.integers(1, 2))]
    bases = []
    for k, d in enumerate(dens):
        lo, hi = (2, d - 1) if k == 0 else (d + 1, 2 * d + 1)
        n = draw(st.integers(lo, hi).filter(lambda n, d=d: gcd(n, d) == 1))
        bases.append(Fraction(n, d))
    return build_generator_set(bases)


@st.composite
def elements(draw, B, c_top: int, e_top: int, cap: int):
    """A nonzero sum of a few generator powers plus units, at most ``cap``."""
    x = Fraction(draw(st.integers(0, c_top)))
    for b in B.bases:
        for e in range(1, e_top + 1):
            x += draw(st.integers(0, c_top)) * b**e
    assume(0 < x <= cap)
    return x


@st.composite
def short_elements(draw, B, atoms: int, e_top: int, cap: int):
    """A sum of at most ``atoms`` generator powers, at most ``cap``."""
    powers = [Fraction(1)] + [b**e for b in B.bases for e in range(1, e_top + 1)]
    x = sum(draw(st.lists(st.sampled_from(powers), min_size=1, max_size=atoms)))
    assume(x <= cap)
    return x


def reference_factorizations(x, B, caps):
    """Every factorization of x under the caps, by a plain search over fractions.

    Slots are visited base by base, highest exponent first.  A remainder
    is dropped once its denominator does not divide the lcm of the
    denominators of the slots still to come: no sum of those can reach it.
    """
    slots = [(i, e) for i in range(len(B.bases)) for e in range(caps.e_max, 0, -1)]
    reach = [lcm(*(B.bases[i].denominator ** e for i, e in slots[k:])) for k in range(len(slots) + 1)]
    found = []

    def search(k, rest, budget, terms):
        if reach[k] % rest.denominator:
            return
        if k == len(slots):
            if rest <= budget and (B.bases or rest == 0):
                found.append(Factorization.from_terms(int(rest), terms))
            return
        i, e = slots[k]
        c = 0
        while c <= budget and c * B.bases[i] ** e <= rest:
            search(k + 1, rest - c * B.bases[i] ** e, budget - c, {**terms, (i, e): c})
            c += 1

    if x >= 0:
        search(0, Fraction(x), caps.len_max, {})
    return sorted(found, key=lambda z: (z.terms, z.c0))


@st.composite
def oracle_cases(draw):
    """A set of at most two bases (integers and shared denominators allowed,
    or no base at all), caps, and a sum of a few of its powers up to one
    exponent past the cap, sometimes shifted by a fraction whose
    denominator no base power divides."""
    fractions = st.builds(Fraction, st.sampled_from(range(1, 10)), st.sampled_from(range(1, 7)))
    size = draw(st.sampled_from([2, 1, 2, 1, 0]))
    bases = draw(st.sets(fractions, min_size=size, max_size=size))
    B = build_generator_set(bases)
    # Counted down from the top, so that most draws are not tiny searches.
    caps = SearchCaps(5 - draw(st.integers(0, 5)), 16 - draw(st.integers(0, 16)))
    powers = [Fraction(1)] + [b**e for b in B.bases for e in range(1, caps.e_max + 2)]
    x = sum(draw(st.lists(st.sampled_from(powers), max_size=min(8, caps.len_max))), Fraction(0))
    x += draw(st.sampled_from([0, 0, Fraction(1, 7), Fraction(2, 11), Fraction(1, 3)]))
    return B, x, caps


@settings(PROPERTY, max_examples=150)
@given(oracle_cases())
def test_oracle_equals_a_plain_fraction_search(case):
    B, x, caps = case
    assert enumerate_factorizations(x, B, caps) == reference_factorizations(x, B, caps)


# Product of two 12-digit primes: far beyond trial division.
BIG_DEN = (10**12 + 39) * (10**12 + 61)
HUB_DENS = (4, 8, 9, 25, 27, 7, BIG_DEN)


@st.composite
def hub_cases(draw):
    """A canonical set of one to three bases, with denominators drawn
    from prime powers and a product of two large primes, and a random
    factorization over it whose coefficients may exceed the denominators."""
    dens = []
    for d in draw(st.permutations(HUB_DENS))[: draw(st.integers(1, 3))]:
        if all(gcd(d, other) == 1 for other in dens):
            dens.append(d)
    bases = []
    for d in dens:
        n = draw(st.integers(2, 3 * min(d, 30)).filter(lambda n, d=d: gcd(n, d) == 1))
        bases.append(Fraction(n, d))
    B = build_generator_set(bases)
    terms = {
        (i, e): draw(st.integers(0, 60))
        for i in range(len(B.bases))
        for e in range(1, 5)
        if draw(st.booleans())
    }
    return B, Factorization.from_terms(draw(st.integers(0, 5)), terms)


@settings(PROPERTY, max_examples=150)
@given(st.data(), hub_cases())
def test_solve_hub_equals_hub_normalize(data, case):
    """The gcd split and congruence peeling of `solve_hub` find the hub
    that the downward rewrite sweep reaches; adding 1/(d(b)*p) for a
    prime p that divides no denominator gives a non-member."""
    B, z = case
    x = evaluate(z, B)
    assert solve_hub(x, B) == hub_normalize(z, B)[0]
    foreign = [p for p in (2, 3, 5, 7, 11, 10**12 + 39) if all(b.denominator % p for b in B.bases)]
    p = data.draw(st.sampled_from(foreign))
    d = data.draw(st.sampled_from([b.denominator for b in B.bases]))
    assert solve_hub(x + Fraction(1, d * p), B) is None


def _largest_prime_exponent(n: int) -> int:
    top, p = 0, 2
    while n > 1:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        top = max(top, k)
        p += 1
    return top


@settings(PROPERTY, max_examples=100)
@given(st.data(), improper_sets().filter(lambda B: B.is_canonical))
def test_improper_lengths_equal_the_oracle(data, B):
    """Every atom is at least 1, so no length of y exceeds y."""
    y = data.draw(elements(B, c_top=2, e_top=2, cap=24))
    oracle_caps = SearchCaps(_exponent_bound(y, B.bases), int(y))
    found = {z.length for z in enumerate_factorizations(y, B, oracle_caps)}
    assert set(length_set(y, B).truncate(int(y))) == found


@PROPERTY
@given(st.data(), mixed_sets())
def test_splitting_equals_brute_force(data, B):
    x = data.draw(elements(B, c_top=2, e_top=2, cap=9))
    B_imp, B_prop = improper_reduction(B), proper_reduction(B)
    e_cap = _exponent_bound(x, B_imp.bases)
    # Every sum <= x of improper powers with exponent <= e_cap and units.
    sums = {Fraction(0)}
    for a in [Fraction(1)] + [b**e for b in B_imp.bases for e in range(1, e_cap + 1)]:
        sums = {s + c * a for s in sums for c in range(int((x - s) / a) + 1)}
    brute = [
        (y, x - y)
        for y in sorted(sums)
        if solve_hub(x - y, B_prop) is not None
        and enumerate_factorizations(y, B_imp, SearchCaps(e_cap, int(y)))
    ]
    assert list(improper_divisor_pairs(x, B).pairs) == brute


@settings(PROPERTY, max_examples=80)
@given(st.data(), mixed_sets(), st.integers(6, 10))
def test_mixed_length_set_equals_the_oracle_on_its_complete_window(data, B, e):
    """Split a factorization z of x into its improper powers (value y)
    and the rest, a factorization z' of x - y over the proper side.
    Improper exponents are at most the bound from x.  Over the proper
    side each upward exchange from the hub h of x - y adds at least 1 to
    the length and at most 1 to the top exponent, so
    top(z') <= |z| + top(h) - |h|.  The denominator of x - y is the
    proper part P of den(x), and a hub term at exponent t needs some
    prime to divide P at least t times, so top(h) <= a, the largest
    prime exponent in P, and |h| >= 1 once top(h) >= 1.  The oracle at
    exponent cap e therefore sees every length up to e - max(0, a - 1).
    """
    x = data.draw(short_elements(B, atoms=6, e_top=4, cap=30))
    B_imp = improper_reduction(B)
    P = x.denominator
    for b in B_imp.bases:
        P //= gcd(P, b.denominator**64)
    a = _largest_prime_exponent(P)
    window = e - max(0, a - 1)
    e_oracle = max(e, _exponent_bound(x, B_imp.bases))
    found = {z.length for z in enumerate_factorizations(x, B, SearchCaps(e_oracle, window))}
    assert length_set(x, B).truncate(window) == sorted(found)


# --------------------------------------------------------------------------
# Laws that need no oracle.  A drawn factorization z of x is a sum of
# |z| atoms, so |z| lies in L(x); two such sums add up to one of x + y.


@st.composite
def proper_sets(draw):
    """A canonical set of one to three bases below 1 with small denominators."""
    dens = []
    for d in draw(st.permutations([3, 4, 5, 7, 11]))[: draw(st.integers(1, 3))]:
        if all(gcd(d, other) == 1 for other in dens):
            dens.append(d)
    bases = []
    for d in dens:
        bases.append(Fraction(draw(st.integers(2, d - 1).filter(lambda n, d=d: gcd(n, d) == 1)), d))
    return build_generator_set(bases)


@st.composite
def factorizations(draw, B, proper_top: int, improper_top: int, cap: int):
    """A factorization at exponents 1 and 2 of a nonzero value at most ``cap``.

    Coefficients of the bases above 1 go up to ``improper_top``, so a
    large value makes the improper part of x large.
    """
    terms = {
        (i, e): draw(st.integers(0, improper_top if b > 1 else proper_top))
        for i, b in enumerate(B.bases)
        for e in (1, 2)
    }
    z = Factorization.from_terms(draw(st.integers(0, 3)), terms)
    assume(0 < evaluate(z, B) <= cap)
    return z


def _assert_sumset_law(B, z, w, window: int = 8):
    """L(x) + L(y) lies in L(x + y), on the first ``window`` lengths past each minimum."""
    x, y = evaluate(z, B), evaluate(w, B)
    Lx, Ly, Lxy = length_set(x, B), length_set(y, B), length_set(x + y, B)
    assert Lx.contains(z.length) and Ly.contains(w.length)
    low_x = Lx.truncate(Lx.min_value() + window)
    low_y = Ly.truncate(Ly.min_value() + window)
    sums = {a + b for a in low_x for b in low_y} | {z.length + w.length}
    missing = sums - set(Lxy.truncate(max(sums)))
    assert not missing, (x, y, sorted(missing))


@settings(PROPERTY, max_examples=30)
@given(st.data(), proper_sets())
def test_sumset_law_on_proper_sets(data, B):
    z = data.draw(factorizations(B, proper_top=12, improper_top=0, cap=40))
    w = data.draw(factorizations(B, proper_top=12, improper_top=0, cap=40))
    _assert_sumset_law(B, z, w)


@settings(PROPERTY, max_examples=30)
@given(st.data(), improper_sets().filter(lambda B: B.is_canonical))
def test_sumset_law_on_improper_sets(data, B):
    z = data.draw(factorizations(B, proper_top=0, improper_top=4, cap=40))
    w = data.draw(factorizations(B, proper_top=0, improper_top=4, cap=40))
    _assert_sumset_law(B, z, w)


@settings(PROPERTY, max_examples=30)
@given(st.data(), mixed_sets())
def test_sumset_law_on_mixed_sets(data, B):
    z = data.draw(factorizations(B, proper_top=2, improper_top=4, cap=16))
    w = data.draw(factorizations(B, proper_top=2, improper_top=4, cap=16))
    _assert_sumset_law(B, z, w)


@settings(PROPERTY, max_examples=60)
@given(st.data(), proper_sets())
def test_min_length_is_the_hub_length_on_proper_sets(data, B):
    """Below 1 every downward exchange shortens, so the hub, reached
    from z by `hub_normalize`, is the shortest factorization of x."""
    z = data.draw(factorizations(B, proper_top=20, improper_top=0, cap=60))
    mu = length_set(evaluate(z, B), B)
    assert min(mu.truncate(z.length)) == hub_normalize(z, B)[0].length


@settings(PROPERTY, max_examples=60)
@given(st.data(), proper_sets())
def test_nonempty_witness_family_means_an_infinite_length_set(data, B):
    """The test `factorize` runs for `complete` agrees with L(x)."""
    x = evaluate(data.draw(factorizations(B, proper_top=20, improper_top=0, cap=60)), B)
    infinite = witness_families(solve_hub(x, B), B) != ((),)
    assert length_set(x, B).is_infinite() == infinite


@st.composite
def two_generator_proper_sets(draw):
    """Two bases below 1 with coprime denominators and steps d(b) - n(b) <= 12."""
    bases = []
    for _ in range(2):
        n = draw(st.integers(2, 9))
        step = draw(st.integers(1, 12).filter(lambda s, n=n: gcd(n, s) == 1))
        bases.append(Fraction(n, n + step))
    assume(gcd(bases[0].denominator, bases[1].denominator) == 1)
    return build_generator_set(bases)


@settings(PROPERTY, max_examples=30)
@given(st.data(), two_generator_proper_sets())
def test_delta_of_monoid_holds_every_sampled_delta(data, B):
    """Δ(M) bounds the delta set of every element, and each of its
    witnesses has the gap it stands for."""
    exact = delta_of_monoid(B)
    for v, x in exact.items():
        assert v in delta_of_element(x, B)
    sample = [
        evaluate(data.draw(factorizations(B, proper_top=12, improper_top=0, cap=40)), B)
        for _ in range(4)
    ]
    for x, deltas in delta_sample(B, sample).items():
        assert deltas <= exact.keys(), (x, sorted(deltas), sorted(exact))


@settings(PROPERTY, max_examples=40)
@given(st.data(), mixed_sets())
def test_submonoid_lengths_lie_in_the_full_length_set(data, B):
    """A factorization over the proper or the improper side of B is one
    over B, so L_B'(x) lies inside L_B(x) for either side B'."""
    for side, proper_top, improper_top in (
        (proper_reduction(B), 12, 0),
        (improper_reduction(B), 0, 4),
    ):
        z = data.draw(factorizations(side, proper_top, improper_top, cap=16))
        x = evaluate(z, side)
        L_side, L_full = length_set(x, side), length_set(x, B)
        assert L_side.contains(z.length)
        low = L_side.truncate(L_side.min_value() + 8)
        assert [v for v in low if not L_full.contains(v)] == [], (x, low)


# --------------------------------------------------------------------------
# The delta-scan horizon against a member sieve that knows nothing of it.


@st.composite
def map_unions(draw):
    """One to three components, offsets at most 30, up to four steps at most 12.

    The steps of a component are multiples of a drawn g, so that the
    gcds, and with them the period, are often above 1.  A component
    with no steps is the single point at its offset.
    """
    components = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.integers(1, 6))
        steps = draw(st.lists(st.integers(1, 12 // g), max_size=4))
        components.append(MapComponent(draw(st.integers(0, 30)), tuple(g * m for m in steps)))
    return MapUnion(components)


@st.composite
def one_class_unions(draw):
    """Two or three components in one class r mod G, for a drawn G > 1.

    Offsets at most 30 are r plus multiples of G, and up to three steps
    at most 12 are multiples of G, so the union lies in r + G*Z.
    """
    G = draw(st.integers(2, 6))
    r = draw(st.integers(0, G - 1))
    components = []
    for _ in range(draw(st.integers(2, 3))):
        steps = draw(st.lists(st.integers(1, 12 // G), max_size=3))
        offset = r + G * draw(st.integers(0, (30 - r) // G))
        components.append(MapComponent(offset, tuple(G * m for m in steps)))
    return MapUnion(components)


@settings(PROPERTY, max_examples=100)
@example(MapUnion(), 40)
@example(MapUnion([MapComponent(7)]), 40)
@example(MapUnion([MapComponent(9, (4, 6))]), 5)
@example(MapUnion([MapComponent(13, (24,)), MapComponent(23, (6,))]), 71)
@example(MapUnion([MapComponent(3, (6, 9)), MapComponent(9, (12,))]), 60)
@given(st.one_of(map_unions(), one_class_unions()), st.integers(0, 80))
def test_strided_scan_equals_the_plain_filter(mu, bound):
    """`truncate` tests one residue class only and finds every member the
    plain filter over [0, bound] finds."""
    assert mu.truncate(bound) == [v for v in range(bound + 1) if mu.contains(v)]


def _sieved_members(mu, top: int) -> list[int]:
    """Members of mu in [0, top], each component closed under its steps by a sieve."""
    seen = bytearray(top + 1)
    for c in mu.components:
        reach = bytearray(top + 1)
        reach[c.offset] = 1
        for v in range(c.offset, top + 1):
            if reach[v]:
                seen[v] = 1
                for d in c.steps:
                    if v + d <= top:
                        reach[v + d] = 1
    return [v for v in range(top + 1) if seen[v]]


@settings(PROPERTY, max_examples=60)
@given(map_unions())
def test_delta_horizon_sees_every_gap_of_a_wider_sieve(mu):
    """The gaps up to T + 2P are the gaps up to twice that plus two lcms
    of every step, where every settling bound and period has long passed."""
    steps = [d for c in mu.components for d in c.steps]
    top = 2 * delta_truncation_bound(mu) + 2 * lcm(*steps)
    members = _sieved_members(mu, top)
    assert delta_of_length_set(mu) == {b - a for a, b in zip(members, members[1:])}


# Component membership against the subset sum it replaced.


def _subset_sum_contains(c: MapComponent, v: int) -> bool:
    """Membership by direct subset sum over every step of c."""
    reach = {c.offset}
    for d in c.steps:
        reach = {t + k * d for t in reach if t <= v for k in range((v - t) // d + 1)}
    return v in reach


@st.composite
def map_components(draw):
    """Offset at most 10, up to four steps in [1, 15].

    Each step is either any value or a multiple of one drawn g, so steps
    repeat and share gcds above 1 often.
    """
    g = draw(st.integers(1, 5))
    step = st.one_of(st.integers(1, 15), st.integers(1, 15 // g).map(lambda m: g * m))
    return MapComponent(draw(st.integers(0, 10)), tuple(draw(st.lists(step, max_size=4))))


@settings(PROPERTY, max_examples=200)
@given(map_components())
def test_component_membership_equals_the_subset_sum(c):
    """The Apery test on the two least steps answers as the subset sum
    over all of them, on every v in [0, 150]."""
    assert [v for v in range(151) if c.contains(v)] == [
        v for v in range(151) if _subset_sum_contains(c, v)
    ]


@settings(PROPERTY, max_examples=60)
@given(map_unions())
def test_delta_scan_equals_a_subset_sum_scan(mu):
    """`truncate` and the delta set up to T + 2P read the same members as
    the subset sum."""
    top = delta_truncation_bound(mu)
    members = [v for v in range(top + 1) if any(_subset_sum_contains(c, v) for c in mu.components)]
    assert mu.truncate(top) == members
    assert delta_of_length_set(mu) == {b - a for a, b in zip(members, members[1:])}


# --------------------------------------------------------------------------
# The elasticity rho_k, read off theta = min({n(b) : b < 1} | {d(b) : b > 1}).


@settings(PROPERTY, max_examples=60)
@given(
    st.data(),
    st.one_of(proper_sets(), improper_sets().filter(lambda B: B.is_canonical), mixed_sets()),
)
def test_elasticity_is_k_below_theta_and_infinite_from_it(data, B):
    """Below theta the enumeration finds only the length k at every cap;
    from theta on, x = k (b proper, n(b) = theta) has an infinite L(x),
    and x = k * b**e (b improper, d(b) = theta) a hub of length at least
    k + e * (n(b) - d(b)), so U_k is unbounded."""
    theta = min(b.numerator if b < 1 else b.denominator for b in B.bases)
    k = data.draw(st.integers(1, min(theta - 1, 2)))
    for e_max in (1, 2, 3):
        report = union_of_lengths(k, B, e_max, bound=k + 10)
        assert report.members == (k,)
        assert report.elasticity == k
    k = data.draw(st.integers(theta, theta + 1))
    assert union_of_lengths(k, B, 1).elasticity is None
    for b in B.bases:
        if b < 1 and b.numerator == theta:
            assert length_set(Fraction(k), B).is_infinite()
        if b > 1 and b.denominator == theta:
            e = data.draw(st.integers(1, 3))
            assert solve_hub(k * b**e, B).length >= k + e * (b.numerator - b.denominator)
