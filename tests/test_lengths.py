"""Sets of lengths: structural descriptions against the brute-force oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_canonical_set, random_factorization
from multifrac.exceptions import NotAtomic, NotCanonical, NotMember, ZeroLength
from multifrac.factorizer import (
    SearchCaps,
    enumerate_factorizations,
    evaluate,
    hub_normalize,
    solve_hub,
    witness_families,
)
from multifrac.lengths import (
    AapDecomposition,
    MapComponent,
    MapUnion,
    aap_check,
    delta_of_element,
    delta_of_length_set,
    delta_of_monoid,
    delta_sample,
    delta_truncation_bound,
    improper_divisor_pairs,
    is_single_difference,
    length_set,
    union_of_lengths,
)
from multifrac.monoid import build_generator_set

B23 = build_generator_set([Fraction(2, 3)])
B25 = build_generator_set([Fraction(2, 5)])
B2345 = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
MIXED = build_generator_set([Fraction(2, 3), Fraction(5, 2)])
HEREDITARY = build_generator_set([Fraction(5, 2), Fraction(7, 3)])


# ---------------------------------------------------------------- components


def test_component_validation():
    with pytest.raises(ValueError):
        MapComponent(-1)
    with pytest.raises(ValueError):
        MapComponent(0, (0,))
    with pytest.raises(ValueError):
        MapComponent(0, (3, -2))


def test_component_membership_bounded():
    c = MapComponent(5)
    assert [v for v in range(12) if c.contains(v)] == [5]
    assert not c.is_infinite()


def test_component_membership_unbounded():
    c = MapComponent(2, (3,))
    assert c.contains(2) and c.contains(11) and not c.contains(4)
    assert c.is_infinite()


def test_component_subset_sum_of_two_progressions():
    c = MapComponent(1, (3, 5))
    hits = [v for v in range(14) if c.contains(v)]
    assert hits == [1, 4, 6, 7, 9, 10, 11, 12, 13]


def test_union_basics():
    mu = MapUnion(MapComponent(v) for v in [4, 2, 2, 9])
    assert mu.truncate(10) == [2, 4, 9]
    assert mu.min_value() == 2
    assert not mu.is_infinite()
    assert MapUnion().is_empty()
    with pytest.raises(ValueError):
        MapUnion().min_value()


def test_union_merge_deduplicates():
    a = MapUnion((MapComponent(2, (3,)),))
    b = MapUnion((MapComponent(5), MapComponent(2, (3,))))
    merged = MapUnion(a.components + b.components)
    assert merged.components == (MapComponent(2, (3,)), MapComponent(5))
    assert merged.truncate(9) == [2, 5, 8]
    assert MapUnion(b.components + a.components) == merged


def test_union_dict_round_trip():
    mu = MapUnion(
        (
            MapComponent(2, (1, 3)),
            MapComponent(7),
        )
    )
    data = mu.to_dict()
    assert data["components"][0]["diffs"] == [{"d": 1, "l": "inf"}, {"d": 3, "l": "inf"}]


# ----------------------------------------------------------- witness families


def _v(hub, B):
    """Indices of the generators holding at least n(b) copies at some exponent."""
    return {i for (i, _, c) in hub.terms if c >= B.bases[i].numerator}


def test_witness_sets_unfireable_hub():
    hub = solve_hub(Fraction(22, 15), B2345)
    assert _v(hub, B2345) == set()
    assert witness_families(hub, B2345) == ((),)


def test_witness_sets_unit_funded_hub():
    hub = solve_hub(Fraction(4), B2345)
    assert _v(hub, B2345) == set()
    assert witness_families(hub, B2345) == ((), (0,), (1,))


def test_witness_families_always_include_empty_set():
    """The empty U always qualifies, so V is a family and every family holds V."""
    rng = random.Random(5)
    for _ in range(40):
        B = random_canonical_set(rng, proper_only=True)
        hub, _ = hub_normalize(random_factorization(rng, B), B)
        v = _v(hub, B)
        families = witness_families(hub, B)
        assert tuple(sorted(v)) in families
        for fam in families:
            assert v <= set(fam)
        assert list(families) == sorted(set(families))


# --------------------------------------------------------- proper length sets


def test_proper_length_set_frozen_examples():
    assert length_set(Fraction(2), B23).truncate(10) == list(range(2, 11))
    assert length_set(Fraction(2), B25).truncate(11) == [2, 5, 8, 11]
    assert length_set(Fraction(22, 15), B2345).truncate(20) == [2]
    assert length_set(Fraction(4), B2345).truncate(12) == list(range(4, 13))


def test_proper_length_set_guards():
    with pytest.raises(NotCanonical):
        length_set(Fraction(2), build_generator_set([Fraction(2, 3), Fraction(5, 6)]))
    with pytest.raises(NotMember):
        length_set(Fraction(0), B23)
    with pytest.raises(NotMember):
        length_set(Fraction(1, 3), B23)


def test_structural_set_matches_full_window_enumeration():
    """The cap needed to fill [0, 20] honestly is e_max = 18, since a
    length-20 chain for x = 2 over {2/3} rides exponents up to 18."""
    wide = SearchCaps(18, 20)
    for B, x in [(B23, Fraction(2)), (B2345, Fraction(2)), (B25, Fraction(2))]:
        brute = sorted({z.length for z in enumerate_factorizations(x, B, wide)})
        assert brute == length_set(x, B).truncate(20)


def test_structural_set_matches_enumeration_inside_safe_window():
    """Within len <= |hub| + (e_max - hub top exponent) the capped search
    is complete, so oracle and description must agree exactly there."""
    rng = random.Random(37)
    caps = SearchCaps(6, 16)
    checked = 0
    while checked < 25:
        B = random_canonical_set(rng, max_bases=2, max_den=9, proper_only=True)
        z = random_factorization(rng, B, e_max=2, c_top=3)
        x = evaluate(z, B)
        if x == 0:
            continue
        hub = solve_hub(x, B)
        safe = min(caps.len_max, hub.length + caps.e_max - hub.max_exponent())
        brute = {w.length for w in enumerate_factorizations(x, B, caps)}
        structural = length_set(x, B)
        assert sorted(v for v in brute if v <= safe) == structural.truncate(safe)
        checked += 1


# ------------------------------------------------------ improper and mixed


def test_improper_lengths_are_complete_and_match_oracle():
    """Over an all-improper set every atom is at least 1, so no length
    of y exceeds y and the set is finite."""
    rng = random.Random(41)
    checked = 0
    while checked < 10:
        z = random_factorization(rng, HEREDITARY, e_max=2, c_top=2)
        y = evaluate(z, HEREDITARY)
        if y == 0:
            continue
        mu = length_set(y, HEREDITARY)
        brute = {
            w.length
            for w in enumerate_factorizations(y, HEREDITARY, SearchCaps(6, int(y)))
        }
        assert not mu.is_infinite()
        assert set(mu.truncate(int(y))) == brute
        assert z.length in brute
        checked += 1
    with pytest.raises(NotMember):
        length_set(Fraction(0), HEREDITARY)


def test_improper_divisor_pairs_frozen():
    rep = improper_divisor_pairs(Fraction(2), MIXED)
    assert rep.pairs == (
        (Fraction(0), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0)),
    )

    rep = improper_divisor_pairs(Fraction(2, 3), MIXED)
    assert rep.pairs == ((Fraction(0), Fraction(2, 3)),)

    zero = improper_divisor_pairs(Fraction(0), MIXED)
    assert zero.pairs == ((Fraction(0), Fraction(0)),)


def test_unit_fractions_have_no_length_sets():
    for B in (build_generator_set([Fraction(1, 2)]),
              build_generator_set([Fraction(1, 2), Fraction(2, 3)])):
        with pytest.raises(NotAtomic):
            length_set(Fraction(1), B)
        with pytest.raises(NotAtomic):
            delta_of_monoid(B)
        with pytest.raises(NotAtomic):
            delta_sample(B, [])


def test_mixed_length_set_frozen():
    assert length_set(Fraction(2), MIXED).truncate(12) == list(range(2, 13))
    assert length_set(Fraction(5, 2), MIXED).truncate(10) == [1]


def test_length_set_dispatch_agrees_with_special_routes():
    """The all-improper case of `length_set` against the oracle, whose caps
    see every factorization of 5: no square of a base is at most 5, and
    every atom is at least 1."""
    brute = {w.length for w in enumerate_factorizations(Fraction(5), HEREDITARY, SearchCaps(2, 5))}
    assert set(length_set(Fraction(5), HEREDITARY).truncate(10)) == brute


def test_mixed_length_set_matches_enumeration_window():
    """Mixed-set description against the oracle on a provably complete window."""
    caps = SearchCaps(7, 9)
    for x in [Fraction(2), Fraction(19, 6), Fraction(10, 3), Fraction(5)]:
        hub = solve_hub(x, MIXED)
        assert hub is not None
        safe = min(caps.len_max, hub.length + caps.e_max - hub.max_exponent())
        brute = {w.length for w in enumerate_factorizations(x, MIXED, caps)}
        structural = length_set(x, MIXED)
        assert sorted(v for v in brute if v <= safe) == structural.truncate(safe)


# ------------------------------------------------------------------- deltas


def test_delta_frozen_examples():
    assert delta_of_element(Fraction(2), B23) == {1}
    assert delta_of_element(Fraction(2), B25) == {3}
    assert delta_of_element(Fraction(22, 15), B2345) == set()


def test_delta_truncation_bound_frozen():
    mu = length_set(Fraction(2), B25)
    assert delta_truncation_bound(mu) == 8
    assert delta_truncation_bound(MapUnion()) == 0
    # The larger step's settling term decides: 8 + <12, 13> settles at
    # 8 + 11 * 12 = 140, where its only gap of 2, from 138, ends.
    mu = MapUnion([MapComponent(8, (12, 13))])
    assert delta_truncation_bound(mu) == 142
    assert delta_of_length_set(mu) == set(range(1, 13))
    # Classes 13 mod 24 and 5 mod 6 are disjoint, so both count: P = 24.
    mu = MapUnion([MapComponent(13, (24,)), MapComponent(23, (6,))])
    assert delta_truncation_bound(mu) == 71
    assert delta_of_length_set(mu) == {2, 4, 6, 10}
    # g = 2: the settling point divides the steps by their gcd.
    assert delta_truncation_bound(MapUnion([MapComponent(0, (4, 6))])) == 8


def test_truncate_tests_only_the_class_of_its_members(monkeypatch):
    """{13 + <24>, 23 + <6>} lies in 13 + 2Z, so a scan of [0, 71] tests
    the 30 integers 13, 15, ..., 71 and not all 72."""
    tested = []
    contains = MapUnion.contains
    monkeypatch.setattr(MapUnion, "contains", lambda mu, v: tested.append(v) or contains(mu, v))
    mu = MapUnion([MapComponent(13, (24,)), MapComponent(23, (6,))])
    assert mu.truncate(71) == [13, 23, 29, 35, 37, 41, 47, 53, 59, 61, 65, 71]
    assert len(tested) <= 30


def test_delta_stable_under_horizon_doubling():
    """Gaps collected on [0, T] must match gaps on [0, 2T]; the horizon
    formula claims the tail is periodic from T onward."""
    rng = random.Random(43)
    seen = 0
    while seen < 20:
        B = random_canonical_set(rng, max_bases=2, max_den=15, proper_only=True)
        z = random_factorization(rng, B, e_max=2, c_top=3)
        x = evaluate(z, B)
        if x == 0:
            continue
        mu = length_set(x, B)
        T = delta_truncation_bound(mu)
        near = mu.truncate(T)
        far = mu.truncate(2 * T)
        assert {b - a for a, b in zip(near, near[1:])} == {
            b - a for a, b in zip(far, far[1:])
        }
        seen += 1


def test_single_difference_detector():
    assert is_single_difference(B2345) == 1
    assert is_single_difference(B25) == 3
    assert is_single_difference(build_generator_set([Fraction(2, 3), Fraction(2, 5)])) is None
    assert is_single_difference(build_generator_set([])) is None


def _single_difference_set(rng, d: int):
    """One to three bases n/q with |n - q| = d, each drawn below or above 1,
    with pairwise coprime denominators q <= 12 and no unit fraction."""
    bases: list[Fraction] = []
    size = rng.randint(1, 3)
    while len(bases) < size:
        q = rng.randint(2, 12)
        n = q + rng.choice([-d, d])
        if n < 2 or gcd(n, q) > 1 or any(gcd(q, b.denominator) > 1 for b in bases):
            continue
        bases.append(Fraction(n, q))
    return build_generator_set(bases)


def test_single_difference_controls_all_gaps():
    """Whenever all generators share one numerator-denominator gap d,
    every sampled delta set is {d} or empty, over proper, all-improper
    and mixed sets alike (`delta` reports `exact` on this)."""
    rng = random.Random(47)
    makeups = set()
    for _ in range(60):
        d = rng.randint(1, 3)
        B = _single_difference_set(rng, d)
        assert is_single_difference(B) == d
        makeups.add((bool(B.proper_part), bool(B.improper_part)))
        for _ in range(5):
            z = random_factorization(rng, B, e_max=2, c_top=5)
            x = evaluate(z, B)
            if x == 0:
                continue
            assert delta_of_element(x, B) <= {d}
    assert makeups == {(True, False), (False, True), (True, True)}


def _sampled_deltas(B, sample):
    return set().union(*delta_sample(B, sample).values())


def test_delta_sample_contract_examples():
    assert _sampled_deltas(B23, [Fraction(2), Fraction(2, 3), Fraction(10, 3)]) == {1}
    assert _sampled_deltas(B2345, [Fraction(4)]) == {1}
    assert _sampled_deltas(B23, []) == set()
    # non-members are skipped, not rejected
    assert _sampled_deltas(B23, [Fraction(1, 3)]) == set()


def test_delta_sample_grows_with_the_sample():
    small = _sampled_deltas(B25, [Fraction(2)])
    large = _sampled_deltas(B25, [Fraction(2), Fraction(4), Fraction(2, 5)])
    assert small <= large


# ------------------------------------------------------------- infinitude


def test_infinitude_flags():
    assert length_set(Fraction(2), B23).is_infinite()
    assert not length_set(Fraction(22, 15), B2345).is_infinite()
    assert not length_set(Fraction(5), build_generator_set([Fraction(5, 2)])).is_infinite()


def test_infinitude_matches_cap_doubling():
    """An infinite set keeps producing members past any horizon; a finite
    one is exhausted beyond its own extent.  Brute force confirms the
    infinite case when both caps scale together."""
    mu = length_set(Fraction(2), B23)
    T = delta_truncation_bound(mu)
    assert len(mu.truncate(2 * T)) > len(mu.truncate(T))

    small = {z.length for z in enumerate_factorizations(Fraction(2), B23, SearchCaps(4, 10))}
    large = {z.length for z in enumerate_factorizations(Fraction(2), B23, SearchCaps(8, 20))}
    assert small < large

    finite = length_set(Fraction(22, 15), B2345)
    top = max(c.offset for c in finite.components)
    assert finite.truncate(3 * top) == finite.truncate(top)


# ----------------------------------------------------------------- unions


def test_union_of_lengths_frozen_atomic_case():
    rep = union_of_lengths(1, B23, 4, bound=10)
    assert rep.members == (1,)
    assert rep.elasticity == 1
    assert rep.element_count == 5


def test_union_of_lengths_frozen_infinite_case():
    rep = union_of_lengths(2, B23, 4, bound=10)
    assert rep.members == tuple(range(2, 11))
    assert rep.elasticity is None


def test_union_of_lengths_hereditary_is_finite():
    # Every pooled set of lengths is finite, but k = 2 reaches theta = d(5/2),
    # so U_2 is unbounded: 2 * (5/2)**e has hub length at least 2 + 3e.
    rep = union_of_lengths(2, HEREDITARY, 3, bound=30)
    assert rep.members == (2, 5, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 26)
    assert rep.elasticity is None
    assert rep.element_count == 28


def test_union_contains_its_own_index():
    rng = random.Random(59)
    for _ in range(10):
        B = random_canonical_set(rng, max_bases=2, max_den=9)
        k = rng.randint(1, 3)
        rep = union_of_lengths(k, B, 2, bound=24)
        assert k in rep.members


def test_union_guards():
    with pytest.raises(ZeroLength):
        union_of_lengths(0, B23)
    with pytest.raises(NotMember):
        union_of_lengths(2, build_generator_set([]))


# -------------------------------------------------------------------- AAP


def test_aap_full_progression():
    w = aap_check(range(2, 11), 1, 0)
    assert w is not None
    assert (w.y, w.s_prime, w.s_dprime) == (2, (), ())
    assert w.s_star == tuple(range(0, 9))
    assert w.reconstruct() == list(range(2, 11))


def test_aap_stride_three():
    w = aap_check([2, 5, 8], 3, 0)
    assert w is not None and w.y == 2 and w.s_star == (0, 3, 6)


def test_aap_with_sporadic_head():
    w = aap_check([2, 4, 5, 6], 1, 2)
    assert w is not None
    assert w.y == 4
    assert w.s_prime == (-2,)
    assert w.s_star == (0, 1, 2)
    assert w.s_dprime == ()
    assert w.reconstruct() == [2, 4, 5, 6]


def test_aap_rejections():
    assert aap_check([2, 6], 1, 0) is None
    assert aap_check([2, 5, 8], 2, 1) is None  # mixed residues mod 2
    assert aap_check([], 1, 3) is None


def test_aap_guards():
    with pytest.raises(ValueError):
        aap_check([1, 2], 0, 1)
    with pytest.raises(ValueError):
        aap_check([1, 2], 1, -1)


def test_aap_witnesses_are_valid_on_random_true_positives():
    """Build sets that are AAPs by construction and verify every reported
    decomposition obeys the shape constraints and reconstructs exactly."""
    rng = random.Random(61)
    for _ in range(80):
        d = rng.randint(1, 4)
        N = d * rng.randint(0, 3)
        y = rng.randint(0, 30)
        run = [y + i * d for i in range(rng.randint(1, 6))]
        values = set(run)
        if N and rng.random() < 0.5:
            j = rng.randint(1, N // d)
            if y - j * d >= 0:
                values.add(y - j * d)
        if N and rng.random() < 0.5:
            values.add(run[-1] + rng.randint(1, N // d) * d)
        values = sorted(values)
        w = aap_check(values, d, N)
        assert w is not None
        assert w.reconstruct() == values
        assert all(-N <= s <= -1 for s in w.s_prime)
        assert w.s_star[0] == 0 and all(
            b - a == d for a, b in zip(w.s_star, w.s_star[1:])
        )
        last = w.s_star[-1]
        assert all(last < s <= last + N for s in w.s_dprime)
        assert len({v % d for v in values}) == 1
