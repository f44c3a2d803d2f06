"""Power normal forms, the brute-force enumerator, and rewrite chains."""

import random
from fractions import Fraction

import pytest

from conftest import random_canonical_set, random_factorization
from multifrac.exceptions import (
    BadIndex,
    NotCanonical,
    ValueMismatch,
)
from multifrac.factorizer import (
    Factorization,
    RewriteStep,
    SearchCaps,
    apply_rewrite,
    enumerate_factorizations,
    evaluate,
    factorization_to_dict,
    hub_normalize,
    rewrite_chain,
    solve_hub,
)
from multifrac.lengths import length_set
from multifrac.monoid import build_generator_set

B23 = build_generator_set([Fraction(2, 3)])
B2345 = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
MIXED = build_generator_set([Fraction(2, 3), Fraction(5, 2)])


def reference_enumerate(x, B, caps):
    """Slot-by-slot search with no pruning, for cross-checking the fast path."""
    slots = [
        (i, e) for i in range(len(B.bases)) for e in range(1, caps.e_max + 1)
    ]
    found = []

    def walk(k, remaining, budget, acc):
        if k == len(slots):
            if remaining.denominator == 1:
                c0 = int(remaining)
                if c0 <= budget and (B.bases or c0 == 0):
                    found.append(Factorization.from_terms(c0, dict(acc)))
            return
        i, e = slots[k]
        value = B.bases[i] ** e
        c = 0
        while c * value <= remaining and c <= budget:
            if c:
                acc[(i, e)] = c
            walk(k + 1, remaining - c * value, budget - c, acc)
            c += 1
        acc.pop((i, e), None)

    walk(0, Fraction(x), caps.len_max, {})
    return sorted(found)


def test_from_terms_drops_zero_coefficients():
    z = Factorization.from_terms(2, {(0, 1): 3, (0, 2): 0})
    assert z.as_mapping() == {(0, 1): 3}
    assert z.c0 == 2
    assert z.length == 5
    assert z.max_exponent() == 1
    assert z.as_mapping().get((0, 2), 0) == 0


def test_evaluate_and_index_guard():
    z = Factorization.from_terms(1, {(0, 1): 2})
    assert evaluate(z, B23) == 1 + Fraction(4, 3)
    with pytest.raises(BadIndex):
        evaluate(Factorization.from_terms(0, {(5, 1): 1}), B23)


def test_hub_normalize_single_sweep():
    """Five copies of 2/3 trade three of them for two units."""
    z = Factorization.from_terms(0, {(0, 1): 5})
    hub, steps = hub_normalize(z, B23)
    assert hub == Factorization.from_terms(2, {(0, 1): 2})
    assert evaluate(hub, B23) == evaluate(z, B23)
    assert len(steps) == 1
    assert steps[0] == RewriteStep(0, 1, "down", 1)


def test_hub_normalize_fixed_point():
    hub = Factorization.from_terms(2, {(0, 1): 2})
    again, steps = hub_normalize(hub, B23)
    assert again == hub
    assert steps == ()


def test_hub_normalize_random_property():
    """Normalization preserves value, lands under the coefficient gate,
    and its recorded trail replays step by step."""
    rng = random.Random(101)
    for _ in range(60):
        B = random_canonical_set(rng, max_den=30)
        z = random_factorization(rng, B, e_max=3, c_top=2 * max(b.denominator for b in B.bases))
        hub, steps = hub_normalize(z, B)
        assert evaluate(hub, B) == evaluate(z, B)
        for (i, _e), c in hub.as_mapping().items():
            assert c < B.bases[i].denominator
        replayed = z
        for step in steps:
            replayed = apply_rewrite(replayed, step, B)
        assert replayed == hub


def test_solve_hub_frozen_cases():
    assert solve_hub(Fraction(22, 15), B2345) == Factorization.from_terms(
        0, {(0, 1): 1, (1, 1): 1}
    )
    assert solve_hub(Fraction(4, 3), B23) == Factorization.from_terms(0, {(0, 1): 2})
    assert solve_hub(Fraction(2), B23) == Factorization.from_terms(2, {})
    assert solve_hub(Fraction(0), B23) == Factorization.from_terms(0, {})
    assert solve_hub(Fraction(1, 3), B23) is None


def test_solve_hub_requires_canonical_set():
    bad = build_generator_set([Fraction(2, 3), Fraction(5, 6)])
    with pytest.raises(NotCanonical):
        solve_hub(Fraction(2), bad)


def test_solve_hub_agrees_with_normalization():
    """Independent computations of the hub must coincide.

    Congruence peeling (solve_hub) and the divmod sweep (hub_normalize)
    share no code path, so agreement on random inputs is real evidence
    of uniqueness.
    """
    rng = random.Random(53)
    for _ in range(80):
        B = random_canonical_set(rng, max_den=40)
        z = random_factorization(rng, B)
        hub, _ = hub_normalize(z, B)
        assert solve_hub(evaluate(z, B), B) == hub


def test_enumerate_frozen_count():
    facts = enumerate_factorizations(Fraction(2), B23, SearchCaps(2, 7))
    assert len(facts) == 3
    assert {z.length for z in facts} == {2, 3, 4}
    for z in facts:
        assert evaluate(z, B23) == 2


def test_enumerate_matches_unpruned_reference():
    caps = SearchCaps(3, 9)
    cases = [
        (Fraction(2), B23),
        (Fraction(10, 3), B23),
        (Fraction(22, 15), B2345),
        (Fraction(4), B2345),
        (Fraction(5), MIXED),
        (Fraction(7, 6), MIXED),
    ]
    for x, B in cases:
        fast = enumerate_factorizations(x, B, caps)
        slow = reference_enumerate(x, B, caps)
        assert len(fast) == len(set(fast)) == len(slow)
        assert set(fast) == set(slow)


def test_enumerate_empty_generator_set():
    empty = build_generator_set([])
    assert enumerate_factorizations(Fraction(2), empty, SearchCaps(2, 5)) == []
    assert enumerate_factorizations(Fraction(0), empty, SearchCaps(2, 5)) == [
        Factorization.from_terms(0, {})
    ]


def test_enumerate_nonmember_is_empty():
    assert enumerate_factorizations(Fraction(1, 3), B23, SearchCaps(4, 12)) == []


def test_min_length_factorization():
    """Over a canonical set of proper fractions the hub is the unique
    shortest factorization."""
    z = solve_hub(Fraction(2), B23)
    assert z is not None and z.length == 2
    assert solve_hub(Fraction(1, 3), B23) is None
    for x, B in ((Fraction(2), B23), (Fraction(4), B2345), (Fraction(22, 15), B2345)):
        found = enumerate_factorizations(x, B, SearchCaps(4, 12))
        shortest = min(w.length for w in found)
        assert [w for w in found if w.length == shortest] == [solve_hub(x, B)]


def test_apply_rewrite_directions():
    z = Factorization.from_terms(0, {(0, 1): 3})
    down = apply_rewrite(z, RewriteStep(0, 1, "down", 1), B23)
    assert down == Factorization.from_terms(2, {})
    up = apply_rewrite(down, RewriteStep(0, 0, "up", 1), B23)
    assert up == z
    assert evaluate(up, B23) == 2


def test_rewrite_chain_replays_between_random_peers():
    rng = random.Random(71)
    done = 0
    while done < 40:
        B = random_canonical_set(rng, max_den=20)
        a = random_factorization(rng, B, c_top=6)
        b, _ = hub_normalize(a, B)
        extra = rng.randint(0, 2)
        # nudge b off the hub when an upward move is available
        for i, base in enumerate(B.bases):
            if extra and b.as_mapping().get((i, 1), 0) >= base.numerator:
                b = apply_rewrite(b, RewriteStep(i, 1, "up", 1), B)
                break
        chain = rewrite_chain(a, b, B)
        current = a
        for step in chain:
            current = apply_rewrite(current, step, B)
        assert current == b
        done += 1


def test_rewrite_chain_rejects_value_mismatch():
    a = Factorization.from_terms(2, {})
    b = Factorization.from_terms(3, {})
    with pytest.raises(ValueMismatch):
        rewrite_chain(a, b, B23)


def test_is_max_length():
    """The hub is a longest factorization exactly when no upward chain can
    fire, which the length set states: finite with maximum |hub|, or
    infinite when the hub can grow."""
    hub = solve_hub(Fraction(22, 15), B2345)
    lengths = length_set(Fraction(22, 15), B2345)
    assert not lengths.is_infinite()
    assert max(lengths.truncate(hub.length + 8)) == hub.length

    assert length_set(Fraction(4, 3), B23).is_infinite()

    improper = build_generator_set([Fraction(5, 2)])
    hub = solve_hub(Fraction(5), improper)
    lengths = length_set(Fraction(5), improper)
    assert not lengths.is_infinite()
    assert max(lengths.truncate(hub.length + 8)) == hub.length


def test_factorization_dict_round_trip():
    rng = random.Random(83)
    for _ in range(30):
        B = random_canonical_set(rng)
        z = random_factorization(rng, B)
        data = factorization_to_dict(z, B)
    data = factorization_to_dict(Factorization.from_terms(0, {(0, 1): 2}), B23)
    assert data == {"c0": 0, "terms": [{"base": "2/3", "exp": 1, "coeff": 2}]}
