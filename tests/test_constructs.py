"""Constructed families: nonatomic generators and delta realization."""

from fractions import Fraction

import pytest

from multifrac.constructs import (
    PrimeSeed,
    default_nonatomic_seed,
    delta_realization_check,
    delta_realization_generators,
    delta_realization_primes,
    nonatomic_family,
    nonatomic_witness,
    validate_nonatomic_seed,
)
from multifrac.exceptions import BadLevel, BadSeed
from multifrac.monoid import build_generator_set


def test_default_seed_is_minimal():
    seed = default_nonatomic_seed(2)
    assert seed.primes == (2, 3, 11)
    seed = default_nonatomic_seed(3)
    assert seed.primes == (2, 3, 11, 13)


def test_seed_validation_rejections():
    with pytest.raises(BadSeed):
        validate_nonatomic_seed(PrimeSeed((2, 3), "x"), 2)
    with pytest.raises(BadSeed):
        validate_nonatomic_seed(PrimeSeed((2, 3, 9), "x"), 2)
    with pytest.raises(BadSeed):
        # 5 does not clear the shared-denominator floor 2*3 + 1
        validate_nonatomic_seed(PrimeSeed((2, 3, 5), "x"), 2)
    with pytest.raises(BadSeed):
        validate_nonatomic_seed(PrimeSeed((2, 3, 13, 11), "x"), 3)


def test_family_frozen_shapes():
    fam = nonatomic_family(2)
    assert fam.bases == (Fraction(2, 11), Fraction(3, 11))
    fam3 = nonatomic_family(3, PrimeSeed((2, 3, 11, 13), "nonatomic-family"))
    assert fam3.bases == (Fraction(2, 11), Fraction(3, 11), Fraction(6, 13))


def test_family_structural_flags():
    """The family is built to break atomicity: all proper fractions, and
    two generators share a denominator so the set is not canonical."""
    fam = nonatomic_family(2)
    assert not fam.is_hereditarily_atomic
    assert fam.accp_obstructed
    assert not fam.is_canonical


def test_witness_minimal_case():
    fam = nonatomic_family(2)
    w = nonatomic_witness(fam, m=1, N_max=6)
    assert w is not None
    assert (w.N, w.alpha, w.beta) == (2, 1, 2)
    assert w.x == Fraction(2, 11)
    assert w.identity_holds()


def test_witness_splits_higher_powers_too():
    fam = nonatomic_family(2)
    w = nonatomic_witness(fam, m=2, N_max=8)
    assert w is not None
    assert w.m == 2 and w.N > 2
    assert w.alpha >= 1 and w.beta >= 1
    assert w.identity_holds()


def test_witness_exhausted_cap_returns_none():
    fam = nonatomic_family(2)
    assert nonatomic_witness(fam, m=1, N_max=1) is None


def test_witness_guards():
    fam = nonatomic_family(2)
    with pytest.raises(BadLevel):
        nonatomic_witness(fam, m=0)
    plain = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
    with pytest.raises(BadSeed):
        nonatomic_witness(plain)


def test_realization_primes_frozen():
    assert delta_realization_primes(1, 2).primes == (5, 7, 11, 13)
    assert delta_realization_primes(2, 2).primes == (7, 11, 19, 23)


def test_realization_primes_constraints():
    for d in (1, 2, 3):
        for K in (1, 2, 3):
            seed = delta_realization_primes(d, K)
            assert len(seed.primes) == 2 * K
            gaps = [p - d * n for p, n in zip(seed.primes, range(2, 2 * K + 2))]
            assert all(p > d * n + 1 for p, n in zip(seed.primes, range(2, 2 * K + 2)))
            assert gaps == sorted(gaps) and len(set(gaps)) == len(gaps)
            for idx, n in enumerate(range(2, 2 * K + 2)):
                if n >= 4 and n % 2 == 0:
                    assert gaps[idx] > gaps[idx - 1] + 2 * d


def test_realization_generators_frozen():
    assert delta_realization_generators(1, 1).bases == (
        Fraction(3, 5),
        Fraction(6, 7),
    )
    assert delta_realization_generators(2, 1).bases == (
        Fraction(3, 7),
        Fraction(9, 11),
    )
    fam = delta_realization_generators(1, 2)
    assert set(fam.bases) == {
        Fraction(3, 5),
        Fraction(6, 7),
        Fraction(7, 11),
        Fraction(10, 13),
    }
    assert fam.is_canonical


def test_realization_numerators_increase_level_by_level():
    """Each level's numerators must sit above every earlier level's, which
    is what lets one level's witness ignore the others."""
    for d in (1, 2):
        for K in (2, 3):
            seed = delta_realization_primes(d, K)
            nums = []
            for k in range(1, K + 1):
                p, q = seed.primes[2 * k - 2], seed.primes[2 * k - 1]
                nums.extend([p - 2 * d * k, q - 2 * d * k + d])
            assert nums == sorted(nums)
            assert len(set(nums)) == len(nums)


@pytest.mark.parametrize(
    "d,k,hub_len,observed,next_num,bound",
    [
        (1, 1, 9, (1,), 7, 42),
        (1, 2, 17, (1, 2, 3), 11, 117),
        (2, 1, 12, (2,), 11, 77),
        (2, 2, 28, (2, 4, 6), 19, 299),
    ],
)
def test_realization_check_frozen(d, k, hub_len, observed, next_num, bound):
    rep = delta_realization_check(d, k)
    assert rep.hub.length == hub_len
    assert rep.observed == observed
    assert rep.required == tuple(d * i for i in range(1, 2 * k))
    assert rep.inclusion and rep.divisibility
    assert rep.realized()
    assert rep.next_numerator == next_num
    assert rep.localization_bound == bound
    assert not rep.localized


def test_realization_check_guards():
    with pytest.raises(BadLevel):
        delta_realization_check(1, 0)
    with pytest.raises(BadLevel):
        delta_realization_primes(0, 1)


def test_realization_check_respects_caps():
    rep = delta_realization_check(1, 1)
    assert rep.realized()
    assert rep.observed == (1,)
