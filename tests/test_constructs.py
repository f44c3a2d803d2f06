"""Constructed families: nonatomic generators and delta realization."""

from fractions import Fraction
from math import gcd

import pytest

from multifrac.constructs import (
    default_nonatomic_seed,
    delta_realization_check,
    delta_realization_generators,
    nonatomic_family,
    nonatomic_witness,
    validate_nonatomic_seed,
)
from multifrac.exceptions import BadLevel, BadSeed, ImproperBase, NotCanonical
from multifrac.factorizer import SearchCaps, enumerate_factorizations, solve_hub
from multifrac.lengths import (
    MapComponent,
    MapUnion,
    delta_of_element,
    delta_of_monoid,
    length_set,
)
from multifrac.monoid import build_generator_set


def test_default_seed_is_minimal():
    assert default_nonatomic_seed(2) == (2, 3, 11)
    assert default_nonatomic_seed(3) == (2, 3, 11, 13)


def test_seed_validation_rejections():
    with pytest.raises(BadSeed):
        validate_nonatomic_seed((2, 3), 2)
    with pytest.raises(BadSeed):
        validate_nonatomic_seed((2, 3, 9), 2)
    with pytest.raises(BadSeed):
        # 5 does not clear the shared-denominator floor 2*3 + 1
        validate_nonatomic_seed((2, 3, 5), 2)
    with pytest.raises(BadSeed):
        validate_nonatomic_seed((2, 3, 13, 11), 3)


def test_family_frozen_shapes():
    fam = nonatomic_family(2)
    assert fam.bases == (Fraction(2, 11), Fraction(3, 11))
    fam3 = nonatomic_family(3, (2, 3, 11, 13))
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


def test_realization_generators_frozen():
    assert delta_realization_generators(1, 1).bases == (Fraction(2, 3),)
    assert delta_realization_generators(2, 1).bases == (Fraction(3, 5),)
    assert delta_realization_generators(1, 2).bases == (Fraction(3, 5), Fraction(2, 3))
    assert delta_realization_generators(2, 2).bases == (Fraction(3, 7), Fraction(3, 5))
    assert delta_realization_generators(1, 4).bases == (Fraction(2, 5), Fraction(3, 7))
    assert delta_realization_generators(3, 2).bases == (Fraction(2, 5), Fraction(5, 11))


def _steps(B):
    return sorted(b.denominator - b.numerator for b in B.bases)


def test_realization_generators_follow_the_rule():
    """Steps d(k-1) and dk, numerators >= 2, coprime denominators, and no
    admissible pair with a smaller numerator sum (then a smaller n1)."""
    for d in range(1, 5):
        for k in range(2, 9):
            B = delta_realization_generators(d, k)
            assert B.is_canonical and not B.improper_part
            assert _steps(B) == [d * (k - 1), d * k]
            by_step = {b.denominator - b.numerator: b.numerator for b in B.bases}
            n1, n2 = by_step[d * (k - 1)], by_step[d * k]
            assert min(n1, n2) >= 2
            for m1 in range(2, n1 + n2):
                for m2 in range(2, n1 + n2 - m1 + 1):
                    if (m1 + m2, m1) >= (n1 + n2, n1):
                        continue
                    dens = (m1 + d * (k - 1), m2 + d * k)
                    assert not (
                        gcd(m1, d * (k - 1)) == gcd(m2, d * k) == gcd(*dens) == 1
                    ), (d, k, m1, m2)
        one = delta_realization_generators(d, 1)
        assert _steps(one) == [d] and one.bases[0].numerator >= 2


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(1, 9)])
def test_realization_grid_is_exact(d, k):
    """Δ(M) is exactly {d, ..., kd}, and each witness's own delta set holds
    the value it stands for."""
    rep = delta_realization_check(d, k)
    assert rep.delta == rep.required == tuple(d * i for i in range(1, k + 1))
    assert rep.realized()
    assert rep.delta == tuple(v for v, _ in rep.witnesses)
    for v, x in rep.witnesses:
        assert v in delta_of_element(x, rep.generators)


@pytest.mark.parametrize(
    "d,k,witnesses",
    [
        (1, 1, ((1, Fraction(2)),)),
        (1, 2, ((1, Fraction(2)), (2, Fraction(9, 5)))),
        (2, 1, ((2, Fraction(3)),)),
        (2, 2, ((2, Fraction(3)), (4, Fraction(9, 7)))),
    ],
)
def test_realization_check_frozen(d, k, witnesses):
    rep = delta_realization_check(d, k)
    assert rep.witnesses == witnesses
    assert rep.generators == delta_realization_generators(d, k)


def test_realization_check_guards():
    with pytest.raises(BadLevel):
        delta_realization_check(1, 0)
    with pytest.raises(BadLevel):
        delta_realization_generators(0, 1)


def test_old_prime_chain_family_has_a_larger_delta_set():
    """The prime-chained pair {3/5, 6/7}, with steps 2 and 1, has
    Δ(M) = {1, 2}, not {1}: x = 9/5 has L(x) = 3 + <2>."""
    B = build_generator_set([Fraction(3, 5), Fraction(6, 7)])
    assert set(delta_of_monoid(B)) == {1, 2}
    assert length_set(Fraction(9, 5), B) == MapUnion([MapComponent(3, (2,))])


def test_delta_of_monoid_guards():
    with pytest.raises(NotCanonical):
        delta_of_monoid(build_generator_set([Fraction(2, 3), Fraction(4, 9)]))
    with pytest.raises(ImproperBase):
        delta_of_monoid(build_generator_set([Fraction(2, 3), Fraction(5, 2)]))
    assert delta_of_monoid(build_generator_set([])) == {}


@pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2) for k in (1, 2, 3)])
def test_realization_witnesses_agree_with_the_oracle(d, k):
    """On each witness, the oracle at cap e finds every length up to
    t_safe = min(len_max, |hub| + e - top(hub)) (see test_acceptance), and
    there it must list exactly the structural lengths."""
    rep = delta_realization_check(d, k)
    B = rep.generators
    for _, x in rep.witnesses:
        hub = solve_hub(x, B)
        caps = SearchCaps(e_max=hub.max_exponent() + 3 * d * k, len_max=hub.length + 3 * d * k)
        safe = min(caps.len_max, hub.length + caps.e_max - hub.max_exponent())
        brute = {z.length for z in enumerate_factorizations(x, B, caps)}
        assert sorted(v for v in brute if v <= safe) == length_set(x, B).truncate(safe)
