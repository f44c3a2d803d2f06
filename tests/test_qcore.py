"""Rational kernel: primes, parsing and formatting."""

import random
from fractions import Fraction

import pytest

from multifrac.exceptions import ParseError
from multifrac.qcore import PRIME_TEST_BOUND, format_rational, is_prime, parse_rational


def test_is_prime_matches_naive_sieve():
    naive = [n for n in range(2, 500) if all(n % k for k in range(2, n))]
    assert [n for n in range(2, 500) if is_prime(n)] == naive
    assert not is_prime(0)
    assert not is_prime(1)


def test_is_prime_equals_trial_division_up_to_ten_thousand():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**4 + 1) if is_prime(n)] == [
        n for n in range(10**4 + 1) if trial(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    """3825123056546413051 passes the bases 2..31 and psi_12 the bases
    2..37; the base 41 exposes both."""
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_is_prime_refuses_numbers_beyond_its_exact_range():
    """The bound is psi_13, a composite that passes all thirteen bases."""
    assert PRIME_TEST_BOUND == 3_317_044_064_679_887_385_961_981
    assert PRIME_TEST_BOUND % 1287836182261 == 0
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)


def test_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        q = Fraction(rng.randint(0, 99), rng.randint(1, 99))
        assert parse_rational(format_rational(q)) == q


def test_format_is_always_slashed():
    assert format_rational(Fraction(4)) == "4/1"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(10, 15)) == "2/3"


def test_parse_accepts_integers_and_whitespace():
    assert parse_rational("7") == 7
    assert parse_rational(" 10/4 ") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["x", "1/2/3", "2/0", "-1/3", ""])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)
