"""Rational kernel: primes, parsing and formatting."""

import random
from fractions import Fraction

import pytest

from multifrac.exceptions import ParseError
from multifrac.qcore import format_rational, is_prime, parse_rational


def test_is_prime_matches_naive_sieve():
    naive = [n for n in range(2, 500) if all(n % k for k in range(2, n))]
    assert [n for n in range(2, 500) if is_prime(n)] == naive
    assert not is_prime(0)
    assert not is_prime(1)


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
