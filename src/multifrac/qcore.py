"""Exact rationals: a primality test, parsing and formatting.

Everything here works on arbitrary-precision integers and reduced
fractions.  No floating point appears anywhere in this package: the
rewrite identities the higher modules rely on hold only exactly.
Nothing factors an integer either: `is_prime` serves only the
prime-seeded constructions, and `solve_hub` splits a denominator among
the generators by gcds.
"""

from __future__ import annotations

from fractions import Fraction

from .exceptions import ParseError, ZeroDenominator

# Reduced nonnegative rational.  fractions.Fraction already maintains the
# invariant gcd(num, den) = 1 with den >= 1, so it is used directly.
Rational = Fraction


# Trial division with a 2-3-5 wheel.  Gaps between consecutive integers
# coprime to 30, starting from 7: 7, 11, 13, 17, 19, 23, 29, 31, 37, ...
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def _trial_divisors():
    yield 2
    yield 3
    yield 5
    c, i = 7, 0
    while True:
        yield c
        c += _WHEEL_GAPS[i]
        i = (i + 1) % 8


def is_prime(n: int) -> bool:
    """Primality by wheel trial division; exact for any integer."""
    if n < 2:
        return False
    for p in _trial_divisors():
        if p * p > n:
            return True
        if n % p == 0:
            return n == p


def parse_rational(text: str) -> Rational:
    """Parse 'n/d' or the integer shorthand 'n' into a nonnegative fraction."""
    token = text.strip()
    parts = token.split("/")
    try:
        if len(parts) == 1:
            value = Fraction(int(parts[0]))
        elif len(parts) == 2:
            p, q = int(parts[0]), int(parts[1])
            if q == 0:
                raise ZeroDenominator(f"denominator must be nonzero: {token!r}")
            value = Fraction(p, q)
        else:
            raise ValueError(token)
    except (ValueError, ZeroDenominator) as exc:
        raise ParseError(f"not a rational: {token!r}") from exc
    if value < 0:
        raise ParseError(f"negative rationals are not accepted: {token!r}")
    return value


def format_rational(q: Rational) -> str:
    """Serialize as 'n/d' in lowest terms; integers render as 'n/1'."""
    return f"{q.numerator}/{q.denominator}"
