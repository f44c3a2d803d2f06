"""Exact rationals: a primality test, parsing and formatting.

Everything here works on arbitrary-precision integers and reduced
fractions.  No floating point appears anywhere in this package: the
rewrite identities the higher modules rely on hold only exactly.
Nothing factors an integer either: `is_prime`, a deterministic
Miller-Rabin test, serves only the prime-seeded constructions, and
`solve_hub` splits a denominator among the generators by gcds.
"""

from __future__ import annotations

from fractions import Fraction

from .exceptions import ParseError

# Reduced nonnegative rational.  fractions.Fraction already maintains the
# invariant gcd(num, den) = 1 with den >= 1, so it is used directly.
Rational = Fraction


# No composite below this bound passes Miller-Rabin to all 13 bases
# below (Sorenson & Webster, 2015), so `is_prime` is exact there.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin; exact below PRIME_TEST_BOUND.

    With n - 1 = d * 2**s and d odd, a prime n makes every base a satisfy
    a**d = 1 or a**(d * 2**r) = -1 (mod n) for some r < s; a composite n
    below the bound fails this for one of the bases.  Raises ValueError
    at or above the bound, where the answer would be a guess.
    """
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is beyond the exact range of the primality test")
    if n < 2 or any(n % p == 0 for p in _WITNESS_BASES):
        return n in _WITNESS_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _WITNESS_BASES:
        y = pow(a, (n - 1) >> s, n)
        if y == 1:
            continue
        for _ in range(s):
            if y == n - 1:
                break
            y = y * y % n
        else:
            return False
    return True


def parse_rational(text: str) -> Rational:
    """Parse 'n/d' or the integer shorthand 'n' into a nonnegative fraction."""
    token = text.strip()
    parts = token.split("/")
    try:
        if len(parts) == 1:
            value = Fraction(int(parts[0]))
        elif len(parts) == 2:
            value = Fraction(int(parts[0]), int(parts[1]))
        else:
            raise ValueError(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {token!r}") from exc
    if value < 0:
        raise ParseError(f"negative rationals are not accepted: {token!r}")
    return value


def format_rational(q: Rational) -> str:
    """Serialize as 'n/d' in lowest terms; integers render as 'n/1'."""
    return f"{q.numerator}/{q.denominator}"
