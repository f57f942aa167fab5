"""Integer primitives for the constructors: inverses and primes.

All arithmetic is arbitrary precision; nothing here ever rounds.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

__all__ = [
    "BezoutPair",
    "mod_inverse",
    "is_prime",
]


class BezoutPair(NamedTuple):
    """Witness (x, y) for y*m - x*n == 1.  Only x and y are stored, not the
    (m, n) they certify."""

    x: int
    y: int


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n in [1, n-1]; error when gcd(a, n) != 1."""
    if not isinstance(a, int) or not isinstance(n, int):
        raise ValueError("mod_inverse needs integers")
    if n < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {n}") from None


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness ladders (threshold, witnesses).  Each
# set is proven exact below its threshold; the 13-prime set covers
# everything below 3.317e24, well past 2**64.  Above that no fixed set is
# proven: the 30 fallback bases make a strong probable-prime test, which
# gives the same answer on every run but proves no prime.
_MR_LADDER = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES + (41,)),
)
_MR_FALLBACK = _SMALL_PRIMES + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def _strong_probable_prime(n: int, a: int, d: int, r: int) -> bool:
    # is_prime calls this only for n >= 41 * 41, and every witness a <= 113 < n.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality verdict, proven exact for n < 3.317e24 (the last ladder
    threshold).  Above that it is a strong probable-prime test to 30 fixed
    bases: a composite that passes them all would be reported prime, and no
    proof is made that this cannot happen."""
    if not isinstance(n, int):
        raise ValueError("is_prime needs an integer")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    witnesses: Iterable[int] = _MR_FALLBACK
    for bound, ws in _MR_LADDER:
        if n < bound:
            witnesses = ws
            break
    return all(_strong_probable_prime(n, a, d, r) for a in witnesses)

