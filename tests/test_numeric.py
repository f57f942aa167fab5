"""Tests for the integer primitives, the verifier's coprime split among them."""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faithfrac import is_prime, mod_inverse
from faithfrac.verifier import _coprime_split

HYP_SETTINGS = {"deadline": None, "max_examples": 200}


@pytest.mark.parametrize(
    "a,n,inv",
    [
        (4, 5, 4),
        (3, 7, 5),
        (71, 105, 71),
    ],
)
def test_mod_inverse_known_values(a, n, inv):
    assert mod_inverse(a, n) == inv


def test_mod_inverse_requires_coprimality():
    with pytest.raises(ValueError):
        mod_inverse(6, 9)


@pytest.mark.parametrize("n", [1, 0, -5])
def test_mod_inverse_requires_a_modulus_of_at_least_two(n):
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        mod_inverse(1, n)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(**HYP_SETTINGS)
def test_mod_inverse_inverts(n, a):
    if math.gcd(a, n) != 1:
        return
    y = mod_inverse(a, n)
    assert 1 <= y <= n - 1
    assert (a * y) % n == 1


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (105, False),
        (997, True),
        (7919, True),
        (7917, False),
    ],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


@pytest.mark.parametrize(
    "fn,args",
    [
        (is_prime, (7.0,)),
        (is_prime, (2.5,)),
        (is_prime, (Fraction(9, 2),)),
        (is_prime, (Decimal(7),)),
        (mod_inverse, (2.0, 5)),
        (mod_inverse, (2, 5.0)),
        (mod_inverse, (Fraction(2), 5)),
        (mod_inverse, (2, Decimal(5))),
    ],
)
def test_is_prime_and_mod_inverse_refuse_non_integers(fn, args):
    # Without the check each of the is_prime calls answers True.
    with pytest.raises(ValueError, match="needs"):
        fn(*args)


def test_is_prime_matches_trial_division_below_2000():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))

    for n in range(1, 2000):
        assert is_prime(n) == slow(n)


def test_is_prime_matches_trial_division_below_100000():
    # Trial division by the primes found so far, up to the square root.
    primes = []
    for n in range(2, 100_000):
        prime = all(n % p for p in takewhile(math.isqrt(n).__ge__, primes))
        assert is_prime(n) == prime, n
        if prime:
            primes.append(n)
    assert len(primes) == 9592
    assert not is_prime(0) and not is_prime(1)


@pytest.mark.parametrize(
    "n,values,expected",
    [
        (12, [2], [(3, 0), (4, 1)]),
        (360, [4, 5], [(5, 0b10), (8, 0b01), (9, 0)]),
        (36, [6], [(36, 1)]),
        (30, [], [(30, 0)]),
        (1, [3], []),
        (2 * 3 * 5 * 7, [10, 21], [(2 * 5, 0b01), (3 * 7, 0b10)]),
        (77, [91], [(7, 1), (11, 0)]),
        # A value equal to n: every part divides it and is shared whole.
        (2 * 3 * 5 * 7, [10, 210], [(2 * 5, 0b11), (3 * 7, 0b10)]),
        # A value that is a multiple of one part and coprime to another.
        (15, [3, 6], [(3, 0b11), (5, 0b00)]),
        # A value coprime to every part.
        (2 * 3 * 5 * 7, [10, 11], [(2 * 5, 0b01), (3 * 7, 0b00)]),
    ],
)
def test_coprime_parts_examples(n, values, expected):
    # (part, mask): bit i is set when the part shares its primes with values[i].
    assert _coprime_split(n, values) == expected


@given(
    st.integers(min_value=1, max_value=10**12),
    st.lists(st.integers(min_value=1, max_value=10**6), max_size=6),
)
@settings(**HYP_SETTINGS)
def test_coprime_parts_split_n_by_the_primes_of_the_values(n, values):
    split = _coprime_split(n, values)
    parts = [f for f, _ in split]
    assert parts == sorted(parts)
    assert math.prod(parts) == n
    assert all(f > 1 for f in parts)
    assert all(math.gcd(f, g) == 1 for i, f in enumerate(parts) for g in parts[i + 1 :])
    # Bit i of a part's mask is set exactly when the part meets values[i],
    # and then in all of its primes: every prime of f divides v exactly
    # when f divides a high enough power of v.
    for f, mask in split:
        for i, v in enumerate(values):
            assert bool(mask >> i & 1) == (math.gcd(f, v) > 1)
            assert math.gcd(f, v) == 1 or pow(v, f.bit_length(), f) == 0
    assert all(mask < 1 << len(values) for _, mask in split)
