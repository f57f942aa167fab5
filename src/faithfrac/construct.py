"""Constructors that emit faithful decompositions with machine-checkable traces.

Each builder returns the decomposition together with a ConstructionTrace
recording the primes it consumed, the Bezout witness behind its final two
terms, and how far it had to walk an arithmetic progression to keep every
denominator coprime to the forbidden set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, NamedTuple

from .model import Decomposition, coprime_shape, decomposition, scale, validate
from .numeric import BezoutPair, mod_inverse, next_prime_avoiding

__all__ = [
    "TermBudgetExceeded",
    "ConstructionTrace",
    "Built",
    "two_term",
    "from_perfect",
    "all_units_but_one",
    "general_coprime",
    "theorem1",
    "prop6_condition",
    "prop7",
    "theorem4",
]


class TermBudgetExceeded(ValueError):
    """Raised when a greedy head would need more prime terms than max_terms."""


# Prime terms the unit head may take unless the caller says otherwise.  Its
# length grows like exp(exp(m/n)): 11/4 needs 232 terms, while 13/4 and 9/2
# need thousands to astronomically many.  At 500 terms the closing
# denominator has about 3000 digits; near 700 it outgrows 4300-digit decimal
# strings.  The max head grows only linearly in m/n, so it has no default.
UNIT_HEAD_MAX_TERMS = 500


@dataclass(frozen=True)
class ConstructionTrace:
    """How a decomposition was assembled, for audit and reproducibility."""

    primes_used: tuple[int, ...] = ()
    bezout: BezoutPair | None = None
    progression_steps: int = 0
    branch: str | None = None
    applied_scaling: int | None = None
    avoided: tuple[int, ...] = ()
    predicted_faithful: bool | None = None


class Built(NamedTuple):
    decomposition: Decomposition
    trace: ConstructionTrace


def _check_target(m: int, n: int) -> Fraction:
    if not isinstance(m, int) or not isinstance(n, int):
        raise ValueError("m and n must be integers")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if gcd(m, n) != 1:
        raise ValueError(f"{m}/{n} is not in lowest terms")
    return Fraction(m, n)


def _normalized_omega(omega: Iterable[int]) -> frozenset[int]:
    values = frozenset(omega)
    if any((not isinstance(w, int)) or w < 1 for w in values):
        raise ValueError("omega must contain positive integers")
    return values


def _settle(d: Decomposition) -> Decomposition:
    problems = validate(d)
    if problems:
        raise RuntimeError(f"constructed an invalid decomposition: {problems}")
    return d


def two_term(m: int, n: int) -> Built:
    """Split an irreducible m/n in (0,1) as x/y + 1/(n*y) with y*m - x*n = 1.

    The numerator must be at least 2: a unit fraction would force x = 0.
    """
    value = _check_target(m, n)
    if value >= 1:
        raise ValueError("two_term needs a proper fraction m/n < 1")
    if m == 1:
        raise ValueError("a unit fraction has no two-term split (x would be 0)")
    y = mod_inverse(m, n)
    x = (y * m - 1) // n
    if not 1 <= x < y:
        raise RuntimeError("Bezout witness out of range")
    d = _settle(decomposition(value, [(x, y), (1, n * y)]))
    return Built(d, ConstructionTrace(bezout=BezoutPair(x, y)))


def from_perfect(p: int) -> Built:
    """Write 1 as the sum of 1/d over the divisors d > 1 of a perfect number."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("need an integer >= 2")
    divisors: list[int] = []
    for small in range(1, isqrt(p) + 1):
        if p % small == 0:
            divisors.append(small)
            if small != p // small:
                divisors.append(p // small)
    if sum(divisors) != 2 * p:
        raise ValueError(f"{p} is not perfect")
    terms = [(1, b) for b in sorted(divisors) if b > 1]
    d = _settle(decomposition(Fraction(1), terms))
    return Built(d, ConstructionTrace())


def _greedy_head(
    value: Fraction,
    n: int,
    omega: frozenset[int],
    policy: str,
    seed: int,
    max_terms: int | None,
) -> tuple[list[tuple[int, int]], list[int], Fraction]:
    """Pick admissible primes until the remainder falls below 1.

    Unit policy contributes 1/p per prime; max policy contributes (p-1)/p.
    The first `seed` admissible primes are skipped, which is what makes
    distinct seeds land on distinct decompositions.  Raises
    TermBudgetExceeded before taking a term past max_terms (None: no bound).
    """
    forbidden = (n, *omega)
    rem = value
    head: list[tuple[int, int]] = []
    primes: list[int] = []
    candidate = 2
    skipped = 0
    while rem >= 1:
        if max_terms is not None and len(head) >= max_terms:
            raise TermBudgetExceeded(f"head would need more than {max_terms} prime terms")
        p = next_prime_avoiding(candidate, forbidden)
        candidate = p + 1
        if skipped < seed:
            skipped += 1
            continue
        a = 1 if policy == "unit" else p - 1
        head.append((a, p))
        primes.append(p)
        rem -= Fraction(a, p)
    return head, primes, rem


def _progression_tail(
    rem: Fraction,
    n: int,
    primes_product: int,
    omega: frozenset[int],
    a0_start: int,
) -> tuple[int, int, BezoutPair, int]:
    """Turn the remainder z/(n*prod) into x/b + 1/(n*prod*b).

    b walks the progression y0 + a0*(n*prod) until it is coprime to omega;
    it is automatically coprime to n and the primes already used.
    """
    nb = n * primes_product
    scaled = rem * nb
    if scaled.denominator != 1:
        raise RuntimeError("remainder does not live over n times the prime product")
    z = scaled.numerator
    if z < 1 or gcd(z, nb) != 1:
        raise RuntimeError("remainder numerator shares a factor with its modulus")
    y0 = mod_inverse(z, nb)
    x0 = (z * y0 - 1) // nb
    if x0 == 0:
        y0 += nb
        x0 += z
    a0 = a0_start
    while True:
        b_last = y0 + a0 * nb
        if all(gcd(b_last, w) == 1 for w in omega):
            break
        a0 += 1
    x = x0 + a0 * z
    if not 1 <= x < b_last:
        raise RuntimeError("progression produced an improper final pair")
    return x, b_last, BezoutPair(x0, y0), a0


def general_coprime(
    m: int,
    n: int,
    numerator_policy: str = "unit",
    omega: Iterable[int] = (),
    seed: int = 0,
    max_terms: int | None = None,
) -> Built:
    """Greedy coprime construction: proper prime-denominator terms, one
    progression term, and a closing unit fraction over their full product.

    numerator_policy "unit" takes 1/p per prime (many short steps); "max"
    takes (p-1)/p (few long steps, for large targets).  Every denominator is
    kept coprime to n and to every element of omega, so the result always
    carries the coprime certificate shape.  The head raises
    TermBudgetExceeded past max_terms prime terms; by default that is
    UNIT_HEAD_MAX_TERMS under "unit" and no bound under "max".
    """
    if numerator_policy not in ("unit", "max"):
        raise ValueError("numerator_policy must be 'unit' or 'max'")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    value = _check_target(m, n)
    omega_set = _normalized_omega(omega)
    if max_terms is None and numerator_policy == "unit":
        max_terms = UNIT_HEAD_MAX_TERMS
    head, primes, rem = _greedy_head(
        value, n, omega_set, numerator_policy, seed, max_terms
    )
    a0_start = seed if not primes else 0
    x, b_last, pair, a0 = _progression_tail(rem, n, prod(primes), omega_set, a0_start)
    nb = n * prod(primes)
    d = _settle(decomposition(value, head + [(x, b_last), (1, nb * b_last)]))
    if not coprime_shape(d):
        raise RuntimeError("construction lost the coprime certificate shape")
    trace = ConstructionTrace(
        primes_used=tuple(primes),
        bezout=pair,
        progression_steps=a0,
        branch=numerator_policy,
        avoided=tuple(sorted(omega_set)),
    )
    return Built(d, trace)


def all_units_but_one(
    m: int, n: int, omega: Iterable[int] = (), seed: int = 0,
    max_terms: int | None = None,
) -> Built:
    """Unit fractions over greedy primes plus one progression term and closer.

    The head takes at most max_terms primes, UNIT_HEAD_MAX_TERMS by default.
    """
    return general_coprime(m, n, "unit", omega, seed, max_terms)


def theorem1(m: int, n: int) -> Built:
    """Decompose m/n with floor(m/n) in [2, 4+] into exactly floor(m/n) + 2 terms.

    Takes the smallest t = floor(m/n) primes above t*n/((t+1)*n - m) that do
    not divide n, contributes (p-1)/p from each, then closes the remainder
    with a Bezout pair.  The prime bound guarantees the remainder stays in
    (0, 1); the result is minimal-length: no faithful decomposition of m/n
    has fewer than t + 2 terms.
    """
    value = _check_target(m, n)
    t = m // n
    if t < 2:
        raise ValueError("theorem1 needs m/n >= 2")
    slack_den = (t + 1) * n - m
    primes: list[int] = []
    candidate = 2
    while len(primes) < t:
        p = next_prime_avoiding(candidate, (n,))
        candidate = p + 1
        if p * slack_den > t * n:  # p strictly above t*n / ((t+1)*n - m)
            primes.append(p)
    unit_sum = sum((Fraction(1, p) for p in primes), Fraction(0))
    if not unit_sum < (t + 1) - value:
        raise RuntimeError("prime bound failed to control the remainder")
    rem = value - sum((Fraction(p - 1, p) for p in primes), Fraction(0))
    np_ = n * prod(primes)
    scaled = rem * np_
    if scaled.denominator != 1:
        raise RuntimeError("remainder does not live over n times the prime product")
    big_m = scaled.numerator
    if big_m <= 1 or gcd(big_m, np_) != 1:
        raise RuntimeError("degenerate remainder numerator")
    y = mod_inverse(big_m, np_)
    x = (y * big_m - 1) // np_
    if not 1 <= x < y:
        raise RuntimeError("Bezout witness out of range")
    head = [(p - 1, p) for p in primes]
    d = _settle(decomposition(value, head + [(x, y), (1, np_ * y)]))
    if not coprime_shape(d):
        raise RuntimeError("construction lost the coprime certificate shape")
    trace = ConstructionTrace(primes_used=tuple(primes), bezout=BezoutPair(x, y))
    return Built(d, trace)


def prop6_condition(m: int, n: int, y2: int, y: int, x: int) -> bool:
    """Arithmetic faithfulness test for 1/y2 + 1/y1 + x/(y*n) shapes.

    False as soon as x >= y.  Otherwise the triple must actually describe a
    three-term decomposition of m/n whose middle term is a unit fraction, and
    the verdict is whether n avoids every multiple m'*y2 with 0 < m' < m.
    """
    for name, v in (("m", m), ("n", n), ("y2", y2), ("y", y), ("x", x)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    if gcd(y, y2) != 1:
        raise ValueError("y and y2 must be coprime")
    if x >= y:
        return False
    middle = Fraction(m, n) - Fraction(1, y2) - Fraction(x, y * n)
    if middle <= 0 or middle.numerator != 1:
        raise ValueError("middle term is not a positive unit fraction")
    y1 = middle.denominator
    if len({y2, y1, y * n}) != 3:
        raise ValueError("denominators are not distinct")
    return all(n != mp * y2 for mp in range(1, m))


def prop7(m: int, n: int) -> Built:
    """Three-term decomposition of m/n (m >= 3) with a predicted verdict in
    its trace's predicted_faithful.

    With r = -2n mod m, the branch follows 2n+r mod 2m: the residue m gives
    case 1, the residue 0 gives case 2.  The prediction is exact: the result
    is faithful iff the final numerator stays below its progression modulus
    and n is not m'*y2 for any 0 < m' < m.
    """
    value = _check_target(m, n)
    if m < 3:
        raise ValueError("prop7 needs m >= 3")
    if value >= 1:
        raise ValueError("prop7 needs a proper fraction m/n < 1")
    r = (-2 * n) % m
    k = (2 * n + r) // m
    if k % 2 == 1:
        branch = "case1"
        a_den = (2 * n + r + m) // (2 * m)
        c = k
        x_num = r
    else:
        branch = "case2"
        a_den = (2 * n + r + 2 * m) // (2 * m)
        c = k // 2
        x_num = r // 2
    terms = [(1, a_den), (1, a_den * c), (x_num, c * n)]
    d = _settle(decomposition(value, terms))
    predicted = x_num < c and all(n != mp * a_den for mp in range(1, m))
    return Built(d, ConstructionTrace(branch=branch, predicted_faithful=predicted))


def theorem4(n: int) -> Built:
    """Three-term decomposition of 4/n for odd n >= 5, faithful for every n.

    The generic branches are the m = 4 instances of prop7; n = 9 and n = 15
    fall outside them and use the divisor chain 1/4 + 1/6 + 1/36 and the
    3-scaled copy of the n = 5 result instead.
    """
    if not isinstance(n, int) or n < 5 or n % 2 == 0:
        raise ValueError("need an odd integer n >= 5")
    if n == 9:
        d = _settle(decomposition(Fraction(4, 9), [(1, 4), (1, 6), (1, 36)]))
        return Built(d, ConstructionTrace(branch="example9"))
    if n == 15:
        base = theorem4(5)
        d = _settle(scale(base.decomposition, 3))
        return Built(d, ConstructionTrace(branch="scaled15", applied_scaling=3))
    if n % 4 == 1:
        a_den = (n + 3) // 4
        half = (n + 1) // 2
        terms = [(1, a_den), (1, a_den * half), (2, half * n)]
        branch = "case1"
    else:
        a_den = (n + 5) // 4
        quarter = (n + 1) // 4
        terms = [(1, a_den), (1, a_den * quarter), (1, quarter * n)]
        branch = "case2"
    d = _settle(decomposition(Fraction(4, n), terms))
    return Built(d, ConstructionTrace(branch=branch))
