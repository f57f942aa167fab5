"""Constructors that emit faithful decompositions with machine-checkable traces.

Each builder returns the decomposition together with a ConstructionTrace
recording the primes it consumed, the Bezout witness behind its final two
terms, and how far it had to walk an arithmetic progression to keep every
denominator coprime to the forbidden set.

The builders compute in integers: a remainder is a numerator z over its
modulus n times the primes taken, and the one Fraction each builds is its
decomposition's target.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt, prod
from typing import Callable, Iterable, Iterator, NamedTuple

from .model import Decomposition, _Record, coprime_shape, decomposition, scale, validate
from .numeric import BezoutPair, is_prime, mod_inverse
from .verifier import CapExceeded

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


class TermBudgetExceeded(CapExceeded, ValueError):
    """Raised when a greedy head would need more prime terms than max_terms.

    A budget refusal like the verifier's cap, and still a ValueError for
    callers that catch that."""


# Prime terms a greedy head may take unless the caller says otherwise.  The
# unit head's length grows like exp(exp(m/n)): 11/4 needs 232 terms, while
# 13/4 and 9/2 need thousands to astronomically many.  At 500 terms the
# closing denominator has about 3000 digits; near 700 it outgrows 4300-digit
# decimal strings.  The max head grows only linearly in m/n, but past the
# same length its closer could not be printed either, and a large enough
# target would run the head for as long as its length, so general_coprime
# holds both policies, and theorem1's head of exactly floor(m/n) primes, to
# this bound.
UNIT_HEAD_MAX_TERMS = 500


class ConstructionTrace(_Record):
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
    # bool is an int subclass, as for a term's parts.
    if type(m) is bool or type(n) is bool or not isinstance(m, int) or not isinstance(n, int):
        raise ValueError("m and n must be integers")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if gcd(m, n) != 1:
        raise ValueError(f"{m}/{n} is not in lowest terms")
    return Fraction(m, n)


def _normalized_omega(omega: Iterable[int]) -> frozenset[int]:
    values = tuple(omega)
    if any(type(w) is bool or not isinstance(w, int) or w < 1 for w in values):
        raise ValueError("omega must contain positive integers")
    return frozenset(values)


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
    if m >= n:
        raise ValueError("two_term needs a proper fraction m/n < 1")
    if m == 1:
        raise ValueError("a unit fraction has no two-term split (x would be 0)")
    tail, pair, _ = _progression_tail(m, n, 1, 0)
    return Built(_settle(decomposition(value, tail)), ConstructionTrace(bezout=pair))


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


def _primes_avoiding(start: int, avoid: int) -> Iterator[int]:
    """The primes p >= start that do not divide avoid, in increasing order."""
    return (p for p in count(start) if is_prime(p) and avoid % p)


def _greedy_head(
    m: int, n: int, policy: str, primes: Callable[[], Iterator[int]], max_terms: int
) -> tuple[list[tuple[int, int]], list[int], int, int]:
    """Take the primes of one stream, in order, until the remainder of m/n
    falls below 1.

    Unit policy contributes 1/p per prime; max policy contributes (p-1)/p.
    The remainder is held as z over den = n times the primes taken, not
    reduced, so a term a/p steps it to (z*p - a*den)/(den*p).  primes()
    makes the stream, and is called only when m/n is at least 1: most
    heads take no prime at all.  Returns the terms, their primes, z and
    den.  Raises TermBudgetExceeded before taking a term past max_terms.
    """
    z, den = m, n
    head: list[tuple[int, int]] = []
    taken: list[int] = []
    for p in primes() if z >= den else ():
        if len(head) >= max_terms:
            raise TermBudgetExceeded(f"head would need more than {max_terms} prime terms")
        a = 1 if policy == "unit" else p - 1
        head.append((a, p))
        taken.append(p)
        z, den = z * p - a * den, den * p
        if z < den:
            break
    if den != n * prod(taken):
        raise RuntimeError("remainder does not live over n times the prime product")
    return head, taken, z, den


def _progression_tail(
    z: int, nb: int, avoid: int, a0_start: int
) -> tuple[list[tuple[int, int]], BezoutPair, int]:
    """Turn the remainder z/nb, with nb = n*prod, into x/b + 1/(nb*b).

    b walks the progression y0 + a0*nb from a0 = a0_start until one gcd
    finds it coprime to avoid, the product of the forbidden values (1 when
    nothing is forbidden; a factor of nb changes nothing).  b is
    automatically coprime to nb, so to n and the primes already used.
    Returns the two closing terms, the Bezout pair (x0, y0) and the steps a0
    taken.
    """
    if z < 1 or gcd(z, nb) != 1:
        raise RuntimeError("remainder numerator shares a factor with its modulus")
    y0 = mod_inverse(z, nb)
    x0 = (z * y0 - 1) // nb
    if x0 == 0:
        y0 += nb
        x0 += z
    a0 = a0_start
    while gcd(b_last := y0 + a0 * nb, avoid) != 1:
        a0 += 1
    x = x0 + a0 * z
    if not 1 <= x < b_last:
        raise RuntimeError("progression produced an improper final pair")
    return [(x, b_last), (1, nb * b_last)], BezoutPair(x0, y0), a0


def _settle_coprime(value: Fraction, terms: list[tuple[int, int]]) -> Decomposition:
    d = _settle(decomposition(value, terms))
    if not coprime_shape(d):
        raise RuntimeError("construction lost the coprime certificate shape")
    return d


def _coprime_block(
    value: Fraction, policy: str, avoid: int, seed: int, max_terms: int
) -> tuple[Decomposition, list[int], BezoutPair, int]:
    """general_coprime's construction on checked arguments: value is m/n in
    lowest terms and avoid is n times the product of the forbidden values.

    Returns the settled decomposition, which carries the coprime shape, with
    the primes its head took, the Bezout pair and the progression steps.
    """
    m, n = value.numerator, value.denominator
    # A prime avoids n and omega exactly when it does not divide avoid.
    # Skipping the first seed of them makes distinct seeds land on distinct
    # decompositions.
    admissible = lambda: islice(_primes_avoiding(2, avoid), seed, None)
    head, primes, z, den = _greedy_head(m, n, policy, admissible, max_terms)
    tail, pair, a0 = _progression_tail(z, den, avoid, seed if not primes else 0)
    return _settle_coprime(value, head + tail), primes, pair, a0


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
    UNIT_HEAD_MAX_TERMS under either policy.
    """
    if numerator_policy not in ("unit", "max"):
        raise ValueError("numerator_policy must be 'unit' or 'max'")
    if type(seed) is bool or not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    value = _check_target(m, n)
    omega_set = _normalized_omega(omega)
    if max_terms is None:
        max_terms = UNIT_HEAD_MAX_TERMS
    elif type(max_terms) is bool or not isinstance(max_terms, int) or max_terms < 0:
        raise ValueError("max_terms must be a nonnegative integer")
    d, primes, pair, a0 = _coprime_block(
        value, numerator_policy, n * prod(omega_set), seed, max_terms
    )
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
    """Decompose m/n with t = floor(m/n) >= 2 into exactly t + 2 terms.

    Takes the smallest t primes above t*n/((t+1)*n - m) that do not divide
    n, contributes (p-1)/p from each, then closes the remainder with a
    Bezout pair.  The prime bound keeps the remainder in (0, 1), and by the
    paper's Theorem 1 no faithful decomposition of m/n has fewer than t + 2
    terms; min_length_search confirms that bound on a grid of small targets
    (tests/test_search.py).  The head is held to UNIT_HEAD_MAX_TERMS primes, so t > 500
    raises TermBudgetExceeded instead of building an unprintable closer.
    """
    value = _check_target(m, n)
    t = m // n
    if t < 2:
        raise ValueError("theorem1 needs m/n >= 2")
    start = t * n // ((t + 1) * n - m) + 1  # first integer above the bound
    head, primes, z, den = _greedy_head(
        m, n, "max", lambda: _primes_avoiding(start, n), UNIT_HEAD_MAX_TERMS
    )
    if len(primes) != t:
        raise RuntimeError("prime bound failed to control the remainder")
    tail, pair, _ = _progression_tail(z, den, 1, 0)
    trace = ConstructionTrace(primes_used=tuple(primes), bezout=pair)
    return Built(_settle_coprime(value, head + tail), trace)


def prop6_condition(m: int, n: int, y2: int, y: int, x: int) -> bool:
    """Arithmetic faithfulness test for 1/y2 + 1/y1 + x/(y*n) shapes.

    False as soon as x >= y.  Otherwise the triple must actually describe a
    three-term decomposition of m/n whose middle term is a unit fraction, and
    the verdict is whether n avoids every multiple m'*y2 with 0 < m' < m.
    """
    for name, v in (("m", m), ("n", n), ("y2", y2), ("y", y), ("x", x)):
        if type(v) is bool or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    if gcd(y, y2) != 1:
        raise ValueError("y and y2 must be coprime")
    if x >= y:
        return False
    # The middle term m/n - 1/y2 - x/(y*n) is num/den over den = n*y*y2; it
    # is a unit fraction 1/y1 exactly when num > 0 divides den.
    den = n * y * y2
    num = m * y * y2 - n * y - x * y2
    if num <= 0 or den % num:
        raise ValueError("middle term is not a positive unit fraction")
    y1 = den // num
    if len({y2, y1, y * n}) != 3:
        raise ValueError("denominators are not distinct")
    # num > 0 gives m*y2 > n, so every multiple of y2 up to n is m'*y2 with
    # 0 < m' < m, and n avoids them all exactly when y2 does not divide it.
    return n % y2 != 0


def prop7(m: int, n: int) -> Built:
    """Three-term decomposition of m/n (m >= 3) with a predicted verdict in
    its trace's predicted_faithful.

    With r = -2n mod m, the branch follows 2n+r mod 2m: the residue m gives
    case 1, the residue 0 gives case 2.  The prediction is
    prop6_condition(m, n, y2, c, x) for the result 1/y2 + 1/(y2*c) + x/(c*n),
    whose hypotheses hold by construction.  The validated sum makes the middle
    term the unit fraction 1/(y2*c), over three distinct denominators.  Case 1
    has y2 = (k+1)/2 and c = k, case 2 has y2 = k/2 + 1 and c = k/2, so c and
    y2 are coprime.  And gcd(m, n) = 1 with m >= 3 makes x >= 1.
    """
    value = _check_target(m, n)
    if m < 3:
        raise ValueError("prop7 needs m >= 3")
    if m >= n:
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
    predicted = prop6_condition(m, n, a_den, c, x_num)
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
    b = prop7(4, n)
    return Built(b.decomposition, ConstructionTrace(branch=b.trace.branch))
