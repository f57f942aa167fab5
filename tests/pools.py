"""Shared generators of test inputs.

generated_pool feeds both the acceptance suite and the oracle's pinned
digest in test_verifier.py, so a change to it changes that digest.
"""

from fractions import Fraction
from math import gcd

from faithfrac import (
    all_units_but_one,
    decomposition,
    prop7,
    theorem1,
    theorem4,
    two_term,
)


def generated_pool(rng, want):
    """A varied stream of valid decompositions, faithful and not."""
    makers = []

    def from_two_term():
        n = rng.randint(3, 5000)
        m = rng.randint(2, n - 1)
        if gcd(m, n) != 1:
            return None
        return two_term(m, n).decomposition

    def from_theorem4():
        return theorem4(2 * rng.randint(2, 400) + 1).decomposition

    def from_prop7():
        m = rng.choice([3, 4, 5])
        n = rng.randint(m + 1, 400)
        if gcd(m, n) != 1:
            return None
        return prop7(m, n).decomposition

    def from_units():
        n = rng.randint(2, 60)
        m = rng.randint(1, 2 * n)
        if gcd(m, n) != 1:
            return None
        try:
            return all_units_but_one(m, n, max_terms=12).decomposition
        except ValueError:
            return None

    def from_theorem1():
        n = rng.randint(1, 30)
        t = rng.randint(2, 3)
        m = rng.randint(t * n, (t + 1) * n - 1)
        if gcd(m, n) != 1:
            return None
        return theorem1(m, n).decomposition

    def from_random_terms():
        k = rng.randint(1, 4)
        dens = rng.sample(range(2, 80), k)
        pairs = [(rng.randint(1, min(b - 1, 5)), b) for b in dens]
        target = sum(Fraction(a, b) for a, b in pairs)
        return decomposition(target, pairs)

    makers = [from_two_term, from_theorem4, from_prop7, from_units, from_theorem1,
              from_random_terms, from_random_terms]
    out = []
    while len(out) < want:
        d = rng.choice(makers)()
        if d is not None:
            out.append(d)
    return out
