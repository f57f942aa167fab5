"""Bounded exhaustive search for short faithful decompositions, plus a
scanner that stress-tests the three-term arithmetic condition.

The length searcher proves statements of the form "m/n has no faithful
decomposition with at most L terms and denominators at most B" by exhausting
the bounded space, pruning with the necessary conditions (no denominator
divides n, every numerator a satisfies a*gcd(b,n) < b) and with remaining-sum
intervals, all in integer numerators over D = lcm(n, b_i).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .construct import prop7, prop6_condition
from .model import Decomposition, decomposition
from .verifier import DEFAULT_CAP, CapExceeded, verify

__all__ = [
    "SearchBudget",
    "LengthOutcome",
    "SearchResult",
    "min_length_search",
    "Prop6Instance",
    "Prop6ScanReport",
    "prop6_discrepancy_scan",
]


@dataclass(frozen=True)
class SearchBudget:
    max_length: int
    max_denominator: int
    combo_cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.max_length < 1 or self.max_denominator < 2 or self.combo_cap < 1:
            raise ValueError("budget bounds out of range")


@dataclass(frozen=True)
class LengthOutcome:
    length: int
    found: Decomposition | None
    exhausted: bool


@dataclass(frozen=True)
class SearchResult:
    target: Fraction
    outcomes: tuple[LengthOutcome, ...]
    cap_hit: bool
    combos_used: int

    @property
    def witness(self) -> Decomposition | None:
        for outcome in self.outcomes:
            if outcome.found is not None:
                return outcome.found
        return None


def _colex_sets(pool: Iterable[int], size: int) -> Iterator[tuple[int, ...]]:
    """Subsets of the pool in colex order: the largest element grows last.

    The pool is read one element at a time, when a set first needs it, so a
    consumer that stops early never reads (or stores) the rest.
    """
    if size == 0:
        yield ()
        return
    seen: list[int] = []
    for b in pool:
        if len(seen) >= size - 1:
            for rest in _colex_sets(seen, size - 1):
                yield rest + (b,)
        seen.append(b)


def _max_numerator(b: int, n: int) -> int:
    # Largest a with a*gcd(b, n) < b; at least 1 when b does not divide n.
    return (b - 1) // gcd(b, n)


def min_length_search(
    m: int,
    n: int,
    budget: SearchBudget,
    shuffle_seed: int | None = None,
) -> SearchResult:
    """Look for faithful decompositions of m/n at each length up to the budget.

    Denominator sets are enumerated in colex order (shuffle_seed reorders
    them, as an independence check on the exhaustion verdict); numerators are
    assigned by backtracking over integer numerators with common denominator
    D = lcm(n, b_i), pruned by each set's remaining-sum intervals.  Per
    length, the first faithful candidate stops the scan; exhausted means the
    whole bounded space was covered without a cap break.
    """
    if gcd(m, n) != 1 or m < 1 or n < 1:
        raise ValueError("target must be a positive fraction in lowest terms")
    target = Fraction(m, n)
    combos = 0
    cap_hit = False
    outcomes: list[LengthOutcome] = []
    # Per denominator set: term j weighs D // b_j, may carry 1..his[j], and
    # the terms after slot j carry between tail_min[j] and tail_max[j].
    dens: tuple[int, ...] = ()
    weights: list[int] = []
    his: list[int] = []
    tail_min: list[int] = []
    tail_max: list[int] = []

    def backtrack(idx: int, rem: int, chosen: list[int]) -> Decomposition | None:
        nonlocal combos, cap_hit
        if combos > budget.combo_cap:
            cap_hit = True
            return None
        if idx == len(dens):
            cand = decomposition(target, list(zip(chosen, dens)))
            try:
                report = verify(cand, cap=budget.combo_cap)
            except CapExceeded:
                cap_hit = True
                return None
            combos += report.combos_examined
            return cand if report.faithful else None
        w = weights[idx]
        hi = his[idx]
        if idx == len(dens) - 1:
            # Final slot: solve a * w = rem directly instead of scanning.
            combos += 1
            a, r = divmod(rem, w)
            if r == 0 and 1 <= a <= hi:
                return backtrack(idx + 1, 0, chosen + [a])
            return None
        low, high = tail_min[idx], tail_max[idx]
        for a in range(1, hi + 1):
            combos += 1
            nxt = rem - a * w
            if nxt < low:
                break
            if nxt > high:
                continue
            got = backtrack(idx + 1, nxt, chosen + [a])
            if got is not None or cap_hit:
                return got
        return None

    for length in range(1, budget.max_length + 1):
        if cap_hit:
            outcomes.append(LengthOutcome(length, None, False))
            continue
        pool = (b for b in range(2, budget.max_denominator + 1) if n % b != 0)
        sets: Iterable[tuple[int, ...]] = _colex_sets(pool, length)
        if shuffle_seed is not None:
            shuffled = list(sets)
            random.Random(shuffle_seed).shuffle(shuffled)
            sets = shuffled
        found: Decomposition | None = None
        for dens in sets:
            D = lcm(n, *dens)
            weights = [D // b for b in dens]
            his = [_max_numerator(b, n) for b in dens]
            tail_min = [sum(weights[j + 1 :]) for j in range(length)]
            tail_max = [
                sum(h * w for h, w in zip(his[j + 1 :], weights[j + 1 :]))
                for j in range(length)
            ]
            found = backtrack(0, m * (D // n), [])
            if found is not None or cap_hit:
                break
        outcomes.append(
            LengthOutcome(length, found, not cap_hit and found is None)
        )
    return SearchResult(target, tuple(outcomes), cap_hit, combos)


@dataclass(frozen=True)
class Prop6Instance:
    m: int
    n: int
    y2: int
    y: int
    x: int
    condition: bool
    verified: bool

    @property
    def agrees(self) -> bool:
        return self.condition == self.verified


@dataclass(frozen=True)
class Prop6ScanReport:
    instances: int
    discrepancies: tuple[Prop6Instance, ...]


def prop6_discrepancy_scan(
    m_values: Iterable[int],
    n_values: Iterable[int],
) -> Prop6ScanReport:
    """Compare the arithmetic condition against enumeration over a grid.

    Each (m, n) is built by the three-term constructor prop7.  An empty
    discrepancy list is evidence the condition is exact on the grid.
    """
    count = 0
    bad: list[Prop6Instance] = []
    for m in m_values:
        for n in n_values:
            if m < 3 or n <= m or gcd(m, n) != 1:
                continue
            d = prop7(m, n).decomposition
            y2 = d.terms[0].den
            y = d.terms[2].den // n
            x = d.terms[2].num
            condition = prop6_condition(m, n, y2, y, x)
            verified = verify(d).faithful
            count += 1
            inst = Prop6Instance(m, n, y2, y, x, condition, verified)
            if not inst.agrees:
                bad.append(inst)
    return Prop6ScanReport(count, tuple(bad))
