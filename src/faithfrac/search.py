"""Bounded exhaustive search for short faithful decompositions, plus the
one sweep over a grid of m and n that stress-tests the three-term
constructions.

The length searcher proves statements of the form "m/n has no faithful
decomposition with at most L terms and denominators at most B" by exhausting
the bounded space in integer numerators over D = lcm(b_i).  A denominator
set is refused before any numerator is tried when n does not divide D (the
sum's reduced denominator divides D, and gcd(m, n) = 1) or when m/n lies
outside the sums its numerators can make: a term over b carries 1 to
model.max_numerator(b, n), which is 0 when b divides n, so such b never
enter.  The numerators of the other sets are scanned slot by slot within
remaining-sum intervals, and the last two are solved together by one
congruence.

_sweep builds and verifies each 3 <= m < n of a grid with gcd(m, n) == 1.
prop6_discrepancy_scan (the CLI's hunt) reads it with prop7, and the CLI's
table with prop7 or, for 4/n, theorem4, so the grid's filter, its
constructor call and its verify call are written once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator

from .construct import Built, prop7
from .model import Decomposition, _Record, _setfield, decomposition, max_numerator
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


class SearchBudget(_Record):
    max_length: int
    max_denominator: int
    combo_cap: int

    def __init__(self, max_length: int, max_denominator: int, combo_cap: int = DEFAULT_CAP) -> None:
        # bool is an int subclass, as for a term's parts.
        bounds = (max_length, max_denominator, combo_cap)
        if any(type(v) is bool or not isinstance(v, int) for v in bounds):
            raise ValueError("budget bounds must be integers")
        if max_length < 1 or max_denominator < 2 or combo_cap < 1:
            raise ValueError("budget bounds out of range")
        _setfield(self, "max_length", max_length)
        _setfield(self, "max_denominator", max_denominator)
        _setfield(self, "combo_cap", combo_cap)


class LengthOutcome(_Record):
    length: int
    found: Decomposition | None
    exhausted: bool


class SearchResult(_Record):
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
    """Subsets of the pool of a size >= 1 in colex order: the largest element
    grows last.

    The pool is read one element at a time, when a set first needs it, so a
    consumer that stops early never reads (or stores) the rest.  Sets of one
    element are the pool's own, so size 1 stores none of it.
    """
    if size == 1:
        yield from ((b,) for b in pool)
        return
    seen: list[int] = []
    for b in pool:
        if len(seen) >= size - 1:
            for rest in _colex_sets(seen, size - 1):
                yield rest + (b,)
        seen.append(b)


def min_length_search(m: int, n: int, budget: SearchBudget) -> SearchResult:
    """Look for faithful decompositions of m/n at each length up to the budget.

    Denominator sets are enumerated in colex order.  A set is refused when n
    does not divide D = lcm(b_i), or when m * D / n lies outside
    [sum(D / b_i), sum(his_i * D / b_i)], his_i being max_numerator(b_i, n).
    Otherwise numerators are assigned by backtracking in ascending order,
    pruned by the remaining-sum intervals, and the last two slots are solved
    as a * w + c * w2 = rem: with g = gcd(w, w2), the a that solve it form
    one progression of step w2 / g, clipped so that 1 <= a <= his and
    1 <= c <= his2.  Per length, the first faithful candidate stops the
    scan; exhausted means the whole bounded space was covered without a cap
    break.

    combos_used counts one per refused set, one per numerator tried before
    the last two slots, one per two-slot solve and per pair it yields, plus
    each verify's combos_examined.  The cap is checked before each set, so
    every set costs at least one combo.
    """
    if type(m) is bool or type(n) is bool or not isinstance(m, int) or not isinstance(n, int):
        raise ValueError("m and n must be integers")
    if gcd(m, n) != 1 or m < 1 or n < 1:
        raise ValueError("target must be a positive fraction in lowest terms")
    target = Fraction(m, n)
    B, cap = budget.max_denominator, budget.combo_cap

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
        if combos > cap:
            cap_hit = True
            return None
        w = weights[idx]
        hi = his[idx]
        if idx == len(dens) - 2:
            # The last two slots: a * w + c * w2 = rem holds for one residue
            # of a mod w2 / g, or none when g = gcd(w, w2) does not divide
            # rem; 1 <= c <= hi2 clips a to [lo, top].
            combos += 1
            w2, hi2 = weights[idx + 1], his[idx + 1]
            g = gcd(w, w2)
            if rem % g:
                return None
            step = w2 // g
            lo = max(1, -((hi2 * w2 - rem) // w))
            top = min(hi, (rem - w2) // w)
            first = lo + (rem // g * pow(w // g, -1, step) - lo) % step
            for a in range(first, top + 1, step):
                combos += 1
                if combos > cap:
                    cap_hit = True
                    return None
                cand = decomposition(target, list(zip(chosen + [a, (rem - a * w) // w2], dens)))
                try:
                    report = verify(cand, cap=cap)
                except CapExceeded:
                    cap_hit = True
                    return None
                combos += report.combos_examined
                if report.faithful:
                    return cand
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
        pool = (b for b in range(2, B + 1) if max_numerator(b, n))
        found: Decomposition | None = None
        for dens in _colex_sets(pool, length):
            if combos > cap:
                cap_hit = True
                break
            # A sum over the b_i has a reduced denominator dividing their
            # lcm D, so n must divide D; then its numerator over D is
            # m * D / n, which the terms' numerators 1..his[j] must reach.
            # So every set of one term b = k * n is refused: it carries at
            # most k - 1 < m * k, and backtrack sees two terms or more.
            D = lcm(*dens)
            if not D % n:
                rem = m * (D // n)
                weights = [D // b for b in dens]
                his = [max_numerator(b, n) for b in dens]
                if sum(weights) <= rem <= sum(map(mul, his, weights)):
                    tail_min = [sum(weights[j + 1 :]) for j in range(length)]
                    tail_max = [
                        sum(h * w for h, w in zip(his[j + 1 :], weights[j + 1 :]))
                        for j in range(length)
                    ]
                    found = backtrack(0, rem, [])
                    if found is not None or cap_hit:
                        break
                    continue
            combos += 1  # a refused set
        outcomes.append(
            LengthOutcome(length, found, not cap_hit and found is None)
        )
    return SearchResult(target, tuple(outcomes), cap_hit, combos)


class Prop6Instance(_Record):
    m: int
    n: int
    y2: int
    y: int
    x: int
    condition: bool
    verified: bool


class Prop6ScanReport(_Record):
    instances: int
    discrepancies: tuple[Prop6Instance, ...]


def _sweep(
    m_values: Iterable[int], n_values: Iterable[int], build: Callable[[int, int], Built], cap: int
) -> Iterator[tuple[int, int, Built, bool]]:
    """(m, n, build(m, n), its verify verdict at cap) for every m and n of the
    grid with 3 <= m < n and gcd(m, n) == 1, in m-major order.

    Every m reads n_values again, so a one-shot iterator is stored once; a
    range or a list is read as it is, and a wide range is never stored.
    """
    if iter(n_values) is n_values:
        n_values = tuple(n_values)
    for m in m_values:
        for n in n_values:
            if m < 3 or n <= m or gcd(m, n) != 1:
                continue
            built = build(m, n)
            yield m, n, built, verify(built.decomposition, cap).faithful


def prop6_discrepancy_scan(
    m_values: Iterable[int],
    n_values: Iterable[int],
) -> Prop6ScanReport:
    """Compare the arithmetic condition against enumeration over a grid.

    Each (m, n) is built by the three-term constructor prop7, whose trace
    carries prop6_condition's verdict.  An empty discrepancy list is evidence
    the condition is exact on the grid.
    """
    count = 0
    bad: list[Prop6Instance] = []
    for m, n, built, verified in _sweep(m_values, n_values, prop7, DEFAULT_CAP):
        count += 1
        condition = built.trace.predicted_faithful
        if condition != verified:  # only a disagreement is kept
            first, _, last = built.decomposition.terms
            bad.append(Prop6Instance(m, n, first.den, last.den // n, last.num, condition, verified))
    return Prop6ScanReport(count, tuple(bad))
