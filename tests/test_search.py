"""Bounded exhaustive search and the three-term condition scanner."""

import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

from faithfrac import (
    CapExceeded,
    LengthOutcome,
    Prop6Instance,
    SearchBudget,
    construct,
    decomposition,
    max_numerator,
    min_length_search,
    prop6_discrepancy_scan,
    prop7,
    search,
    theorem1,
    verify,
    verify_naive,
)


def test_a_candidate_the_verifier_refuses_is_a_cap_hit(monkeypatch):
    # 1/2 + 1/6, the first candidate for 2/3, comes at length 2.
    def refuse(d, cap):
        raise CapExceeded(f"refused at cap {cap}")

    monkeypatch.setattr(search, "verify", refuse)
    result = min_length_search(2, 3, SearchBudget(3, 10))
    assert result.cap_hit
    assert result.outcomes == (
        LengthOutcome(1, None, True), LengthOutcome(2, None, False), LengthOutcome(3, None, False),
    )


def test_budget_bounds_are_validated():
    with pytest.raises(ValueError):
        SearchBudget(0, 10)
    with pytest.raises(ValueError):
        SearchBudget(3, 1)
    with pytest.raises(ValueError):
        SearchBudget(3, 10, 0)


@pytest.mark.parametrize("bounds", [(3.5, 20), (3, 20.0), (3, 20, 1e6), (True, 20), (3, 20, True)])
def test_budget_bounds_must_be_integers_not_booleans(bounds):
    with pytest.raises(ValueError, match="integers"):
        SearchBudget(*bounds)


@pytest.mark.parametrize("m, n", [(True, 3), (7.0, 3), (7, 3.0), (2, True), (Fraction(7), 3)])
def test_target_must_be_integers_not_booleans(m, n):
    with pytest.raises(ValueError, match="m and n must be integers"):
        min_length_search(m, n, SearchBudget(2, 10))


def test_two_thirds_has_a_two_term_witness():
    result = min_length_search(2, 3, SearchBudget(2, 10))
    assert not result.cap_hit
    w = result.witness
    assert [(t.num, t.den) for t in w.terms] == [(1, 2), (1, 6)]
    assert result.outcomes[0].found is None
    assert result.outcomes[0].exhausted


def test_seven_thirds_has_no_short_decomposition():
    result = min_length_search(7, 3, SearchBudget(3, 30))
    assert result.witness is None
    assert not result.cap_hit
    assert all(o.exhausted for o in result.outcomes)
    assert [o.length for o in result.outcomes] == [1, 2, 3]


def test_a_length_four_witness_exists_in_the_box():
    # the four-term construction for 7/3 fits inside max_denominator 8000,
    # so the bounded box is known non-empty at length 4
    d = theorem1(7, 3).decomposition
    assert len(d.terms) == 4
    assert max(d.denominators) <= 8000
    assert verify(d).faithful


def test_cap_exhaustion_reports_partial_result():
    result = min_length_search(7, 3, SearchBudget(4, 8000, combo_cap=50_000))
    assert result.cap_hit
    assert result.witness is None
    assert not result.outcomes[-1].exhausted
    assert result.combos_used >= 50_000


def test_cap_bounds_memory_whatever_the_denominator_bound():
    # The denominator pool is read only as far as the cap lets the search
    # go; listing it up front took 38 MB at this bound.
    tracemalloc.start()
    try:
        result = min_length_search(3, 2, SearchBudget(2, 10**6, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.cap_hit
    assert peak < 2**20


def test_a_length_one_search_stores_none_of_its_pool():
    # No set of one term can pass, and each costs one combination.  Keeping
    # the pool read so far, to pair it with later members, took 390 KB here
    # and 53 MB RSS at B = 10**6.
    tracemalloc.start()
    try:
        result = min_length_search(3, 2, SearchBudget(1, 10**4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.outcomes == (LengthOutcome(1, None, True),)
    assert (result.combos_used, result.cap_hit) == (10**4 - 2, False)
    assert peak < 2**16


def test_search_is_deterministic():
    a = min_length_search(7, 3, SearchBudget(3, 30))
    b = min_length_search(7, 3, SearchBudget(3, 30))
    assert a == b


def test_found_witness_always_verifies():
    for m, n, budget in ((2, 3, SearchBudget(2, 10)), (4, 9, SearchBudget(3, 40))):
        result = min_length_search(m, n, budget)
        w = result.witness
        if w is not None:
            assert w.target == Fraction(m, n)
            assert verify(w).faithful


def outcome_pairs(result):
    return [
        (o.exhausted, None if o.found is None else [(t.num, t.den) for t in o.found.terms])
        for o in result.outcomes
    ]


@pytest.mark.parametrize(
    "m, n, budget, combos, cap_hit, outcomes",
    [
        # Every set of 7/3 and 11/5 up to length 3 is refused, at one combo each.
        (7, 3, SearchBudget(3, 30), 3_682, False, [(True, None)] * 3),
        (5, 2, SearchBudget(3, 40), 9_177, False, [(True, None)] * 3),
        (11, 5, SearchBudget(3, 30), 3_682, False, [(True, None)] * 3),
        (3, 4, SearchBudget(3, 30), 228, False,
         [(True, None), (False, [(2, 3), (1, 12)]), (False, [(1, 3), (3, 9), (1, 12)])]),
        (7, 3, SearchBudget(4, 20, 3000), 3_001, True,
         [(True, None), (True, None), (True, None), (False, None)]),
        # The cap is checked inside a set too: before a candidate's verify,
        # here 2/3 + 1/12 at length 2, and before each slot of a scan.
        (3, 4, SearchBudget(3, 30, 55), 57, True, [(True, None), (False, None), (False, None)]),
        (3, 4, SearchBudget(3, 30, 65), 66, True,
         [(True, None), (False, [(2, 3), (1, 12)]), (False, None)]),
    ],
    # Ids without the counts, so that re-pinning a count renames no test.
    ids=["7/3", "5/2", "11/5", "3/4", "7/3-capped", "3/4-capped-at-verify", "3/4-capped-in-scan"],
)
def test_search_results_are_pinned(m, n, budget, combos, cap_hit, outcomes):
    result = min_length_search(m, n, budget)
    assert result.target == Fraction(m, n)
    assert result.combos_used == combos
    assert result.cap_hit == cap_hit
    assert [o.length for o in result.outcomes] == list(range(1, budget.max_length + 1))
    assert outcome_pairs(result) == outcomes


def reference_outcomes(m, n, budget):
    """(exhausted, witness terms) per length by plain enumeration: every set
    of the pool in colex order, every numerator tuple with 1 <= a_i <=
    max_numerator(b_i, n) in lexicographic order, and the first tuple that
    sums to m/n and that verify_naive finds faithful is the witness.
    """
    pool = [b for b in range(2, budget.max_denominator + 1) if max_numerator(b, n)]
    outcomes = []
    for length in range(1, budget.max_length + 1):
        witness = None
        for dens in sorted(combinations(pool, length), key=lambda s: s[::-1]):
            D = lcm(n, *dens)
            for nums in product(*(range(1, max_numerator(b, n) + 1) for b in dens)):
                if sum(a * (D // b) for a, b in zip(nums, dens)) * n != m * D:
                    continue
                d = decomposition(Fraction(m, n), list(zip(nums, dens)))
                if verify_naive(d).faithful:
                    witness = list(zip(nums, dens))
                    break
            if witness is not None:
                break
        outcomes.append((witness is None, witness))
    return outcomes


# The 35 reduced targets below 3 with n <= 6, and the 10 proper ones over
# the prime powers 8 and 9.
SMALL_N = [(m, n) for n in range(1, 7) for m in range(1, 3 * n) if gcd(m, n) == 1]
PRIME_POWER_N = [(m, n) for n in (8, 9) for m in range(1, n) if gcd(m, n) == 1]


@pytest.mark.parametrize(
    "budget, targets",
    [(SearchBudget(3, 10), SMALL_N), (SearchBudget(2, 14), SMALL_N), (SearchBudget(2, 40), PRIME_POWER_N)],
    ids=["budget0", "budget1", "prime-power-n"],
)
def test_search_matches_a_plain_enumeration(budget, targets):
    for m, n in targets:
        result = min_length_search(m, n, budget)
        assert not result.cap_hit, (m, n)
        assert outcome_pairs(result) == reference_outcomes(m, n, budget), (m, n)


def test_six_twenty_fifths_has_a_three_term_witness_within_the_default_cap():
    # The sets that cannot reach 6/25 are refused at one combo each.
    result = min_length_search(6, 25, SearchBudget(3, 150))
    assert not result.cap_hit
    assert outcome_pairs(result) == [(True, None), (True, None), (False, [(1, 6), (1, 15), (1, 150)])]


@pytest.mark.parametrize("B", [2000, 10**8])
def test_a_run_of_refused_sets_still_trips_the_cap(B):
    # No b <= B is a multiple of the prime n, so n divides no set's lcm:
    # every set is refused at one combo, and the cap is checked before each.
    t0 = time.perf_counter()
    result = min_length_search(2, 1000000007, SearchBudget(1, B, 1000))
    assert time.perf_counter() - t0 < 0.5
    assert result.cap_hit
    assert result.combos_used == 1001
    assert result.outcomes == (LengthOutcome(1, None, False),)


def test_length_law_holds_on_a_grid():
    """The paper's Theorem 1: a faithful decomposition of m/n with
    t <= m/n < t + 1 (t >= 2) has at least t + 2 terms.

    Every reduced m/n with t = 2 and n <= 6 (12 targets) exhausts lengths up
    to 3 with denominators up to 20, and every one with t = 3 and n <= 4
    (6 targets) exhausts lengths up to 4 with denominators up to 14.
    """
    grid = [(2, 6, SearchBudget(3, 20)), (3, 4, SearchBudget(4, 14))]
    targets = [
        (m, n, budget)
        for t, n_max, budget in grid
        for n in range(1, n_max + 1)
        for m in range(t * n, (t + 1) * n)
        if gcd(m, n) == 1
    ]
    assert len(targets) == 18
    for m, n, budget in targets:
        result = min_length_search(m, n, budget)
        assert result.witness is None, (m, n)
        assert not result.cap_hit, (m, n)
        assert all(o.exhausted for o in result.outcomes), (m, n)


def test_prop6_scan_finds_no_discrepancies_small_range():
    report = prop6_discrepancy_scan([3, 4, 5], range(4, 61))
    assert report.discrepancies == ()
    assert report.instances > 50


def test_prop6_scan_excluded_instance_still_agrees():
    # condition false and enumeration unfaithful: agreement, not a finding
    report = prop6_discrepancy_scan([4], [9])
    assert report.instances == 1
    assert report.discrepancies == ()


def test_prop6_scan_reports_each_disagreement_with_its_fields(monkeypatch):
    # With the condition negated, every instance of the grid disagrees.
    real = construct.prop6_condition
    monkeypatch.setattr(construct, "prop6_condition", lambda *args: not real(*args))
    expected = []
    for m in (3, 4, 5):
        for n in range(4, 40):
            if n <= m or gcd(m, n) != 1:
                continue
            d = prop7(m, n).decomposition
            y2, y, x = d.terms[0].den, d.terms[2].den // n, d.terms[2].num
            condition = not real(m, n, y2, y, x)
            expected.append(Prop6Instance(m, n, y2, y, x, condition, verify(d).faithful))
    report = prop6_discrepancy_scan([3, 4, 5], range(4, 40))
    assert report.instances == len(expected) > 50
    assert report.discrepancies == tuple(expected)
    assert all(inst.condition != inst.verified for inst in expected)
    assert {inst.verified for inst in expected} == {True, False}


def test_prop6_scan_reads_a_one_shot_n_iterator_for_every_m():
    # Every m reads the n values again, so a generator of them is stored once.
    once = prop6_discrepancy_scan(range(3, 6), (n for n in range(4, 60)))
    assert once == prop6_discrepancy_scan(range(3, 6), range(4, 60))
    assert once.instances == 110
