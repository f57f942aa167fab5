"""Faithfulness checking: naive oracle and the factored congruence walk.

The strategies must agree on the verdict, on the reported violation, and on
the set of in-ideal partial sums, whatever route the input and the cap
pick, and whether or not the congruence splits over coprime parts of W.
The naive oracle is the ground truth everything else is held to.
"""

import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from faithfrac import (
    DEFAULT_CAP,
    CapExceeded,
    Decomposition,
    FaithfulnessReport,
    PartitionSpec,
    Violation,
    check_partition_theorem,
    decompose_partition,
    decomposition,
    general_coprime,
    is_prime,
    partial_sums_in_ideal,
    theorem1,
    two_term,
    verify,
    verify_naive,
)
from faithfrac.verifier import _coprime_split
from pools import generated_pool

HYP_SETTINGS = {"deadline": None, "max_examples": 120}


def d_of(num, den, pairs):
    return decomposition(Fraction(num, den), pairs)


EXAMPLE_FOUR_NINTHS = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
BAD_FOUR_NINTHS = d_of(4, 9, [(1, 3), (1, 15), (2, 45)])
BAD_FIVE_SIXTHS = d_of(5, 6, [(1, 2), (1, 3)])
PERFECT_SIX = d_of(1, 1, [(1, 2), (1, 3), (1, 6)])


def test_naive_four_ninths_faithful():
    report = verify_naive(EXAMPLE_FOUR_NINTHS)
    assert report.faithful
    assert report.violation is None
    assert report.combos_examined == 8
    assert report.method == "naive"


def test_naive_finds_smallest_violation():
    report = verify_naive(BAD_FOUR_NINTHS)
    assert not report.faithful
    assert report.violation.coefficients == (1, 0, 0)
    assert report.violation.value == Fraction(1, 3)


def test_naive_perfect_number_unit_sum():
    assert verify_naive(PERFECT_SIX).faithful


def test_single_self_term_of_unit_fraction_is_faithful():
    # only lattice points are 0 and the target itself
    d = d_of(1, 75, [(1, 75)])
    assert verify_naive(d).faithful
    assert verify(d).faithful


def test_naive_cap_is_enforced():
    with pytest.raises(CapExceeded):
        verify_naive(EXAMPLE_FOUR_NINTHS, cap=3)


def test_fast_four_ninths_faithful():
    report = verify(EXAMPLE_FOUR_NINTHS)
    assert report.faithful
    assert report.violation is None


def test_fast_five_sixths_violation():
    report = verify(BAD_FIVE_SIXTHS)
    assert not report.faithful
    assert report.violation.coefficients == (1, 0)
    assert report.violation.value == Fraction(1, 2)


def test_fast_two_term_output():
    assert verify(d_of(4, 5, [(3, 4), (1, 20)])).faithful


def test_fast_resolves_large_coordinate_by_congruence():
    # 28/29 gives a 29-wide coordinate; elimination must absorb it.
    d = d_of(9, 5, [(1, 2), (1, 3), (28, 29), (1, 870)])
    report = verify(d)
    assert report.faithful
    assert report.method == "congruence"
    # well below the 2*3*29*2 = 348 full lattice
    assert report.combos_examined < 348


def test_fast_violation_matches_naive_exactly():
    for d in (BAD_FOUR_NINTHS, BAD_FIVE_SIXTHS):
        fast = verify(d)
        slow = verify_naive(d)
        assert fast.faithful == slow.faithful is False
        assert fast.violation.coefficients == slow.violation.coefficients
        assert fast.violation.value == slow.violation.value


def of_pairs(pairs):
    return decomposition(sum(Fraction(a, b) for a, b in pairs), pairs)


# Decompositions of one or two coprime parts: (pairs, walk), where walk is
# the size of a part's rest lattice (its terms but the eliminated one), the
# first that a cap of walk - 1 refuses.  In the last three a shared term
# makes the last part start from a non-zero residue.
SPLIT_TABLE = [
    # one part: 11/16 and 13/168 are faithful, 163/945 is not.
    pytest.param([(3, 567), (6, 9), (2, 189), (5, 1008)], 72, id="11/16"),
    pytest.param([(6, 81), (3, 1296), (6, 6048)], 28, id="13/168"),
    pytest.param([(5, 63), (9, 135), (1, 243), (8, 567), (6, 729)], 756, id="163/945"),
    # two parts, no shared term: each part starts from residue 0.
    pytest.param([(2, 72), (6, 1620), (7, 63), (4, 270), (4, 756), (1, 18)], 350, id="55/252"),
    pytest.param([(3, 432), (7, 14), (5, 24), (4, 18), (1, 12), (7, 240)], 240, id="21/20"),
    # two parts and a shared term: the last part starts from the residue
    # each shared assignment leaves it.  9/140 is faithful.
    pytest.param([(3, 50), (2, 1260), (3, 2520), (8, 7560), (3, 9072), (2, 22680), (1, 32400)], 144, id="9/140"),
    pytest.param([(2, 7), (6, 81), (7, 216), (3, 270), (3, 3150), (6, 32400)], 196, id="91/225"),
    pytest.param([(7, 16), (1, 18), (2, 600), (1, 3240), (6, 4536), (2, 8400), (4, 11340)], 140, id="359/720"),
]


@pytest.mark.parametrize("pairs, walk", SPLIT_TABLE)
def test_split_table_path_agrees_on_examples(pairs, walk):
    d = of_pairs(pairs)
    # One point short of the walk: refused before anything is enumerated.
    with pytest.raises(CapExceeded, match=f"walk of {walk} points exceeds cap {walk - 1}"):
        verify(d, cap=walk - 1)
    fast = verify(d)
    slow = verify_naive(d)
    assert fast.method == "congruence"
    assert fast.faithful == slow.faithful
    assert fast.violation == slow.violation
    assert partial_sums_in_ideal(d) == brute_partial_sums(d)


# theorem1(7, 3), then theorem1 lattices of 1e6 to 1e9 points: the walk over
# W split into coprime parts solves each (p-1)/p term by congruence, under
# the two values of the closing 1/(n*P*y) term that every part shares.
PINNED = [(7, 3, 14), (203, 41, 22), (79, 16, 22), (221, 45, 22), (93, 19, 22), (147, 37, 18)]


@pytest.mark.parametrize(
    "m, n, combos",
    [pytest.param(*row, id=f"d{i}-kwargs{i}-congruence-{row[2]}") for i, row in enumerate(PINNED, start=3)],
)
def test_combos_examined_is_pinned_on_both_paths(m, n, combos):
    # search spends its budget in these units and the CLI prints them.
    report = verify(theorem1(m, n).decomposition)
    assert report.method == "congruence"
    assert report.combos_examined == combos


def test_three_part_count_is_pinned():
    # W splits into the parts 2, 3 and 5, which share 1/6.  Under each shared
    # assignment every other part's listing counts once, and only the last
    # part's rows count once per combination of their solutions.
    d = of_pairs([(1, 6), (19, 58), (23, 65), (1, 3), (38, 85)])
    assert d.target == Fraction(10437, 6409)
    violation = Violation((0, 2, 0, 0, 0), Fraction(1, 29))
    assert verify(d, 3836) == FaithfulnessReport(False, violation, 3836, "congruence")
    with pytest.raises(CapExceeded):
        verify(d, 3835)


def test_a_walked_part_after_a_listed_one_is_counted_once():
    # W = 60 splits into 3, 4 and 5, with no shared term.  The part 3 lists
    # the three solutions x_4 in {0, 3, 6} of 6/15; the part 4 then walks 1/4
    # and solves 2/8, and that listing counts once, not once per solution of
    # the part before it.
    d = of_pairs([(1, 4), (2, 8), (5, 25), (6, 15)])
    violation = Violation((1, 2, 0, 0), Fraction(1, 2))
    assert verify(d) == FaithfulnessReport(False, violation, 22, "congruence")


@pytest.mark.parametrize("m", [201, 401, 1001])
def test_large_theorem1_outputs_keep_the_count_law(m):
    # 102, 202 and 502 terms, so the split's masks run past 64 bits.  Each
    # term but the shared closing one is a part of its own, and the count
    # keeps the law of the pinned 4-6-term cases: 4k - 2 for k terms.
    d = theorem1(m, 2).decomposition
    k = len(d.terms)
    assert k == m // 2 + 2
    assert verify(d) == FaithfulnessReport(True, None, 4 * k - 2, "congruence")
    assert partial_sums_in_ideal(d) == {0, Fraction(m, 2)}


def _walk_grid():
    """400 seeded 1-5-term decompositions over denominators below 40, each
    at caps 10**4, 100, 10 and 3, then at the default cap the theorem1
    outputs of the 50 seed-730 targets, of which the benchmark's
    deep-lattice workload takes 44."""
    rng = random.Random(8)
    cases = []
    for _ in range(400):
        dens = rng.sample(range(1, 40), rng.randint(1, 5))
        d = of_pairs([(rng.randint(1, min(b + 2, 9)), b) for b in dens])
        cases += [(d, cap) for cap in (10**4, 100, 10, 3)]
    rng = random.Random(730)
    while len(cases) < 1650:
        n, t = rng.randint(1, 50), rng.randint(2, 4)
        m = rng.randint(t * n, (t + 1) * n - 1)
        if gcd(m, n) == 1:
            cases.append((theorem1(m, n).decomposition, DEFAULT_CAP))
    return cases


def _outcome(check, d, cap):
    try:
        return repr(check(d, cap))
    except CapExceeded as e:
        return str(e)


def test_walk_outcomes_are_pinned():
    # sha256 of every verify report and partial-sums set over the grid, or
    # the CapExceeded text in their place: pins the verdicts, violations and
    # combos_examined, and where each cap check fires (before the walk, or
    # in it) and with what message.
    h = hashlib.sha256()
    for d, cap in _walk_grid():
        report = _outcome(verify, d, cap)
        sums = _outcome(lambda d, cap: sorted(map(str, partial_sums_in_ideal(d, cap))), d, cap)
        h.update(f"{report}\n{sums}\n".encode())
    assert h.hexdigest() == "fd5938e9dc8312d48389ddfeb24aaba935e0e8738c68f5d839269fc23c03e2b6"


def test_cap_boundary_is_combos_examined():
    # Every count is checked against the cap as it grows, so a cap of
    # combos_examined answers alike unless a part the walk never reached is
    # refused up front, and one less raises.
    for d, cap in _walk_grid()[:1600:4]:  # each random decomposition at cap 10**4
        try:
            report = verify(d, cap)
        except CapExceeded:
            continue
        spent = report.combos_examined
        try:
            assert verify(d, spent) == report
        except CapExceeded as e:
            assert str(e).startswith("walk of")
        with pytest.raises(CapExceeded):
            verify(d, spent - 1)


def test_walk_past_the_cap_raises_at_once():
    # (p-1)/p over the primes 3..29: every point lies in (1/n)Z and the walk
    # has 29 times fewer points than the 3.2e9 lattice, still past the cap,
    # which is reported before enumerating.
    pairs = [(p - 1, p) for p in range(3, 30) if is_prime(p)]
    d = of_pairs(pairs)
    with pytest.raises(CapExceeded):
        verify(d)
    with pytest.raises(CapExceeded):
        partial_sums_in_ideal(d)


@pytest.mark.parametrize("pairs", [
    # W = 6: the part 2 lists the one term 400002/14 (about 2e5 solutions),
    # and the part 3 walks 4/43 and 3/3 after it.
    pytest.param([(400002, 14), (4, 43), (3, 3)], id="one-term-listing"),
    # W = 20: the part 4 lists 1/14 and 400002/4 (about 1e5 solutions a
    # row), and the part 5 walks 5/35 after it.
    pytest.param([(400002, 4), (1, 14), (5, 35)], id="two-term-listing"),
])
def test_another_part_past_the_cap_raises_before_its_list_grows(pairs):
    d = of_pairs(pairs)
    for check in (verify, partial_sums_in_ideal):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="combination evaluations exceeded cap 1000"):
                check(d, cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (check.__name__, peak)


# Split decompositions whose values-only walk folds the other parts'
# solutions into one set of offsets, where another part lists two or more:
# W = 60 splits into 3, 4 and 5, and the parts 3 and 4 list 3 and 2
# solutions; W = 30 splits into 2, 3 and 5 under the shared term 1/30, and
# the parts 2 and 3 list 21 and 14; then the combined blocks of partitions
# into 3 or 4 parts, each block listing 2 solutions, where in three of them
# 8 combinations add up to only 4 or 5 distinct offsets.
FOLDED = [
    [(1, 4), (2, 8), (5, 25), (6, 15)],
    [(41, 202), (41, 309), (3, 535), (1, 30)],
    *([(t.num, t.den) for t in decompose_partition(PartitionSpec(m, parts), n).combined.terms]
      for m, n, parts in [(4, 5, (1, 1, 1, 1)), (4, 7, (2, 1, 1)), (5, 7, (2, 1, 1, 1)),
                          (6, 7, (2, 2, 1, 1))]),
]


@pytest.mark.parametrize("pairs", FOLDED)
def test_folded_walk_matches_brute_force(pairs):
    d = of_pairs(pairs)
    assert partial_sums_in_ideal(d) == brute_partial_sums(d)


def test_folded_walk_counts_every_combination():
    # (1,)*12 over 13: the last part's two rows each come under 2**11
    # combinations of the other blocks' solutions, which add up to 12
    # distinct offsets.  Each row counts every combination, so a cap between
    # 12 and 2**11 refuses, and the boundary is verify's.
    d = decompose_partition(PartitionSpec(12, (1,) * 12), 13).combined
    with pytest.raises(CapExceeded, match="combination evaluations exceeded cap 1000"):
        partial_sums_in_ideal(d, 1000)
    spent = verify(d).combos_examined
    assert spent > 2 * 2**11
    assert partial_sums_in_ideal(d, spent) == {Fraction(s, 13) for s in range(13)}
    with pytest.raises(CapExceeded):
        partial_sums_in_ideal(d, spent - 1)


def test_offsets_past_the_cap_are_never_built():
    # W = 30 splits into 2, 3 and 5 under the shared term 1/30.  The parts 2
    # and 3 list 201 and 134 solutions, within a cap of 1000, but their
    # 26,934 combinations add up to 23,834 distinct offsets: a set of about
    # 1.8 MB, which the walk must not build once the combinations pass the cap.
    d = of_pairs([(401, 202), (401, 309), (3, 535), (1, 30)])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="combination evaluations exceeded cap 1000"):
            partial_sums_in_ideal(d, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18, peak


@pytest.mark.parametrize("cap", [None, "10", True, False, 1.5, 10.0, Fraction(10)])
def test_checkers_refuse_a_cap_that_is_not_an_int(cap):
    for check in (verify, verify_naive, partial_sums_in_ideal):
        with pytest.raises(ValueError, match="cap must be an integer"):
            check(BAD_FIVE_SIXTHS, cap)
    with pytest.raises(ValueError, match="cap must be an integer"):
        check_partition_theorem(PartitionSpec(5, (2, 3)), 7, cap)


def test_every_int_is_a_cap():
    # Caps of 0 and below refuse every non-empty check, as CapExceeded.
    for cap in (0, -1):
        for check in (verify, verify_naive, partial_sums_in_ideal):
            with pytest.raises(CapExceeded):
                check(BAD_FIVE_SIXTHS, cap)
    assert verify(BAD_FIVE_SIXTHS, 10**30) == verify(BAD_FIVE_SIXTHS)


def test_lattice_past_float_range_hits_the_cap():
    # (p-1)/p over the first 200 odd primes: a lattice past 1e308 points.
    primes = [p for p in range(3, 4000) if is_prime(p)][:200]
    pairs = [(p - 1, p) for p in primes]
    d = decomposition(sum(Fraction(a, b) for a, b in pairs), pairs)
    with pytest.raises(CapExceeded):
        verify(d)
    with pytest.raises(CapExceeded):
        partial_sums_in_ideal(d)


def test_verify_rejects_invalid_decomposition():
    with pytest.raises(ValueError):
        verify(d_of(4, 9, [(1, 4), (1, 4)]))


def test_verify_cap_exhaustion_raises():
    with pytest.raises(CapExceeded):
        verify(EXAMPLE_FOUR_NINTHS, cap=2)


def test_partial_sums_faithful_case():
    assert partial_sums_in_ideal(EXAMPLE_FOUR_NINTHS) == {Fraction(0), Fraction(4, 9)}


def test_partial_sums_unfaithful_case():
    got = partial_sums_in_ideal(BAD_FIVE_SIXTHS)
    assert got == {Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)}


def test_partial_sums_empty_decomposition():
    assert partial_sums_in_ideal(Decomposition(Fraction(0), ())) == {Fraction(0)}


def test_partial_sums_split_path_agrees():
    for pairs, walk in (case.values for case in SPLIT_TABLE):
        with pytest.raises(CapExceeded):
            partial_sums_in_ideal(of_pairs(pairs), cap=walk - 1)


@st.composite
def small_decompositions(draw):
    """Random valid decompositions with a tractable full lattice."""
    k = draw(st.integers(min_value=1, max_value=4))
    dens = draw(
        st.lists(
            st.integers(min_value=2, max_value=60),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    pairs = []
    size = 1
    for b in dens:
        a = draw(st.integers(min_value=1, max_value=min(b - 1, 6)))
        pairs.append((a, b))
        size *= a + 1
    if size > 3000:
        pairs = [(1, b) for _, b in pairs]
    target = sum(Fraction(a, b) for a, b in pairs)
    return decomposition(target, pairs)


@given(small_decompositions())
@settings(**HYP_SETTINGS)
def test_three_paths_agree(d):
    # verify_naive, verify and partial_sums_in_ideal.
    slow = verify_naive(d)
    fast = verify(d)
    assert fast.faithful == slow.faithful
    if not slow.faithful:
        assert fast.violation.coefficients == slow.violation.coefficients
        assert fast.violation.value == slow.violation.value
    sums = partial_sums_in_ideal(d)
    assert fast.faithful == (sums <= {0, d.target})
    if not fast.faithful:
        assert fast.violation.value in sums


def brute_partial_sums(d):
    n = d.target.denominator
    brute = set()
    ranges = [range(t.num + 1) for t in d.terms]
    for vec in product(*ranges):
        v = sum((Fraction(x, t.den) for x, t in zip(vec, d.terms)), Fraction(0))
        if (n * v).denominator == 1:
            brute.add(v)
    return brute


@given(small_decompositions())
@settings(**HYP_SETTINGS)
def test_partial_sums_match_brute_force(d):
    assert partial_sums_in_ideal(d) == brute_partial_sums(d)


def fraction_oracle(d):
    """The plain colex enumeration (first coefficient fastest), one vector
    at a time with its sum taken in Fraction arithmetic: the first violation
    it meets is the one verify_naive must report."""
    n, values = d.target.denominator, [Fraction(1, t.den) for t in d.terms]
    for combos, rev in enumerate(product(*[range(t.num + 1) for t in reversed(d.terms)]), 1):
        v = sum((x * val for x, val in zip(rev[::-1], values)), Fraction(0))
        if n % v.denominator == 0 and v != 0 and v != d.target:
            return FaithfulnessReport(False, Violation(rev[::-1], v), combos, "naive")
    return FaithfulnessReport(True, None, combos, "naive")


@st.composite
def oracle_inputs(draw):
    """1-6 terms over denominators 1..60, numerators up to 6 (past b too)."""
    dens = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6, unique=True))
    pairs = [(draw(st.integers(min_value=1, max_value=6)), b) for b in dens]
    if prod(a + 1 for a, _ in pairs) > 3000:
        pairs = [(1, b) for _, b in pairs]
    return of_pairs(pairs)


@given(oracle_inputs())
@example(d_of(1, 75, [(1, 75)]))  # a self-term: its only lattice values are 0 and m/n
@example(d_of(2, 1, [(2, 1)]))  # an integer self-term
@example(BAD_FIVE_SIXTHS)  # both denominators divide n
@example(BAD_FOUR_NINTHS)
@settings(**HYP_SETTINGS)
def test_integer_oracle_matches_fraction_sums(d):
    assert verify_naive(d) == fraction_oracle(d)


def test_empty_decomposition_is_pinned():
    # The oracle examines the one, empty, vector; the walk examines nothing.
    d = Decomposition(Fraction(0), ())
    assert verify_naive(d) == FaithfulnessReport(True, None, 1, "naive")
    assert verify(d) == FaithfulnessReport(True, None, 0, "congruence")


@st.composite
def long_row_inputs(draw):
    """The oracle's rows run along its longest coefficient.

    A two_term output x/y + 1/(n*y), whose two rows of x + 1 vectors hold no
    point of (1/n)Z but 0 and m/n, with up to two terms 1..3/c added (which
    put hits inside later rows), and with the terms in order or reversed, so
    that the long coefficient comes first (each row its own group) or last
    (every row in one group).
    """
    n = draw(st.integers(min_value=3, max_value=1500))
    m = draw(st.sampled_from([m for m in range(2, n) if gcd(m, n) == 1]))
    pairs = [(t.num, t.den) for t in two_term(m, n).decomposition.terms]
    for c in draw(st.lists(st.integers(min_value=2, max_value=60), max_size=2, unique=True)):
        if c not in (b for _, b in pairs) and prod(a + 1 for a, _ in pairs) <= 1000:
            pairs.append((draw(st.integers(min_value=1, max_value=3)), c))
    if draw(st.booleans()):
        pairs.reverse()
    return of_pairs(pairs)


@given(long_row_inputs())
# Hits at a row's end: (400, 0) ends the first row, (48, 0, 1) the third and
# (26, 1, 0) the second.  With the long coefficient last, (4, 87) is in the
# last of five rows, which beats the first row's hit at x_2 = 116.
@example(of_pairs([(400, 800), (1, 7)]))
@example(of_pairs([(4, 16), (319, 580)]))
@example(of_pairs([(48, 144), (1, 39), (2, 33)]))
@example(of_pairs([(26, 52), (1, 30), (3, 21)]))
@settings(deadline=None, max_examples=40)
def test_integer_oracle_matches_fraction_sums_on_long_rows(d):
    assert verify_naive(d) == fraction_oracle(d)


@st.composite
def inner_long_inputs(draw):
    """The longest numerator strictly inside, between shorter terms.

    3-5 terms over denominators 1..60: the long one (7..40) is neither first
    nor last, the others are 1..6 (all 1 when the lattice passes 3,000
    points).  The oracle's rows then run along a middle coefficient and come
    in groups of more than one row, whose colex-minimal hit need not be in
    the group's first row that hits.
    """
    dens = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=5, unique=True))
    j = draw(st.integers(min_value=1, max_value=len(dens) - 2))
    short = [draw(st.integers(min_value=1, max_value=6)) for _ in dens]
    long = draw(st.integers(min_value=7, max_value=40))
    if (long + 1) * prod(a + 1 for i, a in enumerate(short) if i != j) > 3000:
        short = [1] * len(dens)
    return of_pairs([(long if i == j else a, b) for i, (a, b) in enumerate(zip(short, dens))])


@given(inner_long_inputs())
# (2, 1, 0): the first row's hit at x_2 = 2 is beaten by the second row's x_2 = 1.
@example(of_pairs([(2, 20), (7, 10), (2, 17)]))
# (1, 0, 1, 0): two rows of the group hit at x_3 = 1, and the earlier one wins.
@example(of_pairs([(2, 4), (1, 20), (12, 28), (3, 12)]))
# (1, 0, 0): a hit at x_2 = 0 in the group's second row answers at once.
@example(of_pairs([(1, 18), (10, 20), (3, 2)]))
# Two coefficients tied for the longest; rows run along the first, x_2, and
# (1, 2, 0) in the second row beats the first row's hit at x_2 = 4.
@example(of_pairs([(1, 10), (6, 4), (6, 23)]))
@settings(**HYP_SETTINGS)
def test_integer_oracle_matches_fraction_sums_on_inner_rows(d):
    assert verify_naive(d) == fraction_oracle(d)


def _oracle_grid():
    """1,000 seeded 1-6-term decompositions as oracle_inputs draws them,
    300 two_term outputs with one or two terms added, in order and reversed,
    the empty decomposition, and the entries of the acceptance suite's
    seed-1811 pool whose lattice has at most 1e4 points."""
    rng = random.Random(10)
    cases = [Decomposition(Fraction(0), ())]
    for _ in range(1000):
        dens = rng.sample(range(1, 61), rng.randint(1, 6))
        pairs = [(rng.randint(1, 6), b) for b in dens]
        if prod(a + 1 for a, _ in pairs) > 3000:
            pairs = [(1, b) for _, b in pairs]
        cases.append(of_pairs(pairs))
    while len(cases) < 1601:
        n = rng.randint(3, 3000)
        m = rng.randint(2, n - 1)
        if gcd(m, n) != 1:
            continue
        pairs = [(t.num, t.den) for t in two_term(m, n).decomposition.terms]
        pairs += [(rng.randint(1, 2), c) for c in rng.sample(range(2, 30), rng.randint(1, 2))]
        if len({b for _, b in pairs}) == len(pairs) and prod(a + 1 for a, _ in pairs) <= 10**4:
            cases += [of_pairs(pairs), of_pairs(pairs[::-1])]
    pool = generated_pool(random.Random(1811), 500)
    return cases + [d for d in pool if prod(t.num + 1 for t in d.terms) <= 10**4]


def test_oracle_outputs_are_pinned():
    # sha256 of every verify_naive report over the grid, at the default cap
    # and at a cap of 100 (where larger lattices are refused up front): pins
    # the verdicts, the violations, combos_examined and the refusal text.
    h = hashlib.sha256()
    for d in _oracle_grid():
        for cap in (DEFAULT_CAP, 100):
            h.update(f"{_outcome(verify_naive, d, cap)}\n".encode())
    assert h.hexdigest() == "a86105bef8c644d1551bd7324e86bbc092bee3ed74a93b29d560db6f432e724b"


@st.composite
def factored_decompositions(draw):
    """Decompositions whose W = L / gcd(L, n) has two or more coprime parts,
    whose rest lattice (all but the widest term) is past the verifier's
    k**2 skip rule, and whose full lattice has at most 20,000 points.

    They come from the coprime builders, from partition blocks, or, twice
    as often, from a_j/p_j terms over two small primes closed by a Bezout
    pair; half of them also get a term 1/n, which belongs to no part and
    makes the decomposition unfaithful.
    """
    source = draw(st.sampled_from(["coprime", "partition", "bezout", "bezout"]))
    if source == "coprime":
        n = draw(st.integers(min_value=2, max_value=40))
        policy = draw(st.sampled_from(["unit", "max", "max"]))
        target = Fraction(draw(st.integers(min_value=1, max_value=(2 if policy == "unit" else 3) * n)), n)
        omega = draw(st.lists(st.integers(min_value=2, max_value=11), max_size=2))
        try:
            d = general_coprime(target.numerator, target.denominator, policy, omega, max_terms=8).decomposition
        except ValueError:  # an integer target, or a head past max_terms
            assume(False)
    elif source == "partition":
        m = draw(st.integers(min_value=2, max_value=7))
        n = draw(st.sampled_from([n for n in range(2, 41) if gcd(m, n) == 1]))
        cuts = draw(st.sets(st.integers(min_value=1, max_value=m - 1)))
        edges = [0, *sorted(cuts), m]
        d = decompose_partition(PartitionSpec(m, tuple(b - a for a, b in zip(edges, edges[1:]))), n).combined
    else:
        n = draw(st.integers(min_value=2, max_value=8))
        primes = [p for p in draw(st.permutations([3, 5, 7, 11])) if n % p][:2]
        P = prod(primes)
        head = [(draw(st.integers(min_value=1, max_value=p - 1)), p) for p in primes]
        # z/(n*P) closes the head to a target over n, and x/y + 1/(n*P*y)
        # writes it: y is the inverse of z mod n*P, so z must be a unit.
        z0 = -sum(a * n * P // p for a, p in head) % P
        t0 = draw(st.integers(min_value=0, max_value=n - 1))
        z = next(z0 + P * (t % n) for t in range(t0, t0 + n) if gcd(z0 + P * (t % n), n) == 1)
        y = pow(z, -1, n * P)
        y += n * P if y == 1 else 0
        pairs = head + [((z * y - 1) // (n * P), y), (1, n * P * y)]
        d = decomposition(sum(Fraction(a, b) for a, b in pairs), pairs)
    n = d.target.denominator
    if draw(st.booleans()) and n > 1 and n not in d.denominators:
        d = decomposition(d.target + Fraction(1, n), [(t.num, t.den) for t in d.terms] + [(1, n)])
    sizes = [t.num + 1 for t in d.terms]
    L = lcm(*d.denominators)
    W = L // gcd(L, d.target.denominator)
    assume(prod(sizes) <= 20_000 and prod(sizes) // max(sizes) > len(sizes) ** 2)
    assume(len(_coprime_split(W, [W // gcd(L // b, W) for b in d.denominators])) >= 2)
    return d


@given(factored_decompositions())
# W has a part that only shared terms involve; the walk folds it into another.
@example(d_of(1, 3, [(1, 19), (1, 342), (2, 37), (1, 666), (1, 7), (1, 42), (1, 18)]))
# W = 20 splits into 4 and 5, which share 4/20.  The part 4 owns 2/38 alone
# with g = gcd(L / 38, 4) = 2, so a shared x_3 that leaves an odd numerator
# over L gives it no solution.
@example(of_pairs([(2, 38), (4, 5), (4, 20)]))
@settings(deadline=None, max_examples=60)
def test_factored_walk_matches_the_oracle(d):
    slow = verify_naive(d)
    brute = brute_partial_sums(d)
    # Small caps end the check with CapExceeded, never with another answer.
    for cap in (DEFAULT_CAP, 50, 7):
        try:
            fast = verify(d, cap=cap)
            sums = partial_sums_in_ideal(d, cap=cap)
        except CapExceeded:
            assert cap < DEFAULT_CAP
            continue
        assert fast.faithful == slow.faithful
        assert fast.violation == slow.violation
        assert sums == brute


@st.composite
def dense_rows(draw):
    """1-4 terms whose denominators divide c * n for c in {1, 2, 3}, kept when
    W = L / gcd(L, n) is at most 3, so that most lattice points lie in (1/n)Z
    and the walk's rows hold many of them."""
    n = draw(st.integers(min_value=1, max_value=24))
    c = draw(st.sampled_from([1, 2, 3]))
    divisors = [b for b in range(1, c * n + 1) if c * n % b == 0]
    dens = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=4, unique=True))
    pairs = [(draw(st.integers(min_value=1, max_value=6)), b) for b in dens]
    if prod(a + 1 for a, _ in pairs) > 3000:
        pairs = [(1, b) for _, b in pairs]
    d = of_pairs(pairs)
    L = lcm(*d.denominators)
    assume(L // gcd(L, d.target.denominator) <= 3)
    return d


@given(dense_rows())
# W = 1: every point is in (1/n)Z.  The walk's first row is 0 and then a
# violation, (0, 0, 1, 0); the answer, (1, 0, 0, 0), is the oracle's second vector.
@example(of_pairs([(4, 41), (3, 68), (5, 63), (5, 7)]))
@example(of_pairs([(2, 4)]))  # 1/2 written 2/4: one row holding only 0 and m/n
# W = 2: the walk meets the violation (0, 2, 0) in its first row, but the
# colex-minimal one, (1, 0, 0), in its third.
@example(of_pairs([(3, 7), (5, 14), (1, 2)]))
@settings(deadline=None, max_examples=80)
def test_dense_rows_match_the_oracle(d):
    slow = verify_naive(d)
    fast = verify(d)
    assert fast.faithful == slow.faithful
    assert fast.violation == slow.violation
    assert partial_sums_in_ideal(d) == brute_partial_sums(d)


# theorem1 outputs for n < 30 whose full lattice has at most 1e5 points.
SMALL_THEOREM1 = [
    d
    for d in (theorem1(m, n).decomposition for n in range(1, 30) for m in range(2 * n, 5 * n) if gcd(m, n) == 1)
    if prod(t.num + 1 for t in d.terms) <= 10**5
]


@given(st.sampled_from(SMALL_THEOREM1))
@settings(deadline=None, max_examples=12)
def test_small_theorem1_outputs_match_the_oracle(d):
    assert verify_naive(d).faithful
    assert verify(d).faithful


@given(st.integers(min_value=3, max_value=400))
@settings(**HYP_SETTINGS)
def test_two_term_outputs_verify_on_both_paths(n):
    m = next(m for m in range(2, n) if Fraction(m, n).denominator == n)
    d = two_term(m, n).decomposition
    assert verify_naive(d).faithful
    assert verify(d).faithful
