"""Faithfulness checking: naive oracle, congruence path, split-table path.

The strategies must agree on the verdict, on the reported violation, and on
the set of in-ideal partial sums, whatever route the input and the cap
pick, and whether or not the congruence splits over coprime parts of W.
The naive oracle is the ground truth everything else is held to.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from faithfrac import (
    DEFAULT_CAP,
    CapExceeded,
    PartitionSpec,
    coprime_parts,
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


# Decompositions whose split part eliminates a term whose weight shares a
# factor g > 1 with the part's modulus, so past the cap the verifier matches
# two halves through a table bucketed mod g.  Each is checked at a cap one
# below that part's walk: (pairs, cap, combos_examined).
SPLIT_TABLE = [
    # one part: 11/16 (walk 72, g 63) and 13/168 (walk 28, g 4) are
    # faithful, 163/945 (walk 756, g 27) is not.
    pytest.param([(3, 567), (6, 9), (2, 189), (5, 1008)], 71, 22, id="11/16"),
    pytest.param([(6, 81), (3, 1296), (6, 6048)], 27, 21, id="13/168"),
    pytest.param([(5, 63), (9, 135), (1, 243), (8, 567), (6, 729)], 755, 511, id="163/945"),
    # two parts, no shared term: the split part starts from residue 0.
    pytest.param([(2, 72), (6, 1620), (7, 63), (4, 270), (4, 756), (1, 18)], 349, 219, id="55/252"),
    pytest.param([(3, 432), (7, 14), (5, 24), (4, 18), (1, 12), (7, 240)], 239, 150, id="21/20"),
    # two parts and a shared term: the split part starts from the residue
    # each shared assignment leaves it.  9/140 is faithful.
    pytest.param([(3, 50), (2, 1260), (3, 2520), (8, 7560), (3, 9072), (2, 22680), (1, 32400)], 143, 92, id="9/140"),
    pytest.param([(2, 7), (6, 81), (7, 216), (3, 270), (3, 3150), (6, 32400)], 195, 179, id="91/225"),
    pytest.param([(7, 16), (1, 18), (2, 600), (1, 3240), (6, 4536), (2, 8400), (4, 11340)], 139, 134, id="359/720"),
]


@pytest.mark.parametrize("pairs, cap, combos", SPLIT_TABLE)
def test_split_table_path_agrees_on_examples(pairs, cap, combos):
    d = of_pairs(pairs)
    split = verify(d, cap=cap)
    assert (split.method, split.combos_examined) == ("meet_in_middle", combos)
    slow = verify_naive(d)
    assert split.faithful == slow.faithful
    assert split.violation == slow.violation
    # With the default cap every part walks, to the same verdict.
    walked = verify(d)
    assert walked.method == "congruence"
    assert walked.violation == slow.violation


@pytest.mark.parametrize(
    "d, kwargs, method, combos",
    [
        *[
            (of_pairs(pairs), {"cap": cap}, "meet_in_middle", combos)
            for pairs, cap, combos in (case.values for case in SPLIT_TABLE[:3])
        ],
        (theorem1(7, 3).decomposition, {}, "congruence", 14),
        # theorem1 lattices of 1e6 to 1e9 points: the walk over W split into
        # coprime parts solves each (p-1)/p term by congruence, under the two
        # values of the closing 1/(n*P*y) term that every part shares.
        (theorem1(203, 41).decomposition, {}, "congruence", 22),
        (theorem1(79, 16).decomposition, {}, "congruence", 22),
        (theorem1(221, 45).decomposition, {}, "congruence", 22),
        (theorem1(93, 19).decomposition, {}, "congruence", 22),
        (theorem1(147, 37).decomposition, {}, "congruence", 18),
    ],
)
def test_combos_examined_is_pinned_on_both_paths(d, kwargs, method, combos):
    # search spends its budget in these units and the CLI prints them.
    report = verify(d, **kwargs)
    assert report.method == method
    assert report.combos_examined == combos


def test_split_with_one_bucket_raises_cap_at_once():
    # (p-1)/p over the primes 3..29: every point lies in (1/n)Z, the walk
    # has 29 times fewer points than the 3.2e9 lattice, and the eliminated
    # term's weight is coprime to W, so a split table would have one bucket
    # and cost more than the walk.  The cap is reported before enumerating.
    pairs = [(p - 1, p) for p in range(3, 30) if is_prime(p)]
    d = of_pairs(pairs)
    with pytest.raises(CapExceeded):
        verify(d)
    with pytest.raises(CapExceeded):
        partial_sums_in_ideal(d)


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
    from faithfrac import Decomposition

    assert partial_sums_in_ideal(Decomposition(Fraction(0), ())) == {Fraction(0)}


def test_partial_sums_split_path_agrees():
    for pairs, cap, _ in (case.values for case in SPLIT_TABLE):
        d = of_pairs(pairs)
        split = partial_sums_in_ideal(d, cap=cap)
        assert split == partial_sums_in_ideal(d) == brute_partial_sums(d)


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
    assume(len(coprime_parts(W, [W // gcd(L // b, W) for b in d.denominators])) >= 2)
    return d


@given(factored_decompositions())
# W has a part that only shared terms involve; the walk folds it into another.
@example(d_of(1, 3, [(1, 19), (1, 342), (2, 37), (1, 666), (1, 7), (1, 42), (1, 18)]))
@settings(deadline=None, max_examples=60)
def test_factored_walk_matches_the_oracle(d):
    slow = verify_naive(d)
    brute = brute_partial_sums(d)
    # Small caps send the parts whose walk no longer fits to the split
    # table, or end the check with CapExceeded; never to another answer.
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
