"""Constructors: every builder's output is validated and spot-verified."""

import hashlib
from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faithfrac import (
    PartitionSpec,
    TermBudgetExceeded,
    all_units_but_one,
    coprime_shape,
    decompose_partition,
    from_perfect,
    general_coprime,
    is_prime,
    prop6_condition,
    prop7,
    theorem1,
    theorem4,
    to_json,
    two_term,
    verify,
    verify_naive,
)

HYP_SETTINGS = {"deadline": None, "max_examples": 80}


def pairs_of(d):
    return [(t.num, t.den) for t in d.terms]


# ---- two-term splits ----


@pytest.mark.parametrize(
    "m,n,expected",
    [
        (4, 5, [(3, 4), (1, 20)]),
        (3, 7, [(2, 5), (1, 35)]),
        (2, 3, [(1, 2), (1, 6)]),
    ],
)
def test_two_term_known_values(m, n, expected):
    built = two_term(m, n)
    assert pairs_of(built.decomposition) == expected


def test_two_term_records_bezout_witness():
    built = two_term(4, 5)
    x, y = built.trace.bezout
    assert (x, y) == (3, 4)
    assert y * 4 - x * 5 == 1


def test_two_term_rejects_units_and_improper_inputs():
    with pytest.raises(ValueError):
        two_term(1, 7)
    with pytest.raises(ValueError):
        two_term(7, 3)
    with pytest.raises(ValueError):
        two_term(2, 4)


@given(st.integers(min_value=3, max_value=10**6))
@settings(**HYP_SETTINGS)
def test_two_term_bezout_identity_holds(n):
    m = next(m for m in range(2, n) if gcd(m, n) == 1)
    built = two_term(m, n)
    x, y = built.trace.bezout
    assert y * m - x * n == 1
    assert 1 <= x < y
    assert pairs_of(built.decomposition) == [(x, y), (1, y * n)]


# ---- perfect numbers ----


def test_from_perfect_six():
    assert pairs_of(from_perfect(6).decomposition) == [(1, 2), (1, 3), (1, 6)]


def test_from_perfect_twenty_eight():
    got = pairs_of(from_perfect(28).decomposition)
    assert got == [(1, 2), (1, 4), (1, 7), (1, 14), (1, 28)]


def test_from_perfect_rejects_imperfect():
    for p in (2, 12, 100):
        with pytest.raises(ValueError):
            from_perfect(p)


@pytest.mark.parametrize("p", [6, 28, 496])
def test_from_perfect_sums_to_one_and_is_faithful(p):
    d = from_perfect(p).decomposition
    assert d.target == 1
    assert verify_naive(d).faithful


# ---- fixed-length construction for m/n >= 2 ----


def test_theorem1_seven_thirds():
    built = theorem1(7, 3)
    assert pairs_of(built.decomposition) == [(4, 5), (6, 7), (48, 71), (1, 7455)]
    assert built.trace.primes_used == (5, 7)
    assert built.trace.bezout.x == 48
    assert built.trace.bezout.y == 71


def test_theorem1_five_halves_prime_selection():
    built = theorem1(5, 2)
    assert built.trace.primes_used == (5, 7)
    assert len(built.decomposition.terms) == 4


def test_theorem1_needs_ratio_at_least_two():
    with pytest.raises(ValueError):
        theorem1(3, 2)


@st.composite
def theorem1_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    t = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=t * n, max_value=(t + 1) * n - 1))
    assume(gcd(m, n) == 1)
    return m, n


@given(theorem1_inputs())
@settings(**HYP_SETTINGS)
def test_theorem1_length_law(mn):
    m, n = mn
    built = theorem1(m, n)
    assert len(built.decomposition.terms) == m // n + 2
    assert coprime_shape(built.decomposition)


def test_theorem1_shares_the_head_budget():
    # floor(m/n) = 100001 primes; unbounded, this call ran for many seconds.
    with pytest.raises(TermBudgetExceeded):
        theorem1(100001, 1)


def test_theorem1_builds_at_the_budget():
    built = theorem1(1001, 2)  # t = 500
    assert len(built.decomposition.terms) == 502
    assert coprime_shape(built.decomposition)


# ---- pinned outputs ----


def _theorem1_grid():
    return [(m, n) for n in range(1, 120) for m in range(2 * n, 7 * n) if gcd(m, n) == 1]


def _two_term_grid():
    return [(m, n) for n in range(3, 400) for m in range(2, n) if gcd(m, n) == 1]


# Forbidden sets of 0 to 5 members: primes, prime powers, products, and
# values that share factors with n.
GENERAL_COPRIME_OMEGAS = [(), (2,), (3, 5), (2, 9, 7), (4, 6, 11, 25), (5, 10, 13, 21, 35)]


def _general_coprime_grid():
    return [(m, n, policy, omega, seed)
            for n in range(1, 13) for m in range(1, 2 * n) if gcd(m, n) == 1
            for policy in ("unit", "max") for omega in GENERAL_COPRIME_OMEGAS
            for seed in range(3)]


@pytest.mark.parametrize(
    "build, grid, count, digest",
    [
        (theorem1, _theorem1_grid, 21770,
         "c0dde96fa7940f036ef5b95f46e8ee5476d1a1a6a61c1716409d0dd3f0414fa8"),
        (two_term, _two_term_grid, 48119,
         "36c581676c2b4cbd7dce3567f4fb535952bdae75abb4281a50e61872b94d5f18"),
        (general_coprime, _general_coprime_grid, 3276,
         "06fc284f818469fd673301b9b227a074645e34eb0b123d59bb4adb5f20a6aa69"),
    ],
    ids=["theorem1", "two_term", "general_coprime"],
)
def test_constructor_outputs_are_pinned(build, grid, count, digest):
    # sha256 of to_json(d) + repr(trace) over the grid, in order: a change to
    # prime selection, to the Bezout closing pair or to the forbidden values
    # a trace records fails here loudly.
    cases = grid()
    assert len(cases) == count
    h = hashlib.sha256()
    for args in cases:
        built = build(*args)
        h.update((to_json(built.decomposition) + repr(built.trace)).encode())
    assert h.hexdigest() == digest


# ---- all units but one ----


def test_all_units_degenerate_two_thirds():
    built = all_units_but_one(2, 3)
    assert pairs_of(built.decomposition) == [(1, 2), (1, 6)]
    assert built.trace.primes_used == ()


def test_all_units_nine_fifths():
    built = all_units_but_one(9, 5)
    assert pairs_of(built.decomposition) == [(1, 2), (1, 3), (28, 29), (1, 870)]
    assert built.trace.primes_used == (2, 3)


def test_all_units_omega_steers_head_denominators():
    built = all_units_but_one(9, 5, omega=(2,))
    dens = built.decomposition.denominators
    # the closing denominator folds in n and is exempt
    assert all(b % 2 for b in dens[:-1])
    assert verify(built.decomposition).faithful


def test_all_units_term_budget():
    with pytest.raises(ValueError):
        all_units_but_one(9, 5, max_terms=1)


@pytest.mark.parametrize("m, n", [(9, 2), (13, 4)])
def test_unit_head_has_a_default_budget(m, n):
    # Their unit heads need thousands of prime terms or more; without a
    # default budget these calls did not return.
    with pytest.raises(TermBudgetExceeded):
        all_units_but_one(m, n)
    with pytest.raises(TermBudgetExceeded):
        general_coprime(m, n, "unit")


# n: (the largest m with m/n built at the default budget, the next m coprime to n).
UNIT_HEAD_REACH = {
    1: (3, 4), 2: (5, 7), 3: (8, 10), 4: (11, 13), 5: (14, 16), 6: (13, 17),
    7: (22, 23), 8: (21, 23), 9: (26, 28), 10: (23, 27), 11: (36, 37), 12: (29, 31),
}


@pytest.mark.parametrize("n", list(UNIT_HEAD_REACH))
def test_unit_head_reach_at_the_default_budget(n):
    # The head stops once the remainder falls below 1, so m/n builds exactly
    # when m/n < 1 + S, S the sum of 1/p over the first 500 primes not
    # dividing n.  S grows like ln ln of the last prime (Mertens), so a
    # larger budget barely reaches further.
    built, refused = UNIT_HEAD_REACH[n]
    primes = list(islice((p for p in count(2) if is_prime(p) and n % p), 500))
    P = prod(primes)
    S_num = sum(P // p for p in primes)  # S = S_num / P
    assert (built - n) * P < n * S_num <= (refused - n) * P
    assert all(gcd(m, n) > 1 for m in range(built + 1, refused))
    assert all_units_but_one(built, n).decomposition.target == Fraction(built, n)
    with pytest.raises(TermBudgetExceeded):
        all_units_but_one(refused, n)


def test_max_head_has_the_same_default_budget():
    # About 10**6 prime terms of (p-1)/p each; unbounded, this did not return.
    with pytest.raises(TermBudgetExceeded, match="more than 500 prime terms"):
        general_coprime(10**6, 1, "max")


def test_largest_max_block_that_builds():
    # 498/1 takes exactly the 500 prime terms the budget allows; 499/1 would
    # need one more.
    built = general_coprime(498, 1, "max")
    assert len(built.trace.primes_used) == 500
    assert len(built.decomposition.terms) == 502
    with pytest.raises(TermBudgetExceeded):
        general_coprime(499, 1, "max")
    bd = decompose_partition(PartitionSpec(498, (498,)), 1)
    assert bd.blocks == (built.decomposition,)
    with pytest.raises(TermBudgetExceeded):
        decompose_partition(PartitionSpec(499, (499,)), 1)


def _trial_primes_avoiding(values):
    """The primes that divide no member of values, found by trial division."""
    for p in count(2):
        if all(p % d for d in range(2, isqrt(p) + 1)) and all(v % p for v in values):
            yield p


@pytest.mark.parametrize("omega", [[], [2], [3, 10], [4, 9, 25], [1, 6, 35]])
def test_heads_take_the_admissible_primes_in_order(omega):
    # general_coprime's head skips the first seed primes that divide neither
    # n nor a member of omega, then takes the next ones in order; theorem1's
    # takes the t smallest primes above its bound that do not divide n.
    for n in range(1, 13):
        for m in range(n, 4 * n):
            if gcd(m, n) != 1:
                continue
            for policy in ("unit", "max") if m < 2 * n else ("max",):
                for seed in range(4):
                    used = general_coprime(m, n, policy, omega, seed).trace.primes_used
                    assert used
                    expected = _trial_primes_avoiding([n, *omega])
                    assert used == tuple(islice(expected, seed, seed + len(used)))
            t = m // n
            if t >= 2:
                bound = Fraction(t * n, (t + 1) * n - m)
                used = theorem1(m, n).trace.primes_used
                expected = (p for p in _trial_primes_avoiding([n]) if p > bound)
                assert used == tuple(islice(expected, t))


def test_seed_changes_output_but_not_faithfulness():
    a = all_units_but_one(9, 5, seed=0).decomposition
    b = all_units_but_one(9, 5, seed=1).decomposition
    assert a != b
    assert verify(a).faithful
    assert verify(b).faithful


@st.composite
def proper_fraction_with_omega(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    assume(gcd(m, n) == 1)
    omega = draw(st.sets(st.integers(min_value=2, max_value=12), max_size=3))
    return m, n, omega


@given(proper_fraction_with_omega())
@settings(**HYP_SETTINGS)
def test_all_units_shape_and_omega(args):
    m, n, omega = args
    built = all_units_but_one(m, n, omega, max_terms=19)
    d = built.decomposition
    assert coprime_shape(d)
    non_unit = [t for t in d.terms if t.num != 1]
    assert len(non_unit) <= 1
    for b in d.denominators[:-1]:
        assert gcd(b, n) == 1
        assert all(gcd(b, w) == 1 for w in omega)
    assert verify(d).faithful


def _least_coprime_step(y0, nb, omega, start):
    # The per-member rule: the least a0 >= start for which y0 + a0 * nb
    # shares no factor with any member of omega.
    a0 = start
    while any(gcd(y0 + a0 * nb, w) != 1 for w in omega):
        a0 += 1
    return a0


@pytest.mark.parametrize(
    "omega",
    [[], [1], [2], [1, 3, 5], [4, 9, 25], [6, 10, 15], [1, 4, 6, 9, 10, 15]],
)
def test_progression_steps_are_the_least_coprime_step(omega):
    for n in range(1, 13):
        for m in range(1, 2 * n):
            if gcd(m, n) != 1:
                continue
            for policy in ("unit", "max"):
                for seed in range(4):
                    built = general_coprime(m, n, policy, omega, seed)
                    primes, (x0, y0) = built.trace.primes_used, built.trace.bezout
                    a0 = built.trace.progression_steps
                    nb = n * prod(primes)
                    assert a0 == _least_coprime_step(y0, nb, omega, 0 if primes else seed)
                    head = built.decomposition.terms[: len(primes)]
                    rem = Fraction(m, n) - sum(Fraction(t.num, t.den) for t in head)
                    scaled = rem * nb
                    assert scaled.denominator == 1
                    z = scaled.numerator
                    assert y0 * z - x0 * nb == 1 and x0 >= 1
                    b = y0 + a0 * nb
                    assert pairs_of(built.decomposition)[len(primes):] == [
                        (x0 + a0 * z, b), (1, nb * b)
                    ]


# ---- policy variants ----


def test_unit_policy_matches_all_units_helper():
    a = general_coprime(2, 3, "unit")
    b = all_units_but_one(2, 3)
    assert a.decomposition == b.decomposition


def test_max_policy_takes_near_one_steps():
    built = general_coprime(7, 3, "max")
    head = built.decomposition.terms[: len(built.trace.primes_used)]
    assert [(t.num, t.den) for t in head] == [
        (p - 1, p) for p in built.trace.primes_used
    ]
    assert verify(built.decomposition).faithful


def test_omega_can_contain_n_itself():
    built = general_coprime(5, 7, "unit", omega=(7,))
    for b in built.decomposition.denominators[:-1]:
        assert gcd(b, 7) == 1


def test_policy_name_is_checked():
    with pytest.raises(ValueError):
        general_coprime(2, 3, "greedy")


def test_inputs_must_be_reduced_and_positive():
    with pytest.raises(ValueError):
        general_coprime(2, 4)
    with pytest.raises(ValueError):
        general_coprime(0, 3)
    with pytest.raises(ValueError):
        all_units_but_one(2, 3, seed=-1)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (two_term, (Fraction(4), 5), "m and n must be integers"),
        (theorem1, (7, 3.0), "m and n must be integers"),
        (general_coprime, (2, 3, "unit", [0]), "omega must contain positive integers"),
        (all_units_but_one, (2, 3, [2.5]), "omega must contain positive integers"),
        (from_perfect, (1,), "need an integer >= 2"),
        (from_perfect, (6.0,), "need an integer >= 2"),
        (prop7, (2, 5), "prop7 needs m >= 3"),
        (prop7, (5, 3), "prop7 needs a proper fraction m/n < 1"),
        (general_coprime, (True, 3), "m and n must be integers"),
        (all_units_but_one, (True, 2), "m and n must be integers"),
        (two_term, (2, True), "m and n must be integers"),
        # bool is an int subclass: True is refused as a seed, an omega
        # member or a head budget, as it is as a target.
        (general_coprime, (5, 7, "unit", (), True), "seed must be a nonnegative integer"),
        (general_coprime, (5, 7, "unit", [True]), "omega must contain positive integers"),
        (general_coprime, (5, 7, "unit", [[1]]), "omega must contain positive integers"),
        (general_coprime, (30, 7, "unit", (), 0, 1.5), "max_terms must be a nonnegative integer"),
        (general_coprime, (30, 7, "unit", (), 0, -1), "max_terms must be a nonnegative integer"),
        (all_units_but_one, (30, 7, (), 0, True), "max_terms must be a nonnegative integer"),
    ],
)
def test_constructor_input_checks(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


# ---- three-term condition and constructor ----


@pytest.mark.parametrize(
    "args,expected",
    [
        ((4, 13, 4, 7, 2), True),
        ((4, 9, 3, 5, 2), False),
        ((4, 13, 4, 7, 9), False),
    ],
)
def test_prop6_condition_known_values(args, expected):
    assert prop6_condition(*args) is expected


def test_prop6_condition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        prop6_condition(4, 13, 4, 8, 2)
    with pytest.raises(ValueError):
        prop6_condition(4, 13, 5, 7, 2)
    # 2/3 = 1/3 + 1/6 + 1/6: the middle term repeats y * n.
    with pytest.raises(ValueError, match="not distinct"):
        prop6_condition(2, 3, 3, 2, 1)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        prop6_condition(True, 3, 2, 1, 1)


def fraction_prop6(m, n, y2, y, x):
    """prop6_condition's test with the middle term taken in Fraction
    arithmetic; None where prop6_condition must raise ValueError."""
    if min(m, n, y2, y, x) < 1 or gcd(y, y2) != 1:
        return None
    if x >= y:
        return False
    middle = Fraction(m, n) - Fraction(1, y2) - Fraction(x, y * n)
    if middle <= 0 or middle.numerator != 1 or len({y2, middle.denominator, y * n}) != 3:
        return None
    return all(n != mp * y2 for mp in range(1, m))


@st.composite
def prop6_triples(draw):
    """Random (m, n, y2, y, x), or one read off a prop7 output, so that the
    middle term is a unit fraction often enough to reach the verdict."""
    if draw(st.booleans()):
        return tuple(draw(st.integers(min_value=0, max_value=40)) for _ in range(5))
    m = draw(st.integers(min_value=3, max_value=7))
    n = draw(st.integers(min_value=m + 1, max_value=300).filter(lambda n: gcd(m, n) == 1))
    (_, y2), _, (x, yn) = pairs_of(prop7(m, n).decomposition)
    return m, n, y2, yn // n, x + draw(st.integers(min_value=-1, max_value=1))


@given(prop6_triples())
@settings(**HYP_SETTINGS)
def test_prop6_condition_matches_fraction_arithmetic(args):
    expected = fraction_prop6(*args)
    if expected is None:
        with pytest.raises(ValueError):
            prop6_condition(*args)
    else:
        assert prop6_condition(*args) is expected


def test_prop7_three_sevenths():
    built = prop7(3, 7)
    assert pairs_of(built.decomposition) == [(1, 3), (1, 15), (1, 35)]
    assert built.trace.branch == "case1"
    assert built.trace.predicted_faithful


def test_prop7_four_thirteenths():
    built = prop7(4, 13)
    assert pairs_of(built.decomposition) == [(1, 4), (1, 28), (2, 91)]
    assert built.trace.predicted_faithful


def test_prop7_four_ninths_predicted_unfaithful():
    built = prop7(4, 9)
    assert pairs_of(built.decomposition) == [(1, 3), (1, 15), (2, 45)]
    assert not built.trace.predicted_faithful
    assert not verify(built.decomposition).faithful


@given(st.integers(min_value=3, max_value=5), st.integers(min_value=4, max_value=200))
@settings(**HYP_SETTINGS)
def test_prop7_prediction_matches_verifier(m, n):
    assume(n > m and gcd(m, n) == 1)
    built = prop7(m, n)
    assert verify(built.decomposition).faithful == built.trace.predicted_faithful


# ---- 4/n in three terms ----


@pytest.mark.parametrize(
    "n,expected,branch",
    [
        (5, [(1, 2), (1, 6), (2, 15)], "case1"),
        (7, [(1, 3), (1, 6), (1, 14)], "case2"),
        (9, [(1, 4), (1, 6), (1, 36)], "example9"),
        (15, [(1, 6), (1, 18), (2, 45)], "scaled15"),
        (25, [(1, 7), (1, 91), (2, 325)], "case1"),
    ],
)
def test_theorem4_known_values(n, expected, branch):
    built = theorem4(n)
    assert pairs_of(built.decomposition) == expected
    assert built.trace.branch == branch


def test_theorem4_scaling_is_recorded():
    assert theorem4(15).trace.applied_scaling == 3


def test_theorem4_rejects_even_and_small_n():
    for n in (4, 10, 3, 1):
        with pytest.raises(ValueError):
            theorem4(n)


@given(st.integers(min_value=2, max_value=499))
@settings(**HYP_SETTINGS)
def test_theorem4_always_three_faithful_terms(k):
    n = 2 * k + 1
    d = theorem4(n).decomposition
    assert d.target == Fraction(4, n)
    assert len(d.terms) == 3
    assert verify(d).faithful
