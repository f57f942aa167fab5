"""Constructors: every builder's output is validated and spot-verified."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faithfrac import (
    TermBudgetExceeded,
    all_units_but_one,
    coprime_shape,
    from_perfect,
    general_coprime,
    prop6_condition,
    prop7,
    theorem1,
    theorem4,
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
