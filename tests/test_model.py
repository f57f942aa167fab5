"""Decomposition data model: validation, scaling, structure checks, JSON."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faithfrac import (
    Decomposition,
    Term,
    coprime_shape,
    decomposition,
    from_json,
    from_json_dict,
    necessary_conditions,
    scale,
    to_json,
    to_json_dict,
    validate,
)

HYP_SETTINGS = {"deadline": None, "max_examples": 150}


def d_of(num, den, pairs):
    return decomposition(Fraction(num, den), pairs)


def test_terms_must_be_positive():
    with pytest.raises(ValueError):
        Term(0, 5)
    with pytest.raises(ValueError):
        Term(1, 0)
    with pytest.raises(ValueError):
        Term(-1, 4)


def test_validate_accepts_exact_examples():
    assert validate(d_of(4, 9, [(1, 4), (1, 6), (1, 36)])) == []
    assert validate(d_of(7, 3, [(4, 5), (6, 7), (48, 71), (1, 7455)])) == []


def test_validate_flags_duplicates_and_bad_sum():
    problems = validate(d_of(4, 9, [(1, 4), (1, 4)]))
    assert any("duplicate" in p for p in problems)
    assert any("sum" in p for p in problems)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=10**6)),
        min_size=1,
        max_size=8,
        unique_by=lambda pair: pair[1],
    ),
    st.sampled_from([0, 1, -1]),
    st.integers(min_value=1, max_value=10**7),
)
@settings(**HYP_SETTINGS)
def test_validate_sum_check_matches_fraction_sum(pairs, sign, k):
    # The integer check over lcm(b_i) must agree with summing Fractions,
    # also when the target is off by 1/k.
    exact = sum((Fraction(a, b) for a, b in pairs), Fraction(0))
    target = exact + Fraction(sign, k)
    d = decomposition(target, pairs)
    assert ("sum mismatch" in validate(d)) == (target != exact)


def test_validate_empty_terms_only_for_zero_target():
    assert validate(Decomposition(Fraction(0), ())) == []
    assert validate(Decomposition(Fraction(1, 2), ())) != []


@pytest.mark.parametrize(
    "num,den,pairs,c,exp_den,exp_pairs",
    [
        (4, 5, [(1, 2), (1, 6), (2, 15)], 3, 15, [(1, 6), (1, 18), (2, 45)]),
        (2, 3, [(1, 2), (1, 6)], 5, 15, [(1, 10), (1, 30)]),
    ],
)
def test_scale_known_values(num, den, pairs, c, exp_den, exp_pairs):
    scaled = scale(d_of(num, den, pairs), c)
    assert scaled.target == Fraction(num, exp_den)
    assert [(t.num, t.den) for t in scaled.terms] == exp_pairs


def test_scale_by_one_is_identity():
    d = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
    assert scale(d, 1) == d


def test_scale_rejects_nonpositive_factor():
    d = d_of(2, 3, [(1, 2), (1, 6)])
    with pytest.raises(ValueError):
        scale(d, 0)


@given(st.integers(min_value=1, max_value=10))
@settings(**HYP_SETTINGS)
def test_scale_keeps_validity(c):
    d = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
    scaled = scale(d, c)
    assert validate(scaled) == []
    assert scaled.target == d.target / c


def test_necessary_conditions_flags():
    clean = necessary_conditions(d_of(4, 9, [(1, 4), (1, 6), (1, 36)]))
    assert clean.all_clear

    both_divide = necessary_conditions(d_of(5, 6, [(1, 2), (1, 3)]))
    assert all(f.den_divides_n for f in both_divide.per_term)
    assert not both_divide.all_clear

    # 1/3 written against n=9: numerator already at the b/(b,n) ceiling
    too_big = necessary_conditions(d_of(4, 9, [(1, 3), (1, 15), (2, 45)]))
    assert too_big.per_term[0].numerator_too_big
    assert not too_big.all_clear


def test_single_self_term_is_flagged_despite_being_faithful():
    # the flags' argument needs >= 2 terms; [1/75] decomposing 1/75 is the
    # degenerate case where the lattice jumps straight from 0 to the target
    report = necessary_conditions(d_of(1, 75, [(1, 75)]))
    assert report.per_term[0].den_divides_n
    assert not report.all_clear


def test_coprime_shape_examples():
    assert coprime_shape(d_of(2, 3, [(1, 2), (1, 6)]))
    assert coprime_shape(d_of(9, 5, [(1, 2), (1, 3), (28, 29), (1, 870)]))
    # faithful but the certificate does not apply: gcd(4, 6) = 2
    assert not coprime_shape(d_of(4, 9, [(1, 4), (1, 6), (1, 36)]))
    assert not coprime_shape(Decomposition(Fraction(0), ()))


def test_json_round_trip_is_exact():
    d = d_of(7, 3, [(4, 5), (6, 7), (48, 71), (1, 7455)])
    assert from_json(to_json(d)) == d


def test_json_text_is_stable():
    d = d_of(2, 3, [(1, 2), (1, 6)])
    expected = (
        '{"target":{"num":"2","den":"3"},'
        '"terms":[{"num":"1","den":"2"},{"num":"1","den":"6"}]}'
    )
    assert to_json(d) == expected


def test_json_integers_are_decimal_strings():
    obj = to_json_dict(d_of(4, 9, [(1, 4), (1, 6), (1, 36)]))
    assert obj["target"] == {"num": "4", "den": "9"}
    assert all(isinstance(t["num"], str) and isinstance(t["den"], str) for t in obj["terms"])


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {},
        {"target": {"num": "1", "den": "0"}, "terms": []},
        {"target": {"num": "1", "den": "2"}, "terms": [{"num": "0", "den": "2"}]},
        {"target": {"num": "1", "den": "2"}, "terms": "nope"},
        {"target": {"num": "x", "den": "2"}, "terms": []},
    ],
)
def test_from_json_dict_rejects_malformed(obj):
    with pytest.raises(ValueError):
        from_json_dict(obj)


@st.composite
def decompositions(draw):
    """Structurally valid decompositions with small random terms."""
    k = draw(st.integers(min_value=1, max_value=5))
    dens = draw(
        st.lists(
            st.integers(min_value=2, max_value=400),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    pairs = [(draw(st.integers(min_value=1, max_value=b - 1)), b) for b in dens]
    target = sum(Fraction(a, b) for a, b in pairs)
    return decomposition(target, pairs)


@given(decompositions())
@settings(**HYP_SETTINGS)
def test_round_trip_random(d):
    assert validate(d) == []
    assert from_json(to_json(d)) == d
    assert from_json_dict(to_json_dict(d)) == d


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on decimal strings, restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_integers_past_the_digit_limit_get_one_size_error_both_ways(digit_limit):
    digits = "9" * (digit_limit + 701)
    as_string = '{"target":{"num":"1","den":"' + digits + '"},"terms":[]}'
    as_number = '{"target":{"num":1,"den":' + digits + '},"terms":[]}'
    message = f"integer longer than {digit_limit} digits"
    for text in (as_string, as_number):
        with pytest.raises(ValueError, match=message):
            from_json(text)
    huge = 10**5000 + 1
    with pytest.raises(ValueError, match=message):
        to_json(Decomposition(Fraction(1, huge), (Term(1, huge),)))
