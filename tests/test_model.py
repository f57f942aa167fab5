"""Decomposition data model: validation, scaling, structure checks, JSON."""

import inspect
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faithfrac import (
    BlockDecomposition,
    ConstructionTrace,
    Decomposition,
    FaithfulnessReport,
    LengthOutcome,
    PartitionCheck,
    PartitionSpec,
    Prop6Instance,
    Prop6ScanReport,
    SearchBudget,
    SearchResult,
    Term,
    Violation,
    coprime_shape,
    decomposition,
    from_json,
    from_json_dict,
    max_numerator,
    partial_sums_in_ideal,
    scale,
    to_json,
    to_json_dict,
    validate,
    verify,
    verify_naive,
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


@pytest.mark.parametrize("num,den", [(True, 2), (1, True), (False, 3), (True, True)])
def test_term_parts_must_not_be_booleans(num, den):
    # True == 1, but its JSON text "True" could not be read back.
    with pytest.raises(ValueError, match="term parts must be integers"):
        Term(num, den)


@pytest.mark.parametrize(
    "target,terms",
    [
        (0.5, (Term(1, 2),)),
        (True, (Term(1, 2), Term(1, 3), Term(1, 6))),
        ("1/2", (Term(1, 2),)),
        (Decimal(1), (Term(1, 2), Term(1, 3), Term(1, 6))),
        (Fraction(1, 2), [(1, 2)]),
        (Fraction(1, 2), (Term(1, 4), (1, 4))),
        (Fraction(1, 2), 5),
        (Fraction(1, 2), Term(1, 2)),
    ],
)
def test_decomposition_refuses_what_term_refuses(target, terms):
    # A float, bool, str or Decimal target, terms that are not Terms, or no
    # iterable at all: each was coerced or failed later with another error.
    with pytest.raises(ValueError, match="a decomposition's"):
        Decomposition(target, terms)


def test_valid_term_round_trips_unchanged():
    d = d_of(1, 2, [(1, 2)])
    text = '{"target":{"num":"1","den":"2"},"terms":[{"num":"1","den":"2"}]}'
    assert to_json(d) == text
    assert from_json(text) == d
    assert from_json(text).terms[0] == Term(1, 2)


def test_int_target_and_list_terms_are_coerced():
    terms = [Term(1, 2), Term(1, 3), Term(1, 6)]
    d = Decomposition(1, terms)
    assert type(d.target) is Fraction and d.target == 1
    assert type(d.terms) is tuple and d.terms == tuple(terms)
    assert d == Decomposition(Fraction(1), tuple(terms))
    # A Fraction and a tuple are kept as given.
    target, given = Fraction(1), tuple(terms)
    kept = Decomposition(target, given)
    assert kept.target is target and kept.terms is given


def test_an_invalid_decomposition_raises_the_same_error_on_every_call():
    d = d_of(4, 9, [(1, 4), (1, 4)])
    message = "invalid decomposition: duplicate denominator, sum mismatch"
    for _ in range(3):
        for check in (verify, verify_naive, partial_sums_in_ideal):
            with pytest.raises(ValueError) as info:
                check(d)
            assert str(info.value) == message


def test_validate_returns_a_new_list_each_call():
    d = d_of(4, 9, [(1, 4), (1, 4)])
    first = validate(d)
    assert first == ["duplicate denominator", "sum mismatch"]
    first.clear()
    assert validate(d) == ["duplicate denominator", "sum mismatch"]
    good = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
    validate(good).append("spoiled")
    assert validate(good) == []
    assert verify(good).faithful


def test_the_kept_audit_leaves_equality_hash_repr_and_pickle_unchanged():
    d = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
    fresh = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
    before = repr(d), hash(d)
    assert validate(d) == [] and verify(d).faithful  # fills the audit
    assert "_audit" in vars(d) and "_audit" not in vars(fresh)
    assert d == fresh and fresh == d
    assert (repr(d), hash(d)) == before == (repr(fresh), hash(fresh))
    for original in (d, fresh):
        back = pickle.loads(pickle.dumps(original))
        assert back == original and repr(back) == repr(original) and hash(back) == hash(original)
        assert validate(back) == [] and verify(back) == verify(d)


def test_the_audit_read_from_the_class_is_its_descriptor():
    # As with a property, reading the class gives the descriptor, whose
    # docstring is the audit's, and fills no instance.
    kept = Decomposition._audit
    assert kept is vars(Decomposition)["_audit"]
    assert "lcm" in kept.__doc__


# Every record class with field values its __init__ accepts.
HALF = Decomposition(Fraction(1, 2), (Term(1, 2),))
RECORDS = [
    (Term, (1, 4)),
    (Decomposition, (Fraction(5, 6), (Term(1, 2), Term(1, 3)))),
    (Violation, ((1, 0), Fraction(1, 2))),
    (FaithfulnessReport, (True, None, 14, "congruence")),
    (ConstructionTrace, ((2, 3), None, 1, "case1", 2, (5,), True)),
    (PartitionSpec, (3, (1, 2))),
    (BlockDecomposition, ((1,), (HALF,), HALF)),
    (PartitionCheck, (1, frozenset({Fraction(1)}), frozenset())),
    (SearchBudget, (3, 10, 100)),
    (LengthOutcome, (1, HALF, False)),
    (SearchResult, (Fraction(1, 2), (), True, 7)),
    (Prop6Instance, (3, 4, 2, 3, 1, False, True)),
    (Prop6ScanReport, (5, ())),
]


@pytest.mark.parametrize("cls,values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_frozen_values_of_their_fields(cls, values):
    params = inspect.signature(cls).parameters
    fields = dict(zip(params, values))
    r = cls(*values)
    assert repr(r) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert list(vars(r).items()) == list(fields.items())
    assert hash(r) == hash(values)
    assert r == cls(*values) and not r != cls(*values)
    # Equal field values in another class: a subclass, and two unrelated records.
    twin = type("Twin", (cls,), {})(*values)
    assert r != twin and twin != r and repr(twin).startswith("Twin(")
    assert BlockDecomposition(1, 2, 3) != PartitionCheck(1, 2, 3)
    name = next(iter(fields))
    for change in (lambda: setattr(r, name, None), lambda: delattr(r, name),
                   lambda: setattr(r, "extra", None)):
        with pytest.raises(AttributeError):
            change()
    assert vars(r) == fields
    required = sum(p.default is p.empty for p in params.values())
    with pytest.raises(TypeError):
        cls(*values, None)
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


def test_construction_trace_defaults_are_class_attributes():
    assert ConstructionTrace() == ConstructionTrace((), None, 0, None, None, (), None)
    assert ConstructionTrace.branch is None and ConstructionTrace.avoided == ()


@pytest.mark.parametrize("cls,values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_compare_and_hash_every_field(cls, values):
    # Each copy differs from r in one field only; it is built past __init__,
    # which may refuse the new value (a partition's parts must sum to m).
    r = cls(*values)
    for i in range(len(values)):
        changed = object.__new__(cls)
        for name, value in zip(cls._fields, values[:i] + (object(),) + values[i + 1:]):
            object.__setattr__(changed, name, value)
        assert r != changed and changed != r and not r == changed and not changed == r
        assert hash(r) != hash(changed)


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


@pytest.mark.parametrize("c", [True, 2.5])
def test_scale_rejects_a_factor_that_is_not_an_integer(c):
    d = d_of(2, 3, [(1, 2), (1, 6)])
    with pytest.raises(ValueError, match="scaling factor must be a positive integer"):
        scale(d, c)


@given(st.integers(min_value=1, max_value=10))
@settings(**HYP_SETTINGS)
def test_scale_keeps_validity(c):
    d = d_of(4, 9, [(1, 4), (1, 6), (1, 36)])
    scaled = scale(d, c)
    assert validate(scaled) == []
    assert scaled.target == d.target / c


def within_bounds(d):
    n = d.target.denominator
    return [t.num <= max_numerator(t.den, n) for t in d.terms]


def test_max_numerator_examples():
    assert within_bounds(d_of(4, 9, [(1, 4), (1, 6), (1, 36)])) == [True] * 3

    # both denominators divide n, so neither can carry a numerator
    assert max_numerator(2, 6) == max_numerator(3, 6) == 0
    assert within_bounds(d_of(5, 6, [(1, 2), (1, 3)])) == [False, False]

    # 1/3 written against n=9: numerator already at the b/(b,n) ceiling
    assert within_bounds(d_of(4, 9, [(1, 3), (1, 15), (2, 45)])) == [False, True, True]
    # b does not divide n, yet a*gcd(b, n) < b allows only a = 1
    assert max_numerator(6, 9) == 1
    assert max_numerator(7, 9) == 6


def test_single_self_term_breaks_the_bound_despite_being_faithful():
    # the bound's argument needs >= 2 terms; [1/75] decomposing 1/75 is the
    # degenerate case where the lattice jumps straight from 0 to the target
    d = d_of(1, 75, [(1, 75)])
    assert max_numerator(75, 75) == 0
    assert within_bounds(d) == [False]
    assert verify(d).faithful


def test_coprime_shape_needs_terms_that_sum_to_the_target():
    # n = 2 and the head 2/3 make the last term 1/(2*3) of the shape, but
    # the terms sum to 5/6, not 1/2.
    d = decomposition(Fraction(1, 2), [(2, 3), (1, 6)])
    assert validate(d) == ["sum mismatch"]
    assert not coprime_shape(d)


@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(2, 12)), max_size=3),
    st.integers(1, 12),
)
@settings(**HYP_SETTINGS)
def test_coprime_shape_matches_its_definition_with_the_lcm_check(head, n):
    # coprime_shape leaves out the pairwise coprime test, which an exact sum
    # with the closer 1/(n * prod(b_i)) implies; the definition keeps it.
    closer = n * prod(b for _, b in head)
    target = sum((Fraction(a, b) for a, b in head), Fraction(1, closer))
    d = decomposition(target, head + [(1, closer)])
    expected = (not validate(d) and target.denominator == n and all(a < b for a, b in head)
                and lcm(n, *(b for _, b in head)) == closer)
    assert coprime_shape(d) == expected


def test_coprime_shape_examples():
    assert coprime_shape(d_of(2, 3, [(1, 2), (1, 6)]))
    assert coprime_shape(d_of(9, 5, [(1, 2), (1, 3), (28, 29), (1, 870)]))
    # faithful but the certificate does not apply: gcd(4, 6) = 2
    assert not coprime_shape(d_of(4, 9, [(1, 4), (1, 6), (1, 36)]))
    # the last denominator is n * 2 * 4, but gcd(2, 4) = 2, and the terms
    # sum to 19/24: an exact sum with this closer forces coprime moduli
    assert not coprime_shape(Decomposition(Fraction(1, 3), (Term(1, 2), Term(1, 4), Term(1, 24))))
    assert not coprime_shape(Decomposition(Fraction(0), ()))
    # 8/5 = 3/2 + 1/10 has the closing term and coprime moduli, but an improper head
    assert not coprime_shape(d_of(8, 5, [(3, 2), (1, 10)]))


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


def test_from_json_dict_accepts_bare_integers():
    obj = {"target": {"num": 2, "den": 3}, "terms": [{"num": 1, "den": 2}, {"num": "1", "den": 6}]}
    assert from_json_dict(obj) == d_of(2, 3, [(1, 2), (1, 6)])


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
        {"target": {"num": "1", "den": "2"}, "terms": [["1", "2"]]},
    ],
)
def test_from_json_dict_rejects_malformed(obj):
    with pytest.raises(ValueError):
        from_json_dict(obj)


def test_from_json_refuses_deep_nesting_with_a_value_error():
    with pytest.raises(ValueError, match="JSON nested too deeply"):
        from_json("[" * 100_000 + "]" * 100_000)


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
