"""Per-part block construction and the subset-sum identity S = T."""

import hashlib
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faithfrac import (
    DEFAULT_CAP,
    PartitionCheck,
    PartitionSpec,
    check_partition_theorem,
    decompose_partition,
    partial_sums_in_ideal,
    t_set,
    to_json,
    validate,
    verify,
)
from faithfrac.verifier import _scan

HYP_SETTINGS = {"deadline": None, "max_examples": 40}


def test_spec_must_sum_and_stay_positive():
    with pytest.raises(ValueError):
        PartitionSpec(5, (2, 2))
    with pytest.raises(ValueError):
        PartitionSpec(3, (3, 0))
    with pytest.raises(ValueError):
        PartitionSpec(2, ())


@pytest.mark.parametrize("m,parts", [(2.0, (1, 1)), (2, (True, True)), (True, (True,)), (2, (1.0, 1))])
def test_spec_parts_and_m_must_be_integers_not_booleans(m, parts):
    # Each of these sums to m, so only the type check refuses it.
    with pytest.raises(ValueError, match="integer"):
        PartitionSpec(m, parts)


@pytest.mark.parametrize("n", [True, 7.0])
def test_n_must_be_an_integer_not_a_boolean(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        decompose_partition(PartitionSpec(3, (1, 2)), n)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        t_set((1, 2), n)


def test_two_plus_three_over_seven():
    bd = decompose_partition(PartitionSpec(5, (2, 3)), 7)
    assert [b.target for b in bd.blocks] == [Fraction(2, 7), Fraction(3, 7)]
    assert [(t.num, t.den) for t in bd.blocks[0].terms] == [(1, 4), (1, 28)]
    assert [(t.num, t.den) for t in bd.blocks[1].terms] == [(2, 5), (1, 35)]
    assert len(set(bd.combined.denominators)) == 4
    assert validate(bd.combined) == []


def test_single_part_reduces_to_plain_construction():
    bd = decompose_partition(PartitionSpec(2, (2,)), 3)
    assert len(bd.blocks) == 1
    assert bd.combined.target == Fraction(2, 3)
    assert verify(bd.combined).faithful


def test_unit_part_gets_its_own_block():
    bd = decompose_partition(PartitionSpec(4, (1, 3)), 5)
    assert bd.blocks[0].target == Fraction(1, 5)
    assert bd.blocks[1].target == Fraction(3, 5)
    # later blocks must not reuse or collide with earlier denominators
    first = set(bd.blocks[0].denominators)
    second = set(bd.blocks[1].denominators)
    assert not first & second


def test_three_blocks_stay_disjoint():
    bd = decompose_partition(PartitionSpec(6, (1, 2, 3)), 7)
    dens = bd.combined.denominators
    assert len(set(dens)) == len(dens)
    assert validate(bd.combined) == []
    assert sum(b.target for b in bd.blocks) == Fraction(6, 7)


def test_requires_coprime_m_and_n():
    with pytest.raises(ValueError):
        decompose_partition(PartitionSpec(4, (2, 2)), 6)


@pytest.mark.parametrize("n", [0, -7, 7.0])
def test_n_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        decompose_partition(PartitionSpec(2, (1, 1)), n)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        t_set((1, 1), n)


def test_s_set_of_known_example():
    bd = decompose_partition(PartitionSpec(5, (2, 3)), 7)
    want = {Fraction(0), Fraction(2, 7), Fraction(3, 7), Fraction(5, 7)}
    assert partial_sums_in_ideal(bd.combined) == want


def test_s_set_single_block():
    bd = decompose_partition(PartitionSpec(2, (2,)), 3)
    assert partial_sums_in_ideal(bd.combined) == {Fraction(0), Fraction(2, 3)}


@pytest.mark.parametrize(
    "parts,n,expected",
    [
        ((2, 3), 7, {Fraction(0), Fraction(2, 7), Fraction(3, 7), Fraction(5, 7)}),
        ((2, 2), 5, {Fraction(0), Fraction(2, 5), Fraction(4, 5)}),
        ((4,), 9, {Fraction(0), Fraction(4, 9)}),
    ],
)
def test_t_set_subset_sums(parts, n, expected):
    assert t_set(parts, n) == expected


def _partitions(m, top=None):
    top = m if top is None else top
    if not m:
        yield ()
        return
    for p in range(min(m, top), 0, -1):
        for rest in _partitions(m - p, p):
            yield (p, *rest)


@pytest.mark.parametrize("n", [1, 2, 7, 9])
def test_t_set_matches_its_subset_definition(n):
    # Every subset of the parts by index, sizes 0 to e, each summed over n.
    for m in range(1, 9):
        for parts in _partitions(m):
            want = {Fraction(sum(parts[i] for i in combo), n)
                    for size in range(len(parts) + 1)
                    for combo in combinations(range(len(parts)), size)}
            assert t_set(parts, n) == want


def test_t_set_of_many_parts_is_a_set_not_a_subset_walk():
    # 2**40 subsets, but only 41 distinct sums.
    assert t_set((1,) * 40, 41) == {Fraction(s, 41) for s in range(41)}


@pytest.mark.parametrize("parts", [(True, 2), (0, 1), (-1, 2), (1.5,), ()])
def test_t_set_refuses_the_parts_a_spec_refuses(parts):
    for refused in (lambda: PartitionSpec(int(sum(parts)), parts), lambda: t_set(parts, 3)):
        with pytest.raises(ValueError, match="parts must be positive integers"):
            refused()


@pytest.mark.parametrize("parts,n", [((2, 3), 7), ((1, 2, 3), 7), ((1,) * 5, 6), ((2, 1, 1), 7), ((4,), 9)])
def test_s_and_t_are_the_sets_of_the_checkers(parts, n):
    chk = check_partition_theorem(PartitionSpec(sum(parts), parts), n)
    L = chk.block_decomposition.combined._audit[1]
    assert chk.s == partial_sums_in_ideal(chk.block_decomposition.combined)
    assert chk.t == t_set(parts, n)
    assert chk.s_nums == {s * L for s in chk.s} and chk.t_nums == {t * L for t in chk.t}


def test_equal_and_covers_compare_the_two_sets():
    bd = decompose_partition(PartitionSpec(5, (2, 3)), 7)
    t = frozenset({0, 40, 60, 100})  # T over L = 140
    for s, equal, covers in ((t, True, True), (t | {20}, False, True), (t - {40}, False, False)):
        chk = PartitionCheck(bd, s, t)
        assert (chk.equal, chk.s_covers_t) == (equal, covers)


def test_ones_are_checked_with_one_visit_per_offset():
    # (1,)*k over k + 1: the combined blocks' walk comes to two rows of the
    # last block under 2**(k - 1) combinations of the other blocks' solutions,
    # 8.4 million at k = 23, which add up to k distinct offsets.
    for k in range(1, 24):
        chk = check_partition_theorem(PartitionSpec(k, (1,) * k), k + 1)
        assert chk.equal and chk.t == {Fraction(s, k + 1) for s in range(k + 1)}
        d = chk.block_decomposition.combined
        visits = []
        _scan(d, d._audit[1], DEFAULT_CAP, lambda *row: visits.append(None), values_only=True)
        assert len(visits) <= 2 * k


def test_blocks_are_pinned():
    # sha256 of each block's to_json and then the combined decomposition's,
    # over every partition of m <= 7 over coprime n <= 24, in order: a change
    # to a block's policy, its forbidden values or its construction fails here.
    h = hashlib.sha256()
    calls = 0
    for n in range(1, 25):
        for m in range(1, 8):
            if gcd(m, n) != 1:
                continue
            for parts in _partitions(m):
                bd = decompose_partition(PartitionSpec(m, parts), n)
                for d in (*bd.blocks, bd.combined):
                    h.update(to_json(d).encode())
                calls += 1
    assert calls == 699
    assert h.hexdigest() == "a01ca5a7df53f156a64f230da613c872d97c18ad20b074ae29fdec57186ba24c"


def test_check_known_partitions():
    for parts, n in (((2, 3), 7), ((1, 2), 4), ((1, 2, 3), 7)):
        chk = check_partition_theorem(PartitionSpec(sum(parts), parts), n)
        assert chk.equal
        assert chk.s_covers_t


def test_parts_are_stored_sorted():
    bd = decompose_partition(PartitionSpec(5, (3, 2)), 7)
    assert bd.parts == (2, 3)
    assert [b.target.numerator for b in bd.blocks] == [2, 3]


@st.composite
def partition_cases(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    parts = []
    left = m
    while left:
        p = draw(st.integers(min_value=1, max_value=left))
        parts.append(p)
        left -= p
    n = draw(st.integers(min_value=2, max_value=15))
    assume(gcd(m, n) == 1)
    return PartitionSpec(m, tuple(parts)), n


@given(partition_cases())
@settings(**HYP_SETTINGS)
def test_subset_sum_identity_random(case):
    spec, n = case
    chk = check_partition_theorem(spec, n)
    assert chk.s_covers_t
    assert chk.equal
