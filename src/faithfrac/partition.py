"""Blockwise decompositions: one faithful block per partition part of m.

Splitting m as m_1 + ... + m_e and decomposing each m_i/n over mutually
coprime denominator pools makes the combined sum collapse cleanly: the only
lattice partial sums landing in (1/n)Z are exactly the subset sums of the
m_i/n themselves.  check_partition_theorem compares the two sets S and T
as integers, numerators over L = lcm(b_i) of the combined blocks: S from
the verifier's walk, which adds the other blocks' sums as one sumset, and
T from the parts' subset sums times L // n.  Fractions are built only when
S or T is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .construct import UNIT_HEAD_MAX_TERMS, _coprime_block
from .model import Decomposition, _Record, _setfield, validate
from .verifier import DEFAULT_CAP, _checked, _ideal_nums

__all__ = [
    "PartitionSpec",
    "BlockDecomposition",
    "PartitionCheck",
    "decompose_partition",
    "t_set",
    "check_partition_theorem",
]


def _check_parts(parts: tuple[int, ...]) -> None:
    """ValueError unless parts is a non-empty tuple of positive integers."""
    # bool is an int subclass, as for a term's parts.
    if not parts or any(type(p) is bool or not isinstance(p, int) or p < 1 for p in parts):
        raise ValueError("parts must be positive integers")


class PartitionSpec(_Record):
    """A partition m = sum(parts) with every part positive."""

    m: int
    parts: tuple[int, ...]

    def __init__(self, m: int, parts: tuple[int, ...]) -> None:
        parts = tuple(parts)
        if type(m) is bool or not isinstance(m, int):
            raise ValueError("m must be an integer")
        _check_parts(parts)
        if sum(parts) != m:
            raise ValueError(f"parts sum to {sum(parts)}, not {m}")
        _setfield(self, "m", m)
        _setfield(self, "parts", parts)


class BlockDecomposition(_Record):
    """Per-part blocks plus their concatenation as one decomposition of m/n."""

    parts: tuple[int, ...]
    blocks: tuple[Decomposition, ...]
    combined: Decomposition


def decompose_partition(spec: PartitionSpec, n: int) -> BlockDecomposition:
    """Build one faithful block per part, all denominator pools coprime.

    Parts are processed in non-decreasing order; each block is
    general_coprime's construction of part/n, seed 0, forbidding n and every
    denominator already used.  Blocks whose reduced target reaches 2 switch
    to the max numerator policy, whose near-one terms keep the block short;
    smaller targets use unit fractions.  Each block is validated and checked
    for the coprime shape as it is built, and builds no trace.
    """
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if gcd(spec.m, n) != 1:
        raise ValueError(f"{spec.m} and {n} must be coprime")
    avoid = n
    blocks: list[Decomposition] = []
    for part in sorted(spec.parts):
        policy = "max" if part >= 2 * n else "unit"
        d = _coprime_block(Fraction(part, n), policy, avoid, 0, UNIT_HEAD_MAX_TERMS)[0]
        blocks.append(d)
        # The coprime shape makes a block's closer its reduced n times its
        # other denominators, so the closer carries every prime the block used.
        avoid *= d.terms[-1].den
    combined = Decomposition(
        Fraction(spec.m, n), tuple(t for b in blocks for t in b.terms)
    )
    problems = validate(combined)
    if problems:
        raise RuntimeError(f"combined blocks are invalid: {problems}")
    return BlockDecomposition(
        parts=tuple(sorted(spec.parts)),
        blocks=tuple(blocks),
        combined=combined,
    )


def _subset_sums(parts: tuple[int, ...], unit: int) -> set[int]:
    """Subset sums of the parts, empty subset included, each times unit."""
    sums = {0}
    for p in parts:
        p *= unit
        sums |= {s + p for s in sums}
    return sums


def t_set(parts: tuple[int, ...], n: int) -> frozenset[Fraction]:
    """Subset sums of the block targets m_i/n, empty subset included, for
    parts that a PartitionSpec accepts.

    The integer subset sums of the parts are built one part at a time, a set
    of at most sum(parts) + 1 values, and divided by n once each.
    """
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    _check_parts(parts := tuple(parts))
    return frozenset(Fraction(s, n) for s in _subset_sums(parts, 1))


class PartitionCheck(_Record):
    """S and T of a partition as numerators over L = lcm(b_i) of the
    combined blocks: s_nums those of the in-ideal lattice sums S, t_nums
    those of the subset sums T of the parts m_i/n.  equal and s_covers_t
    compare these integers; s and t build the Fractions when read."""

    block_decomposition: BlockDecomposition
    s_nums: frozenset[int]
    t_nums: frozenset[int]

    def _over_L(self, nums: frozenset[int]) -> frozenset[Fraction]:
        L = self.block_decomposition.combined._audit[1]
        return frozenset(Fraction(num, L) for num in nums)

    @property
    def s(self) -> frozenset[Fraction]:
        return self._over_L(self.s_nums)

    @property
    def t(self) -> frozenset[Fraction]:
        return self._over_L(self.t_nums)

    @property
    def equal(self) -> bool:
        return self.s_nums == self.t_nums

    @property
    def s_covers_t(self) -> bool:
        return self.s_nums >= self.t_nums


def check_partition_theorem(
    spec: PartitionSpec, n: int, cap: int = DEFAULT_CAP
) -> PartitionCheck:
    """Compare the in-ideal lattice sums against the subset sums of the
    parts, both as numerators over L = lcm(b_i) of the combined blocks.

    The combined sum is m/n in lowest terms, so n divides L and a part's
    m_i/n is m_i * (L // n) over L.
    """
    bd = decompose_partition(spec, n)
    L = _checked(bd.combined, cap)
    return PartitionCheck(bd, frozenset(_ideal_nums(bd.combined, L, cap)),
                          frozenset(_subset_sums(bd.parts, L // n)))
