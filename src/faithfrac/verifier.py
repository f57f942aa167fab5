"""Faithfulness checking: a brute-force oracle and one congruence lattice walk.

A decomposition m/n = sum a_i/b_i is faithful when no coefficient vector
0 <= x_i <= a_i makes sum x_i/b_i land in (1/n)Z except the all-zero vector
(value 0) and any vector whose value equals m/n itself.

verify_naive enumerates the whole lattice and is the reference.  The fast
path reduces membership to integer arithmetic: with L = lcm(b_i) and
W = L / gcd(L, n), a lattice sum lies in (1/n)Z exactly when
sum x_i * (L / b_i) == 0 (mod W).  One walk removes the term with the largest
numerator and solves that congruence for its coefficient instead of
enumerating it; the other coefficients are enumerated jointly, or split in
half and matched through a residue table.  The walk hands every in-ideal
point and its exact value to a visitor.  It has two consumers: verify keeps
the colex-minimal point whose value is neither 0 nor m/n, and
partial_sums_in_ideal collects the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, isqrt, lcm, prod
from typing import Callable, Iterator

from .model import Decomposition, validate
from .numeric import mod_inverse

__all__ = [
    "DEFAULT_CAP",
    "MITM_THRESHOLD",
    "CapExceeded",
    "Violation",
    "FaithfulnessReport",
    "verify_naive",
    "verify",
    "partial_sums_in_ideal",
]

DEFAULT_CAP = 10_000_000
MITM_THRESHOLD = 20


class CapExceeded(RuntimeError):
    """Raised when a check would need more combination evaluations than allowed."""


@dataclass(frozen=True)
class Violation:
    """A coefficient vector whose value falsifies faithfulness."""

    coefficients: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class FaithfulnessReport:
    faithful: bool
    violation: Violation | None
    combos_examined: int
    method: str


def _checked(d: Decomposition) -> None:
    problems = validate(d)
    if problems:
        raise ValueError(f"invalid decomposition: {', '.join(problems)}")


def verify_naive(d: Decomposition, cap: int = DEFAULT_CAP) -> FaithfulnessReport:
    """Oracle check: enumerate every coefficient vector and test membership.

    Stops at the first violating vector in enumeration order (first
    coefficient fastest).  Refuses instances whose full lattice exceeds cap.
    """
    _checked(d)
    n = d.target.denominator
    u = d.target
    bounds = [t.num for t in d.terms]
    total = prod(a + 1 for a in bounds)
    if total > cap:
        raise CapExceeded(f"naive lattice has {total} points, cap is {cap}; use verify")
    # Coefficient x_i contributes x_i copies of 1/b_i, not multiples of a_i/b_i.
    values = [Fraction(1, t.den) for t in d.terms]
    combos = 0
    # itertools.product varies its last factor fastest; feeding it the bounds
    # reversed makes the first coefficient the fastest-moving one.
    for rev in iproduct(*[range(a + 1) for a in reversed(bounds)]):
        vec = rev[::-1]
        combos += 1
        v = sum((x * val for x, val in zip(vec, values)), Fraction(0))
        if n % v.denominator == 0 and v != 0 and v != u:
            return FaithfulnessReport(False, Violation(vec, v), combos, "naive")
    return FaithfulnessReport(True, None, combos, "naive")


def _iter_assignments(bounds: list[int], weights: list[int], W: int) -> Iterator[tuple[list[int], int]]:
    """Yield (digits, residue) over the mixed-radix lattice.

    The digits list is reused in place; callers must copy it on a hit.  The
    residue is sum(digits[i] * weights[i]) mod W, maintained incrementally.
    """
    d = len(bounds)
    if d == 0:
        yield [], 0
        return
    digits = [0] * d
    prefix = [0] * (d + 1)
    while True:
        yield digits, prefix[d]
        i = d - 1
        while i >= 0 and digits[i] == bounds[i]:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        p = prefix[i + 1] + weights[i]
        if p >= W:
            p -= W
        prefix[i + 1] = p
        for j in range(i + 1, d):
            prefix[j + 1] = prefix[j]


class _Eliminator:
    """Solves w_k * x == -s (mod W) for the eliminated coefficient."""

    def __init__(self, w_k: int, W: int, bound: int):
        self.W = W
        self.bound = bound
        self.g = gcd(w_k, W) if W > 1 else 1
        self.step = W // self.g if W > 1 else 1
        if self.step > 1:
            self.inv = mod_inverse((w_k // self.g) % self.step, self.step)
        else:
            self.inv = 0

    def candidates(self, s: int) -> range:
        """All x in [0, bound] solving the congruence, as a range object."""
        if self.W == 1:
            return range(0, self.bound + 1)
        if s % self.g:
            return range(0)
        rhs = (self.W - s) % self.W
        x0 = (rhs // self.g * self.inv) % self.step if self.step > 1 else 0
        if x0 > self.bound:
            return range(0)
        return range(x0, self.bound + 1, self.step)


def _scan(
    d: Decomposition,
    cap: int,
    mitm_threshold: int,
    visit: Callable[[list[int], Fraction], None],
) -> tuple[int, str]:
    """Walk every in-ideal lattice point of a non-empty decomposition.

    Calls visit(vec, value) once per point.  vec is one list the walk
    rewrites in place, so a visitor that keeps it must copy it.  Returns
    (combos_examined, method).  When the remaining terms outnumber
    mitm_threshold, or their joint lattice alone would break the cap, they
    are split in half and matched through a residue table.
    """
    n = d.target.denominator
    bounds = [t.num for t in d.terms]
    dens = [t.den for t in d.terms]
    L = lcm(*dens)
    W = L // gcd(L, n)
    # A point's value is sum(x_i * shares[i]) / L, exact in integers.
    shares = [L // b for b in dens]
    weights = [s % W for s in shares]
    k = max(range(len(bounds)), key=lambda i: (bounds[i], -i))
    rest = [i for i in range(len(bounds)) if i != k]
    rest_bounds = [bounds[i] for i in rest]
    elim = _Eliminator(weights[k], W, bounds[k])
    vec = [0] * len(bounds)

    def emit(cands: range) -> int:
        """Visit one row: vec holds every coefficient but the eliminated one."""
        base = sum(vec[i] * shares[i] for i in rest)
        for x_k in cands:
            v = Fraction(base + x_k * shares[k], L)
            if n % v.denominator != 0:
                raise RuntimeError("congruence produced a value outside (1/n)Z")
            vec[k] = x_k
            visit(vec, v)
        return len(cands)

    if len(rest) > mitm_threshold or prod(a + 1 for a in rest_bounds) > cap:
        return _mitm_scan(bounds, weights, W, rest, elim, cap, vec, emit), "meet_in_middle"
    combos = 0
    for digits, s in _iter_assignments(rest_bounds, [weights[i] for i in rest], W):
        combos += 1
        cands = elim.candidates(s)
        if cands:
            for i, x in zip(rest, digits):
                vec[i] = x
            combos += emit(cands)
        if combos > cap:
            raise CapExceeded(f"combination evaluations exceeded cap {cap}")
    return combos, "congruence"


def _mitm_scan(bounds, weights, W, rest, elim, cap, vec, emit) -> int:
    """Split the remaining terms in half and match residues through a table.

    Solvable pairs need s1 + s2 == 0 (mod g), so the stored half is bucketed
    by residue mod g and only matching buckets are expanded.  The smaller
    half is the stored one; both halves must be enumerable within the cap.
    """
    rest_bounds = [bounds[i] for i in rest]
    # Balance by product so each half stays near sqrt(total).
    half_target = isqrt(prod(a + 1 for a in rest_bounds))
    acc = 1
    cut = 0
    while cut < len(rest) - 1 and acc < half_target:
        acc *= rest_bounds[cut] + 1
        cut += 1
    scan, stored = rest[:cut], rest[cut:]
    scan_size = prod(bounds[i] + 1 for i in scan)
    stored_size = prod(bounds[i] + 1 for i in stored)
    if scan_size < stored_size:
        scan, stored = stored, scan
        scan_size, stored_size = stored_size, scan_size
    if scan_size + stored_size > cap:
        raise CapExceeded(
            f"meet-in-the-middle halves {scan_size} + {stored_size} exceed cap {cap}"
        )

    g = elim.g
    combos = 0
    table: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for digits, s in _iter_assignments(
        [bounds[i] for i in stored], [weights[i] for i in stored], W
    ):
        combos += 1
        table.setdefault(s % g, []).append((s, tuple(digits)))
    for digits, s1 in _iter_assignments(
        [bounds[i] for i in scan], [weights[i] for i in scan], W
    ):
        combos += 1
        bucket = table.get((g - s1 % g) % g)
        if not bucket:
            if combos > cap:
                raise CapExceeded(f"combination evaluations exceeded cap {cap}")
            continue
        for i, x in zip(scan, digits):
            vec[i] = x
        for s2, stored_digits in bucket:
            combos += 1
            s = s1 + s2
            if s >= W:
                s -= W
            cands = elim.candidates(s)
            if cands:
                for i, x in zip(stored, stored_digits):
                    vec[i] = x
                combos += emit(cands)
            if combos > cap:
                raise CapExceeded(f"combination evaluations exceeded cap {cap}")
    return combos


def verify(
    d: Decomposition,
    cap: int = DEFAULT_CAP,
    mitm_threshold: int = MITM_THRESHOLD,
) -> FaithfulnessReport:
    """Same verdict and violation as verify_naive, without enumerating the
    largest coefficient range.

    The term with the largest numerator is eliminated: for every assignment
    of the remaining coefficients the eliminated one is recovered from a
    linear congruence, whose solutions form an arithmetic progression.  When
    the remaining terms outnumber mitm_threshold, or their joint lattice
    alone would break the cap, they are split in half and matched through a
    residue table instead of enumerated jointly.
    """
    _checked(d)
    if not d.terms:
        return FaithfulnessReport(True, None, 0, "congruence")
    u = d.target
    best: Violation | None = None
    best_key: list[int] = []

    def keep_colex_min(vec: list[int], v: Fraction) -> None:
        # verify_naive varies the first coefficient fastest, so the violation
        # it stops at is the colex-minimal one: compare reversed vectors.
        nonlocal best, best_key
        if v == 0 or v == u:
            return
        key = vec[::-1]
        if best is None or key < best_key:
            best, best_key = Violation(tuple(vec), v), key

    combos, method = _scan(d, cap, mitm_threshold, keep_colex_min)
    return FaithfulnessReport(best is None, best, combos, method)


def partial_sums_in_ideal(
    d: Decomposition,
    cap: int = DEFAULT_CAP,
    mitm_threshold: int = MITM_THRESHOLD,
) -> frozenset[Fraction]:
    """Every lattice value sum x_i/b_i that lies in (1/n)Z, 0 and m/n included.

    Uses the same walk as verify, so only the in-ideal points are ever
    materialized.
    """
    _checked(d)
    if not d.terms:
        return frozenset({Fraction(0)})
    values: set[Fraction] = set()
    _scan(d, cap, mitm_threshold, lambda _vec, v: values.add(v))
    return frozenset(values)
