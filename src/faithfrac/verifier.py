"""Faithfulness checking: a brute-force oracle and one factored lattice walk.

A decomposition m/n = sum a_i/b_i is faithful when no coefficient vector
0 <= x_i <= a_i makes sum x_i/b_i land in (1/n)Z except the all-zero vector
(value 0) and any vector whose value equals m/n itself.

verify_naive enumerates the whole lattice and is the reference.  The fast
path reduces membership to integer arithmetic: with L = lcm(b_i) and
W = L / gcd(L, n), a lattice sum lies in (1/n)Z exactly when
sum x_i * (L / b_i) == 0 (mod W).  W is split, by gcds alone, into pairwise
coprime parts, each involving only the terms whose weight L / b_i it does
not divide.  Terms of several parts are enumerated; each part then solves
its widest coefficient x_k by congruence and walks the rest jointly.  A
part whose walk has more points than the cap raises CapExceeded before
anything is enumerated.  The walk is one loop nest over plain per-part
data, and hands every in-ideal point with its integer numerator over L to
a visitor: verify keeps the colex-minimal point whose value is neither 0
nor m/n, partial_sums_in_ideal the distinct numerators.  Each builds a
Fraction only for what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator

from .model import Decomposition, validate
from .numeric import coprime_parts

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "Violation",
    "FaithfulnessReport",
    "verify_naive",
    "verify",
    "partial_sums_in_ideal",
]

DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """Raised when a check would need more combination evaluations than allowed."""


@dataclass(frozen=True)
class Violation:
    """A coefficient vector whose value falsifies faithfulness."""

    coefficients: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class FaithfulnessReport:
    """A verdict, its colex-minimal violation, and what it cost.

    method is "congruence" from verify and "naive" from verify_naive.
    combos_examined has one unit on both: enumerated assignments plus the
    values produced for eliminated coefficients (verify_naive eliminates
    none, so it counts the vectors it enumerated).
    """

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
    Membership is tested in its own integer arithmetic, apart from the fast
    path's: over L = lcm(b_i) a vector's value is num / L, and it lies in
    (1/n)Z exactly when num * n % L == 0.  The vectors come in rows, one per
    setting of the other coefficients, along which x_1 runs from 0 to a_1
    and num steps by L / b_1 from the row's base.
    """
    _checked(d)
    m, n = d.target.numerator, d.target.denominator
    bounds = [t.num for t in d.terms]
    total = prod(a + 1 for a in bounds)
    if total > cap:
        raise CapExceeded(f"naive lattice has {total} points, cap is {cap}; use verify")
    if not bounds:
        return FaithfulnessReport(True, None, 1, "naive")  # the one, empty, vector
    # Coefficient x_i contributes x_i copies of 1/b_i, not multiples of a_i/b_i:
    # x_i * (L // b_i) to the numerator over L.
    L = lcm(*(t.den for t in d.terms))
    mL = m * L
    first, *rest = d.terms
    step = L // first.den
    width = first.num + 1
    span = width * step
    combos = 0
    # itertools.product varies its last factor fastest; feeding it the other
    # coefficients' bounds reversed makes x_2 the fastest from row to row, so
    # each row's setting arrives reversed and is paired with the shares in
    # reverse.
    rshares = [L // t.den for t in reversed(rest)]
    for rev in iproduct(*[range(t.num + 1) for t in reversed(rest)]):
        base = sum(map(mul, rev, rshares))
        for num in range(base, base + span, step):
            if not num * n % L and num and num * n != mL:
                x = (num - base) // step
                violation = Violation((x, *rev[::-1]), Fraction(num, L))
                return FaithfulnessReport(False, violation, combos + x + 1, "naive")
        combos += width
    return FaithfulnessReport(True, None, combos, "naive")


def _iter_assignments(
    bounds: list[int], weights: list[int], W: int, start: int = 0
) -> Iterator[tuple[list[int], int]]:
    """Yield (digits, residue) over the mixed-radix lattice.

    The digits list is reused in place; callers must copy it on a hit.  The
    residue is start + sum(digits[i] * weights[i]) mod W, maintained
    incrementally; start lies in [0, W).
    """
    d = len(bounds)
    if d == 0:
        yield [], start
        return
    digits = [0] * d
    prefix = [start] * (d + 1)
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


def _plan(W: int, weights: list[int], bounds: list[int]):
    """Split W into coprime parts: (parts, shared terms, private terms per part).

    A term belongs to each part that does not divide its weight.  The last
    part takes the terms of no part and absorbs the parts with no private
    term.  W stays whole when its basis (about k**2 gcds for k terms) costs
    more than the rest lattice it could shrink, or the split is no cheaper.
    """
    terms = range(len(bounds))
    single = [W], [], [list(terms)]
    rest = prod(map((1).__add__, bounds)) // (max(bounds) + 1)
    if W == 1 or rest <= len(bounds) ** 2:
        return single
    # q divides weight w exactly when q is coprime to W // gcd(w, W), which
    # is small for most terms, unlike w.
    cofactors = [W // gcd(w, W) for w in weights]
    parts = coprime_parts(W, cofactors)
    owners = [[q for q in parts if gcd(q, c) > 1] for c in cofactors]
    lonely = [q for q in parts if [q] not in owners]
    parts = [q for q in parts if q not in lonely]
    if not parts:
        return single
    if lonely:
        parts[-1] *= prod(lonely)
        owners = [[q for q in parts if gcd(q, c) > 1] for c in cofactors]
    shared = [i for i in terms if len(owners[i]) > 1]
    private = [[i for i in terms if owners[i] == [q]] for q in parts]
    private[-1] = [i for i in terms if owners[i] in ([], [parts[-1]])]
    walks = sum(prod(bounds[i] + 1 for i in ts) // (max(bounds[i] for i in ts) + 1) for ts in private)
    return (parts, shared, private) if prod(bounds[i] + 1 for i in shared) * walks < rest else single


def _scan(d: Decomposition, cap: int, visit) -> tuple[int, int]:
    """Walk every in-ideal lattice point of a non-empty decomposition.

    Calls visit(vec, num) once per point, whose value is num / L with
    L = lcm(b_i).  vec is one list the walk rewrites in place, so a visitor
    that keeps it must copy it.  Returns (combos_examined, L).  Under each
    assignment of the shared terms every part but the last lists its
    solutions; each row of the last part's walk is then multiplied out with
    those lists and visited.
    """
    n = d.target.denominator
    bounds = [t.num for t in d.terms]
    dens = [t.den for t in d.terms]
    L = lcm(*dens)
    W = L // gcd(L, n)
    # A point's value is sum(x_i * shares[i]) / L, exact in integers.
    shares = [L // b for b in dens]
    weights = [s % W for s in shares]
    parts, shared, private = _plan(W, weights, bounds)
    # Part q walks its terms but the widest, k, from the residue s (mod q)
    # the shared terms leave, and solves w_k * x_k == -r (mod q) for each
    # residue r the walk reaches: solvable when r == 0 (mod g), g =
    # gcd(w_k, q), by every x_k == -(r / g) * inv (mod step) in [0, a_k].
    # A walk past the cap is refused before anything is enumerated.
    solvers = []
    for q, ts in zip(parts, private):
        k = max(ts, key=bounds.__getitem__)  # ts ascends: ties go to the lowest index
        rest = [i for i in ts if i != k]
        rest_bounds = [bounds[i] for i in rest]
        walk = prod(a + 1 for a in rest_bounds)
        if walk > cap:
            raise CapExceeded(f"walk of {walk} points exceeds cap {cap}")
        g = gcd(weights[k], q)
        step = q // g
        inv = pow(weights[k] // g, -1, step) if step > 1 else 0  # coprime to step
        rest_weights = [weights[i] % q for i in rest]
        rest_shares = [shares[i] for i in rest]
        # slot lists the part's coefficients in the order its solutions do.
        slot = rest + [k]
        solvers.append((q, slot, rest_bounds, rest_weights, rest_shares, g, step, inv, bounds[k] + 1, shares[k]))
    *others, (q, slot, rest_bounds, rest_weights, rest_shares, g, step, inv, top, s_k) = solvers
    *rest, k = slot
    slots = [slot_j for _, slot_j, *_ in others]
    over = f"combination evaluations exceeded cap {cap}"
    vec = [0] * len(bounds)
    shared_shares = [shares[i] for i in shared]
    combos = 0
    # A single part (W whole) is one walk: no shared assignment to count.
    for digits, s in _iter_assignments([bounds[i] for i in shared], [weights[i] for i in shared], W):
        spent = 1 if others else 0
        for i, x in zip(shared, digits):
            vec[i] = x
        # Each other part's solutions as (coefficients, numerator over L).
        sols = []
        for q_j, _, bounds_j, weights_j, shares_j, g_j, step_j, inv_j, top_j, s_j in others:
            found = []
            walked = 0
            for xs, r in _iter_assignments(bounds_j, weights_j, q_j, s % q_j):
                walked += 1
                if not r % g_j:
                    num = sum(map(mul, xs, shares_j))
                    cands = range(-(r // g_j) * inv_j % step_j, top_j, step_j)
                    found += [((*xs, x), num + x * s_j) for x in cands]
                    walked += len(cands)
                if walked > cap:
                    raise CapExceeded(over)
            spent += walked
            if not found:
                break
            sols.append(found)
        else:
            rows = prod(map(len, sols))
            base = sum(map(mul, digits, shared_shares))
            walked = 0
            for xs, r in _iter_assignments(rest_bounds, rest_weights, q, s % q):
                walked += 1
                cands = range(0) if r % g else range(-(r // g) * inv % step, top, step)
                if cands:
                    points = len(cands) * rows
                    if points > cap:
                        raise CapExceeded(over)
                    walked += points
                    for i, x in zip(rest, xs):
                        vec[i] = x
                    b_rest = base + sum(map(mul, xs, rest_shares))
                    for combo in iproduct(*sols):
                        b = b_rest
                        for slot_j, (ys, num_j) in zip(slots, combo):
                            for i, y in zip(slot_j, ys):
                                vec[i] = y
                            b += num_j
                        for x in cands:
                            num = b + x * s_k
                            if num * n % L:
                                raise RuntimeError("congruence produced a value outside (1/n)Z")
                            vec[k] = x
                            visit(vec, num)
                if walked > cap:
                    raise CapExceeded(over)
            spent += walked
        combos += spent
        if combos > cap:
            raise CapExceeded(over)
    return combos, L


def verify(d: Decomposition, cap: int = DEFAULT_CAP) -> FaithfulnessReport:
    """Same verdict and violation as verify_naive, from the factored walk,
    which visits only in-ideal points.  Raises CapExceeded at once when a
    part's walk has more points than cap, and during the walk when the
    combinations it examines pass cap."""
    _checked(d)
    if not d.terms:
        return FaithfulnessReport(True, None, 0, "congruence")
    m, n = d.target.numerator, d.target.denominator
    mL = m * lcm(*d.denominators)
    best_key: list[int] = []
    best_num = 0

    def keep_colex_min(vec: list[int], num: int) -> None:
        # verify_naive varies the first coefficient fastest, so the violation
        # it stops at is the colex-minimal one: compare reversed vectors.
        nonlocal best_key, best_num
        if not num or num * n == mL:
            return
        key = vec[::-1]
        if not best_key or key < best_key:
            best_key, best_num = key, num

    combos, L = _scan(d, cap, keep_colex_min)
    if not best_key:
        return FaithfulnessReport(True, None, combos, "congruence")
    violation = Violation(tuple(reversed(best_key)), Fraction(best_num, L))
    return FaithfulnessReport(False, violation, combos, "congruence")


def partial_sums_in_ideal(d: Decomposition, cap: int = DEFAULT_CAP) -> frozenset[Fraction]:
    """Every lattice value sum x_i/b_i that lies in (1/n)Z, 0 and m/n included.

    Uses the same walk as verify, which visits only the in-ideal points.
    """
    _checked(d)
    if not d.terms:
        return frozenset({Fraction(0)})
    nums: set[int] = set()
    _, L = _scan(d, cap, lambda _vec, num: nums.add(num))
    return frozenset(Fraction(num, L) for num in nums)
