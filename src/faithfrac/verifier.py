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
its widest coefficient x_k by congruence and enumerates the rest.  The
input picks how: the rest is walked jointly when its lattice fits the cap;
past the cap it is split in two halves matched through a residue table
bucketed mod g = gcd(w_k, q) (bucket elimination; with one part, a single
elimination over W); when g == 1 that table has one bucket and would cost
more than the walk, so CapExceeded is raised before anything is
enumerated.  The walk hands every in-ideal point and its exact value to a
visitor: verify keeps the colex-minimal point whose value is neither 0 nor
m/n, partial_sums_in_ideal the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, isqrt, lcm, prod
from typing import Callable, Iterator

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


def _walk(vec, cap, rest, rest_bounds, rest_weights, cands_of, q, start, row) -> int:
    """Enumerate the coefficients of rest from residue start (mod q); fill
    vec and add row(cands, s) wherever cands_of(s) is non-empty."""
    spent = 0
    for digits, s in _iter_assignments(rest_bounds, rest_weights, q, start):
        spent += 1
        cands = cands_of(s)
        if cands:
            for i, x in zip(rest, digits):
                vec[i] = x
            spent += row(cands, s)
        if spent > cap:
            raise CapExceeded(f"combination evaluations exceeded cap {cap}")
    return spent


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


def _scan(d: Decomposition, cap: int, visit: Callable[[list[int], Fraction], None]) -> tuple[int, str]:
    """Walk every in-ideal lattice point of a non-empty decomposition.

    Calls visit(vec, value) once per point.  vec is one list the walk
    rewrites in place, so a visitor that keeps it must copy it.  Returns
    (combos_examined, method).  Under each assignment of the shared terms
    every part but the last lists its solutions; each row of the last
    part's walk is then multiplied out with those lists and visited.
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
    vec = [0] * len(bounds)
    combos = 0
    mitm = False

    def prepare(q: int, ts: list[int]):
        """Part q's widest term k and solve(start, row), which walks its other
        terms from residue start and calls row(cands, s) with every x_k in
        [0, a_k] solving w_k * x_k == -s (mod q).  Solvable residues need
        s == 0 (mod g), g = gcd(w_k, q).  The other terms are walked when
        their lattice fits the cap.  Past it, they are split in half and
        matched through a residue table whose stored, smaller half is
        bucketed mod g; with g == 1 there is one bucket, every pair is
        tried, and the split would cost more than the walk, so the cap is
        reported at once."""
        nonlocal combos, mitm
        k = max(ts, key=bounds.__getitem__)  # ts ascends: ties go to the lowest index
        rest = [i for i in ts if i != k]
        rest_bounds = [bounds[i] for i in rest]
        rest_weights = [weights[i] % q for i in rest]
        g = gcd(weights[k], q)
        step = q // g
        inv = pow(weights[k] // g, -1, step) if step > 1 else 0  # coprime to step

        def candidates(s: int) -> range:
            return range(0) if s % g else range(-(s // g) * inv % step, bounds[k] + 1, step)

        sizes = [a + 1 for a in rest_bounds]
        walk = prod(sizes)
        if walk <= cap:
            return k, rest, lambda start, row: _walk(
                vec, cap, rest, rest_bounds, rest_weights, candidates, q, start, row
            )
        if g == 1:
            raise CapExceeded(f"walk of {walk} points exceeds cap {cap}, and a split table would cost more")
        mitm = True
        # Balance by product so each half stays near sqrt(walk).
        half, acc, cut = isqrt(walk), 1, 0
        while cut < len(rest) - 1 and acc < half:
            acc *= sizes[cut]
            cut += 1
        scan = rest[:cut], rest_bounds[:cut], rest_weights[:cut]
        stored = rest[cut:], rest_bounds[cut:], rest_weights[cut:]
        scan_size, stored_size = prod(sizes[:cut]), prod(sizes[cut:])
        if scan_size < stored_size:
            scan, stored, scan_size, stored_size = stored, scan, stored_size, scan_size
        if scan_size + stored_size > cap:
            raise CapExceeded(
                f"meet-in-the-middle halves {scan_size} + {stored_size} exceed cap {cap}"
            )
        combos += stored_size
        table: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for digits, s in _iter_assignments(stored[1], stored[2], q):
            table.setdefault(s % g, []).append((s, tuple(digits)))

        def solve(start: int, row) -> int:
            def match(bucket, s1: int) -> int:
                spent = 0
                for s2, digits in bucket:
                    spent += 1
                    cands = candidates(s1 + s2)
                    if cands:
                        for i, x in zip(stored[0], digits):
                            vec[i] = x
                        spent += row(cands, s1 + s2)
                return spent

            return _walk(vec, cap, *scan, lambda s1: table.get(-s1 % g), q, start, match)

        return k, rest, solve

    solvers = [prepare(q, ts) for q, ts in zip(parts, private)]
    k, rest, solve = solvers[-1]
    walked = shared + rest
    # The other parts' solutions under the current shared assignment, each as
    # (coefficients of its slots, their numerator over L).
    sols: list[list] = []
    slots: list[list[int]] = []

    def emit(cands: range, _s: int) -> int:
        """A row of the last part: vec holds the walked coefficients, and
        each candidate for k completes an in-ideal point under each
        combination of the other parts' solutions."""
        points, others = len(cands), [()]
        if sols:
            points *= prod(map(len, sols))
            if points > cap:
                raise CapExceeded(f"combination evaluations exceeded cap {cap}")
            others = iproduct(*sols)
        base = sum(vec[i] * shares[i] for i in walked)
        for combo in others:
            b = base
            for slot, (xs, num) in zip(slots, combo):
                for i, x in zip(slot, xs):
                    vec[i] = x
                b += num
            for x_k in cands:
                v = Fraction(b + x_k * shares[k], L)
                if n % v.denominator != 0:
                    raise RuntimeError("congruence produced a value outside (1/n)Z")
                vec[k] = x_k
                visit(vec, v)
        return points

    if len(parts) == 1:  # no shared term: one walk
        combos += solve(0, emit)
    else:
        sols = [[] for _ in solvers[:-1]]
        slots = [rest_j + [k_j] for k_j, rest_j, _ in solvers[:-1]]

        def collect(k_j: int, rest_j: list[int], found: list, cands: range, _s: int) -> int:
            """A row of another part: list its solutions in found."""
            xs = [vec[i] for i in rest_j]
            num = sum(x * shares[i] for x, i in zip(xs, rest_j))
            found.extend(((*xs, x), num + x * shares[k_j]) for x in cands)
            return len(cands)

        def solve_parts(_always, s: int) -> int:
            """List the other parts' solutions for the residue s that the
            shared terms leave, then walk the last part."""
            spent = 0
            for q, (k_j, rest_j, solve_j), found in zip(parts, solvers, sols):
                found.clear()
                spent += solve_j(s % q, partial(collect, k_j, rest_j, found))
                if not found:
                    return spent
            return spent + solve(s % parts[-1], emit)

        combos += _walk(
            vec, cap, shared, [bounds[i] for i in shared], [weights[i] for i in shared],
            lambda _s: True, W, 0, solve_parts,
        )
    if combos > cap:
        raise CapExceeded(f"combination evaluations exceeded cap {cap}")
    return combos, "meet_in_middle" if mitm else "congruence"


def verify(d: Decomposition, cap: int = DEFAULT_CAP) -> FaithfulnessReport:
    """Same verdict and violation as verify_naive, from the factored walk,
    which visits only in-ideal points.  A part's enumerated terms are walked
    when their lattice fits the cap, go through a split residue table when
    it does not and the eliminated term's weight shares a factor with the
    part's modulus, and raise CapExceeded at once otherwise."""
    _checked(d)
    if not d.terms:
        return FaithfulnessReport(True, None, 0, "congruence")
    u_num, u_den = d.target.numerator, d.target.denominator
    best: Violation | None = None
    best_key: list[int] = []

    def keep_colex_min(vec: list[int], v: Fraction) -> None:
        # verify_naive varies the first coefficient fastest, so the violation
        # it stops at is the colex-minimal one: compare reversed vectors.
        nonlocal best, best_key
        if not v.numerator or (v.numerator == u_num and v.denominator == u_den):
            return
        key = vec[::-1]
        if best is None or key < best_key:
            best, best_key = Violation(tuple(vec), v), key

    combos, method = _scan(d, cap, keep_colex_min)
    return FaithfulnessReport(best is None, best, combos, method)


def partial_sums_in_ideal(d: Decomposition, cap: int = DEFAULT_CAP) -> frozenset[Fraction]:
    """Every lattice value sum x_i/b_i that lies in (1/n)Z, 0 and m/n included.

    Uses the same walk as verify, which visits only the in-ideal points.
    """
    _checked(d)
    if not d.terms:
        return frozenset({Fraction(0)})
    values: set[Fraction] = set()
    _scan(d, cap, lambda _vec, v: values.add(v))
    return frozenset(values)
