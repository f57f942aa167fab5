"""Faithfulness checking: a brute-force oracle and one factored lattice walk.

A decomposition m/n = sum a_i/b_i is faithful when no coefficient vector
0 <= x_i <= a_i makes sum x_i/b_i land in (1/n)Z except the all-zero vector
(value 0) and any vector whose value equals m/n itself.

verify_naive is the reference: it reports the first violation in colex
order (first coefficient fastest), enumerating the lattice in rows along
its longest coefficient and testing each point as p % L == 0, with p = n
times its numerator over L = lcm(b_i).  The fast path reduces membership
to integer arithmetic: with W = L / gcd(L, n), a lattice sum lies in
(1/n)Z exactly when sum x_i * (L / b_i) == 0 (mod W).  W is split, by gcds
alone, into pairwise coprime parts, each involving only the terms whose
share L / b_i it does not divide.  Terms of several parts are enumerated;
each part then solves its widest coefficient x_k by congruence and walks
the rest jointly.  Every walk iterates with itertools.product and keeps one
number per point, its numerator b over L, from which each part q reads its
residue.  With g = gcd(L / b_k, q) a row is solvable when g | b, and since
g | q, b // g and (b % q) // g differ by a multiple of q // g, the modulus
of x_k: b itself gives the row's x_k.  A part whose walk has more points
than the cap raises CapExceeded before anything is enumerated.  The walk
hands a visitor one row at a time: a setting of every coefficient but
x_k, with the range of x_k in the ideal.  One row loop (_rows) walks the
last part; when W stays whole, the usual case for small decompositions,
_scan sets up that one part and calls it directly, and only a split W
builds the other parts' solution lists and the loop over shared
assignments.  verify keeps the colex-minimal point that is neither 0 nor
m/n (a row's first or second), so each row of the last part comes once
per combination of the other parts' solutions.  _ideal_nums keeps only
the distinct numerators over L, so it folds the other parts' numerators
into one sumset, a set of distinct offsets, and each row comes once per
offset; the row still counts once per combination, so both refuse the
same inputs at the same cap.  partial_sums_in_ideal builds a Fraction per
distinct value, verify one for its violation, and the partition check
(partition.py) compares the numerators themselves.  Every check reads the
decomposition's structural audit, which is worked out once per instance
(model.Decomposition), and refuses a cap that is not an int.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import gcd, prod
from operator import mul

from .model import Decomposition, _Record

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
_OVER = "combination evaluations exceeded cap {}"
_OUTSIDE = "congruence produced a value outside (1/n)Z"


class CapExceeded(RuntimeError):
    """Raised when a check would need more combination evaluations than allowed."""


class Violation(_Record):
    """A coefficient vector whose value falsifies faithfulness."""

    coefficients: tuple[int, ...]
    value: Fraction


class FaithfulnessReport(_Record):
    """A verdict, its colex-minimal violation, and what it cost.

    method is "congruence" from verify and "naive" from verify_naive.
    combos_examined has one unit on both: enumerated assignments plus the
    values produced for eliminated coefficients (verify_naive eliminates
    none, so it is the hit's colex position, or the lattice size).
    """

    faithful: bool
    violation: Violation | None
    combos_examined: int
    method: str


def _checked(d: Decomposition, cap: int) -> int:
    """L = lcm(b_i) of a well-formed d (1 for no terms) checked under an
    int cap; ValueError otherwise."""
    # bool is an int subclass, as for a term's parts; every int, even one
    # below 1, is a cap.
    if type(cap) is bool or not isinstance(cap, int):
        raise ValueError("cap must be an integer")
    problems, L = d._audit
    if problems:
        raise ValueError(f"invalid decomposition: {', '.join(problems)}")
    return L


def verify_naive(d: Decomposition, cap: int = DEFAULT_CAP) -> FaithfulnessReport:
    """Oracle check: enumerate the coefficient lattice and test membership.

    Reports the first violating vector in colex order (first coefficient
    fastest).  Refuses instances whose full lattice exceeds cap.  Membership
    is tested in its own integer arithmetic, apart from the fast path's:
    over L = lcm(b_i) a vector's value is num / L, and it lies in (1/n)Z
    exactly when p = num * n has p % L == 0.  The vectors come in rows along
    the longest coefficient x_j (the lowest index among ties), one per
    setting of the others, taken in colex order; along a row p steps by
    n * (L / b_j).  Colex order ranks x_j above x_1..x_{j-1}, so the rows
    that share x_{j+1..k} form a group, and the group's hit with the
    smallest x_j (the earliest row among ties) is the colex-minimal one: once
    a row hits at x, the group's later rows scan only x_j < x.
    """
    L = _checked(d, cap)
    m, n = d.target.numerator, d.target.denominator
    bounds = [t.num for t in d.terms]
    total = prod(a + 1 for a in bounds)
    if total > cap:
        raise CapExceeded(f"naive lattice has {total} points, cap is {cap}; use verify")
    if not bounds:
        return FaithfulnessReport(True, None, 1, "naive")  # the one, empty, vector
    j = bounds.index(max(bounds))
    group = prod(a + 1 for a in bounds[:j])
    width = bounds[j] + 1
    # Coefficient x_i contributes x_i copies of 1/b_i, not multiples of a_i/b_i:
    # x_i * (L // b_i) to the numerator over L, and n times that to p.
    others = d.terms[:j] + d.terms[j + 1:]
    step = n * (L // d.terms[j].den)
    span = width * step
    nL, mL = n * L, m * L
    # itertools.product varies its last factor fastest; feeding it the other
    # coefficients' bounds reversed makes the first of them the fastest from
    # row to row, so each row's setting arrives reversed and is paired with
    # the shares in reverse.
    rshares = [nL // t.den for t in reversed(others)]
    hit = None
    for row, rev in enumerate(iproduct(*[range(t.num + 1) for t in reversed(others)])):
        base = sum(map(mul, rev, rshares))
        for p in range(base, base + span, step):
            if not p % L and p and p != mL:
                hit = row, rev, p, (p - base) // step
                span = p - base  # the group's later rows scan only x_j < x
                break
        if hit and (not span or row % group == group - 1):
            break
    else:
        return FaithfulnessReport(True, None, total, "naive")
    row, rev, p, x = hit
    fwd = rev[::-1]
    violation = Violation((*fwd[:j], x, *fwd[j:]), Fraction(p // n, L))
    # The hit's colex position: row % group vectors for x_1..x_{j-1}, group
    # per unit of x_j, and group * width per earlier group.
    position = row % group + group * (x + row // group * width) + 1
    return FaithfulnessReport(False, violation, position, "naive")


def _coprime_split(n: int, values: list[int]) -> list[tuple[int, int]]:
    """Split n >= 1 into pairwise coprime factors above 1, in increasing
    order, each paired with a mask of the values it shares primes with: bit i
    is set exactly when gcd(f, values[i]) > 1, and then every prime of f
    divides values[i].

    Found with gcds alone, no factoring: each value splits every factor into
    the part made of primes it shares with the value and the coprime rest,
    about k**2 gcds for k values.  Both halves inherit the factor's mask and
    only the shared half gains the value's bit.  The first gcd decides the
    common pairs: a factor coprime to the value is kept as it is, and one that
    divides the value is shared whole; only a factor the value really splits
    runs the loop of further gcds.  This is a gcd-free basis of
    n refined by the values (Bernstein, "Factoring into coprimes in
    essentially linear time", J. Algorithms 2005, gives a faster method for
    large k).
    """
    parts = [(n, 0)] if n > 1 else []
    for i, v in enumerate(values):
        split = []
        for rest, mask in parts:
            g = gcd(rest, v)
            if g == 1:
                split.append((rest, mask))
            elif g == rest:  # the part divides v
                split.append((rest, mask | 1 << i))
            else:
                shared, rest = g, rest // g
                while (g := gcd(rest, g)) > 1:
                    shared, rest = shared * g, rest // g
                split.append((shared, mask | 1 << i))
                if rest > 1:
                    split.append((rest, mask))  # the coprime rest
        parts = split
    return sorted(parts)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, in ascending order."""
    if mask & mask - 1:
        return [i for i in range(mask.bit_length()) if mask >> i & 1]
    return [mask.bit_length() - 1] if mask else []  # at most one bit


def _sized(q: int, ts: list[int], sizes: list[int]) -> tuple[int, list[int], int]:
    """(q, ts, walk) for a part q whose terms ts are listed in ascending
    order: ts is reordered to end with its widest term, k (the lowest index
    among ties), and the walk is the product of the other terms' sizes."""
    if len(ts) == 1:
        return q, ts, 1
    k, walk = ts[0], 1
    for i in ts:
        walk *= sizes[i]
        if sizes[i] > sizes[k]:
            k = i
    ts.remove(k)
    ts.append(k)
    return q, ts, walk // sizes[k]


def _plan(W: int, shares: list[int], sizes: list[int]):
    """Split W into coprime parts: (shared terms, [(part, its terms, its walk)]).

    A term belongs to each part that does not divide its share L / b_i, so
    the set bits of a part's mask list its terms.  Reading the masks in
    turn, `once` collects the terms of some part and `twice` those of two
    or more.  A part with a term of its own (mask & ~twice) is kept; every
    kept part but the last, the parts ahead, walks its own terms.  The last
    part, W // `ahead` where `ahead` is the product of the parts ahead, is
    the product of every part not ahead, and takes every term outside
    `lead`, the union of the masks ahead (the terms of no part among them).
    The terms of `lead` in `twice` are shared: they are enumerated, and
    every part is walked under each of their assignments.  Every part, and
    W kept whole, is sized by _sized, with sizes a_i + 1.  W stays whole
    when its basis (about k**2 gcds for k terms) costs more than the rest
    lattice it could shrink, when no part has a term of its own, or when
    the split is no cheaper.
    """
    whole = _sized(W, [*range(len(sizes))], sizes)
    rest, single = whole[2], ([], [whole])
    if W == 1 or rest <= len(sizes) ** 2:
        return single
    # q divides share s exactly when q is coprime to W // gcd(s, W), which
    # is small for most terms, unlike s.
    split = _coprime_split(W, [W // gcd(s, W) for s in shares])
    once = twice = 0
    for _, mask in split:
        twice |= once & mask
        once |= mask
    kept = [p for p in split if p[1] & ~twice]
    if not kept:
        return single
    plan, ahead, lead, walks = [], 1, 0, 0
    for q, mask in kept[:-1]:
        plan.append(part := _sized(q, _bits(mask & ~twice), sizes))
        ahead, lead, walks = ahead * q, lead | mask, walks + part[2]
    plan.append(part := _sized(W // ahead, _bits((1 << len(sizes)) - 1 & ~lead), sizes))
    shared = _bits(lead & twice)
    # Every shared assignment walks every part again.
    walks = (walks + part[2]) * prod([sizes[i] for i in shared])
    return (shared, plan) if walks < rest else single


def _rows(visit, vec, part, W, cap, base=0, sols=(), others=(), offsets=None) -> int:
    """The rows of a part set up by _scan, with numerators offset by base;
    returns the part's walk (as _plan sized it) plus the combinations
    examined.  The part walks its terms but the widest, k, over their ranges
    and shares.  A row whose numerator is b needs s_k * x_k == -b (mod q)
    for the part q: solvable when g | b, g = gcd(s_k, q), by every
    x_k == -(b / g) * inv (mod step) below top.  Each row counts once per
    combination of the solutions sols of the other parts, and is visited
    once per combination, written into vec at the terms of their set-ups
    others, or, given offsets, once per offset, the other parts' numerators
    folded into one set (vec then holds only this part's coefficients).  A
    part of its own (no sols) visits each row once."""
    (*rest, k), ranges, shares, g, step, inv, top, s_k, walked = part
    # Along a row the numerator steps by step * s_k, which must keep it in (1/n)Z.
    if step * s_k % W:
        raise RuntimeError(_OUTSIDE)
    copies = prod(map(len, sols)) if sols else 1
    for xs in iproduct(*ranges):
        b = base + sum(map(mul, xs, shares))
        if b % g or not (cands := range(-(b // g) * inv % step, top, step)):
            continue
        walked += len(cands) * copies
        if walked > cap:
            raise CapExceeded(_OVER.format(cap))
        for i, x in zip(rest, xs):
            vec[i] = x
        # Every visited point is in (1/n)Z: each row's first point is checked.
        if not sols:
            if (b + cands[0] * s_k) % W:
                raise RuntimeError(_OUTSIDE)
            visit(vec, k, cands, b, s_k)
            continue
        if offsets is not None:
            for c in offsets:
                c += b
                if (c + cands[0] * s_k) % W:
                    raise RuntimeError(_OUTSIDE)
                visit(vec, k, cands, c, s_k)
            continue
        for combo in iproduct(*sols):
            c = b
            for other, (ys, num) in zip(others, combo):
                for i, y in zip(other[0], ys):
                    vec[i] = y
                c += num
            if (c + cands[0] * s_k) % W:
                raise RuntimeError(_OUTSIDE)
            visit(vec, k, cands, c, s_k)
    return walked  # within cap: the walk was checked up front, and each row as it was added


def _scan(d: Decomposition, L: int, cap: int, visit, *, values_only: bool = False) -> int:
    """Walk the in-ideal points of a non-empty decomposition by rows, with
    L = lcm(b_i); returns combos_examined.  Calls visit(vec, k, cands, b, s_k)
    per row: vec holds every coefficient but x_k (one list rewritten in place;
    vec[k] is the visitor's), cands is the range of x_k in the ideal, and
    b + x_k * s_k the numerators over L.  _plan gives each part's terms, the
    widest, k, last, and its walk; a walk past the cap is refused before
    anything is enumerated.  A single part (W kept whole) goes straight to its
    rows.  Otherwise, under each shared assignment, every part but the last
    lists its solutions (one range for a part of one term), and each row of
    the last part comes once per combination, or, values_only, once per
    distinct sum of one solution from each listing.  Every walk sums the
    same numerators over L and reads a part's residues from them."""
    sizes = [t.num + 1 for t in d.terms]
    W = L // gcd(L, d.target.denominator)
    # A point's value is sum(x_i * shares[i]) / L, exact in integers; it is
    # in (1/n)Z exactly when that sum is 0 (mod W).
    shares = [L // t.den for t in d.terms]
    shared, plan = _plan(W, shares, sizes)
    # One set-up per part: (its terms with the widest, k, last; the ranges and
    # shares of the rest; g, step, inv, top, s_k; the walk's size).
    setups = []
    for q, ts, walk in plan:
        if walk > cap:
            raise CapExceeded(f"walk of {walk} points exceeds cap {cap}")
        *rest, k = ts
        # g divides q, so a numerator b and its residue b % q give the same
        # b // g modulo step = q // g: rows are solved from b itself.
        step = q // (g := gcd(shares[k], q))
        inv = pow(shares[k] // g, -1, step) if step > 1 else 0  # coprime to step
        # A one-term part's empty rest stands for its ranges and shares.
        setups.append((ts, rest and [range(sizes[i]) for i in rest], rest and [shares[i] for i in rest],
                       g, step, inv, sizes[k], shares[k], walk))
    # The loop ends on the last part, whose rows are walked; the others are kept
    # as their solutions list them.
    *others, last = setups
    vec = [0] * len(sizes)
    if not others:
        return _rows(visit, vec, last, W, cap)
    shared_shares = [shares[i] for i in shared]
    combos = 0
    for digits in iproduct(*[range(sizes[i]) for i in shared]):
        combos += 1
        for i, x in zip(shared, digits):
            vec[i] = x
        base = sum(map(mul, digits, shared_shares))
        # Each other part's solutions as (coefficients, numerator over L), or,
        # values_only, as bare numerators.
        sols = []
        for _, ranges_j, shares_j, g_j, step_j, inv_j, top_j, s_j, walk_j in others:
            # Each range of x_k is checked against the cap before the list grows.
            if not ranges_j:  # one row, numerator base: one range of x_k, or none
                xks = () if base % g_j else range(-(base // g_j) * inv_j % step_j, top_j, step_j)
                if walk_j + len(xks) > cap:
                    raise CapExceeded(_OVER.format(cap))
                found = [x * s_j for x in xks] if values_only else [((x,), x * s_j) for x in xks]
            else:
                found = []
                for xs in iproduct(*ranges_j):
                    num = sum(map(mul, xs, shares_j))
                    if not (r := base + num) % g_j:
                        xks = range(-(r // g_j) * inv_j % step_j, top_j, step_j)
                        if walk_j + len(found) + len(xks) > cap:
                            raise CapExceeded(_OVER.format(cap))
                        found += ([num + x * s_j for x in xks] if values_only else
                                  [((*xs, x), num + x * s_j) for x in xks])
            combos += walk_j + len(found)
            if not found:
                break
            sols.append(found)
        else:
            if values_only:
                # The other parts' numerators as one set of distinct offsets, built
                # only while their combinations, which each row still counts, are
                # within the cap: past it the first row with candidates raises.
                offsets = set()
                if prod(map(len, sols)) <= cap:
                    offsets = {0}
                    for found in sols:
                        offsets = {o + num for o in offsets for num in found}
                combos += _rows(visit, vec, last, W, cap, base, sols, offsets=offsets)
            else:
                combos += _rows(visit, vec, last, W, cap, base, sols, others)
        if combos > cap:
            raise CapExceeded(_OVER.format(cap))
    return combos


def verify(d: Decomposition, cap: int = DEFAULT_CAP) -> FaithfulnessReport:
    """Same verdict and violation as verify_naive, from the factored walk,
    which visits only in-ideal points, a row at a time.  Raises CapExceeded
    at once when a part's walk has more points than cap, and during the walk
    when the combinations it examines pass cap."""
    L = _checked(d, cap)
    if not d.terms:
        return FaithfulnessReport(True, None, 0, "congruence")
    # m/n over L.  The full vector is the lattice's unique maximum, so m/n is
    # only ever the last point of the last row, as 0 is the first of the first.
    full = d.target.numerator * L // d.target.denominator
    best_key, best_num = [], 0

    def keep_colex_min(vec: list[int], k: int, cands: range, b: int, s_k: int) -> None:
        # verify_naive stops at the colex-minimal violation (reversed vectors
        # compared).  Along a row only x_k moves: a row's is its first point but 0.
        nonlocal best_key, best_num
        x = cands[0]
        if not (b or x) and len(cands) > 1:  # skip 0, the first row's first point
            x = cands[1]
        num = b + x * s_k
        if num and num != full:
            vec[k] = x
            key = vec[::-1]
            if not best_key or key < best_key:
                best_key, best_num = key, num

    combos = _scan(d, L, cap, keep_colex_min)
    if not best_key:
        return FaithfulnessReport(True, None, combos, "congruence")
    violation = Violation(tuple(reversed(best_key)), Fraction(best_num, L))
    return FaithfulnessReport(False, violation, combos, "congruence")


def _ideal_nums(d: Decomposition, L: int, cap: int) -> set[int]:
    """The distinct numerators over L = lcm(b_i) of the in-ideal lattice
    values of a d that _checked passed, 0 and m/n included.

    Uses the same walk as verify, which visits only the in-ideal points and
    hands them over a row at a time: a row's numerators over L are one range.
    Where W splits, the other parts' numerators are added as one sumset.
    """
    if not d.terms:
        return {0}
    nums: set[int] = set()
    # A one-point row, the common case, is cheaper to add than as a range.
    _scan(d, L, cap, lambda _v, _k, r, b, s: nums.add(b + r[0] * s) if len(r) == 1
          else nums.update(range(b + r.start * s, b + r.stop * s, r.step * s)), values_only=True)
    return nums


def partial_sums_in_ideal(d: Decomposition, cap: int = DEFAULT_CAP) -> frozenset[Fraction]:
    """Every lattice value sum x_i/b_i that lies in (1/n)Z, 0 and m/n included,
    one Fraction per distinct numerator from _ideal_nums."""
    L = _checked(d, cap)
    return frozenset(Fraction(num, L) for num in _ideal_nums(d, L, cap))
