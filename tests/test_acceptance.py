"""End-to-end acceptance sweep.

Each test covers one contract item, prints a single PASS/FAIL line with its
instance count and wall time, and enforces the stated time budget.  Run this
file directly for the plain summary, or through pytest as usual.
"""

import random
import time
from fractions import Fraction
from math import gcd

from faithfrac import (
    DEFAULT_CAP,
    PartitionSpec,
    SearchBudget,
    all_units_but_one,
    check_partition_theorem,
    coprime_shape,
    decomposition,
    from_perfect,
    max_numerator,
    min_length_search,
    prop7,
    scale,
    theorem1,
    theorem4,
    two_term,
    verify,
    verify_naive,
)
from pools import generated_pool

RESULTS = []


def report(ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {label}  ({detail})"
    print(line)
    RESULTS.append((ok, line))
    assert ok, line


def lattice_size(d):
    size = 1
    for t in d.terms:
        size *= t.num + 1
    return size


def test_worked_examples_naive_oracle():
    t0 = time.perf_counter()
    ok = True
    d = decomposition(Fraction(4, 9), [(1, 4), (1, 6), (1, 36)])
    ok &= verify_naive(d).faithful
    for p in (6, 28, 496):
        ok &= verify_naive(from_perfect(p).decomposition).faithful
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(ok, "worked examples via the brute-force oracle", f"4 checks, {elapsed:.2f}s")


def test_four_over_n_sweep():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for n in range(5, 1000, 2):
        built = theorem4(n)
        d = built.decomposition
        count += 1
        non_unit = [t.num for t in d.terms if t.num != 1]
        r = max(t.num for t in d.terms)
        ok &= len(d.terms) == 3
        ok &= len(non_unit) <= 1
        ok &= r in (1, 2)
        ok &= verify(d).faithful
    pairs9 = [(t.num, t.den) for t in theorem4(9).decomposition.terms]
    pairs15 = [(t.num, t.den) for t in theorem4(15).decomposition.terms]
    ok &= pairs9 == [(1, 4), (1, 6), (1, 36)]
    ok &= pairs15 == [(1, 6), (1, 18), (2, 45)]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(ok, "4/n three-term sweep over odd n in [5, 999]", f"{count} instances, {elapsed:.1f}s")


def test_fixed_length_law_and_bounded_search():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(730)
    cases = []
    while len(cases) < 50:
        n = rng.randint(1, 50)
        t = rng.randint(2, 4)
        m = rng.randint(t * n, (t + 1) * n - 1)
        if gcd(m, n) == 1:
            cases.append((m, n))
    for m, n in cases:
        built = theorem1(m, n)
        d = built.decomposition
        ok &= len(d.terms) == m // n + 2
        ok &= coprime_shape(d)
        ok &= verify(d).faithful
    result = min_length_search(7, 3, SearchBudget(3, 30))
    ok &= result.witness is None
    ok &= all(o.exhausted for o in result.outcomes)
    ok &= not result.cap_hit
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(ok, "floor(m/n)+2 length law plus exhausted short search", f"50 builds + search, {elapsed:.1f}s")


def test_single_nonunit_constructor_fast_path():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(40209)
    accepted = 0
    tried = 0
    while accepted < 30:
        tried += 1
        assert tried < 20000
        n = rng.randint(2, 100)
        m = rng.randint(1, 5 * n - 1)
        if gcd(m, n) != 1:
            continue
        omega = rng.sample(range(2, 13), rng.randint(0, 4))
        try:
            built = all_units_but_one(m, n, omega, max_terms=19)
        except ValueError:
            # unit-greedy heads blow up for ratios near 5; resample
            continue
        d = built.decomposition
        if lattice_size(d) <= DEFAULT_CAP:
            # keep only instances the brute-force oracle cannot touch
            continue
        accepted += 1
        non_unit = [t for t in d.terms if t.num != 1]
        ok &= len(non_unit) == 1
        ok &= coprime_shape(d)
        for b in d.denominators[:-1]:
            ok &= gcd(b, n) == 1
            ok &= all(gcd(b, w) == 1 for w in omega)
        rep = verify(d)
        ok &= rep.faithful
        ok &= rep.method == "congruence"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(ok, "single non-unit outputs certified beyond oracle reach", f"30 of {tried} sampled, {elapsed:.1f}s")


def all_partitions(m):
    def rec(rest, mx):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, mx), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    yield from rec(m, m)


def test_partition_subset_sum_identity():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for m in range(1, 7):
        for parts in all_partitions(m):
            for n in range(1, 21):
                if gcd(m, n) != 1:
                    continue
                chk = check_partition_theorem(PartitionSpec(m, parts), n)
                count += 1
                ok &= chk.s_covers_t
                ok &= chk.equal
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(ok, "block sums equal subset sums for all m <= 6, n <= 20", f"{count} instances, {elapsed:.1f}s")


def test_three_term_prediction_is_exact():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for m in (3, 4, 5):
        for n in range(m + 1, 2001):
            if gcd(m, n) != 1:
                continue
            built = prop7(m, n)
            count += 1
            ok &= verify(built.decomposition).faithful == built.trace.predicted_faithful
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(ok, "three-term faithfulness prediction matches enumeration", f"{count} instances, {elapsed:.1f}s")


def test_preservation_and_certificate_properties():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(1811)
    pool = generated_pool(rng, 500)
    checked_agreement = 0
    for d in pool:
        rep = verify(d)
        if lattice_size(d) <= 10**5:
            slow = verify_naive(d)
            checked_agreement += 1
            ok &= rep.faithful == slow.faithful
            if not rep.faithful:
                ok &= rep.violation.coefficients == slow.violation.coefficients
                ok &= rep.violation.value == slow.violation.value
        if rep.faithful:
            if len(d.terms) > 1:
                # the numerator bound assumes every term is strictly below
                # the target; a lone self-term is faithful but breaks it
                n = d.target.denominator
                ok &= all(t.num <= max_numerator(t.den, n) for t in d.terms)
            c = rng.randint(1, 10)
            ok &= verify(scale(d, c)).faithful
        if coprime_shape(d):
            ok &= rep.faithful
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(ok, "scaling, numerator bounds, certificate on 500 decompositions", f"{checked_agreement} oracle agreements, {elapsed:.1f}s")


def test_two_term_determinism():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(9154)
    count = 0
    while count < 1000:
        n = rng.randint(3, 10**6)
        m = rng.randint(2, n - 1)
        if gcd(m, n) != 1:
            continue
        count += 1
        built = two_term(m, n)
        x, y = built.trace.bezout
        ok &= y * m - x * n == 1
        ok &= 1 <= x < y
        ok &= verify(built.decomposition).faithful
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(ok, "two-term split determinism and faithfulness", f"{count} instances, {elapsed:.1f}s")


def test_seed_offsets_give_distinct_witnesses():
    t0 = time.perf_counter()
    a = all_units_but_one(9, 5, seed=0).decomposition
    b = all_units_but_one(9, 5, seed=1).decomposition
    ok = a != b and verify(a).faithful and verify(b).faithful
    elapsed = time.perf_counter() - t0
    report(ok, "distinct seeds produce distinct faithful decompositions", f"2 witnesses, {elapsed:.2f}s")


if __name__ == "__main__":
    for fn in (
        test_worked_examples_naive_oracle,
        test_four_over_n_sweep,
        test_fixed_length_law_and_bounded_search,
        test_single_nonunit_constructor_fast_path,
        test_partition_subset_sum_identity,
        test_three_term_prediction_is_exact,
        test_preservation_and_certificate_properties,
        test_two_term_determinism,
        test_seed_offsets_give_distinct_witnesses,
    ):
        try:
            fn()
        except AssertionError:
            pass
    raise SystemExit(0 if all(ok for ok, _ in RESULTS) else 1)
