"""Mutation check for the verdict path: every mutant must fail its tests.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only these

Each entry of MUTANTS is (name, file under src/faithfrac, old text, new
text, test selection).  For each, the script copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the old text there, which
must occur exactly once, by the new, and runs the selection in one
sequential pytest process.  A mutant whose selection still passes survived:
the tests no longer notice that change.  A selection that runs past
TIMEOUT_S is stopped and its mutant reported as a timeout, which counts as
not killed.  Each selection is first run on the unmutated copy, which must
pass in time.  The script exits 0 only when every mutant is killed.

Standard library only (pytest runs in the subprocess).  pytest does not
collect this file, and the tier-1 run leaves it out because of its run time.
A change that adds a fast path adds its mutants here.  A mutant that can
change no outcome does not belong here, since no test can kill it: one that
drops the walk's membership check, which correct code never trips, or one
that turns a cap check into >= where the count checked is always below the
final count (the other parts' listing, which the shared assignment and the
last part's walk always follow), or one that drops the oracle's early
answer on a hit at x_j = 0 or fixes its row coefficient at x_1, which change
how much of the lattice it reads but none of its reports, or one that
reduces a row's numerator b mod q (or W) before solving it, which g | q
makes give the same x_k.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every unmutated selection passes in under 15 s on 2 vCPUs; a mutant that
# makes a loop spin is stopped here and reported as a timeout.
TIMEOUT_S = 120
VERIFIER_TESTS = ("tests/test_verifier.py",)
SEARCH_TESTS = ("tests/test_search.py",)
# Without the cost of a refused set or the cap check before each set, a
# search whose sets are all refused is bounded by its pool alone, and the
# whole file then runs past TIMEOUT_S; these tests fail at once.
REFUSAL_TESTS = ("tests/test_search.py", "-k", "pinned or refused_sets")
MODEL_TESTS = ("tests/test_model.py",)
NUMERIC_TESTS = ("tests/test_numeric.py",)
PARTITION_TESTS = ("tests/test_partition.py",)
PROP6_TESTS = ("tests/test_construct.py", "-k", "prop6 or prop7")
CONSTRUCT_TESTS = ("tests/test_construct.py",)
CONSTRUCT_CHECKS = ("tests/test_construct.py", "-k", "input_checks")
CLI_TESTS = ("tests/test_cli.py",)
PACKAGE_TESTS = ("tests/test_package.py",)
IMPORT_GUARD = ("tests/test_cli.py::test_cold_verify_imports_only_the_cli_the_model_and_the_verifier",)
CLI_BUDGET_TEST = ("tests/test_cli.py::test_partition_max_head_past_budget_exits_three",)
# Only the test that fails at once: unbounded, the other budget tests run a
# head of about 10**6 primes.
BUDGET_TEST = ("tests/test_construct.py::test_largest_max_block_that_builds",)

MUTANTS = [
    # verifier._scan and its visitors: rows instead of points.
    ("colex visitor reads only a row's first candidate", "verifier.py",
     "            x = cands[1]\n", "            x = cands[0]\n", VERIFIER_TESTS),
    ("partial-sums range steps without * s_k", "verifier.py",
     "r.step * s)),", "r.step)),", VERIFIER_TESTS),
    ("row step off by one", "verifier.py",
     "step = q // (g := gcd(shares[k], q))", "step = q // (g := gcd(shares[k], q)) + 1", VERIFIER_TESTS),
    ("one-part entry starts from a nonzero numerator", "verifier.py",
     "cap, base=0, sols=()", "cap, base=1, sols=()", VERIFIER_TESTS),
    ("single part counted as one shared assignment", "verifier.py",
     "        return _rows(", "        return 1 + _rows(", VERIFIER_TESTS),
    ("one-part rows counted as no combinations", "verifier.py",
     "if sols else 1\n", "if sols else 0\n", VERIFIER_TESTS),
    ("'walk of' refusal dropped on the one-part path", "verifier.py",
     "        if walk > cap:\n", "        if walk > cap and len(plan) > 1:\n", VERIFIER_TESTS),
    ("'walk of' refusal made for the last part only", "verifier.py",
     "        if walk > cap:\n", "        if walk > cap and ts is plan[-1][1]:\n", VERIFIER_TESTS),
    ("colex comparison reversed", "verifier.py",
     "key < best_key", "key > best_key", VERIFIER_TESTS),
    ("outer check at cap + 1", "verifier.py",
     "        if combos > cap:\n", "        if combos > cap + 1:\n", VERIFIER_TESTS),
    ("row check at >= cap, one part or the last", "verifier.py",
     "if walked > cap:", "if walked >= cap:", VERIFIER_TESTS),
    ("up-front walk refusal dropped", "verifier.py",
     "        if walk > cap:\n", "        if False:\n", VERIFIER_TESTS),
    ("another part's numerator without the shared base", "verifier.py",
     "(r := base + num)", "(r := num)", VERIFIER_TESTS),
    ("the last part's rows with base 0", "verifier.py",
     "last, W, cap, base, sols, others)", "last, W, cap, 0, sols, others)", VERIFIER_TESTS),
    ("a later part's listing counted once per earlier solution", "verifier.py",
     "combos += walk_j + len(found)\n", "combos += walk_j + len(found) * prod(map(len, sols))\n",
     VERIFIER_TESTS),
    ("another part's listing counted without its walk", "verifier.py",
     "combos += walk_j + len(found)\n", "combos += len(found)\n", VERIFIER_TESTS),
    ("another part's numerator dropped", "verifier.py",
     "((*xs, x), num + x * s_j)", "((*xs, x), x * s_j)", VERIFIER_TESTS),
    ("another part's bare numerator dropped", "verifier.py",
     "[num + x * s_j for x in xks]", "[x * s_j for x in xks]", VERIFIER_TESTS),
    ("residue-0 shared assignments dropped", "verifier.py",
     "        base = sum(map(mul, digits, shared_shares))\n",
     "        base = sum(map(mul, digits, shared_shares))\n        if not base % W:\n            continue\n",
     VERIFIER_TESTS),
    # verifier._scan's values-only walk: the other parts' numerators folded
    # into one set of offsets, each row still counting every combination.
    ("offsets folded without the shared base", "verifier.py",
     "base, sols, offsets=offsets)", "0, sols, offsets=offsets)", VERIFIER_TESTS),
    ("copies taken as the number of distinct offsets", "verifier.py",
     "base, sols, offsets=offsets)", "base, [offsets], offsets=offsets)", VERIFIER_TESTS),
    ("offsets built past the cap", "verifier.py",
     "if prod(map(len, sols)) <= cap:", "if True:", VERIFIER_TESTS),
    ("cap of any type accepted", "verifier.py",
     'raise ValueError("cap must be an integer")', "pass", VERIFIER_TESTS),
    ("the plan's cofactors all W", "verifier.py",
     "[W // gcd(s, W) for s in shares]", "[W for s in shares]", VERIFIER_TESTS),
    # verifier._plan's term masks and _bits, which lists a mask's terms.
    ("terms of no part dropped", "verifier.py",
     "_bits((1 << len(sizes)) - 1 & ~lead)", "_bits(once & ~lead)", VERIFIER_TESTS),
    ("parts with no term of their own kept apart", "verifier.py",
     "_sized(W // ahead,", "_sized(kept[-1][0],", VERIFIER_TESTS),
    ("term owners read one bit off", "verifier.py",
     "[i for i in range(mask.bit_length())", "[i - 1 for i in range(mask.bit_length())", VERIFIER_TESTS),
    ("_bits's one-bit answer off by one", "verifier.py",
     "return [mask.bit_length() - 1] if mask", "return [mask.bit_length()] if mask", VERIFIER_TESTS),
    ("a one-term _sized walk of 0", "verifier.py",
     "        return q, ts, 1\n", "        return q, ts, 0\n", VERIFIER_TESTS),
    ("every term counted twice", "verifier.py",
     "twice |= once & mask", "twice |= mask", VERIFIER_TESTS),
    ("own terms read as the whole mask", "verifier.py",
     "_bits(mask & ~twice), sizes)", "_bits(mask), sizes)", VERIFIER_TESTS),
    ("shared terms read as lead", "verifier.py",
     "shared = _bits(lead & twice)", "shared = _bits(lead)", VERIFIER_TESTS),
    # verifier._scan's listing of the other parts, one range of x_k at a time.
    ("one-term listing without its solvability test", "verifier.py",
     "xks = () if base % g_j else range(", "xks = range(", VERIFIER_TESTS),
    ("listing checked against the cap without the range it adds", "verifier.py",
     "if walk_j + len(found) + len(xks) > cap:", "if walk_j + len(found) > cap:", VERIFIER_TESTS),
    ("one-term listing checked against the cap without its range", "verifier.py",
     "if walk_j + len(xks) > cap:", "if walk_j > cap:", VERIFIER_TESTS),
    # verifier._coprime_split's owner masks, which _plan reads.
    ("split's shared half without the value's bit", "verifier.py",
     "split.append((shared, mask | bit))", "split.append((shared, mask))", VERIFIER_TESTS),
    ("split's rest half with the value's bit", "verifier.py",
     "split.append((rest, mask))  # the coprime rest", "split.append((rest, mask | bit))", VERIFIER_TESTS),
    ("the coprime shortcut with the value's bit", "verifier.py",
     "split.append(part)", "split.append((rest, mask | bit))", VERIFIER_TESTS),
    ("the multiple-of-part shortcut without the value's bit", "verifier.py",
     "split.append((rest, mask | bit))", "split.append((rest, mask))", VERIFIER_TESTS),
    # partition.t_set, the subset sums S is compared against.
    ("subset sums of single parts only", "partition.py",
     "sums |= {s + p for s in sums}", "sums |= {p}", PARTITION_TESTS),
    # partition.PartitionCheck: S = T compared as numerators over L.
    ("T scaled by L instead of L // n", "partition.py",
     "_subset_sums(bd.parts, L // n)", "_subset_sums(bd.parts, L)", PARTITION_TESTS),
    ("equal compares s_nums with itself", "partition.py",
     "return self.s_nums == self.t_nums", "return self.s_nums == self.s_nums", PARTITION_TESTS),
    ("t_set takes parts of any kind", "partition.py",
     "    _check_parts(parts := tuple(parts))\n", "", PARTITION_TESTS),
    # construct._greedy_head and _progression_tail: the remainder z over den.
    ("head step without a * den", "construct.py",
     "z, den = z * p - a * den, den * p", "z, den = z * p - den, den * p", CONSTRUCT_TESTS),
    # Only the entry test can meet z == den (a target of exactly 1): after a
    # step the remainder keeps the primes taken in its reduced denominator,
    # so it is never 1.
    ("head entered only when z > den", "construct.py",
     "primes() if z >= den else ()", "primes() if z > den else ()", CONSTRUCT_TESTS),
    # construct._primes_avoiding, the one stream of admissible primes each
    # head reads.
    ("seed skip off by one", "construct.py",
     "seed, None)", "seed + 1, None)", CONSTRUCT_TESTS),
    ("stream ignores the forbidden values", "construct.py",
     "if is_prime(p) and avoid % p)", "if is_prime(p))", CONSTRUCT_TESTS),
    ("theorem1's stream starts one past its bound", "construct.py",
     "_primes_avoiding(start, n)", "_primes_avoiding(start + 1, n)", CONSTRUCT_TESTS),
    ("progression gcd against n alone, not the forbidden values", "construct.py",
     "_progression_tail(z, den, avoid,", "_progression_tail(z, den, n,", CONSTRUCT_TESTS),
    # The forbidden values each block or construction hands the core.
    ("general_coprime's avoid leaves out omega", "construct.py",
     "numerator_policy, n * prod(omega_set), seed", "numerator_policy, n, seed", CONSTRUCT_TESTS),
    ("running product leaves out the new block's denominators", "partition.py",
     "        avoid *= d.terms[-1].den\n", "", PARTITION_TESTS),
    # construct.general_coprime's head budget.
    ("max head left without a budget", "construct.py",
     "    if max_terms is None:\n", "    if max_terms is None and numerator_policy == \"unit\":\n",
     BUDGET_TEST),
    # verifier.verify_naive, the reference.
    ("oracle's colex position off by one", "verifier.py",
     "row // group * width) + 1\n", "row // group * width)\n", VERIFIER_TESTS),
    ("oracle's later rows keep ties with the hit", "verifier.py",
     "span = p - base  #", "span = p - base + step  #", VERIFIER_TESTS),
    ("oracle's value keeps the factor n", "verifier.py",
     "Fraction(p // n, L)", "Fraction(p, L)", VERIFIER_TESTS),
    ("oracle's group size from the coefficients above x_j", "verifier.py",
     "prod(a + 1 for a in bounds[:j])", "prod(a + 1 for a in bounds[j + 1:])", VERIFIER_TESTS),
    ("oracle target test dropped", "verifier.py",
     "if not p % L and p and p != mL:", "if not p % L and p:", VERIFIER_TESTS),
    ("oracle counts the empty decomposition 0", "verifier.py",
     'FaithfulnessReport(True, None, 1, "naive")', 'FaithfulnessReport(True, None, 0, "naive")', VERIFIER_TESTS),
    ("oracle rows cut by one vector", "verifier.py",
     "range(base, base + span, step)", "range(base, base + span - step, step)", VERIFIER_TESTS),
    # model: the audit kept per instance, coercion, term parts.
    ("the audit worked out again on every read", "model.py",
     "        _setfield(obj, self.name, value := self.func(obj))\n", "        value = self.func(obj)\n",
     MODEL_TESTS),
    ("validate hands out the kept problems themselves", "model.py",
     "return list(d._audit[0])", "return d._audit[0]", MODEL_TESTS),
    ("coercion skipped for an int target", "model.py",
     "            target = Fraction(target)\n", "", MODEL_TESTS),
    ("decomposition target check dropped", "model.py",
     "if type(target) is bool or not isinstance(target, (int, Fraction)):", "if False:", MODEL_TESTS),
    ("decomposition term check dropped", "model.py",
     "if not isinstance(t, Term):", "if False:", MODEL_TESTS),
    ("bool accepted as a term's numerator", "model.py",
     "if type(num) is bool or type(den) is bool or", "if type(den) is bool or", MODEL_TESTS),
    # model._Record, the one base of the value records, with the methods it
    # generates from their annotations, and the checks of the records that
    # take integers.
    ("record == without the same-class test", "model.py",
     "if other.__class__ is self.__class__:\\n", "if True:\\n", MODEL_TESTS),
    ("generated == drops the last field", "model.py",
     "f'self.{f} == other.{f}' for f in fields)", "f'self.{f} == other.{f}' for f in fields[:-1])",
     MODEL_TESTS),
    ("generated hash drops a field", "model.py",
     "f'self.{f}, ' for f in fields)", "f'self.{f}, ' for f in fields[1:])", MODEL_TESTS),
    ("generated __init__ skips the last field", "model.py",
     "{f!r}, {f})\\n\" for f in fields", "{f!r}, {f})\\n\" for f in fields[:-1]", MODEL_TESTS),
    ("generated defaults shift by one", "model.py",
     "for f in fields if f in vars(cls))", "for f in fields if f in vars(cls))[:-1]", MODEL_TESTS),
    ("generator overwrites a written __init__", "model.py",
     "if cls.__init__ is object.__init__:", "if True:", MODEL_TESTS),
    ("record write allowed", "model.py",
     '        raise AttributeError(f"cannot assign', '        return _setfield(self, name, value)\n        raise AttributeError(f"cannot assign', MODEL_TESTS),
    ("model imports dataclasses", "model.py",
     "import json\n", "import dataclasses\nimport json\n", IMPORT_GUARD),
    ("bool accepted as a partition part", "partition.py",
     "any(type(p) is bool or not", "any(not", PARTITION_TESTS),
    ("bool accepted as a search target", "search.py",
     "if type(m) is bool or type(n) is bool or not", "if not", SEARCH_TESTS),
    ("bool accepted as a constructor's target", "construct.py",
     "if type(m) is bool or type(n) is bool or not", "if not", CONSTRUCT_CHECKS),
    ("budget bounds of any type accepted", "search.py",
     'raise ValueError("budget bounds must be integers")', "pass", SEARCH_TESTS),
    ("bool accepted as a seed", "construct.py",
     "if type(seed) is bool or not", "if not", CONSTRUCT_CHECKS),
    ("bool accepted in omega", "construct.py",
     "any(type(w) is bool or not", "any(not", CONSTRUCT_CHECKS),
    ("omega hashed before its members are checked", "construct.py",
     "values = tuple(omega)", "values = frozenset(omega)", CONSTRUCT_CHECKS),
    ("head budget of any type accepted", "construct.py",
     'raise ValueError("max_terms must be a nonnegative integer")', "pass", CONSTRUCT_CHECKS),
    ("head budget of -1 accepted", "construct.py",
     "or max_terms < 0:", "or max_terms < -1:", CONSTRUCT_CHECKS),
    ("bool accepted by prop6_condition", "construct.py",
     "if type(v) is bool or not", "if not", PROP6_TESTS),
    ("bool accepted as a partition's n", "partition.py",
     'no trace.\n    """\n    if type(n) is bool or not', 'no trace.\n    """\n    if not',
     PARTITION_TESTS),
    ("bool accepted as the n of t_set", "partition.py",
     'once each.\n    """\n    if type(n) is bool or not', 'once each.\n    """\n    if not', PARTITION_TESTS),
    ("is_prime type check dropped", "numeric.py",
     '    if not isinstance(n, int):\n        raise ValueError("is_prime needs an integer")\n', "",
     NUMERIC_TESTS),
    ("bool accepted as a scaling factor", "model.py",
     "if type(c) is bool or not", "if not", MODEL_TESTS),
    # model.max_numerator, the one statement of the necessary conditions.
    ("numerator bound without its - 1", "model.py",
     "return (b - 1) // gcd(b, n)", "return b // gcd(b, n)", MODEL_TESTS),
    ("numerator bound without the gcd, under the search tests", "model.py",
     "return (b - 1) // gcd(b, n)", "return b - 1", SEARCH_TESTS),
    ("search pool keeps the divisors of n", "search.py",
     "range(2, B + 1) if max_numerator(b, n))", "range(2, B + 1))", SEARCH_TESTS),
    ("length-1 sets listed from the whole pool", "search.py",
     "yield from ((b,) for b in pool)", "yield from ((b,) for b in list(pool))", SEARCH_TESTS),
    # model.coprime_shape: an exact sum and the closer 1/(n * prod(b_i)).
    ("coprime shape without its closing denominator", "model.py",
     "return last.den == n * prod(t.den for t in head)", "return True", MODEL_TESTS),
    ("coprime shape of terms that miss the target", "model.py",
     "if not d.terms or d._audit[0]:", "if not d.terms:", MODEL_TESTS),
    # construct.prop6_condition's O(1) verdict.
    ("prop6 verdict without its divisibility test", "construct.py",
     "    return n % y2 != 0\n", "    return True\n", PROP6_TESTS),
    ("prop6 verdict tests y2 | m instead of y2 | n", "construct.py",
     "    return n % y2 != 0\n", "    return m % y2 != 0\n", PROP6_TESTS),
    ("prop7 predicts faithful when x < c alone", "construct.py",
     "predicted = prop6_condition(m, n, a_den, c, x_num)", "predicted = x_num < c", PROP6_TESTS),
    # search._sweep, the one grid loop of hunt and table, and the prop6 scan
    # that keeps only its disagreements.
    ("prop6 scan reports agreements", "search.py",
     "if condition != verified:", "if condition == verified:", SEARCH_TESTS),
    ("sweep keeps the pairs that share a factor", "search.py",
     "if m < 3 or n <= m or gcd(m, n) != 1:", "if m < 3 or n <= m:", CLI_TESTS),
    ("sweep reads a one-shot n iterator once", "search.py",
     "if iter(n_values) is n_values:", "if False:", SEARCH_TESTS),
    # search.min_length_search's refusal of the sets that cannot reach m/n,
    # and its solve of the last two numerators.
    ("n | lcm test dropped", "search.py",
     "            if not D % n:\n", "            if True:\n", SEARCH_TESTS),
    ("n | lcm test inverted", "search.py",
     "            if not D % n:\n", "            if D % n:\n", SEARCH_TESTS),
    ("lower sum bound off by one", "search.py",
     "if sum(weights) <= rem <=", "if sum(weights) < rem <=", SEARCH_TESTS),
    ("upper sum bound off by one", "search.py",
     "<= rem <= sum(map(mul, his, weights)):", "<= rem < sum(map(mul, his, weights)):", SEARCH_TESTS),
    ("a refused set costs no combination", "search.py",
     "            combos += 1  # a refused set\n", "", REFUSAL_TESTS),
    ("set-level cap check removed", "search.py",
     "            if combos > cap:\n                cap_hit = True\n                break\n", "", REFUSAL_TESTS),
    ("cap check before a candidate's verify dropped", "search.py",
     "                if combos > cap:\n                    cap_hit = True\n                    return None\n",
     "", SEARCH_TESTS),
    ("cap check before a slot dropped", "search.py",
     "        if combos > cap:\n            cap_hit = True\n            return None\n        w = ",
     "        w = ", SEARCH_TESTS),
    ("two-slot progression starts one step late", "search.py",
     "first = lo + (", "first = step + lo + (", SEARCH_TESTS),
    ("two-slot step taken as w2", "search.py",
     "step = w2 // g\n", "step = w2\n", SEARCH_TESTS),
    # cli._wire, the one wire rule.
    ("wire form tests int before bool", "cli.py",
     "if obj is None or isinstance(obj, (bool, str)):", "if obj is None or isinstance(obj, str):", CLI_TESTS),
    ("wire form swaps a fraction's num and den", "cli.py",
     '{"num": _wire(obj.numerator), "den": _wire(obj.denominator)}',
     '{"num": _wire(obj.denominator), "den": _wire(obj.numerator)}', CLI_TESTS),
    ("wire form without the digit-limit guard", "cli.py",
     "            raise _too_long() from None\n", "            raise\n", CLI_TESTS),
    # cli._grid, the one trim of both sweeps, and table's 4/n constructor.
    ("prop7 table starts at m + 2", "cli.py",
     "range(max(n_lo, m_lo + 1), n_hi + 1)", "range(max(n_lo, m_lo + 2), n_hi + 1)", CLI_TESTS),
    ("hunt starts at m = 4", "cli.py",
     "m_lo = max(m_lo, 3)", "m_lo = max(m_lo, 4)", CLI_TESTS),
    ("sweeps stop m at n_hi - 2", "cli.py",
     "min(m_hi, n_hi - 1)", "min(m_hi, n_hi - 2)", CLI_TESTS),
    ("four-over-n built by prop7(4, n)", "cli.py",
     "m, build = 4, lambda _, n: theorem4(n)", "m, build = 4, prop7", CLI_TESTS),
    ("spaced --m range read as a flag", "cli.py",
     'if words and words[-1] == "--m" and', 'if False and', CLI_TESTS),
    # The lazy package and the CLI's per-command imports.
    ("cli imports construct at module level", "cli.py",
     "from .model import Decomposition,", "from .construct import prop7\nfrom .model import Decomposition,",
     IMPORT_GUARD),
    ("first public name returned without binding the rest", "__init__.py",
     "        names.update(public, __all__=sorted(public))\n",
     "        names.update(__all__=sorted(public))\n        if name in public:\n            return public[name]\n",
     PACKAGE_TESTS),
    ("term budget error mapped to exit 2", "construct.py",
     "class TermBudgetExceeded(CapExceeded, ValueError):", "class TermBudgetExceeded(ValueError):",
     CLI_BUDGET_TEST),
]


def _pytest(tmp: Path, selection: tuple[str, ...]) -> int | None:
    """pytest's exit code, or None when the run passed TIMEOUT_S."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *selection]
    try:
        return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _checkout(tmp: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp)


def run(name: str, path: str, old: str, new: str, selection: tuple[str, ...]) -> str:
    with tempfile.TemporaryDirectory(prefix="faithfrac-mutant-") as tmp:
        tmp = Path(tmp)
        _checkout(tmp)
        target = tmp / "src" / "faithfrac" / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"stale: old text occurs {text.count(old)} times"
        target.write_text(text.replace(old, new))
        code = _pytest(tmp, selection)
    if code is None:
        return "timeout"
    # pytest exits 1 when a test failed; 0 when all passed.
    return {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exited {code}")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        known = {m[0] for m in MUTANTS}
        print(f"unknown mutants: {sorted(set(names) - known)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    for selection in sorted({m[4] for m in chosen}):
        with tempfile.TemporaryDirectory(prefix="faithfrac-mutant-") as tmp:
            _checkout(Path(tmp))
            if (code := _pytest(Path(tmp), selection)) != 0:
                how = "runs past the timeout" if code is None else "fails"
                print(f"unmutated {' '.join(selection)} {how}; fix it first", file=sys.stderr)
                return 2
    bad = 0
    for mutant in chosen:
        outcome = run(*mutant)
        bad += outcome != "killed"
        print(f"{outcome:10s} {mutant[1]}: {mutant[0]}", flush=True)
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
