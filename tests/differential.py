"""Differential check of the verifier and the CLI against another revision.

    python3 tests/differential.py REV    # e.g. HEAD, HEAD~, a commit id

Unpacks `git archive REV src` into a temporary directory and runs that copy
and the working tree's src/ in two subprocesses, so the two packages never
share sys.modules.  A REV that git does not know, or a copy of the tree
that is not a git work tree, exits 2 with git's message before anything
is built.  Both are fed one seeded corpus of decompositions, built
here from the working tree:
- the generated pool of tests/pools.py, which the pinned digests share;
- the theorem1 outputs of the 50 seed-730 targets, whose lattices run to
  1e9 points (the benchmark's deep-lattice workload takes 44 of them);
- random 1-6-term decompositions over denominators below 60, faithful or
  not, with numerators past their denominators among them.
Each side runs verify and partial_sums_in_ideal at every cap of CAPS and
verify_naive at every cap of NAIVE_CAPS, and writes one line per call: the
report's repr, the sorted set, or the exception's type and text
(CapExceeded, or a fault such as the walk's own RuntimeError).

Both sides then make the library calls of api_corpus and write one line
per call, the result's repr (a set sorted) or the exception's type and
text: validate on decompositions well formed or not, every constructor
(general_coprime under both policies, with omegas of up to five members
and seeds up to 3) over small targets valid or not, all_units_but_one at
its default term budget and at budgets its heads run past,
min_length_search over small targets and caps,
check_partition_theorem on every partition of m <= 6 over n <= 20 and on
the partitions (1,)*e and (2, 1, ...) of up to 12 parts over n <= 13, and
partial_sums_in_ideal of those many-part blocks combined, at caps on both
sides of the 2**(e - 1) combinations of the other blocks' solutions and of
the walk's count.

Both sides then run the argv lists of cli_corpus through faithfrac.cli.main,
with stdin, stdout and stderr captured, and write one line per call: the
exit code (or the exception that escaped main), stdout and stderr.  The
lists cover every table kind, format and cap over awkward n ranges, hunt
over awkward m ranges, and each other command and strategy.

The script prints the number of lines that differ in each corpus, and the
first few, each from a little before the first character in which the two
sides differ, and exits 1 if any does.

Standard library only.  pytest does not collect this file, and the tier-1
run leaves it out because of its run time.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAPS = (10_000_000, 10_000, 500, 50)
# The oracle walks every point up to its cap, so it is kept to smaller caps.
NAIVE_CAPS = (100_000, 500, 50)
# Lines each decomposition writes: verify and partial sums per cap, the oracle per cap.
PER_CASE = 2 * len(CAPS) + len(NAIVE_CAPS)
# Differences printed, and the characters shown of each: a window that
# starts LEAD characters before the first character in which the sides differ.
SHOWN, WIDTH, LEAD = 5, 240, 60
FOUR_NINTHS = ('{"target":{"num":"4","den":"9"},'
               '"terms":[{"num":"1","den":"4"},{"num":"1","den":"6"},{"num":"1","den":"36"}]}')
FIVE_SIXTHS = ('{"target":{"num":"5","den":"6"},'
               '"terms":[{"num":"1","den":"2"},{"num":"1","den":"3"}]}')


def corpus() -> list[tuple[int, int, list[tuple[int, int]]]]:
    """(m, n, [(a_i, b_i), ...]) for every decomposition checked."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from faithfrac import theorem1
    from pools import generated_pool

    out = [(d.target.numerator, d.target.denominator, [(t.num, t.den) for t in d.terms])
           for d in generated_pool(random.Random(2027), 500)]
    rng = random.Random(730)
    targets = []
    while len(targets) < 50:
        n, t = rng.randint(1, 50), rng.randint(2, 4)
        m = rng.randint(t * n, (t + 1) * n - 1)
        if gcd(m, n) == 1:
            targets.append((m, n))
    for m, n in targets:
        out.append((m, n, [(t.num, t.den) for t in theorem1(m, n).decomposition.terms]))
    rng = random.Random(61)
    for _ in range(3000):
        dens = rng.sample(range(1, 60), rng.randint(1, 6))
        pairs = [(rng.randint(1, min(b + 2, 9)), b) for b in dens]
        total = sum(Fraction(a, b) for a, b in pairs)
        out.append((total.numerator, total.denominator, pairs))
    return out


def partitions(m: int, top: int | None = None):
    """The partitions of m as non-increasing tuples, parts at most top."""
    if m == 0:
        yield ()
    for first in range(min(m, top or m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first, *rest)


def api_corpus(cases) -> list[tuple[str, list]]:
    """(function name, JSON arguments) for every other library call."""
    rng = random.Random(23)
    calls = []
    # validate: one in six of the decompositions as they are, the rest broken
    # one way each (the checks raise on these, so they are met only here).
    for m, n, pairs in rng.sample(cases, 1200):
        how = rng.randrange(6)
        if how == 1 and pairs:
            pairs = [*pairs, pairs[0]]  # duplicate denominator
        elif how == 2:
            m += 1  # sum mismatch
        elif how == 3:
            m = rng.choice((0, -m))  # nonpositive target
        elif how == 4:
            pairs = []
        elif how == 5:
            pairs = [(rng.randint(-1, 0), b) for _, b in pairs[:1]] + pairs[1:]  # a part below 1
        calls.append(("validate", [m, n, pairs]))
    calls += [("two_term", [m, n]) for n in range(-1, 41) for m in range(-1, n + 2)]
    calls += [("theorem1", [m, n]) for n in range(-1, 61) for m in range(n - 1, 4 * n + 2)]
    calls += [("general_coprime", [m, n, policy, omega, seed])
              for n in range(1, 13) for m in range(1, 2 * n + 2)
              for policy in ("unit", "max") for omega, seed in (([], 0), ([2, 9], 0), ([5], 2), ([], -1))]
    # Under "max" the head stays short up to larger targets.
    calls += [("general_coprime", [m, n, "max", omega, seed]) for n in range(1, 25)
              for m in range(2 * n + 2, 5 * n) for omega, seed in (([], 0), ([3], 1))]
    calls += [("general_coprime", [m, n, policy, omega, seed]) for n in range(1, 13)
              for m in range(1, 2 * n + 2) for policy in ("unit", "max")
              for omega in ([4, 9, 25], [1, 6, 10, 15], [3, 7, 11, 13, 17]) for seed in (1, 2, 3)]
    calls += [("general_coprime", [3, 2, "other", [], 0])]
    # At the default budget, and at budgets of 1 and 3 terms that the larger
    # targets' heads run past.
    calls += [("all_units_but_one", [m, n, omega, seed, *budget]) for n in range(1, 10)
              for m in range(1, 2 * n + 2) for omega, seed in (([], 0), ([2, 9], 1), ([6, 10, 15], 3))
              for budget in ([], [1], [3])]
    calls += [("prop7", [m, n]) for m in range(1, 9) for n in range(-1, 61)]
    calls += [("theorem4", [n]) for n in range(-2, 301)]
    calls += [("from_perfect", [p]) for p in (*range(-1, 500), 8128, 33550336, 33550337)]
    searches = [(7, 3, 3, 30), (2, 3, 3, 12), (5, 6, 2, 30), (4, 9, 3, 36), (11, 5, 3, 24),
                (7, 4, 3, 40), (3, 1, 2, 20), (5, 9, 2, 18), (7, 3, 4, 20), (11, 5, 4, 16),
                (6, 25, 3, 50), (8, 9, 3, 30)]
    calls += [("min_length_search", [m, n, length, den, cap])
              for m, n, length, den in searches for cap in (10_000_000, 2_000)]
    calls += [("min_length_search", [7, 3, 0, 30, 100])]
    calls += [("check_partition_theorem", [m, n, parts, cap])
              for m in range(1, 7) for parts in partitions(m) for n in range(1, 21)
              if gcd(m, n) == 1 and m < 5 * n for cap in (10_000_000, 50)]
    calls += [("check_partition_theorem", [5, 7, (2, 2), 1000])]
    # Many parts: every other block lists 2 solutions, and their 2**(e - 1)
    # combinations a row add up to few distinct sums.
    many = [(parts, n) for e in range(2, 13) for parts in ((1,) * e, (2, *(1,) * (e - 1)))
            for n in range(1, 14) if gcd(sum(parts), n) == 1 and sum(parts) < 5 * n]
    calls += [("check_partition_theorem", [sum(parts), n, parts, cap])
              for parts, n in many for cap in (10_000_000, 50)]
    for parts, n in many:
        pairs, spent = _combined(sum(parts), n, parts)
        product = 2 ** (len(parts) - 1)
        calls += [("partial_sums_of", [pairs, cap])
                  for cap in sorted({product - 1, product + 1, spent - 1, spent, 10_000_000})]
    return calls


def _combined(m: int, n: int, parts: tuple[int, ...]) -> tuple[list[tuple[int, int]], int]:
    """The combined blocks of a partition as pairs, with what verify spends
    on them, from the working tree."""
    from faithfrac import decompose_partition, PartitionSpec, verify

    d = decompose_partition(PartitionSpec(m, parts), n).combined
    return [(t.num, t.den) for t in d.terms], verify(d).combos_examined


def cli_corpus() -> list[tuple[list[str], str]]:
    """(argv, stdin) for every CLI call."""
    fmts = (["--format", "csv"], ["--format", "json"], ["--format", "text"])
    caps = ([], ["--cap", "50"], ["--cap", "2"])
    # A negative --n-min, --n-min past --n-max, and --n-max at most 5.
    n_ranges = (["--n-min", "-7", "--n-max", "40"], ["--n-min", "20", "--n-max", "10"],
                ["--n-max", "5"], ["--n-max", "4"], ["--n-min", "-3", "--n-max", "2"],
                ["--n-max", "60"])
    kinds = [["--kind", "four-over-n"], *(["--kind", "prop7", "--m", str(m)] for m in range(3, 13))]
    calls = [["table", *kind, *ns, *cap, *fmt]
             for kind in kinds for ns in n_ranges for cap in caps for fmt in fmts]
    calls += [
        ["table", "--kind", "four-over-n", "--n-max", "301", "--format", "json"],
        ["table", "--kind", "four-over-n", "--m", "3", "--n-max", "7"],
        ["table", "--kind", "prop7", "--n-max", "10"],
        ["table", "--kind", "prop7", "--m", "2", "--n-max", "10"],
        ["table", "--kind", "prop7", "--m", "3", "--n-max", "10", "--cap", "0"],
        ["table", "--kind", "prop7", "--m", "100000000", "--n-min", "99999990", "--n-max", "100000040"],
    ]
    calls += [["hunt", "--m", m, "--n-max", n_max, *fmt]
              for m in ("-4..4", "3..7", "5", "9..3", "3..100000000")
              for n_max in ("2", "3", "4", "5", "40", "300") for fmt in ([], ["--format", "text"])]
    calls += [["hunt", "--m=-4..4", "--n-max", "10"], ["hunt", "--m", "abc", "--n-max", "40"]]
    dec = ["decompose", "--format", "text"]
    calls += [
        [*dec, "5", "7", "--strategy", "two-term"],
        [*dec, "7", "3", "--strategy", "theorem1", "--trace"],
        [*dec, "9", "5", "--strategy", "theorem2", "--omega", "2,3", "--seed", "1"],
        [*dec, "3", "8", "--strategy", "prop7"],
        [*dec, "4", "15", "--strategy", "theorem4"],
        ["decompose", "5", "7", "--strategy", "partition", "--parts", "2,3"],
        ["partition-check", "6", "11", "--parts", "1,2,3"],
        ["search", "7", "3", "--max-length", "3", "--max-den", "30"],
    ]
    out = [(argv, "") for argv in calls]
    out += [(["verify"], FOUR_NINTHS), (["verify", "--format", "text"], FIVE_SIXTHS),
            (["verify", "--naive"], FIVE_SIXTHS), (["verify", "--cap", "1"], FOUR_NINTHS),
            (["verify"], "{")]
    return out


def worker(src: str, cases: str) -> None:
    """Read both corpora from the JSON file cases and write one line per call."""
    sys.path.insert(0, src)
    import faithfrac
    from faithfrac import decomposition, partial_sums_in_ideal, verify, verify_naive
    from faithfrac.cli import main as cli

    if not Path(faithfrac.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"faithfrac imported from {faithfrac.__file__}, not from {src}")

    def outcome(check, *args):
        try:
            return repr(check(*args))
        except Exception as e:  # CapExceeded, and any fault a changed walk trips
            return f"{type(e).__name__}: {e}"

    def sums(d, cap):
        return sorted(partial_sums_in_ideal(d, cap))

    def partition_check(m, n, parts, cap):
        check = faithfrac.check_partition_theorem(faithfrac.PartitionSpec(m, tuple(parts)), n, cap)
        return check.block_decomposition, sorted(check.s), sorted(check.t)

    api = {
        "validate": lambda m, n, pairs: faithfrac.validate(
            decomposition(Fraction(m, n), [tuple(p) for p in pairs])),
        "min_length_search": lambda m, n, length, den, cap: faithfrac.min_length_search(
            m, n, faithfrac.SearchBudget(length, den, cap)),
        "check_partition_theorem": partition_check,
        "partial_sums_of": lambda pairs, cap: sums(
            decomposition(sum(Fraction(a, b) for a, b in pairs), [tuple(p) for p in pairs]), cap),
    }

    out = sys.stdout
    decompositions, api_calls, calls = json.loads(Path(cases).read_text())
    for m, n, pairs in decompositions:
        d = decomposition(Fraction(m, n), [tuple(p) for p in pairs])
        for cap in CAPS:
            out.write(f"verify {cap} {outcome(verify, d, cap)}\n")
            out.write(f"partial_sums_in_ideal {cap} {outcome(sums, d, cap)}\n")
        for cap in NAIVE_CAPS:
            out.write(f"verify_naive {cap} {outcome(verify_naive, d, cap)}\n")
    for name, args in api_calls:
        # A constructor is looked up by name, so one missing on a side shows
        # as a difference.
        call = api.get(name) or (lambda *a, name=name: getattr(faithfrac, name)(*a))
        out.write(f"{name} {outcome(call, *args)}\n")
    for argv, stdin in calls:
        sys.stdin, stdout, stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
            except Exception as e:  # a traceback the CLI let through
                code = f"{type(e).__name__}: {e}"
        out.write(json.dumps([code, stdout.getvalue(), stderr.getvalue()]) + "\n")


def unpack(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter exists from CPython 3.10.12 and 3.11.4 on.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        worker(*argv[1:])
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="faithfrac-differential-") as tmp:
        tmp = Path(tmp)
        # Unpacked first, so a bad REV or a tree without git fails at once.
        try:
            sides = [unpack(argv[0], tmp / "rev"), ROOT / "src"]
        except subprocess.CalledProcessError as e:
            sys.stderr.write(e.stderr.decode(errors="replace"))
            print("differential.py needs a git work tree and a known REV", file=sys.stderr)
            return 2
        cases, calls = corpus(), cli_corpus()
        api_calls = api_corpus(cases)
        (tmp / "cases.json").write_text(json.dumps([cases, api_calls, calls]))
        runs = []
        for side, src in enumerate(sides):
            with open(tmp / f"out{side}", "w") as out:
                runs.append(subprocess.Popen([sys.executable, __file__, "--worker", str(src),
                                              str(tmp / "cases.json")], stdout=out, cwd=tmp))
        if any(codes := [run.wait() for run in runs]):
            print(f"a worker failed: exit codes {codes}", file=sys.stderr)
            return 2
        outs = [(tmp / f"out{side}").read_text().splitlines() for side in range(2)]
    old, new = outs
    diffs = [i for i in range(max(len(old), len(new)))
             if i >= len(old) or i >= len(new) or old[i] != new[i]]
    # The checks' lines come first, then the other library calls, then the CLI's.
    library = len(cases) * PER_CASE
    cli_start = library + len(api_calls)
    for i in diffs[:SHOWN]:
        if i < library:
            m, n, pairs = cases[i // PER_CASE]
            print(f"{m}/{n} = {' + '.join(f'{a}/{b}' for a, b in pairs)}")
        elif i < cli_start:
            name, args = api_calls[i - library]
            print(f"{name}({', '.join(map(repr, args))})")
        else:
            argv_i, stdin = calls[i - cli_start]
            print(f"faithfrac {' '.join(argv_i)}{' < ' + stdin if stdin else ''}")
        pair = [lines[i] if i < len(lines) else "(missing)" for lines in (old, new)]
        first = next((j for j, (a, b) in enumerate(zip(*pair)) if a != b), min(map(len, pair)))
        lo = max(0, first - LEAD)
        for side, line in zip((argv[0], "work"), pair):
            print(f"  {side}: {'... ' if lo else ''}{line[lo:lo + WIDTH]}{' ...' if len(line) > lo + WIDTH else ''}")
    in_checks = sum(i < library for i in diffs)
    in_api = sum(library <= i < cli_start for i in diffs)
    print(f"{in_checks} differences in {library} calls on {len(cases)} decompositions")
    print(f"{in_api} differences in {len(api_calls)} calls of validate, the constructors, "
          "the search, the partition check and the partial sums of its blocks")
    print(f"{len(diffs) - in_checks - in_api} differences in {len(calls)} CLI calls")
    return 1 if diffs else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
