"""Differential check of the verifier and the CLI against another revision.

    python3 tests/differential.py REV    # e.g. HEAD, HEAD~, a commit id

Unpacks `git archive REV src` into a temporary directory and runs that copy
and the working tree's src/ in two subprocesses, so the two packages never
share sys.modules.  Both are fed one seeded corpus of decompositions, built
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

Both sides then run the argv lists of cli_corpus through faithfrac.cli.main,
with stdin, stdout and stderr captured, and write one line per call: the
exit code (or the exception that escaped main), stdout and stderr.  The
lists cover every table kind, format and cap over awkward n ranges, hunt
over awkward m ranges, and each other command and strategy.

The script prints the number of lines that differ in each corpus, and the
first few, and exits 1 if any does.

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
SHOWN, WIDTH = 5, 240  # differences printed, and their characters
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
        ["search", "2", "3", "--max-length", "3", "--max-den", "12", "--shuffle", "1", "--format", "text"],
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

    def outcome(check, d, cap):
        try:
            return repr(check(d, cap))
        except Exception as e:  # CapExceeded, and any fault a changed walk trips
            return f"{type(e).__name__}: {e}"

    def sums(d, cap):
        return sorted(partial_sums_in_ideal(d, cap))

    out = sys.stdout
    decompositions, calls = json.loads(Path(cases).read_text())
    for m, n, pairs in decompositions:
        d = decomposition(Fraction(m, n), [tuple(p) for p in pairs])
        for cap in CAPS:
            out.write(f"verify {cap} {outcome(verify, d, cap)}\n")
            out.write(f"partial_sums_in_ideal {cap} {outcome(sums, d, cap)}\n")
        for cap in NAIVE_CAPS:
            out.write(f"verify_naive {cap} {outcome(verify_naive, d, cap)}\n")
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
    cases, calls = corpus(), cli_corpus()
    with tempfile.TemporaryDirectory(prefix="faithfrac-differential-") as tmp:
        tmp = Path(tmp)
        (tmp / "cases.json").write_text(json.dumps([cases, calls]))
        sides = [unpack(argv[0], tmp / "rev"), ROOT / "src"]
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
    library = len(cases) * PER_CASE  # the library lines come first
    for i in diffs[:SHOWN]:
        if i < library:
            m, n, pairs = cases[i // PER_CASE]
            print(f"{m}/{n} = {' + '.join(f'{a}/{b}' for a, b in pairs)}")
        else:
            argv_i, stdin = calls[i - library]
            print(f"faithfrac {' '.join(argv_i)}{' < ' + stdin if stdin else ''}")
        for side, lines in ((argv[0], old), ("work", new)):
            line = lines[i] if i < len(lines) else "(missing)"
            print(f"  {side}: {line[:WIDTH]}{' ...' if len(line) > WIDTH else ''}")
    in_library = sum(i < library for i in diffs)
    print(f"{in_library} differences in {library} calls on {len(cases)} decompositions")
    print(f"{len(diffs) - in_library} differences in {len(calls)} CLI calls")
    return 1 if diffs else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
