"""Differential check of the verifier against another revision.

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
(CapExceeded, or a fault such as the walk's own RuntimeError).  The script prints
the number of lines that differ, and the first few, and exits 1 if any
does.

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
from fractions import Fraction
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAPS = (10_000_000, 10_000, 500, 50)
# The oracle walks every point up to its cap, so it is kept to smaller caps.
NAIVE_CAPS = (100_000, 500, 50)
SHOWN, WIDTH = 5, 240  # differences printed, and their characters


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


def worker(src: str, cases: str) -> None:
    """Read the corpus from the JSON file cases and write one line per call."""
    sys.path.insert(0, src)
    import faithfrac
    from faithfrac import decomposition, partial_sums_in_ideal, verify, verify_naive

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
    for m, n, pairs in json.loads(Path(cases).read_text()):
        d = decomposition(Fraction(m, n), [tuple(p) for p in pairs])
        for cap in CAPS:
            out.write(f"verify {cap} {outcome(verify, d, cap)}\n")
            out.write(f"partial_sums_in_ideal {cap} {outcome(sums, d, cap)}\n")
        for cap in NAIVE_CAPS:
            out.write(f"verify_naive {cap} {outcome(verify_naive, d, cap)}\n")


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
    cases = corpus()
    with tempfile.TemporaryDirectory(prefix="faithfrac-differential-") as tmp:
        tmp = Path(tmp)
        (tmp / "cases.json").write_text(json.dumps(cases))
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
    for i in diffs[:SHOWN]:
        m, n, pairs = cases[i // (2 * len(CAPS) + len(NAIVE_CAPS))]
        print(f"{m}/{n} = {' + '.join(f'{a}/{b}' for a, b in pairs)}")
        for side, lines in ((argv[0], old), ("work", new)):
            line = lines[i] if i < len(lines) else "(missing)"
            print(f"  {side}: {line[:WIDTH]}{' ...' if len(line) > WIDTH else ''}")
    print(f"{len(diffs)} differences in {len(new)} calls on {len(cases)} decompositions")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
