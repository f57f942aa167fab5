"""Line check of src/faithfrac: every line runs under the tier-1 tests, or
ALLOWED says why it does not.

    python3 tests/lines.py

Runs the tier-1 suite in one subprocess (pytest over tests/, with src/ on
the path) under a sys.settrace line tracer limited to src/faithfrac, and
compares the lines that ran with the lines each module's compiled code can
run (the line tables of its code objects).  It prints every line that never
ran and has no ALLOWED entry, and every ALLOWED entry that matches no such
line, and exits 1 if there is either.  The suite must pass.

An ALLOWED entry names a module, quotes a line's text (stripped of its
indentation) and gives the reason that line does not run under tier-1; it
covers every unrun line of that module with that text.  Tier-1 tests that
run the CLI in a new interpreter are not traced, so a line that only they
reach needs an entry too.

Standard library only (pytest runs in the subprocess).  pytest does not
collect this file, and the tier-1 run leaves it out because of its run time
(about three times the untraced suite).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "faithfrac"

# (module, the line's stripped text, why tier-1 does not run it).
ALLOWED = [
    ("__init__.py", "__getattr__(\"__all__\")  # binds every public name here first",
     "dir(faithfrac) runs only in a new interpreter (test_package.py)"),
    ("__init__.py", "return sorted(globals())",
     "dir(faithfrac) runs only in a new interpreter (test_package.py)"),
    ("cli.py", "from .construct import ConstructionTrace",
     "a TYPE_CHECKING import, for annotations only"),
    ("cli.py", "from .partition import PartitionCheck",
     "a TYPE_CHECKING import, for annotations only"),
    ("cli.py", "sys.exit(main())",
     "python -m faithfrac.cli runs only in a new interpreter (test_cli.py)"),
    ("verifier.py", "raise RuntimeError(_OUTSIDE)",
     "invariant: a row's x_k solves b + x_k * s_k = 0 mod q by construction, so its "
     "value is in (1/n)Z"),
    ("construct.py", "raise RuntimeError(f\"constructed an invalid decomposition: {problems}\")",
     "invariant: every constructor writes distinct denominators whose terms sum to "
     "its target; _settle re-checks that"),
    ("construct.py", "raise RuntimeError(\"remainder does not live over n times the prime product\")",
     "invariant: the head subtracts terms a/p from m/n, so the remainder's "
     "denominator divides n times the product of the primes p"),
    ("construct.py", "raise RuntimeError(\"remainder numerator shares a factor with its modulus\")",
     "invariant: gcd(m, n) = 1, the head's primes avoid n and each head numerator "
     "is 1 or p - 1, so the remainder is positive and reduced over n times the primes"),
    ("construct.py", "raise RuntimeError(\"progression produced an improper final pair\")",
     "invariant: x/b is the remainder less 1/(n * prod * b), with the remainder "
     "in (0, 1) and x0 >= 1 after its adjustment"),
    ("construct.py", "raise RuntimeError(\"construction lost the coprime certificate shape\")",
     "invariant: n, the head's primes and the progression's b are pairwise coprime, "
     "every head term is proper and the closer is 1/(n * prod * b)"),
    ("construct.py", "raise RuntimeError(\"prime bound failed to control the remainder\")",
     "invariant: Theorem 1's bound makes exactly t primes above it take the "
     "remainder below 1"),
    ("partition.py", "raise RuntimeError(f\"combined blocks are invalid: {problems}\")",
     "invariant: the blocks' denominator pools are disjoint and their targets sum "
     "to m/n"),
]


def runnable(path: Path) -> set[int]:
    """Every line with an instruction in the module's compiled code."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 is the module's own set-up instruction.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def worker(out: str) -> int:
    """Run tier-1 under the tracer and write the lines that ran as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    local_tracers = {}

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in local_tracers:
            add = ran.setdefault(filename, set()).add

            def line(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return line

            local_tracers[filename] = line
        return local_tracers[filename]

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    Path(out).write_text(json.dumps({name: sorted(lines) for name, lines in ran.items()}))
    return int(code)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return worker(argv[1])
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="faithfrac-lines-") as tmp:
        out = Path(tmp) / "ran.json"
        proc = subprocess.run([sys.executable, __file__, "--worker", str(out)], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], "the traced tier-1 run failed",
                  sep="\n", file=sys.stderr)
            return 2
        ran = json.loads(out.read_text())
    unrun, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for number in sorted(runnable(path) - set(ran.get(str(path), ()))):
            line = text[number - 1].strip()
            entry = next((e for e in ALLOWED if e[:2] == (path.name, line)), None)
            if entry is None:
                unrun.append(f"{path.name}:{number}: {line}")
            else:
                used.add(entry)
    stale = [f"{entry[0]}: {entry[1]!r} ran or is gone" for entry in ALLOWED if entry not in used]
    for message in unrun + stale:
        print(message)
    print(f"{len(unrun)} unrun lines outside the allowlist, {len(stale)} stale allowlist entries, "
          f"{len(used)} of {len(ALLOWED)} entries in use")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
