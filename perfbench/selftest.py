"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a clean run prints exactly the metrics BENCHMARK.json declares,
with their units; that a planted wrong expectation (a known-unfaithful pool
decomposition labelled faithful) gives a non-zero error rate and a failing
exit code; and that a directory holding only BENCHMARK.json and this
directory, without the faithfrac sources, fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "7",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench(ROOT, "--trace", trace)
        result = result_of(proc)
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            problems.append(f"clean --trace {trace} run failed: {proc.stderr[-2000:]}")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != declared:
            problems.append(
                f"--trace {trace} metrics differ from BENCHMARK.json {key}: "
                f"printed only {sorted(printed.items() - declared.items())}, "
                f"declared only {sorted(declared.items() - printed.items())}"
            )

    planted = bench(ROOT, "--trace", "0", "--plant")
    result = result_of(planted)
    if planted.returncode == 0 or result["correct"] or not result["failed"] / result["attempted"] > 0:
        problems.append("the planted wrong expectation went unnoticed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a directory without the faithfrac sources produced a result")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
