"""faithfrac benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload deep-lattice --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``worker.py``) that imports ``faithfrac`` from the checkout's ``src/``.
With ``--trace 0`` the end-to-end metrics are printed: throughput and
per-operation latency of the timed phase, set-up time (the median of several
fresh interpreters that start, import faithfrac and build the inputs), the
worker's peak resident memory, and the fastest wall time of a cold
``python -m faithfrac.cli verify`` subprocess on the workload's own inputs.
With ``--trace 1`` the per-layer metrics are printed instead.  The last
line of standard output is the JSON result; the exit code is 0 only when
every check passed.  See README.md in this directory for the workloads and
for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
SETUP_RUNS = 7
PROBE_RUNS = 11
TIMEOUT_S = 170

UNITS = {
    "instances_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "cli_cold_ms": "ms",
}
# Per-layer units by metric-name suffix.
SUFFIX_UNITS = {
    "calls": "count", "self_s": "s", "combos": "count", "combos_per_s": "1/s",
    "mitm_calls": "count", "cap_exceeded": "count", "values": "count",
    "verify_calls": "count", "spawn_ms": "ms", "import_ms": "ms",
}


def python(args: list[str]):
    """Run the interpreter on args from the checkout root, with the checkout's
    src/ on PYTHONPATH; (wall seconds, process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=TIMEOUT_S,
    )
    return perf_counter() - t0, proc


def checked(wall_proc, what: str):
    wall, proc = wall_proc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{what} failed with exit code {proc.returncode}")
    return wall, proc


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return SUFFIX_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--plant", action="store_true",
        help="sweeps only: label one known-unfaithful input faithful (self-test)",
    )
    args = parser.parse_args()
    if args.plant and args.workload != "sweeps":
        parser.error("--plant applies to the sweeps workload")
    if not (ROOT / "src" / "faithfrac" / "__init__.py").is_file():
        raise SystemExit(f"no faithfrac sources under {ROOT / 'src'}")

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(
            checked(python([WORKER, *base, "--setup-only"]), "set-up")[0]
            for _ in range(SETUP_RUNS)
        )
    run = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant:
        run.append("--plant")
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        run += ["--spans-out", str(out_dir / f"spans-{args.workload}.jsonl")]
    _, proc = checked(python([WORKER, *run]), "workload")
    w = json.loads(proc.stdout.splitlines()[-1])
    attempted, failed, failures = w["attempted"], w["failed"], w["failures"]

    if args.trace:
        spawn = [checked(python(["-c", "pass"]), "bare interpreter")[0] for _ in range(PROBE_RUNS)]
        imports = [
            checked(python(["-c", "import faithfrac.cli"]), "import")[0] for _ in range(PROBE_RUNS)
        ]
        metrics = dict(w["per_layer"])
        metrics["cli.spawn_ms"] = min(spawn) * 1000
        metrics["cli.import_ms"] = (min(imports) - min(spawn)) * 1000
    else:
        metrics = {
            "instances_per_s": w["instances_per_s"],
            "latency_p50_ms": w["latency_p50_ms"],
            "latency_tail_ms": w["latency_tail_ms"],
            "setup_s": setup_s,
            "peak_rss_mb": w["peak_rss_mb"],
            "cli_cold_ms": w["cli_cold_ms"],
        }

    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "commit": git_commit(), "passes": w["passes"], "ops_per_pass": w["ops_per_pass"],
        "ops_timed": w["passes"] * w["ops_per_pass"], "wall_s": w["wall_s"],
        "latency_tail": f"p{w['tail_percentile']:g} of {w['ops_per_pass']} per-operation "
                        f"best times, {w['tail_samples_beyond']} beyond",
    }
    if args.trace:
        provenance["traced_phase"] = w["traced_phase"]
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
