"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON line.  ``--setup-only`` builds the
inputs and exits, so that the parent can time start-up, import and input
generation.  Otherwise the timed phase runs whole passes over the
workload's operations, one at a time in this one thread (a closed loop with
a single client), until ``--seconds`` have elapsed.  A pass is never cut,
so every operation is timed at least once and the mix stays fixed.  With
``--trace 1`` an untraced phase is followed by a traced one, and the
per-layer metrics come from the traced phase.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10  # samples a tail percentile must leave above it
CLI_CASES = 12
CLI_CALLS_PER_PASS = 2
MAX_FAILURES_SHOWN = 20


def load_faithfrac():
    """Import faithfrac from this checkout's src/, never from elsewhere."""
    import faithfrac

    if Path(faithfrac.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"faithfrac imported from {faithfrac.__file__}, not {SRC}")
    return faithfrac


class ColdCli:
    """Cold ``python -m faithfrac.cli verify`` calls, a few after every pass,
    so that they are spread over the run like the operations' repetitions.
    They find faithfrac through the PYTHONPATH that run.py sets."""

    def __init__(self, cases: list[dict]):
        self.cases = cases
        self.walls: list[float] = []
        self.failures: list[str] = []

    def __call__(self) -> None:
        for _ in range(CLI_CALLS_PER_PASS):
            case = self.cases[len(self.walls) % len(self.cases)]
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "faithfrac.cli", "verify"], input=case["stdin"],
                capture_output=True, text=True, timeout=60,
            )
            self.walls.append(perf_counter() - t0)
            if proc.stdout != case["stdout"] or proc.returncode != case["exit"]:
                self.failures.append(
                    f"cli verify {case['stdin']}: exit {proc.returncode}, stdout {proc.stdout!r}"
                )


def timed_phase(ops, seconds: float, tracer=None, between_passes=None) -> dict:
    best = [float("inf")] * len(ops)
    failures: list[str] = []
    failed = passes = 0
    gc.collect()
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = passes * len(ops) + i
            t0 = perf_counter()
            try:
                fails = op()
            except Exception as exc:  # a raising operation is a failed one
                fails = [f"{type(exc).__name__}: {exc}"]
            best[i] = min(best[i], perf_counter() - t0)
            if fails:
                failed += 1
                failures.extend(fails[: MAX_FAILURES_SHOWN - len(failures)])
        passes += 1
        if between_passes is not None:
            between_passes()
        wall = perf_counter() - start
        if wall >= seconds:
            break
    # The host's speed swings by half within a second, so an operation's
    # latency is its fastest repetition: the passes spread the repetitions
    # over the whole run, and only the fastest one is reproducible.
    best.sort()
    n = len(best)
    tenths = 1000 * (n - TAIL_BEYOND) // n  # the tail percentile, in tenths
    rank = -(-tenths * n // 1000)  # nearest rank: ceil(percentile% of n)
    return {
        "attempted": passes * n,
        "failed": failed,
        "failures": failures,
        "passes": passes,
        "ops_per_pass": n,
        "wall_s": wall,
        "instances_per_s": n / sum(best),
        "latency_p50_ms": statistics.median(best) * 1000,
        "latency_tail_ms": best[rank - 1] * 1000,
        "tail_percentile": tenths / 10,
        "tail_samples_beyond": n - rank,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plant", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    ff = load_faithfrac()
    workload = workloads.build(args.workload, ff, args.seed, args.plant)
    if args.setup_only:
        return 0

    if not args.trace:
        cli = ColdCli(workload.cli_cases(ff, args.seed, CLI_CASES))
        result = timed_phase(workload.ops, args.seconds, between_passes=cli)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["cli_cold_ms"] = min(cli.walls) * 1000
        result["attempted"] += len(cli.walls)
        result["failed"] += len(cli.failures)
        result["failures"] += cli.failures
    else:
        # The untraced and the traced phase share the run's seconds; their
        # throughput ratio is the tracing overhead.
        result = timed_phase(workload.ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_phase(workload.ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.per_layer(traced["passes"])
        layers["trace.coverage"] = layers.pop("top_level_s") * traced["passes"] / traced["wall_s"]
        layers["trace.instances_per_s_ratio"] = traced["instances_per_s"] / result["instances_per_s"]
        result["per_layer"] = layers
        result["traced_phase"] = {k: v for k, v in traced.items() if k != "failures"}
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["failures"] += traced["failures"]
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
