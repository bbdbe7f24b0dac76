"""rotweb benchmark: one command for every workload.

    python3 bench/run.py --workload classify-quartic --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ./src.  With
--trace 0 the run times its workload in whole rounds for at least --seconds
and prints the end-to-end metrics; with --trace 1 it runs a fixed number of
rounds untraced and then traced, prints the per-layer metrics, and writes
the spans to bench/out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def setup_time(workload) -> float:
    """CPU time, measured inside a fresh interpreter, of importing rotweb.cli
    with numpy and filling the workload's lazy caches."""
    code = (f"import sys, time\nt = time.process_time()\nsys.path.insert(0, {str(SRC)!r})\n"
            f"{workload.setup_code}\nprint(time.process_time() - t)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed operations, latencies of completed ones, and
    every check that a completed operation broke.

    Latency is the CPU time of this process during the call: the loop is
    single-threaded and CPU-bound, and on a shared machine wall time also
    counts the time the process waits for a CPU (see README)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []
        self.problems: list = []

    def run_round(self, workload, items, check_rng, tracer=None) -> None:
        for item in items:
            if tracer is not None:
                tracer.op = self.attempted
                tracer.active = True
            start = time.process_time()
            result = workload.run(item)
            elapsed = time.process_time() - start
            if tracer is not None:
                tracer.active = False
            self.attempted += 1
            failed, problems = workload.check(item, result, check_rng)
            if failed:
                self.failed += 1
            else:
                self.latencies.append(elapsed)
            self.problems.extend(problems)

    def throughput(self) -> float:
        return len(self.latencies) / (sum(self.latencies) or math.inf)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def timed_run(workload, seed: int, seconds: float) -> tuple:
    setup_time(workload)  # compiles the bytecode; not counted
    workload.prepare()
    workload.warm_up(random.Random(-1 - seed))
    tally = Tally()
    check_rng = random.Random(seed + 7)
    # Set-up is sampled between rounds, spread over the run, so that its
    # median sees the same stretch of machine time as the operations.
    setups: list = []
    start = time.perf_counter()
    rounds = 0
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        tally.run_round(workload, workload.make_round(round_rng(seed, rounds)), check_rng)
        rounds += 1
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_time(workload))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(workload))
    setup_s = statistics.median(setups)
    tail = percentile(tally.latencies, workload.tail_percentile)
    metrics = {
        "throughput_ops_s": (tally.throughput(), "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload.name}: {rounds} rounds, {len(tally.latencies)} completed, "
          f"tail = p{workload.tail_percentile:g}", file=sys.stderr)
    return tally, metrics


def traced_run(workload, seed: int) -> tuple:
    from tracing import Tracer

    workload.prepare()
    workload.warm_up(random.Random(-1 - seed))
    check_rng = random.Random(seed + 7)
    rounds = [workload.make_round(round_rng(seed, r)) for r in range(workload.trace_rounds)]
    plain = Tally()
    for items in rounds:
        plain.run_round(workload, items, check_rng)
    tracer = Tracer()
    traced = Tally()
    tracer.install()
    try:
        for items in rounds:
            traced.run_round(workload, items, check_rng, tracer)
    finally:
        tracer.uninstall()
    metrics = {name: (value, "count" if name.endswith((".calls", ".raised")) else
                      "ratio" if name.endswith(".ok_ratio") else "s")
               for name, value in tracer.metrics().items()}
    metrics["trace.untraced_throughput_ops_s"] = (plain.throughput(), "1/s")
    metrics["trace.traced_throughput_ops_s"] = (traced.throughput(), "1/s")
    metrics["trace.overhead_pct"] = (100 * (1 - traced.throughput() / plain.throughput()), "%")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    dump = tracer.dump()
    dump.update(workload=workload.name, seed=seed, rounds=workload.trace_rounds)
    (out / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(dump))
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.problems += part.problems
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rotweb" / "cli.py").is_file():
        print(f"error: no rotweb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics = traced_run(workload, args.seed)
    else:
        tally, metrics = timed_run(workload, args.seed, args.seconds)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
