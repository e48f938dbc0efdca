#!/usr/bin/env python3
"""Closed-loop benchmark of the treeprob CLI and library.

Run from the repository root:

    python3 bench/run.py --workload docs-exact --seed 1 --seconds 30 --trace 0

One client in one process sends the workload's request cycle (see
traffic.py) back to back, in whole cycles, for about ``--seconds`` seconds
(at least one cycle), checks every output, and prints a summary followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the ``end_to_end`` metrics of BENCHMARK.json; with
``--trace 1`` they are the ``per_layer`` metrics, taken from traced cycles
that alternate with untraced ones (see tracing.py).

``failed`` counts requests that raised or returned a wrong output;
``correct`` is false only when some output was wrong.  On docs-float the
summary also reports whether each known defect that the cycle leaves out
still reproduces (traffic.probe_known_defects).  treeprob is imported
from ``src/`` next to this directory and nowhere else; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

try:
    import traffic  # imports treeprob from ../src
except ImportError as exc:
    traffic = None
    IMPORT_ERROR = exc

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
# setup_s is the median over batches of the fastest import in a batch.
# One import (about 50 ms) is shorter than the periods, of up to several
# seconds, in which a shared host's CPU runs fast or slow, so single
# imports are bimodal; the batches are spread between the run's cycles.
SETUP_BATCHES = 9
SETUP_BATCH_SIZE = 4
TAIL_PERCENTILES = (99, 95, 90, 75, 70, 50)
TAIL_MIN_BEYOND = 10
# Latencies are scaled to the host speed at which the reference loop takes
# REFERENCE_S; see reference_loop and Tally.latencies.
REFERENCE_TERMS = 300
REFERENCE_S = 0.001


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def reference_loop() -> float:
    """Seconds taken by a fixed sum of Fractions that runs no treeprob code.

    It measures the host's speed between sends: on a shared host the
    speed of a CPU drifts by tens of percent between runs, and the loop,
    like treeprob, is interpreter and integer work that drifts with it.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Tally:
    """Latencies, failures and checked outputs of one run."""

    def __init__(self):
        # key -> (latency, reference loop seconds around the send) per send
        self.sends: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.references: list[float] = []
        self.kinds: dict[str, str] = {}  # key -> request type
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.seen: dict[str, str] = {}

    def run(self, request, tracer=None) -> float:
        """Send one request, check its output, and return its latency."""
        if not self.references:
            self.references.append(reference_loop())
        if tracer is not None:
            tracer.begin_request()
        seconds, output, error = traffic.execute(request)
        if tracer is not None:
            cli_output = output[1] if request.argv and output else ""
            tracer.end_request(len(cli_output.encode("utf-8")))
        self.references.append(reference_loop())
        around = (self.references[-2] + self.references[-1]) / 2
        self.attempted += 1
        self.sends[request.key].append((seconds, around))
        self.kinds[request.key] = request.type
        if error is not None:
            self.failed += 1
            self.reasons[f"{request.type} raised {type(error).__name__}: {error}"] += 1
            return seconds
        try:
            reason = traffic.check(request, output, self.seen)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output ({type(exc).__name__}: {exc})"
        if reason is not None:
            self.failed += 1
            self.wrong += 1
            self.reasons[f"{request.type}: {reason}"] += 1
        return seconds

    def latencies(self) -> dict[str, float]:
        """Each request's latency at the reference speed.

        A send's latency is scaled by REFERENCE_S over the reference loop's
        mean time just before and just after it; the request's latency is
        the median of that over its sends in the run.
        """
        return {
            key: statistics.median(s * REFERENCE_S / ref for s, ref in values)
            for key, values in self.sends.items()
        }


def tail_latency(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest percentile of
    TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_MIN_BEYOND or pct == TAIL_PERCENTILES[-1]:
            return ordered[max(rank, 1) - 1], pct, n - rank
    raise AssertionError("unreachable")


def setup_batch() -> float:
    """The shortest time, of SETUP_BATCH_SIZE fresh interpreters, to import
    treeprob, scaled to the reference speed like a send's latency.

    Timed inside each child, so interpreter start-up, which treeprob does
    not control, stays out of it.
    """
    before = reference_loop()
    env = dict(os.environ, PYTHONPATH=str(traffic.SRC))
    code = (
        "import time; start = time.perf_counter(); import treeprob;"
        " print(time.perf_counter() - start)"
    )
    batch = []
    for _ in range(SETUP_BATCH_SIZE):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True,
        )
        batch.append(float(done.stdout))
    return min(batch) * REFERENCE_S * 2 / (before + reference_loop())


def _another_cycle(cycles: int, elapsed: float, seconds: float) -> bool:
    """Whether a further cycle is expected to end within ``seconds``.

    Runs hold whole cycles only, so every run sends the same mix whatever
    the machine's speed; the first cycle always runs.
    """
    return cycles == 0 or elapsed * (cycles + 1) / cycles <= seconds


def run_untraced(plan, seconds: float) -> tuple[Tally, float, float, int]:
    """Repeat whole cycles for about ``seconds``.

    Before a cycle, a setup batch runs when fewer than its share of
    SETUP_BATCHES have run so far; the rest run after the last cycle.
    Returns (tally, setup_s, wall, cycles).
    """
    tally = Tally()
    batches = []
    start = time.perf_counter()
    cycles = 0
    while _another_cycle(cycles, time.perf_counter() - start, seconds):
        if len(batches) * seconds <= SETUP_BATCHES * (time.perf_counter() - start):
            batches.append(setup_batch())
        for request in plan.cycle:
            tally.run(request)
        cycles += 1
    while len(batches) < SETUP_BATCHES:
        batches.append(setup_batch())
    return tally, statistics.median(batches), time.perf_counter() - start, cycles


def run_traced(plan, seconds: float):
    """Pairs of one untraced and one traced cycle for about ``seconds``.

    Returns (tally, tracer, traced cycles, traced / untraced program time).
    """
    import tracing

    tally = Tally()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    untraced = traced = 0.0
    pairs = 0
    while _another_cycle(pairs, time.perf_counter() - start, seconds):
        untraced += sum(tally.run(request) for request in plan.cycle)
        tracer.install()
        try:
            traced += sum(tally.run(request, tracer) for request in plan.cycle)
        finally:
            tracer.uninstall()
        pairs += 1
    return tally, tracer, pairs, traced / untraced


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    Every request of the cycle counts once, with its latency at the
    reference speed (see Tally.latencies).
    """
    latency = tally.latencies()
    values = list(latency.values())
    tail, _, _ = tail_latency(values)
    result = {
        "throughput_rps": len(values) / sum(values),
        "latency_p50_ms": 1000 * statistics.median(values),
        "latency_tail_ms": 1000 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    by_kind = defaultdict(list)
    for key, seconds in latency.items():
        by_kind[tally.kinds[key]].append(seconds)
    for kind, samples in by_kind.items():
        result[f"{kind}_mean_ms"] = 1000 * statistics.mean(samples)
    return result


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Build the workload, run it and return (result line, summary lines)."""
    spec = load_spec()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        plan = traffic.build_plan(workload, seed, workdir, sizes or traffic.FULL)
        lines = [
            "stamp: " + json.dumps(
                {
                    "python": platform.python_version(),
                    "nproc": os.cpu_count(),
                    "git": git_revision(),
                    "treeprob": traffic.treeprob.__version__,
                }
            ),
            "traffic: " + json.dumps(plan.record),
        ]
        if workload == "docs-float":
            for defect, reproduced, detail in traffic.probe_known_defects(plan.docs, workdir):
                state = "reproduced" if reproduced else "NOT reproduced"
                lines.append(f"known defect, left out of the cycle: {defect}: {state}: {detail}")
        if trace:
            tally, tracer, cycles, overhead = run_traced(plan, seconds)
            values = {name: tracer.metric(name, cycles) for name in units if name != "trace.overhead_ratio"}
            values["trace.overhead_ratio"] = overhead
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{workload}-{seed}.jsonl"
            tracer.write_spans(span_file)
            lines.append(f"trace: {cycles} traced cycle(s), {len(tracer.spans)} spans in {span_file}")
        else:
            tally, setup_s, wall, cycles = run_untraced(plan, seconds)
            values = end_to_end(tally, setup_s)
            latency = tally.latencies()
            _, pct, beyond = tail_latency(list(latency.values()))
            lines.append(
                f"latency_tail_ms is p{pct}: {beyond} of {len(latency)} requests"
                f" beyond it; each request sent {cycles} time(s) in {wall:.1f} s"
            )
            lines.append(
                "reference loop: median"
                f" {1000 * statistics.median(tally.references):.4g} ms"
                f" over {len(tally.references)} runs; latencies are scaled to"
                f" {1000 * REFERENCE_S:g} ms"
            )
            by_kind = defaultdict(list)
            for key, samples in tally.sends.items():
                by_kind[tally.kinds[key]].extend(s for s, _ in samples)
            means = {
                kind: round(1000 * statistics.mean(samples), 3)
                for kind, samples in sorted(by_kind.items())
            }
            lines.append("unscaled mean over all sends, ms (not a metric): " + json.dumps(means))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload {workload} produced no value for {missing}")
    lines.append(
        f"error_rate: {tally.failed / tally.attempted:.6g}"
        f" ({tally.failed} failed of {tally.attempted})"
    )
    lines.extend(f"failure: {count} x {reason}" for reason, count in sorted(tally.reasons.items()))
    lines.extend(f"metric: {name} = {values[name]:.6g} {units[name]}" for name in units)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if traffic is None:
        print(f"error: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in traffic.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
