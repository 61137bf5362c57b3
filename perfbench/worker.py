"""One workload process: set up, then run whole op cycles for the timed window.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; writes one JSON result
file and exits.  With ``--setup-only`` it stops where the first timed op
would start, so ``run.py`` can time set-up more than once per run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Direct, Tracer

FRESH_PROCESS_REPEATS = 5  # fresh-process timings of the traced cli-session run
OVERHEAD_SHARE = 0.5  # overhead reruns' time budget, as a share of the window


def run_op(workload, i: int, tracer) -> dict:
    op = workload.spec(i)
    tracer.begin_op(i, op.sizes)
    start = time.perf_counter()
    try:
        outcome = workload.run(op, tracer)
        problems = None
    except Exception as exc:  # a failed op is counted, not fatal
        outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    tracer.end_op()
    counts = {}
    if problems is None:
        try:
            problems = workload.check(op, outcome)
            counts = workload.counts(op, outcome)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "op": i,
        "kind": op.kind,
        "sizes": op.sizes,
        "call": op.call,
        "repro": workload.reproducer(i),
        "latency_s": latency,
        "ok": not problems,
        "problems": problems[:5],
        "counts": counts,
    }


def run_window(workload, tracer, seconds: float) -> tuple[list[dict], float]:
    """Run ops until ``seconds`` have passed and a cycle has just completed."""
    records = []
    cycle = len(workload.cycle)
    start = time.perf_counter()
    while True:
        records.append(run_op(workload, len(records), tracer))
        if len(records) % cycle == 0 and time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def overhead_pct(workload, traced: list[dict], seconds: float) -> float:
    """Tracing overhead: the window's ops rerun traced and untraced, back to back.

    The order alternates from op to op, so neither side is the warm one.
    Op 0 is skipped unless the window held a single op.
    """
    times = {True: 0.0, False: 0.0}
    start = time.perf_counter()
    for k, record in enumerate(traced[1:] or traced):
        for with_spans in (k % 2 == 0, k % 2 != 0):
            tracer = Tracer() if with_spans else Direct()
            times[with_spans] += run_op(workload, record["op"], tracer)["latency_s"]
        if time.perf_counter() - start >= seconds * OVERHEAD_SHARE:
            break
    return 100.0 * (times[True] - times[False]) / times[False]


def fresh_process_times(env: dict) -> dict:
    """Median seconds for ``python -c pass`` and ``python -c "import logent"``."""
    out = {}
    for name, code in (("interpreter", "pass"), ("import", "import logent")):
        times = []
        for _ in range(FRESH_PROCESS_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    traced = bool(args.trace)
    workload = workloads.make(args.workload, args.seed, Path(args.workdir), in_process=traced)
    tracer = Tracer() if traced else Direct()
    result: dict = {"ready": time.monotonic()}
    try:
        if not args.setup_only:
            records, window = run_window(workload, tracer, args.seconds)
            result.update(ops=records, window_s=window, cycle=len(workload.cycle))
            if traced:
                result["spans"] = tracer.spans
                result["overhead_pct"] = overhead_pct(workload, records, args.seconds)
                if args.workload == workloads.CliSession.name:
                    result["fresh_process"] = fresh_process_times(workloads.cli_env(Path.cwd()))
            usage = resource.getrusage
            result["rss_self_kb"] = usage(resource.RUSAGE_SELF).ru_maxrss
            result["rss_children_kb"] = usage(resource.RUSAGE_CHILDREN).ru_maxrss
            result["numpy"] = sys.modules["numpy"].__version__
    finally:
        workload.close()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
