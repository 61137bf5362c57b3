"""Measure the baseline: two batches of ten seeds per workload untraced, plus one traced run each.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the repository root; runs go one at a time, a whole batch over
every workload before the next.  For every end-to-end metric and batch the
output keeps each run's value, the median, and the quartile spread as a share
of the median (``statistics.quantiles(values, n=4)``).  It also keeps how far
the second batch's median is worse than the first's, as a share of the
first, next to the metric's bound in ``BENCHMARK.json``.  For the traced run
it keeps every per-layer value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BATCHES = (range(401, 411), range(411, 421))  # the seeds of each batch
TRACED_SEED = 401


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = lines[0]
    return result


def summarize(runs: list[dict], name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    for seeds in BATCHES:
        for workload in names:
            runs[workload].append([run_once(workload, seed, seconds, 0) for seed in seeds])

    out = {"run_seconds": seconds, "batches": [[s.start, s.stop - 1] for s in BATCHES], "workloads": {}}
    for workload in names:
        batches = runs[workload]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            first, second = (summarize(batch, name) for batch in batches)
            worse = sign * (second["median"] - first["median"]) / first["median"]
            end_to_end[name] = {"bound": metric["bound"], "second_worse_by": worse, "batches": [first, second]}
            print(
                f"{workload:17s} {name:17s} median {first['median']:.6g} / {second['median']:.6g}  "
                f"spread {first['spread']:.4f} / {second['spread']:.4f}  "
                f"second worse by {worse:+.4f} (bound {metric['bound']})",
                flush=True,
            )
        traced = run_once(workload, TRACED_SEED, seconds, 1)
        out["workloads"][workload] = {
            "stamp": batches[0][0]["stamp"],
            "attempted": [r["attempted"] for batch in batches for r in batch],
            "failed": [r["failed"] for batch in batches for r in batch],
            "end_to_end": end_to_end,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
