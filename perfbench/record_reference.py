"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

It writes ``perfbench/reference/``:

- ``cli_outputs.json``: the JSON each fixed ``cli-session`` argv prints.
- ``sampling.json``: sampled estimates (as float hex, so they must repeat
  bit for bit) for a table of seeded sampling cases.
- ``sweep.json``: the number of checks one exhaustive sweep makes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from logent import Distribution, average_difference_rate, pair_distinction_rate, typical_message_stats
from logent import verification

import workloads

OUT = workloads.REFERENCE_DIR
SAMPLING = {"trials": 1_000_000, "length": 1_000_000, "samples": 100, "message_length": 1000}
CASES = 8


def record_cli() -> dict:
    env = workloads.cli_env(Path.cwd())
    out = {}
    for argv in workloads.FIXED_ARGVS:
        done = subprocess.run(
            [sys.executable, "-m", "logent.cli", *argv], env=env, capture_output=True, text=True, check=True
        )
        out[" ".join(argv)] = json.loads(done.stdout)
    return out


def _report(report) -> dict:
    return {"estimate": report.estimate.hex(), "std_error": report.std_error.hex(), "trials": report.trials}


def record_sampling() -> dict:
    cases = []
    for c in range(CASES):
        r = workloads.rng("sampling-cases", c)
        k = 3 + c % 6
        # an interior zero in every other case; never a trailing zero
        raw = [0 if (c % 2 and u == k // 2) else r.randint(1, 12) for u in range(k)]
        text = ",".join(f"{x}/{sum(raw)}" if x else "0" for x in raw)
        seed = r.randrange(2**31)
        dist = Distribution(tuple(workloads.parse_numbers(text)))
        cases.append(
            {
                "dist": text,
                "seed": seed,
                "pairs": _report(pair_distinction_rate(dist, SAMPLING["trials"], seed)),
                "seqavg": _report(average_difference_rate(dist, SAMPLING["length"], seed)),
                "typical": _report(
                    typical_message_stats(dist, SAMPLING["message_length"], SAMPLING["samples"], seed)
                ),
            }
        )
    return {**SAMPLING, "cases": cases}


def record_sweep() -> dict:
    counts = {sum(s.checks for s in verification.run_all(5, seed)) for seed in (2024, 7)}
    if len(counts) != 1:
        raise SystemExit(f"sweep check count depends on the seed: {sorted(counts)}")
    return {"max_n": 5, "checks": counts.pop()}


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, data in (
        ("cli_outputs.json", record_cli()),
        ("sampling.json", record_sampling()),
        ("sweep.json", record_sweep()),
    ):
        (OUT / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {OUT / name}")


if __name__ == "__main__":
    main()
