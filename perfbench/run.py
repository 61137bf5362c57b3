"""The logent benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads (see ``workloads.py``):
``cli-session``, ``partition-scale``, ``exhaustive-sweep``, ``distributions``.

Every op's output is checked; a failed check counts in ``failed`` and does
not stop the run.  The load is closed-loop with one caller in one workload
process.  Ops follow a fixed cycle of op kinds and the timed window ends on
a whole cycle.  With ``--trace 0`` the workload process is also started
several times only to be set up, and the last line reports the end-to-end
metrics:

- ``setup_s``: spawn of the workload process to its first timed op, the
  median of the run's spawns (half started before the timed process, half
  after it);
- ``throughput_ops_s``: ops per second of one op cycle at best times, i.e.
  cycle length over the summed best latency of the cycle slots;
- ``latency_p50_ms``: median of the slots' best latencies, every cycle slot
  weighing the same;
- ``peak_rss_mb``: peak resident memory of the workload process (for
  ``cli-session``, of the largest ``logent`` child process).

A slot's best latency is the fastest of its timings in the window.  Every
slot runs ops of one kind and size many times per run, and on a host shared
with other tenants interference only ever adds time, so the fastest reading
is the steadiest measure of the program's own cost.  It is still a measured
time: a host that stays slow for the whole run reads slow.  The lines before the
last also give the figures over every timing: ops per second of the whole
window, p50, ``latency_p90_ms`` (only when at least ten samples lie beyond
it) and ``error_rate``.  With ``--trace 1`` a traced run reports the
per-layer metrics of ``layers.py`` instead.  The full record, with every op,
its sizes and a reproducer, and the spans of a traced run, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from layers import layer_metrics
from stats import median, mix_summary

HERE = Path(__file__).resolve().parent
# Workload and metric names and units; the runner does not import logent, and
# workloads.py and layers.py hold the workloads and the layer arithmetic.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_SPAWNS = 8  # set-up-only spawns per untraced run, half before the timed one, half after
RUN_LIMIT_S = 170  # a run must end within 180 s, with time to report


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_stamp(root: Path) -> dict:
    """Commit (read from .git when present) and a digest of the library source."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "logent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": git_commit(root / ".git"), "src_sha256": digest.hexdigest()[:16]}


def git_commit(git: Path) -> str:
    """The commit HEAD names, from the loose ref or from packed-refs; "unknown" if neither holds it."""
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return "unknown"


def spawn(args, root: Path, env: dict, setup_only: bool, deadline: float) -> dict:
    """Start one workload process; return its result with ``setup_s`` filled in."""
    out = root / ".perfbench_out" / f"worker-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", f".perfbench_work/{os.getpid()}", "--out", str(out),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # A session of its own, so a timeout also ends the CLI processes it started.
    worker = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )  # fmt: skip
    try:
        _, stderr = worker.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise
    if worker.returncode != 0:
        raise RuntimeError(f"workload process exited {worker.returncode}:\n{stderr[-4000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    result["setup_s"] = result["ready"] - spawned
    return result


def end_to_end(result: dict, setups: list[float], workload: str) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the lines that describe them."""
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    timings: dict[int, list[float]] = {}
    for op in ops:
        timings.setdefault(op["op"] % result["cycle"], []).append(op["latency_s"])
    best = mix_summary({slot: [min(xs)] for slot, xs in timings.items()})
    every = mix_summary(timings)
    rss_kb = result["rss_children_kb" if workload == "cli-session" else "rss_self_kb"]
    metrics = {
        "setup_s": median(setups),
        "throughput_ops_s": best["throughput"],
        "latency_p50_ms": best["p50"] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    lines = [
        f"setup_s          {metrics['setup_s']:.6f} s   (median of {len(setups)} spawns; "
        f"fastest {min(setups):.6f} s)",
        f"throughput_ops_s {metrics['throughput_ops_s']:.6f} 1/s (at best times; whole window: "
        f"{len(ops)} ops in {result['window_s']:.3f} s, {len(ops) / result['window_s']:.6f} 1/s)",
        f"latency_p50_ms   {metrics['latency_p50_ms']:.6f} ms  (best timing of each of {best['samples']} "
        f"cycle slots; all {every['samples']} timings: {every['p50'] * 1e3:.6f} ms)",
        (
            f"latency_p90_ms   {every['p90'] * 1e3:.6f} ms  (all {every['samples']} timings)"
            if every["p90"] is not None
            else f"latency_p90_ms   not reported: {every['beyond_p90']} of {every['samples']} timings "
            "lie beyond p90, fewer than 10"
        ),
        f"peak_rss_mb      {metrics['peak_rss_mb']:.3f} MB",
        f"error_rate       {failed / len(ops):.6f}     ({failed} of {len(ops)} ops failed)",
    ]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "logent" / "__init__.py").is_file():
        return fail(f"no logent package under {root / 'src'}; run from the repository root")
    # "Build": byte-compile once, so no timed process pays for compilation.
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        return fail("src/ does not compile")
    compileall.compile_dir(str(HERE), quiet=1)
    (root / ".perfbench_out").mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

    try:
        spare = 0 if args.trace else SETUP_SPAWNS // 2
        setups = [spawn(args, root, env, True, deadline)["setup_s"] for _ in range(spare)]
        result = spawn(args, root, env, False, deadline)
        setups.append(result["setup_s"])
        setups += [spawn(args, root, env, True, deadline)["setup_s"] for _ in range(spare)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(root / ".perfbench_work" / str(os.getpid()), ignore_errors=True)

    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        **source_stamp(root),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
    }
    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    if args.trace:
        values, calls = layer_metrics(result["spans"], ops, result.get("fresh_process", {}), result["overhead_pct"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCHMARK["per_layer"]}
        for name, m in metrics.items():
            extra = f"  ({calls[name]} calls)" if name in calls else ""
            print(f"{name:36s} {m['value']:.6g} {m['unit']}{extra}")
    else:
        values, lines = end_to_end(result, setups, args.workload)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        print("\n".join(lines))
    for op in ops:
        if not op["ok"]:
            print(f"FAILED op {op['op']} ({op['call']}): {'; '.join(op['problems'])}\n  replay: {op['repro']}")

    record = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"stamp": stamp, "setups": setups, "metrics": metrics, **result}))
    print(f"record: {record.relative_to(root)}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
