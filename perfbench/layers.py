"""Per-layer metrics of a traced run, named after the ``logent`` modules.

Each layer metric ending in ``_s`` is the self time, summed over the timed
window, of the spans listed for it below.  The rest are derived: rates from
the counts the ops record, log-log scaling slopes, fresh-process timings, and
the tracing overhead.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from stats import loglog_slope, median
from tracing import sum_by_name

CLI_COMMANDS = ("entropy", "joint", "ops", "compare", "lattice", "sample", "stirling")

SPANS_OF = {
    **{f"cli.main.{c}_s": (f"cli.main.{c}",) for c in CLI_COMMANDS},
    "formats.parse_partition_s": ("formats.parse_partition",),
    "formats.parse_numbers_s": ("formats.parse_numbers",),
    "formats.format_partition_s": ("formats.format_partition",),
    "partitions.join_s": ("partitions.join",),
    "partitions.meet_s": ("partitions.meet",),
    "partitions.implication_s": ("partitions.implication",),
    "partitions.refines_s": ("partitions.refines",),
    "partitions.enumerate_s": ("partitions.enumerate_partitions",),
    "partitions.cover_edges_s": ("partitions.lattice_cover_edges",),
    "logical.entropy_partition_s": ("logical.logical_entropy_partition",),
    "logical.conditional_partition_s": ("logical.logical_conditional_partition",),
    "logical.mutual_partition_s": ("logical.logical_mutual_partition",),
    "logical.dist_s": (
        "logical.Distribution",
        "logical.logical_entropy_dist",
        "logical.logical_cross_entropy",
        "logical.logical_divergence",
        "logical.mixing_entropy",
    ),
    "logical.joint_s": (
        "logical.JointDistribution",
        "logical.JointDistribution.flatten",
        "logical.JointDistribution.product_of_marginals",
        "logical.joint_logical_entropy",
        "logical.logical_mutual_joint",
    ),
    "logical.conditional_joint_s": ("logical.logical_conditional_joint",),
    "shannon.partition_s": (
        "shannon.shannon_entropy_partition",
        "shannon.shannon_conditional_partition",
        "shannon.shannon_mutual_partition",
    ),
    "shannon.dist_s": (
        "shannon.shannon_entropy_dist",
        "shannon.shannon_cross_entropy",
        "shannon.kl_divergence",
        "shannon.dit_to_bit",
        "shannon.bit_to_dit",
    ),
    "shannon.joint_s": ("shannon.shannon_conditional_joint", "shannon.shannon_mutual_joint"),
    "shannon.stirling_s": ("shannon.stirling_entropy",),
    "sampling.pair_rate_s": ("sampling.pair_distinction_rate",),
    "sampling.seq_avg_s": ("sampling.average_difference_rate",),
    "sampling.typical_s": ("sampling.typical_message_stats",),
    "verification.lattice_s": ("verification.run_lattice_suites",),
    "verification.closure_s": ("verification.run_closure_operator_suite",),
    "verification.measure_s": ("verification.run_measure_suites",),
    "verification.independence_s": ("verification.run_independence_suite",),
    "verification.divergence_s": ("verification.run_divergence_suite",),
    "verification.joint_s": ("verification.run_joint_suites",),
    "verification.dit_bit_s": ("verification.run_dit_bit_suite",),
    "verification.stirling_s": ("verification.run_stirling_suite",),
}

LOGICAL_PARTITION_SPANS = (
    "logical.logical_entropy_partition",
    "logical.logical_conditional_partition",
    "logical.logical_mutual_partition",
)
SAMPLING_METRICS = ("sampling.pair_rate_s", "sampling.seq_avg_s", "sampling.typical_s")
VERIFICATION_METRICS = tuple(m for m in SPANS_OF if m.startswith("verification."))

def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def partition_exponents(spans) -> tuple[float, float]:
    """Log-log slopes of logical partition time per op against n, unweighted and weighted."""
    sizes = {s["id"]: s["sizes"] for s in spans if s["parent"] is None}
    per_op: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["name"] in LOGICAL_PARTITION_SPANS:
            per_op[s["parent"]] += s["end"] - s["start"]
    by_size: dict[tuple[bool, int], list[float]] = defaultdict(list)
    for op_id, seconds in per_op.items():
        by_size[(sizes[op_id]["weighted"], sizes[op_id]["n"])].append(seconds)
    slopes = []
    for weighted in (False, True):
        points = [(n, median(v)) for (w, n), v in sorted(by_size.items()) if w == weighted]
        slopes.append(loglog_slope(points) or 0.0)
    return slopes[0], slopes[1]


def layer_metrics(spans, ops, fresh_process: dict, overhead_pct: float) -> tuple[dict, dict]:
    """Every layer metric by name, and the call count behind each span-based one."""
    seconds, calls = sum_by_name(spans)
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    for metric, names in SPANS_OF.items():
        values[metric] = sum(seconds.get(n, 0.0) for n in names)
        counts[metric] = sum(calls.get(n, 0) for n in names)
    totals: dict[str, int] = defaultdict(int)
    for op in ops:
        for key, value in op["counts"].items():
            totals[key] += value
    checks = [op["counts"]["checks"] for op in ops if "checks" in op["counts"]]
    values["partitions.enumerate_per_s"] = _rate(totals["partitions"], values["partitions.enumerate_s"])
    values["sampling.draws_per_s"] = _rate(totals["draws"], sum(values[m] for m in SAMPLING_METRICS))
    values["verification.checks"] = checks[0] if checks else 0
    values["verification.checks_per_s"] = _rate(
        totals["checks"], sum(values[m] for m in VERIFICATION_METRICS)
    )
    exponent, weighted_exponent = partition_exponents(spans)
    values["logical.partition_exponent"] = exponent
    values["logical.partition_weighted_exponent"] = weighted_exponent
    values["cli.interpreter_s"] = fresh_process.get("interpreter", 0.0)
    values["cli.import_s"] = fresh_process.get("import", 0.0)
    values["trace.overhead_pct"] = overhead_pct
    return values, counts
