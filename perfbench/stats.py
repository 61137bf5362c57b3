"""Summary statistics for the benchmark: percentiles and scaling fits."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, so that one slow op cannot decide it alone.
MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def weighted_nearest_rank(samples, q: float) -> float:
    """The smallest value whose cumulative weight reaches q of the total.

    ``samples`` are (value, weight) pairs; with equal weights this is the
    nearest-rank rule, the ceil(q*n)-th smallest value.
    """
    ordered = sorted(samples)
    total = math.fsum(w for _, w in ordered)
    reached = 0.0
    for value, weight in ordered:
        reached += weight
        if reached >= q * total * (1 - 1e-12):
            return value
    return ordered[-1][0]


def mix_summary(strata: dict) -> dict:
    """Throughput and latency quantiles of a fixed op mix, from per-slot samples.

    ``strata`` maps each slot of the op cycle to the latencies (s) timed
    there.  Every slot weighs the same, however many of its samples were
    kept, so dropping samples does not change the mix being measured.
    """
    weighted = [(x, 1.0 / len(xs)) for xs in strata.values() for x in xs]
    values = [x for x, _ in weighted]
    p90 = weighted_nearest_rank(weighted, 0.9)
    return {
        "samples": len(values),
        "throughput": len(strata) / math.fsum(statistics.fmean(xs) for xs in strata.values()),
        "p50": weighted_nearest_rank(weighted, 0.5),
        "p90": p90 if sum(x > p90 for x in values) >= MIN_BEYOND else None,
        "beyond_p90": sum(x > p90 for x in values),
    }


def loglog_slope(points) -> float | None:
    """Least-squares slope of ln(y) against ln(x) over (x, y) points.

    None when fewer than two distinct x values carry a positive y.
    """
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = math.fsum((x - mx) ** 2 for x, _ in pts)
    sxy = math.fsum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
