"""Benchmark-side reference values, computed without calling ``logent``.

Partition measures come from block counts and block masses: for partitions
p, s with blocks B, C and masses m (|B|/n unweighted),

    h(p)    = 1 - sum m_B^2
    h(p|s)  = sum_C m_C^2 - sum_{B,C} m_{B&C}^2
    m(p,s)  = 1 - sum m_B^2 - sum m_C^2 + sum m_{B&C}^2

These are the identities the library's dense dit-set kernels must agree
with; they are evaluated here in exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

TOL = 1e-12  # floats from the library against these references
RESIDUAL_LIMIT = 1e-9  # every "residuals" entry the CLI prints


# ----------------------------------------------------------------------
# partitions given as element -> label lists
# ----------------------------------------------------------------------


def blocks_of(labels) -> list[list[int]]:
    """Canonical blocks: ascending within a block, blocks by least element."""
    groups: dict = {}
    for u, a in enumerate(labels):
        groups.setdefault(a, []).append(u)
    return sorted(groups.values(), key=lambda b: b[0])


def partition_text(blocks) -> str:
    return "|".join(",".join(str(u) for u in b) for b in blocks)


def _masses(labels, weights) -> dict:
    """Block label -> mass: count / n unweighted, the exact weight sum otherwise."""
    if weights is None:
        n = len(labels)
        return {a: Fraction(c, n) for a, c in Counter(labels).items()}
    out: dict = Counter()
    for u, a in enumerate(labels):
        out[a] += Fraction(weights[u])
    return dict(out)


def _square_sum(labels, weights) -> Fraction:
    """sum of m_B^2 over the blocks; from integer counts when unweighted."""
    if weights is None:
        n = len(labels)
        return Fraction(sum(c * c for c in Counter(labels).values()), n * n)
    return sum(m * m for m in _masses(labels, weights).values())


def _bits(labels, weights) -> float:
    """Shannon entropy of the block masses, in bits."""
    return math.fsum(
        float(m) * -math.log2(m) for m in _masses(labels, weights).values() if m > 0
    )


def partition_pair_reference(p_labels, s_labels, weights=None) -> dict:
    """Every value a partition-scale op computes, for labels p and s."""
    pair_labels = list(zip(p_labels, s_labels))
    sq_p, sq_s, sq_j = (_square_sum(x, weights) for x in (p_labels, s_labels, pair_labels))
    p_bits, s_bits, joint_bits = (_bits(x, weights) for x in (p_labels, s_labels, pair_labels))

    p_blocks = blocks_of(p_labels)
    s_of_block = [{s_labels[u] for u in b} for b in p_blocks]
    implied = []
    for b, containers in zip(p_blocks, s_of_block):
        implied.extend([[u] for u in b] if len(containers) == 1 else [b])
    implied.sort(key=lambda b: b[0])
    return {
        "h_p": 1 - sq_p,
        "h_s": 1 - sq_s,
        "h_p_given_s": sq_s - sq_j,
        "m_ps": 1 - sq_p - sq_s + sq_j,
        "H_p": p_bits,
        "H_p_given_s": joint_bits - s_bits,
        "I_ps": p_bits + s_bits - joint_bits,
        "join": partition_text(blocks_of(pair_labels)),
        "meet": partition_text(_meet_blocks(p_labels, s_labels)),
        "implication": tuple(tuple(b) for b in implied),
        "refines": all(len(c) == 1 for c in s_of_block),
    }


def _meet_blocks(p_labels, s_labels) -> list[list[int]]:
    """Connected components of 'same block in p or in s'."""
    parent = list(range(len(p_labels)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (p_labels, s_labels):
        first: dict = {}
        for u, a in enumerate(labels):
            root = find(first.setdefault(a, u))
            parent[find(u)] = root
    return blocks_of([find(u) for u in range(len(p_labels))])


def dit_count(labels) -> int:
    """n^2 - sum |B|^2: ordered pairs split by the partition."""
    n = len(labels)
    return n * n - sum(c * c for c in Counter(labels).values())


# ----------------------------------------------------------------------
# distributions and joint tables (probabilities as Fractions or floats)
# ----------------------------------------------------------------------


def _sum(values):
    values = list(values)
    if values and all(isinstance(v, float) for v in values):
        return math.fsum(values)
    return sum(values)


def _entropy_bits(probs) -> float:
    return math.fsum(float(a) * -math.log2(float(a)) for a in probs if a > 0)


def _cross_bits(p, q) -> float:
    total = []
    for a, b in zip(p, q):
        if a > 0:
            if b <= 0:
                return math.inf
            total.append(float(a) * -math.log2(float(b)))
    return math.fsum(total)


def distribution_pair_reference(p, q) -> dict:
    h_p = 1 - _sum(a * a for a in p)
    h_q = 1 - _sum(b * b for b in q)
    half = Fraction(1, 2) if isinstance(h_p, Fraction) else 0.5
    mix = [(a + b) * half for a, b in zip(p, q)]
    return {
        "h_p": h_p,
        "h_q": h_q,
        "H_p": _entropy_bits(p),
        "H_q": _entropy_bits(q),
        "cross": 1 - _sum(a * b for a, b in zip(p, q)),
        "d": half * _sum((a - b) * (a - b) for a, b in zip(p, q)),
        "h_mix": 1 - _sum(a * a for a in mix),
        "mean_h": (h_p + h_q) * half,
        "H_pq": _cross_bits(p, q),
        "H_qp": _cross_bits(q, p),
        "D_pq": _cross_bits(p, q) - _entropy_bits(p),
        "D_qp": _cross_bits(q, p) - _entropy_bits(q),
    }


def joint_reference(rows) -> dict:
    px = [_sum(r) for r in rows]
    py = [_sum(r[j] for r in rows) for j in range(len(rows[0]))]
    cells = [c for r in rows for c in r]
    h_x = 1 - _sum(a * a for a in px)
    h_y = 1 - _sum(b * b for b in py)
    h_xy = 1 - _sum(c * c for c in cells)
    hb_x, hb_y, hb_xy = _entropy_bits(px), _entropy_bits(py), _entropy_bits(cells)
    return {
        "h_x": h_x,
        "h_y": h_y,
        "h_xy": h_xy,
        "h_x_given_y": h_xy - h_y,
        "h_y_given_x": h_xy - h_x,
        "m_xy": h_x + h_y - h_xy,
        "H_x": hb_x,
        "H_y": hb_y,
        "H_xy": hb_xy,
        "H_x_given_y": hb_xy - hb_y,
        "H_y_given_x": hb_xy - hb_x,
        "I_xy": hb_x + hb_y - hb_xy,
    }


def stirling_reference(sizes) -> dict:
    total = sum(sizes)
    s_exact = (math.lgamma(total + 1) - math.fsum(math.lgamma(s + 1) for s in sizes)) / total
    approx2 = math.fsum(-(s / total) * math.log(s / total) for s in sizes)
    correction = (
        math.log(2 * math.pi * total) - math.fsum(math.log(2 * math.pi * s) for s in sizes)
    ) / (2 * total)
    return {"s_exact": s_exact, "approx2": approx2, "approx3": approx2 + correction}


# ----------------------------------------------------------------------
# comparing values
# ----------------------------------------------------------------------


def mismatch(label: str, actual, expected, tol: float = TOL) -> str | None:
    """None when actual matches expected, else a one-line description.

    Fraction references demand an equal Fraction (the exact path); float
    references accept any number within ``tol``; everything else must be
    equal.
    """
    if isinstance(expected, Fraction):
        if isinstance(actual, Fraction) and actual == expected:
            return None
        return f"{label}: got {actual!r}, expected exactly {expected}"
    if isinstance(expected, float):
        if isinstance(actual, bool) or not isinstance(actual, (int, float, Fraction)):
            return f"{label}: got {actual!r}, expected a number near {expected!r}"
        a = float(actual)
        if math.isinf(expected) or math.isinf(a):
            return None if a == expected else f"{label}: got {a!r}, expected {expected!r}"
        if abs(a - expected) <= tol:
            return None
        return f"{label}: got {a!r}, expected {expected!r} (diff {abs(a - expected):.3e})"
    if actual == expected and type(actual) is type(expected):
        return None
    return f"{label}: got {actual!r}, expected {expected!r}"


def residual_problem(label: str, value, limit: float) -> str | None:
    if isinstance(value, (int, float, Fraction)) and abs(float(value)) <= limit:
        return None
    return f"{label}: residual {value!r} exceeds {limit:g}"


def json_mismatches(actual, expected, path: str = "") -> list[str]:
    """Differences between two CLI JSON payloads.

    Strings (rationals, partitions, names), integers and booleans compare
    exactly; floats within TOL.  Residual limits are :func:`residual_problems`.
    """
    problems: list[str] = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path or '/'}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        for key in expected:
            problems += json_mismatches(actual[key], expected[key], f"{path}/{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: list of {len(actual) if isinstance(actual, list) else actual!r}"
                    f" != {len(expected)} items"]
        for i, (a, e) in enumerate(zip(actual, expected)):
            problems += json_mismatches(a, e, f"{path}/{i}")
        return problems
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        problem = mismatch(path, float(actual), expected)
    else:
        problem = mismatch(path, actual, expected)
    return [problem] if problem else []


def residual_problems(payload: dict) -> list[str]:
    return [
        p
        for key, value in payload.get("residuals", {}).items()
        if (p := residual_problem(f"/residuals/{key}", value, RESIDUAL_LIMIT))
    ]
