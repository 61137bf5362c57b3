"""The four workloads: seeded inputs, one op at a time, and a check of every output.

A workload is built from the workload seed alone (``make(name, seed, workdir)``);
that is its set-up: inputs and their reference values are generated before the
first op.  ``spec(i)`` describes op ``i`` (sizes and a reproducer), ``run``
executes it through a tracer, and ``check`` lists what disagrees with the
references.  Ops follow a fixed cycle of op kinds, and a run always ends on a
whole cycle, so every run measures the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from logent import (
    Distribution,
    JointDistribution,
    average_difference_rate,
    bit_to_dit,
    dit_to_bit,
    enumerate_partitions,
    implication,
    join,
    joint_logical_entropy,
    kl_divergence,
    lattice_cover_edges,
    logical_conditional_joint,
    logical_conditional_partition,
    logical_cross_entropy,
    logical_divergence,
    logical_entropy_dist,
    logical_entropy_partition,
    logical_mutual_joint,
    logical_mutual_partition,
    meet,
    mixing_entropy,
    pair_distinction_rate,
    refines,
    shannon_conditional_joint,
    shannon_conditional_partition,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_entropy_partition,
    shannon_mutual_joint,
    shannon_mutual_partition,
    stirling_entropy,
    typical_message_stats,
)
from logent import cli, verification
from logent.formats import format_partition, parse_numbers, parse_partition

import refs
from tracing import Direct

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def rng(*parts) -> random.Random:
    """A generator seeded from a string, so every input has its own stream."""
    return random.Random(":".join(str(p) for p in parts))


def random_labels(n: int, blocks: int, r: random.Random) -> list[int]:
    """Element -> block label with exactly ``blocks`` nonempty blocks."""
    order = list(range(n))
    r.shuffle(order)
    labels = [0] * n
    for rank, u in enumerate(order):
        labels[u] = rank if rank < blocks else r.randrange(blocks)
    return labels


def replay(name: str, seed: int, index: int) -> list[str]:
    """Rebuild workload ``name`` for ``seed`` and rerun op ``index``; return its problems."""
    workload = make(name, seed, Path(".perfbench_work") / f"replay-{os.getpid()}")
    op = workload.spec(index)
    try:
        return workload.check(op, workload.run(op, Direct()))
    finally:
        workload.close()


@dataclass
class Op:
    """One op: its kind, sizes and call for the record, inputs, and reference values."""

    kind: str
    sizes: dict
    call: str
    data: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)


class Workload:
    name = ""
    cycle: tuple = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pool: list[Op] = []

    def spec(self, i: int) -> Op:
        return self.pool[i % len(self.pool)]

    def reproducer(self, i: int) -> str:
        return (
            'PYTHONPATH=src:perfbench python3 -c "import workloads; '
            f"print(workloads.replay({self.name!r}, {self.seed}, {i}))\""
        )

    def counts(self, op: Op, outcome) -> dict:
        return {}

    def close(self) -> None:
        pass


def _problems(pairs) -> list[str]:
    return [p for label, actual, expected in pairs if (p := refs.mismatch(label, actual, expected))]


# ----------------------------------------------------------------------
# partition-scale
# ----------------------------------------------------------------------


class PartitionScale(Workload):
    """A full report on one seeded pair of random partitions per op."""

    name = "partition-scale"
    # (weighted, n, blocks of p, blocks of s): block counts span 2 to n/8, and
    # the n=2048 pair has many blocks on both sides, so |p|*|s| is large.  n=1024
    # appears twice so that the median op sits inside one size class, well
    # apart from its neighbours, instead of in the gap between two.
    cycle = (
        (True, 32, 4, 2),
        (False, 512, 2, 64),
        (True, 64, 8, 2),
        (False, 1024, 128, 4),
        (True, 128, 16, 4),
        (False, 1024, 16, 32),
        (False, 2048, 256, 64),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.pool = [self._make(j, *slot) for j, slot in enumerate(self.cycle)]

    def _make(self, j: int, weighted: bool, n: int, kp: int, ks: int) -> Op:
        r = rng(self.name, self.seed, j)
        p_labels, s_labels = random_labels(n, kp, r), random_labels(n, ks, r)
        weights = None
        if weighted:
            raw = [0.05 + r.random() for _ in range(n)]
            total = math.fsum(raw)
            weights = [x / total for x in raw]
        ref = refs.partition_pair_reference(p_labels, s_labels, weights)
        ref = {k: float(v) if isinstance(v, Fraction) else v for k, v in ref.items()}
        data = {
            "p": refs.partition_text(refs.blocks_of(p_labels)),
            "s": refs.partition_text(refs.blocks_of(s_labels)),
            "w": None if weights is None else ",".join(repr(x) for x in weights),
        }
        sizes = {"n": n, "weighted": weighted, "blocks": [kp, ks], "cells": kp * ks}
        call = f"partition report(n={n}, weighted={weighted}, blocks={kp}x{ks})"
        return Op("weighted" if weighted else "unweighted", sizes, call, data, ref)

    def run(self, op: Op, t) -> dict:
        d = op.data
        p = t.call("formats.parse_partition", parse_partition, d["p"])
        s = t.call("formats.parse_partition", parse_partition, d["s"])
        w = None
        if d["w"] is not None:
            values = t.call("formats.parse_numbers", parse_numbers, d["w"])
            w = t.call("logical.Distribution", Distribution, tuple(values))
        joined = t.call("partitions.join", join, p, s)
        met = t.call("partitions.meet", meet, p, s)
        return {
            "implication": t.call("partitions.implication", implication, s, p).blocks,
            "refines": t.call("partitions.refines", refines, s, p),
            "h_p": t.call("logical.logical_entropy_partition", logical_entropy_partition, p, w),
            "h_s": t.call("logical.logical_entropy_partition", logical_entropy_partition, s, w),
            "h_p_given_s": t.call(
                "logical.logical_conditional_partition", logical_conditional_partition, p, s, w
            ),
            "m_ps": t.call("logical.logical_mutual_partition", logical_mutual_partition, p, s, w),
            "H_p": t.call("shannon.shannon_entropy_partition", shannon_entropy_partition, p, w),
            "H_p_given_s": t.call(
                "shannon.shannon_conditional_partition", shannon_conditional_partition, p, s, w
            ),
            "I_ps": t.call("shannon.shannon_mutual_partition", shannon_mutual_partition, p, s, w),
            "join": t.call("formats.format_partition", format_partition, joined),
            "meet": t.call("formats.format_partition", format_partition, met),
        }

    def check(self, op: Op, out: dict) -> list[str]:
        return _problems((key, out[key], op.ref[key]) for key in out)


# ----------------------------------------------------------------------
# exhaustive-sweep
# ----------------------------------------------------------------------


def _consume(generate, n: int) -> int:
    return sum(1 for _ in generate(n))


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def cover_edge_count(n: int) -> int:
    """Cover pairs of the partition lattice: splits of one block into two, summed."""
    total = 0

    def walk(sizes: list[int], remaining: int) -> None:
        nonlocal total
        if remaining == 0:
            total += sum(2 ** (b - 1) - 1 for b in sizes)
            return
        # the next element joins an existing block or opens a new one
        for i in range(len(sizes)):
            sizes[i] += 1
            walk(sizes, remaining - 1)
            sizes[i] -= 1
        sizes.append(1)
        walk(sizes, remaining - 1)
        sizes.pop()

    walk([], n)
    return total


class ExhaustiveSweep(Workload):
    """One op is a census plus every identity suite that ``run_all(5)`` runs."""

    name = "exhaustive-sweep"
    cycle = ("sweep",)
    enumerate_n, cover_n, max_n = 9, 7, 5

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        recorded = json.loads((REFERENCE_DIR / "sweep.json").read_text())
        self.ref = {
            "partitions": bell_number(self.enumerate_n),
            "cover_edges": cover_edge_count(self.cover_n),
            "checks": recorded["checks"],
        }

    def spec(self, i: int) -> Op:
        suite_seed = rng(self.name, self.seed, i).randrange(2**31)
        sizes = {"enumerate_n": self.enumerate_n, "cover_n": self.cover_n, "max_n": self.max_n}
        call = (
            f"enumerate_partitions({self.enumerate_n}); lattice_cover_edges({self.cover_n}); "
            f"run_all({self.max_n}, seed={suite_seed}) suite by suite"
        )
        return Op("sweep", sizes, call, {"seed": suite_seed}, self.ref)

    def run(self, op: Op, t) -> dict:
        seed, n, v = op.data["seed"], self.max_n, verification
        suites = [
            ("verification.run_lattice_suites", v.run_lattice_suites, (n,)),
            ("verification.run_closure_operator_suite", v.run_closure_operator_suite, (min(n, 4), seed)),
            ("verification.run_measure_suites", v.run_measure_suites, (n,)),
            ("verification.run_independence_suite", v.run_independence_suite, ()),
            ("verification.run_divergence_suite", v.run_divergence_suite, (seed,)),
            ("verification.run_joint_suites", v.run_joint_suites, (seed,)),
            ("verification.run_dit_bit_suite", v.run_dit_bit_suite, (seed,)),
            ("verification.run_stirling_suite", v.run_stirling_suite, ()),
        ]
        out = {
            "partitions": t.call(
                "partitions.enumerate_partitions", _consume, enumerate_partitions, self.enumerate_n
            ),
            "cover_edges": len(
                t.call("partitions.lattice_cover_edges", lattice_cover_edges, self.cover_n)
            ),
            "results": [],
        }
        for name, fn, args in suites:
            out["results"].extend(t.call(name, fn, *args))
        out["checks"] = sum(s.checks for s in out["results"])
        return out

    def check(self, op: Op, out: dict) -> list[str]:
        problems = _problems((k, out[k], op.ref[k]) for k in ("partitions", "cover_edges", "checks"))
        problems += [
            f"suite {s.name} failed {s.failures} of {s.checks} checks" for s in out["results"] if not s.passed
        ]
        return problems

    def counts(self, op: Op, out: dict) -> dict:
        return {"checks": out["checks"], "partitions": out["partitions"]}


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------


class Distributions(Workload):
    """Distribution, joint, sampling and Stirling reports; no partition code runs."""

    name = "distributions"
    # The cheap report kinds run twice per cycle so that the median op sits
    # inside one kind instead of in the gap between the cheap and slow kinds.
    cycle = (
        "dist8", "dist512", "joint4", "pairs", "dist8", "joint32",
        "dist512", "seqavg", "joint4", "typical", "stirling",
    )  # fmt: skip
    stirling_sizes = [250_000] * 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        recorded = json.loads((REFERENCE_DIR / "sampling.json").read_text())
        self.sampling = recorded
        offset = rng(self.name, self.seed).randrange(len(recorded["cases"]))
        stirling_ref = refs.stirling_reference(self.stirling_sizes)
        # One cycle per recorded sampling case, so every seed samples all of
        # them (their costs differ with the number of outcomes); the seed sets the order.
        for c in range(len(recorded["cases"])):
            case = recorded["cases"][(offset + c) % len(recorded["cases"])]
            case_dist = tuple(parse_numbers(case["dist"]))
            for j, kind in enumerate(self.cycle):
                r = rng(self.name, self.seed, c, j)
                if kind in ("dist8", "dist512"):
                    op = self._dist_pair(kind, r)
                elif kind in ("joint4", "joint32"):
                    op = self._joint(kind, r)
                elif kind == "stirling":
                    op = Op(kind, {"blocks": 4, "N": sum(self.stirling_sizes)},
                            f"stirling_entropy({self.stirling_sizes})", {}, stirling_ref)
                else:
                    op = self._sampling(kind, case, case_dist)
                self.pool.append(op)

    def _dist_pair(self, kind: str, r: random.Random) -> Op:
        n, exact = (8, True) if kind == "dist8" else (512, False)
        zeros = {n - 1} | {r.randrange(n - 1) for _ in range(max(1, n // 20))}

        def draw():
            if exact:
                raw = [0 if u in zeros else r.randint(1, 20) for u in range(n)]
                return tuple(Fraction(x, sum(raw)) for x in raw)
            raw = [0.0 if u in zeros else r.random() + 0.01 for u in range(n)]
            total = math.fsum(raw)
            return tuple(x / total for x in raw)

        p, q = draw(), draw()
        path = "exact" if exact else "float"
        return Op(kind, {"n": n, "zeros": len(zeros), "path": path},
                  f"distribution report(n={n}, {path})", {"p": p, "q": q},
                  refs.distribution_pair_reference(p, q))

    def _joint(self, kind: str, r: random.Random) -> Op:
        n, exact = (4, True) if kind == "joint4" else (32, False)
        if exact:
            counts = [[0 if r.random() < 0.15 else r.randint(1, 9) for _ in range(n)] for _ in range(n)]
            counts[0][0] += 1
            total = sum(map(sum, counts))
            rows = tuple(tuple(Fraction(x, total) for x in row) for row in counts)
        else:
            raw = [[0.0 if r.random() < 0.05 else r.random() + 0.01 for _ in range(n)] for _ in range(n)]
            total = math.fsum(x for row in raw for x in row)
            rows = tuple(tuple(x / total for x in row) for row in raw)
        path = "exact" if exact else "float"
        return Op(kind, {"nx": n, "ny": n, "cells": n * n, "path": path},
                  f"joint report({n}x{n}, {path})", {"rows": rows}, refs.joint_reference(rows))

    def _sampling(self, kind: str, case: dict, dist: tuple) -> Op:
        s = self.sampling
        trials = {"pairs": s["trials"], "seqavg": s["length"], "typical": s["samples"]}[kind]
        draws = {"pairs": 2 * s["trials"], "seqavg": s["length"],
                 "typical": s["samples"] * s["message_length"]}[kind]
        sizes = {"outcomes": len(dist), "trials": trials, "draws": draws, "seed": case["seed"]}
        call = {
            "pairs": f"pair_distinction_rate(Distribution(({case['dist']})), {s['trials']}, {case['seed']})",
            "seqavg": f"average_difference_rate(Distribution(({case['dist']})), {s['length']}, {case['seed']})",
            "typical": (f"typical_message_stats(Distribution(({case['dist']})), {s['message_length']}, "
                        f"{s['samples']}, {case['seed']})"),
        }[kind]
        return Op(kind, sizes, call, {"dist": dist, "seed": case["seed"]}, case[kind])

    def run(self, op: Op, t):
        kind, d = op.kind, op.data
        if kind in ("dist8", "dist512"):
            return self._run_dist_pair(d, t)
        if kind in ("joint4", "joint32"):
            return self._run_joint(d, t)
        if kind == "stirling":
            report = t.call("shannon.stirling_entropy", stirling_entropy, self.stirling_sizes)
            return {"s_exact": report.s_exact, "approx2": report.approx2, "approx3": report.approx3}
        dist = t.call("logical.Distribution", Distribution, d["dist"])
        s = self.sampling
        if kind == "pairs":
            report = t.call("sampling.pair_distinction_rate", pair_distinction_rate, dist, s["trials"], d["seed"])
        elif kind == "seqavg":
            report = t.call("sampling.average_difference_rate", average_difference_rate, dist, s["length"], d["seed"])
        else:
            report = t.call("sampling.typical_message_stats", typical_message_stats, dist,
                            s["message_length"], s["samples"], d["seed"])
        return {"estimate": report.estimate.hex(), "std_error": report.std_error.hex(), "trials": report.trials}

    def _run_dist_pair(self, d: dict, t) -> dict:
        p = t.call("logical.Distribution", Distribution, d["p"])
        q = t.call("logical.Distribution", Distribution, d["q"])
        h_p = t.call("logical.logical_entropy_dist", logical_entropy_dist, p)
        H_p = t.call("shannon.shannon_entropy_dist", shannon_entropy_dist, p)
        mix = t.call("logical.mixing_entropy", mixing_entropy, p, q)
        bits = t.call("shannon.dit_to_bit", dit_to_bit, float(h_p))
        return {
            "h_p": h_p,
            "h_q": t.call("logical.logical_entropy_dist", logical_entropy_dist, q),
            "H_p": H_p,
            "H_q": t.call("shannon.shannon_entropy_dist", shannon_entropy_dist, q),
            "cross": t.call("logical.logical_cross_entropy", logical_cross_entropy, p, q),
            "d": t.call("logical.logical_divergence", logical_divergence, p, q),
            "h_mix": mix.h_mix,
            "mean_h": mix.mean_h,
            "H_pq": t.call("shannon.shannon_cross_entropy", shannon_cross_entropy, p, q),
            "H_qp": t.call("shannon.shannon_cross_entropy", shannon_cross_entropy, q, p),
            "D_pq": t.call("shannon.kl_divergence", kl_divergence, p, q),
            "D_qp": t.call("shannon.kl_divergence", kl_divergence, q, p),
            "dit_bit_roundtrip": t.call("shannon.bit_to_dit", bit_to_dit, bits) - float(h_p),
            "mix_cross": mix.cross,
        }

    def _run_joint(self, d: dict, t) -> dict:
        joint = t.call("logical.JointDistribution", JointDistribution, d["rows"])
        px = t.call("logical.Distribution", Distribution, joint.marginal_x)
        py = t.call("logical.Distribution", Distribution, joint.marginal_y)
        flat = t.call("logical.JointDistribution.flatten", joint.flatten)
        product = t.call("logical.JointDistribution.product_of_marginals", joint.product_of_marginals)
        out = {
            "h_x": t.call("logical.logical_entropy_dist", logical_entropy_dist, px),
            "h_y": t.call("logical.logical_entropy_dist", logical_entropy_dist, py),
            "h_xy": t.call("logical.joint_logical_entropy", joint_logical_entropy, joint),
            "h_x_given_y": t.call("logical.logical_conditional_joint", logical_conditional_joint, joint, "y"),
            "h_y_given_x": t.call("logical.logical_conditional_joint", logical_conditional_joint, joint, "x"),
            "m_xy": t.call("logical.logical_mutual_joint", logical_mutual_joint, joint),
            "H_x": t.call("shannon.shannon_entropy_dist", shannon_entropy_dist, px),
            "H_y": t.call("shannon.shannon_entropy_dist", shannon_entropy_dist, py),
            "H_xy": t.call("shannon.shannon_entropy_dist", shannon_entropy_dist, flat),
            "H_x_given_y": t.call("shannon.shannon_conditional_joint", shannon_conditional_joint, joint, "y"),
            "H_y_given_x": t.call("shannon.shannon_conditional_joint", shannon_conditional_joint, joint, "x"),
            "I_xy": t.call("shannon.shannon_mutual_joint", shannon_mutual_joint, joint),
        }
        out["kl_to_product"] = t.call(
            "shannon.kl_divergence", kl_divergence, flat,
            t.call("logical.JointDistribution.flatten", product.flatten),
        )
        return out

    def check(self, op: Op, out: dict) -> list[str]:
        kind, ref = op.kind, op.ref
        if kind in ("pairs", "seqavg", "typical"):
            return _problems((k, out[k], ref[k]) for k in ("estimate", "std_error", "trials"))
        if kind == "stirling":
            return _problems((k, out[k], ref[k]) for k in ref)
        problems = _problems((k, out[k], ref[k]) for k in ref)
        if kind in ("dist8", "dist512"):
            residuals = {
                "jensen_difference": out["d"] - (out["cross"] - out["mean_h"]),
                "mixture_identity": out["h_mix"] - out["mix_cross"] / 2 - out["mean_h"] / 2,
                "mixing_cross_matches": out["mix_cross"] - out["cross"],
                "dit_bit_roundtrip": out["dit_bit_roundtrip"],
            }
        else:
            residuals = {
                "h_conditional_venn": out["h_x_given_y"] - (out["h_xy"] - out["h_y"]),
                "h_mutual_venn": out["m_xy"] - (out["h_x"] + out["h_y"] - out["h_xy"]),
                "H_conditional_venn": out["H_x_given_y"] - (out["H_xy"] - out["H_y"]),
                "I_venn": out["I_xy"] - (out["H_x"] + out["H_y"] - out["H_xy"]),
                "I_vs_kl_to_product": out["I_xy"] - out["kl_to_product"],
            }
        exact = op.sizes["path"] == "exact"
        for label, value in residuals.items():
            if exact and isinstance(value, Fraction):
                if value != 0:
                    problems.append(f"{label}: exact residual {value} is not 0")
            elif p := refs.residual_problem(label, value, refs.TOL):
                problems.append(p)
        return problems

    def counts(self, op: Op, out) -> dict:
        return {"draws": op.sizes["draws"]} if "draws" in op.sizes else {}


# ----------------------------------------------------------------------
# cli-session
# ----------------------------------------------------------------------

# The README's examples, without ``verify``, plus ``lattice 6``.
FIXED_ARGVS = (
    ("entropy", "0,1|2"),
    ("entropy", "1/2,1/3,1/6"),
    ("entropy", "0,1|2", "--weights", "1/2,1/4,1/4"),
    ("joint", "1/4,1/4;1/2,0"),
    ("ops", "join", "0,1|2,3", "0,2|1,3"),
    ("ops", "meet", "0,1|2,3", "0,2|1,3"),
    ("ops", "implies", "0,1|2,3", "0,1,2|3"),
    ("compare", "1/2,1/2", "1/4,3/4"),
    ("lattice", "5"),
    ("lattice", "4", "--dot"),
    ("sample", "pairs", "1/2,1/3,1/6", "--trials", "1000000", "--seed", "42"),
    ("sample", "typical", "1/3,1/3,1/3", "--length", "1000", "--samples", "10", "--seed", "42"),
    ("stirling", "250,250,250,250"),
    ("lattice", "6"),
)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliSession(Workload):
    """One op is one fresh ``python -m logent.cli`` process (in-process ``cli.main`` when traced)."""

    name = "cli-session"
    big_n, big_blocks = 2048, 64
    weighted_n, weighted_blocks = 64, 8
    joint_n = 32

    def __init__(self, seed: int, workdir: Path, in_process: bool = False) -> None:
        super().__init__(seed, workdir)
        self.in_process = in_process
        self.root = Path.cwd()
        self.env = cli_env(self.root)
        recorded = json.loads((REFERENCE_DIR / "cli_outputs.json").read_text())
        workdir.mkdir(parents=True, exist_ok=True)
        for argv in FIXED_ARGVS:
            self.pool.append(Op(argv[0], {"argv_chars": sum(map(len, argv))}, " ".join(argv),
                                {"argv": list(argv)}, {"payload": recorded[" ".join(argv)]}))
        self.pool += [self._big_partition(), self._weighted_partition(), self._joint_matrix()]
        self.cycle = tuple(op.kind for op in self.pool)

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def _big_partition(self) -> Op:
        r = rng(self.name, self.seed, "big")
        labels = random_labels(self.big_n, self.big_blocks, r)
        text = refs.partition_text(refs.blocks_of(labels))
        path = self._write("partition_2048.txt", text)
        ref = refs.partition_pair_reference(labels, labels)
        h, bits = float(ref["h_p"]), ref["H_p"]
        outputs = {
            "h": h, "H": bits, "identification_probability": 1 - h,
            "bits_from_h": -math.log1p(-h) / math.log(2), "dits_from_H": -math.expm1(-bits * math.log(2)),
            "dits": refs.dit_count(labels),
        }
        argv = ["entropy", path]
        return Op("entropy", {"n": self.big_n, "blocks": self.big_blocks}, " ".join(argv),
                  {"argv": argv}, {"outputs": outputs, "inputs": {"partition": text, "weights": None}})

    def _weighted_partition(self) -> Op:
        r = rng(self.name, self.seed, "weighted")
        labels = random_labels(self.weighted_n, self.weighted_blocks, r)
        counts = [r.randint(1, 9) for _ in labels]
        weights = [Fraction(c, sum(counts)) for c in counts]
        text = refs.partition_text(refs.blocks_of(labels))
        path = self._write("partition_64.txt", text)
        wpath = self._write("weights_64.txt", ",".join(f"{w.numerator}/{w.denominator}" for w in weights))
        ref = refs.partition_pair_reference(labels, labels, weights)
        h, bits = ref["h_p"], ref["H_p"]
        outputs = {
            "h": f"{h.numerator}/{h.denominator}", "H": bits,
            "identification_probability": f"{(1 - h).numerator}/{(1 - h).denominator}",
            "bits_from_h": -math.log1p(-float(h)) / math.log(2),
            "dits_from_H": -math.expm1(-bits * math.log(2)), "dits": refs.dit_count(labels),
        }
        argv = ["entropy", path, "--weights", wpath]
        return Op("entropy", {"n": self.weighted_n, "blocks": self.weighted_blocks, "weighted": True},
                  " ".join(argv), {"argv": argv},
                  {"outputs": outputs, "inputs": {"partition": text, "weights": wpath}})

    def _joint_matrix(self) -> Op:
        r = rng(self.name, self.seed, "joint")
        n = self.joint_n
        raw = [[0.0 if r.random() < 0.05 else r.random() + 0.01 for _ in range(n)] for _ in range(n)]
        total = math.fsum(x for row in raw for x in row)
        rows = [[x / total for x in row] for row in raw]
        path = self._write("joint_32.csv", "\n".join(",".join(repr(x) for x in row) for row in rows))
        outputs = refs.joint_reference(rows)
        px = [math.fsum(row) for row in rows]
        py = [math.fsum(row[j] for row in rows) for j in range(n)]
        outputs["independence_residual"] = max(
            abs(rows[i][j] - px[i] * py[j]) for i in range(n) for j in range(n)
        )
        argv = ["joint", path]
        return Op("joint", {"nx": n, "ny": n, "cells": n * n}, " ".join(argv), {"argv": argv},
                  {"outputs": outputs, "inputs": {"matrix": rows}})

    def run(self, op: Op, t):
        argv = op.data["argv"]
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = t.call(f"cli.main.{argv[0]}", cli.main, argv)
            return code, buffer.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "logent.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def check(self, op: Op, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads(stdout)
        if "payload" in op.ref:
            problems = refs.json_mismatches(payload, op.ref["payload"])
        else:
            problems = refs.json_mismatches(payload["outputs"], op.ref["outputs"], "/outputs")
            problems += refs.json_mismatches(payload["inputs"], op.ref["inputs"], "/inputs")
        return problems + refs.residual_problems(payload)

    def close(self) -> None:
        for op in self.pool:
            for arg in op.data["argv"]:
                path = Path(arg)
                if path.parent == self.workdir and path.is_file():
                    path.unlink()
        with contextlib.suppress(OSError):
            self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (CliSession, PartitionScale, ExhaustiveSweep, Distributions)}


def make(name: str, seed: int, workdir: Path, in_process: bool = False) -> Workload:
    if name == CliSession.name:
        return CliSession(seed, workdir, in_process)
    return WORKLOADS[name](seed, workdir)
