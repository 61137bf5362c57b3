"""Command-line front end.

Every subcommand prints one JSON object to stdout carrying the computed
quantities, a unit for each, and the residuals of whatever identities apply
to the inputs.  ``--pretty`` switches to an aligned, human-readable listing.
Exit codes: 0 on success, 1 on an input error, 2 when any ``verify`` suite
fails, a broken measure included, and 1 when stdout's reader closes early.
``python -m logent.cli`` and the ``logent`` script both leave through ``run``,
which skips the exit-time collections.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import formats
from .errors import LimitExceededError, LogentError, ParseError
from .logical import (
    IDENTITY_TOLERANCE,
    Distribution,
    joint_logical_entropy,
    logical_conditional_joint,
    logical_divergence,
    logical_entropy_dist,
    logical_entropy_partition,
    logical_mutual_joint,
    mixing_entropy,
)
from .partitions import (
    DEFAULT_ENUMERATION_LIMIT,
    bell_number,
    enumerate_partitions,
    implication,
    join,
    lattice_cover_edges,
    meet,
)
from .shannon import (
    bit_to_dit,
    dit_to_bit,
    kl_divergence,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_entropy_partition,
    stirling_entropy,
    shannon_conditional_joint,
    shannon_mutual_joint,
    symmetrized_cross_entropy,
    symmetrized_kl_divergence,
)

PROBABILITY = "dimensionless"


class CommandResult(NamedTuple):
    command: str
    inputs: dict
    outputs: dict  # key -> (value, unit)
    residuals: dict = {}  # read only, like every field: the default is shared
    exit_code: int = 0
    extra_units: dict = {}  # units listed with no output beside them


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    try:
        with open(arg, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError):
        return arg


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(result: CommandResult, pretty: bool) -> None:
    units = {key: unit for key, (_, unit) in result.outputs.items()}
    payload = {
        "command": result.command,
        "inputs": _jsonable(result.inputs),
        "outputs": _jsonable({key: value for key, (value, _) in result.outputs.items()}),
        "units": {**units, **result.extra_units},
        "residuals": _jsonable(result.residuals),
    }
    if pretty:
        print(f"# {result.command}")
        for key, value in payload["outputs"].items():
            if key == "suites":
                for suite in value:
                    status = "pass" if suite["passed"] else "FAIL"
                    print(
                        f"{status}  {suite['name']:52s} checks={suite['checks']:<7d} "
                        f"failures={suite['failures']:<3d} worst={suite['worst_residual']:.3g}"
                    )
                continue
            print(f"{key:32s} {value!s:>24s}  [{units[key]}]")
        if payload["residuals"]:
            print("# residuals")
            for key, value in payload["residuals"].items():
                print(f"{key:32s} {value!s:>24s}")
    else:
        print(json.dumps(payload))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1 instead of argparse's 2
        raise ParseError(message)


def _base_of(args) -> float:
    return math.e if args.base == "e" else 2.0


def _bit_unit(args) -> str:
    return "nats" if args.base == "e" else "bits"


def _parse_weights(args) -> Distribution | None:
    if args.weights is None:
        return None
    return formats.parse_distribution(_read_text(args.weights), exact=args.exact)


def _dit_count(partition) -> int:
    """|dit| = n^2 - sum |B|^2: ordered pairs split by the partition."""
    n = partition.universe.size
    return n * n - sum(size * size for size in partition._block_sizes)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def _cmd_entropy(args) -> CommandResult:
    text = _read_text(args.input).strip()
    base = _base_of(args)
    kind = args.kind
    if kind == "auto":
        kind = "partition" if "|" in text else "dist"
    if kind == "partition":
        partition = formats.parse_partition(text)
        weights = _parse_weights(args)
        h = logical_entropy_partition(partition, weights)
        capital_h = shannon_entropy_partition(partition, weights, base)
        dits = _dit_count(partition)
        inputs = {"partition": formats.format_partition(partition), "weights": args.weights}
    else:
        if args.weights is not None:
            raise ParseError("--weights applies only to partition inputs")
        dist = formats.parse_distribution(text, exact=args.exact)
        h = logical_entropy_dist(dist)
        capital_h = shannon_entropy_dist(dist, base)
        dits = None
        inputs = {"distribution": formats.format_distribution(dist)}
    bits_from_h = dit_to_bit(float(h))
    dits_from_bits = bit_to_dit(_to_bits(capital_h, base))
    outputs = {
        "h": (h, PROBABILITY),
        "H": (capital_h, _bit_unit(args)),
        "identification_probability": (1 - h, PROBABILITY),
        "bits_from_h": (bits_from_h, "bits"),
        "dits_from_H": (dits_from_bits, PROBABILITY),
    }
    if dits is not None:
        outputs["dits"] = (dits, "count")
    residuals = {
        "dit_bit_roundtrip_h": abs(bit_to_dit(bits_from_h) - float(h)),
        "bit_dit_roundtrip_H": abs(dit_to_bit(dits_from_bits) - _to_bits(capital_h, base)),
    }
    return CommandResult("entropy", inputs, outputs, residuals)


def _to_bits(value: float, base: float) -> float:
    return value if base == 2.0 else value * math.log(base) / math.log(2)


def _cmd_joint(args) -> CommandResult:
    joint = formats.parse_joint(_read_text(args.matrix), exact=args.exact)
    base = _base_of(args)
    unit = _bit_unit(args)
    px = Distribution(joint.marginal_x)
    py = Distribution(joint.marginal_y)
    h_x, h_y = logical_entropy_dist(px), logical_entropy_dist(py)
    h_xy = joint_logical_entropy(joint)
    h_x_given_y = logical_conditional_joint(joint, "y")
    h_y_given_x = logical_conditional_joint(joint, "x")
    m = logical_mutual_joint(joint)
    capital_hx = shannon_entropy_dist(px, base)
    capital_hy = shannon_entropy_dist(py, base)
    capital_hxy = shannon_entropy_dist(joint.flatten(), base)
    capital_h_xy = shannon_conditional_joint(joint, "y", base)
    capital_h_yx = shannon_conditional_joint(joint, "x", base)
    mutual = shannon_mutual_joint(joint, base)
    outputs = {
        "h_x": (h_x, PROBABILITY),
        "h_y": (h_y, PROBABILITY),
        "h_xy": (h_xy, PROBABILITY),
        "h_x_given_y": (h_x_given_y, PROBABILITY),
        "h_y_given_x": (h_y_given_x, PROBABILITY),
        "m_xy": (m, PROBABILITY),
        "H_x": (capital_hx, unit),
        "H_y": (capital_hy, unit),
        "H_xy": (capital_hxy, unit),
        "H_x_given_y": (capital_h_xy, unit),
        "H_y_given_x": (capital_h_yx, unit),
        "I_xy": (mutual, unit),
        "independence_residual": (joint.independence_residual(), PROBABILITY),
    }
    residuals = {
        "h_conditional_venn": abs(float(h_x_given_y - (h_xy - h_y))),
        "h_mutual_venn": abs(float(m - (h_x + h_y - h_xy))),
        "H_conditional_venn": abs(capital_h_xy - (capital_hxy - capital_hy)),
        "I_venn": abs(mutual - (capital_hx + capital_hy - capital_hxy)),
        "I_vs_kl_to_product": abs(
            mutual
            - kl_divergence(joint.flatten(), joint.product_of_marginals().flatten(), base)
        ),
        "independence_defect_identity": abs(
            float((1 - h_xy) - (1 - h_x) * (1 - h_y) - (m - h_x * h_y))
        ),
    }
    return CommandResult(
        "joint", {"matrix": [list(r) for r in joint.rows]}, outputs, residuals
    )


def _cmd_ops(args) -> CommandResult:
    first = formats.parse_partition(_read_text(args.first))
    second = formats.parse_partition(_read_text(args.second))
    if args.operation == "join":
        result = join(first, second)
    elif args.operation == "meet":
        result = meet(first, second)
    else:  # implies: blocks of the first inside a block of the second go discrete
        result = implication(second, first)
    outputs = {
        "partition": (formats.format_partition(result), "partition"),
        "dits": (_dit_count(result), "count"),
        "h": (logical_entropy_partition(result), PROBABILITY),
        "H": (shannon_entropy_partition(result, None, _base_of(args)), _bit_unit(args)),
        "blocks": (result.n_blocks, "count"),
    }
    inputs = {
        "operation": args.operation,
        "first": formats.format_partition(first),
        "second": formats.format_partition(second),
    }
    return CommandResult("ops", inputs, outputs)


def _cmd_compare(args) -> CommandResult:
    p = formats.parse_distribution(_read_text(args.p), exact=args.exact)
    q = formats.parse_distribution(_read_text(args.q), exact=args.exact)
    base = _base_of(args)
    unit = _bit_unit(args)
    report = mixing_entropy(p, q)
    d = logical_divergence(p, q)
    outputs = {
        "h_cross": (report.cross, PROBABILITY),
        "H_pq": (shannon_cross_entropy(p, q, base), unit),
        "H_qp": (shannon_cross_entropy(q, p, base), unit),
        "H_sym": (symmetrized_cross_entropy(p, q, base), unit),
        "D_pq": (kl_divergence(p, q, base), unit),
        "D_qp": (kl_divergence(q, p, base), unit),
        "D_sym": (symmetrized_kl_divergence(p, q, base), unit),
        "d": (d, PROBABILITY),
        "h_mixture": (report.h_mix, PROBABILITY),
        "mean_h": (report.mean_h, PROBABILITY),
        "chain_cross_ge_mixture": (
            bool(float(report.cross) >= float(report.h_mix) - IDENTITY_TOLERANCE), "boolean"
        ),
        "chain_mixture_ge_mean": (
            bool(float(report.h_mix) >= float(report.mean_h) - IDENTITY_TOLERANCE), "boolean"
        ),
    }
    residuals = {
        "jensen_difference": abs(float(d - (report.cross - report.mean_h))),
        "mixture_identity": abs(float(report.h_mix - report.cross / 2 - report.mean_h / 2)),
    }
    inputs = {"p": formats.format_distribution(p), "q": formats.format_distribution(q)}
    return CommandResult("compare", inputs, outputs, residuals)


def _cmd_verify(args) -> CommandResult:
    if not 2 <= args.max_n <= 7:
        raise LimitExceededError(f"verify sweeps support 2 <= max-n <= 7, got {args.max_n}")
    from . import verification

    suites = verification.run_all(max_n=args.max_n, seed=args.seed)
    failures = [s.name for s in suites if not s.passed]
    keys = ("name", "checks", "failures", "worst_residual", "passed")
    report = [{key: getattr(s, key) for key in keys} for s in suites]
    outputs = {
        "suites": (report, "report"),
        "all_passed": (not failures, "boolean"),
        "failed_suites": (failures, "names"),
    }
    inputs = {"max_n": args.max_n, "seed": args.seed}
    return CommandResult("verify", inputs, outputs, exit_code=0 if not failures else 2)


def _cmd_lattice(args) -> CommandResult:
    if not 1 <= args.n <= DEFAULT_ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"lattice summaries support 1 <= n <= {DEFAULT_ENUMERATION_LIMIT}, got {args.n}"
        )
    if args.dot and args.n > 6:
        raise LimitExceededError(f"DOT output needs n <= 6, got {args.n}")
    outputs: dict = {"bell_count": (bell_number(args.n), "count")}
    if args.n <= 6:
        parts = list(enumerate_partitions(args.n))
        edges = lattice_cover_edges(args.n)
        outputs["partitions"] = ([formats.format_partition(p) for p in parts], "partition")
        outputs["cover_edges"] = ([list(e) for e in edges], "index pairs")
        outputs["cover_edge_count"] = (len(edges), "count")
        if args.dot:
            lines = ["digraph refinement {"]
            for i, p in enumerate(parts):
                lines.append(f'  n{i} [label="{formats.format_partition(p)}"];')
            for a, b in edges:
                lines.append(f"  n{a} -> n{b};")
            lines.append("}")
            outputs["dot"] = ("\n".join(lines), "graphviz")
    return CommandResult("lattice", {"n": args.n}, outputs)


def _cmd_sample(args) -> CommandResult:
    from . import sampling  # the only subcommand that needs numpy

    dist = formats.parse_distribution(_read_text(args.dist), exact=args.exact)
    if args.mode == "typical":
        report = sampling.typical_message_stats(dist, args.length, args.samples, args.seed)
        target, unit = shannon_entropy_dist(dist), "bits"
    else:  # both logical estimators converge to the logical entropy
        if args.mode == "pairs":
            report = sampling.pair_distinction_rate(dist, args.trials, args.seed)
        else:
            report = sampling.average_difference_rate(dist, args.length, args.seed)
        target, unit = float(logical_entropy_dist(dist)), PROBABILITY
    outputs = {
        "estimate": (report.estimate, unit),
        "target": (target, unit),
        "abs_error": (abs(report.estimate - target), unit),
        "std_error": (report.std_error, unit),
        "trials": (report.trials, "count"),
        "seed": (report.seed, "seed"),
    }
    if args.mode == "typical":
        outputs["typical_count_log2"] = (sampling.typical_count_log(dist, args.length), "bits")
    inputs = {
        "mode": args.mode,
        "dist": formats.format_distribution(dist),
        "seed": args.seed,
    }
    # pairs and seqavg have always listed this unit without its output; recorded CLI JSON pins it
    return CommandResult("sample", inputs, outputs, extra_units={"typical_count_log2": "bits"})


def _cmd_stirling(args) -> CommandResult:
    try:
        sizes = [int(tok) for tok in _read_text(args.sizes).strip().split(",")]
    except ValueError:
        raise ParseError(f"bad block sizes {args.sizes!r}") from None
    report = stirling_entropy(sizes, bits=args.bits)
    keys = ("s_exact", "approx2", "approx3", "err2", "err3")
    outputs = {key: (getattr(report, key), report.unit) for key in keys}
    return CommandResult("stirling", {"sizes": sizes}, outputs)


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads
    pretty = _Parser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="aligned human-readable output")
    base = _Parser(add_help=False)
    base.add_argument("--base", choices=["2", "e"], default="2", help="entropy log base")
    exact = _Parser(add_help=False)
    exact.add_argument("--exact", action="store_true", help="parse decimals as exact rationals")

    parser = _Parser(prog="logent", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "entropy", parents=[pretty, base, exact], help="entropies of a partition or distribution"
    )
    p.add_argument("input", help="partition like 0,1|2 or distribution like 1/2,1/3,1/6")
    p.add_argument("--kind", choices=["auto", "partition", "dist"], default="auto")
    p.add_argument("--weights", help="element weights for partition inputs")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser(
        "joint", parents=[pretty, base, exact], help="all quantities of a joint matrix"
    )
    p.add_argument("matrix", help="CSV matrix; rows x values, columns y values; ';' splits rows")
    p.set_defaults(handler=_cmd_joint)

    p = sub.add_parser("ops", parents=[pretty, base], help="lattice operations on two partitions")
    p.add_argument("operation", choices=["join", "meet", "implies"])
    p.add_argument("first", help="partition text")
    p.add_argument(
        "second",
        help="partition text; for implies, blocks of the first contained in a block of the second become singletons",
    )
    p.set_defaults(handler=_cmd_ops)

    p = sub.add_parser(
        "compare", parents=[pretty, base, exact], help="cross entropies and divergences"
    )
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("verify", parents=[pretty], help="run the identity suites")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("lattice", parents=[pretty], help="partition lattice census")
    p.add_argument("n", type=int)
    p.add_argument("--dot", action="store_true", help="emit a DOT graph of cover edges")
    p.set_defaults(handler=_cmd_lattice)

    trials = _Parser(add_help=False)
    trials.add_argument("--trials", type=int, default=100_000)
    length = _Parser(add_help=False)
    length.add_argument("--length", type=int, default=1000, help="sequence or message length")
    samples = _Parser(add_help=False)
    samples.add_argument("--samples", type=int, default=100)
    modes = sub.add_parser("sample", help="seeded sampling experiments").add_subparsers(
        dest="mode", required=True
    )
    for mode, own in (("pairs", [trials]), ("seqavg", [length]), ("typical", [length, samples])):
        p = modes.add_parser(mode, parents=[pretty, exact, *own])
        p.add_argument("dist")
        p.add_argument("--seed", type=int, default=2024)
        p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("stirling", parents=[pretty], help="multinomial entropy approximations")
    p.add_argument("sizes", help="comma-separated block sizes, e.g. 6,6")
    p.add_argument("--bits", action="store_true", help="report bits instead of nats")
    p.set_defaults(handler=_cmd_stirling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.handler(args)
    except LogentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result, args.pretty)
    return result.exit_code


def run():
    """Run ``main`` and exit with its code, its objects frozen so the shutdown collections skip them.

    A reader that closes stdout early ends the run quietly with code 1: the
    rest of the output goes to ``os.devnull``, so the exit flush cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
