"""The value and the type of every distribution and joint measure, pinned.

``data/measure_table.json`` holds, for each input below, the ``type`` name and
the ``repr`` of each measure's result (or the name of the error it raised).
The inputs cover each kind of entry a distribution holds: floats, Fractions,
a mix of the two, the ints of a point mass, ``np.float64`` and zero masses.
A change in how a measure sums its terms, or in the kind of number it
returns, shows here as a changed line; an intended change edits the file by
hand and records why in CHANGES.md.
"""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from logent.logical import (
    DistanceMatrix,
    Distribution,
    JointDistribution,
    identification_probability,
    joint_logical_entropy,
    logical_conditional_joint,
    logical_cross_entropy,
    logical_divergence,
    logical_entropy_dist,
    logical_mutual_joint,
    mixing_entropy,
    quadratic_entropy,
)
from logent.shannon import (
    dit_bit_transform,
    kl_divergence,
    shannon_conditional_joint,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_mutual_joint,
    symmetrized_cross_entropy,
    symmetrized_kl_divergence,
)

TABLE = Path(__file__).parent / "data" / "measure_table.json"

ENTRIES = {
    "float": (0.1, 0.2, 0.3, 0.4),
    "float-other": (0.375, 0.125, 0.0625, 0.4375),
    "exact": (F(1, 6), F(1, 3), F(1, 4), F(1, 4)),
    "exact-zero": (F(1, 2), F(0), F(1, 8), F(3, 8)),
    "mixed": (F(1, 4), 0.25, F(1, 8), 0.375),  # sums to exactly 1: kept as given
    "point-mass": (0, 0, 1, 0),  # Distribution.point_mass(4, 2)
    "float64": tuple(map(np.float64, (0.1, 0.2, 0.3, 0.4))),
    "float-zero": (0.5, 0.0, 0.25, 0.25),
}


def _cell(value):
    """[type name, repr] of a number; a list of cells for a sequence or a record."""
    if isinstance(value, tuple):
        return [_cell(v) for v in value]
    return [type(value).__name__, repr(value)]


def _read(measure, *args):
    try:
        return _cell(measure(*args))
    except Exception as error:  # an input a measure refuses is pinned by its error
        return ["raises", type(error).__name__]


def _distribution(name):
    if name == "point-mass":
        return Distribution.point_mass(4, 2)
    return Distribution(ENTRIES[name])


def _joints(name):
    """The entries as a 2 x 2 joint, and as a 1 x 4 and a 4 x 1 one."""
    e = ENTRIES[name]
    return {
        "2x2": JointDistribution((e[:2], e[2:])),
        "1x4": JointDistribution((e,)),
        "4x1": JointDistribution(tuple((v,) for v in e)),
    }


def measure_table(name):
    """Every measure of the named input, alone and against each input in turn."""
    p = _distribution(name)
    rows = {
        "probs": _cell(p.probs),
        "identification_probability": _read(identification_probability, p),
        "logical_entropy_dist": _read(logical_entropy_dist, p),
        "quadratic_entropy": _read(quadratic_entropy, p, DistanceMatrix.logical(4)),
        "shannon_entropy_dist": _read(shannon_entropy_dist, p),
        "shannon_entropy_dist(e)": _read(shannon_entropy_dist, p, math.e),
        "shannon_entropy_dist(10)": _read(shannon_entropy_dist, p, 10),
        "dit_bit_transform(entropy)": _read(dit_bit_transform, "entropy", p),
    }
    for other in ENTRIES:
        q = _distribution(other)
        for measure in (
            logical_cross_entropy,
            logical_divergence,
            mixing_entropy,
            shannon_cross_entropy,
            symmetrized_cross_entropy,
            kl_divergence,
            symmetrized_kl_divergence,
        ):
            rows[f"{measure.__name__}({other})"] = _read(measure, p, q)
        rows[f"mix({other})"] = _read(lambda a, b: a.mix(b).probs, p, q)
        for kind in ("cross", "divergence"):
            rows[f"dit_bit_transform({kind}, {other})"] = _read(dit_bit_transform, kind, p, q)
    for shape, joint in _joints(name).items():
        for label, measure, args in (
            ("marginal_x", lambda j: j.marginal_x, ()),
            ("marginal_y", lambda j: j.marginal_y, ()),
            ("flatten", lambda j: j.flatten().probs, ()),
            ("product_of_marginals", lambda j: j.product_of_marginals().rows, ()),
            ("independence_residual", lambda j: j.independence_residual(), ()),
            ("joint_logical_entropy", joint_logical_entropy, ()),
            ("logical_conditional_joint(y)", logical_conditional_joint, ("y",)),
            ("logical_conditional_joint(x)", logical_conditional_joint, ("x",)),
            ("logical_mutual_joint", logical_mutual_joint, ()),
            ("shannon_conditional_joint(y)", shannon_conditional_joint, ("y",)),
            ("shannon_conditional_joint(x)", shannon_conditional_joint, ("x",)),
            ("shannon_conditional_joint(x, e)", shannon_conditional_joint, ("x", math.e)),
            ("shannon_mutual_joint", shannon_mutual_joint, ()),
            ("shannon_mutual_joint(10)", shannon_mutual_joint, (10,)),
            ("dit_bit_transform(conditional, y)", lambda j: dit_bit_transform("conditional", j, "y"), ()),
            ("dit_bit_transform(conditional, x)", lambda j: dit_bit_transform("conditional", j, "x"), ()),
            ("dit_bit_transform(mutual)", lambda j: dit_bit_transform("mutual", j), ()),
        ):
            rows[f"{shape} {label}"] = _read(measure, joint, *args)
    return rows


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ENTRIES)
def test_every_measure_keeps_its_value_and_type(name, recorded):
    assert measure_table(name) == recorded[name]


def test_the_table_covers_every_input(recorded):
    assert list(recorded) == list(ENTRIES)
