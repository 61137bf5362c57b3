"""Value semantics of the package's immutable classes and report records.

The six value classes compare, hash and print by their fields alone, refuse
assignment and deletion, and keep their cached views out of the value.  The
reports are records with fixed field names and order.
"""

import inspect
import itertools
from fractions import Fraction

import pytest

from logent.cli import CommandResult
from logent.logical import DistanceMatrix, Distribution, JointDistribution, MixingReport
from logent.partitions import Universe, make_partition
from logent.sampling import SampleReport
from logent.shannon import StirlingReport
from logent.spec import PairRelation

VALUES = {
    "Universe": (lambda: Universe(3), "Universe(size=3)"),
    "PairRelation": (
        lambda: PairRelation.from_pairs(2, [(0, 1)]),
        "PairRelation(universe=Universe(size=2), bits=2)",
    ),
    "Partition": (
        lambda: make_partition([{0, 1}, {2}], 3),
        "Partition(universe=Universe(size=3), labels=(0, 0, 1))",
    ),
    "Distribution": (
        lambda: Distribution((Fraction(1, 4), Fraction(3, 4))),
        "Distribution(probs=(Fraction(1, 4), Fraction(3, 4)))",
    ),
    "JointDistribution": (
        lambda: JointDistribution(((0.25, 0.25), (0.5, 0.0))),
        "JointDistribution(rows=((0.25, 0.25), (0.5, 0.0)))",
    ),
    "DistanceMatrix": (
        lambda: DistanceMatrix(((0, 1), (1, 0))),
        "DistanceMatrix(entries=((0, 1), (1, 0)))",
    ),
}
FIELDS = {
    "Universe": ("size",),
    "PairRelation": ("universe", "bits"),
    "Partition": ("universe", "labels"),
    "Distribution": ("probs",),
    "JointDistribution": ("rows",),
    "DistanceMatrix": ("entries",),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_fresh_instances_are_equal_and_hash_alike(name):
    build, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("left, right", itertools.combinations(VALUES, 2))
def test_instances_of_different_classes_are_not_equal(left, right):
    a, b = VALUES[left][0](), VALUES[right][0]()
    assert a != b and b != a


@pytest.mark.parametrize("name", VALUES)
def test_a_value_is_not_the_tuple_of_its_fields(name):
    value = VALUES[name][0]()
    fields = tuple(getattr(value, field) for field in FIELDS[name])
    assert value != fields and fields != value


@pytest.mark.parametrize("name", VALUES)
def test_repr_lists_the_fields(name):
    build, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", VALUES)
def test_fields_refuse_assignment_and_deletion(name):
    value = VALUES[name][0]()
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize(
    "record, fields",
    [
        (MixingReport, ["h_mix", "cross", "mean_h"]),
        (StirlingReport, ["s_exact", "approx2", "approx3", "unit"]),
        (SampleReport, ["estimate", "trials", "std_error", "seed"]),
        (
            CommandResult,
            ["command", "inputs", "outputs", "residuals", "exit_code", "extra_units"],
        ),
    ],
)
def test_record_fields_in_order(record, fields):
    assert list(inspect.signature(record).parameters) == fields


def test_record_defaults():
    assert StirlingReport(1.0, 2.0, 3.0).unit == "nats"
    result = CommandResult("entropy", {}, {})
    assert (result.residuals, result.exit_code, result.extra_units) == ({}, 0, {})
