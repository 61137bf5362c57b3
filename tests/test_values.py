"""Value semantics of the package's immutable classes and report records.

The six value classes compare, hash and print by their fields alone, refuse
assignment and deletion, and keep their cached views out of the value.  A
view is computed once per instance, and threads that read it first at the
same time are handed one value.  The
reports are records with fixed field names and order.
"""

import inspect
import itertools
import sys
import threading
from fractions import Fraction

import pytest

from logent.cli import CommandResult
from logent.logical import DistanceMatrix, Distribution, JointDistribution, MixingReport
from logent.partitions import Partition, Universe, _Value, _view, make_partition
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


VIEWS = [
    (Partition, "blocks"),
    (Partition, "n_blocks"),
    (Partition, "_block_sizes"),
    (Distribution, "_integers"),
    (JointDistribution, "marginal_x"),
    (JointDistribution, "marginal_y"),
    (JointDistribution, "_table"),
]


@pytest.mark.parametrize("owner, name", VIEWS, ids=lambda x: getattr(x, "__name__", x))
def test_class_access_returns_the_view(owner, name):
    view = getattr(owner, name)
    assert isinstance(view, _view) and view is vars(owner)[name]
    assert view.name == name and view.__doc__ == view.compute.__doc__


class _Counted(_Value):
    """A value with one view that logs each computation and can be made to wait."""

    _fields = ("x",)

    def __init__(self, x, gate=None) -> None:
        vars(self).update(x=x, log=[], gate=gate)

    @_view
    def doubled(self) -> list:
        if self.gate is not None:
            self.gate.wait(timeout=10)
        self.log.append(1)
        return [2 * self.x]


def test_a_view_is_computed_once_per_instance():
    a, b = _Counted(3), _Counted(3)
    assert a.doubled is a.doubled and a.doubled == [6]
    assert (a.log, b.log) == ([1], [])
    assert "doubled" in vars(a) and "doubled" not in vars(b)
    assert b.doubled == [6] and b.doubled is not a.doubled and b.log == [1]
    assert a == b and hash(a) == hash(b) and repr(a) == "_Counted(x=3)"


def test_threaded_first_reads_agree():
    """Every thread misses and computes, held at a barrier inside the view; all get one value."""
    threads = 6
    value = _Counted(5, threading.Barrier(threads))
    seen = [None] * threads

    def read(k):
        seen[k] = value.doubled

    workers = [threading.Thread(target=read, args=(k,)) for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=20)
    assert not any(w.is_alive() for w in workers)
    assert len(value.log) == threads  # no lock: each first read computed
    assert all(v is vars(value)["doubled"] for v in seen) and value.doubled == [10]


@pytest.mark.parametrize("owner, name", VIEWS, ids=lambda x: getattr(x, "__name__", x))
def test_threaded_first_reads_of_the_library_views_agree(owner, name):
    build = {
        Partition: lambda: make_partition([{0, 2}, {1}, {3, 4, 5}], 6),
        Distribution: lambda: Distribution((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
        JointDistribution: lambda: JointDistribution(((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 2), 0))),
    }[owner]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for _ in range(20):
            value, seen = build(), []
            workers = [threading.Thread(target=lambda: seen.append(getattr(value, name))) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=20)
            assert not any(w.is_alive() for w in workers)
            assert len(seen) == 4 and all(v is vars(value)[name] for v in seen)
            assert vars(value)[name] == getattr(build(), name)
    finally:
        sys.setswitchinterval(interval)
