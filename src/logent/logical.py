"""Logical (quadratic) information measures.

The logical entropy of a probability vector is 1 - sum(p_i^2): the chance
that two independent draws land on distinct outcomes.  For a partition it is
the product measure of the dit set, so every compound quantity (conditional,
joint, mutual, cross) is the measure of an explicit subset of a pair space
and the usual Venn identities hold literally.

That measure is fixed by block masses, so production never builds the pair
space: a partition pair becomes one table of block-intersection masses, and
one formula per quantity is evaluated over it.  The cells are the blocks of
the two partitions' join, read from the one kept pairing of their labels
(:func:`logent.partitions._join_cells`), so a report's join, meet and table
pair the labels once; the row and column sums are the partitions' own block
masses, the numbers ``h(p)`` and :func:`block_probabilities` use.  The last
partition table is kept for the conditional and mutual measures, logical and
Shannon, of the same ``(p, s, weights)``: keyed by identity, since equal
weights can be float or exact, and swapped in one assignment (thread-safe).
A joint distribution keeps the table of its row and column partitions of the
cells, read straight from its grid, for both axes.  Both families read masses
over the table's total ``T``: the logical measures form one numerator over
``T^2``, the Shannon ones weigh a cell by ``m / T``.  The product measure of
a dense dit set, in :mod:`logent.spec`, is the specification.

All functions are pure, and each measure of distributions reads their kind
once: float entries take one ``math.fsum`` over the terms, ``Fraction`` or
int entries the exact path, on integers: a distribution's entries are integer
numerators over their common denominator ``D``, every partition or joint table
measure forms one numerator over ``D^2``, and one ``Fraction`` is built per
result.  Zero-probability outcomes are kept (they contribute nothing) so
indices stay aligned with user input and distance matrices.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DomainError,
    InvalidDistanceMatrixError,
    InvalidDistributionError,
    SizeMismatchError,
    _check_positive,
)
from .partitions import Partition, _Value, _check_same_universe, _join_cells, _view

NORMALIZATION_TOLERANCE = 1e-9
IDENTITY_TOLERANCE = 1e-12


def _left_sum(values: Iterable):
    """Left-to-right sum, the same on every Python: built-in ``sum`` compensates
    float rounding from 3.12 on, which moved normalized entries and residuals."""
    return reduce(operator.add, values, 0)


_EXACT_TYPES = frozenset((int, Fraction))  # tested with issuperset: a C loop, stops at a float


def _accumulate(terms: Iterable, exact: bool = True):
    """Plain (exact) sum when every term is an int or a Fraction, fsum otherwise.

    So ``0`` and ``0.0`` in a float vector give the same value; ``exact=False`` is one fsum.
    """
    if not exact:
        return math.fsum(terms)
    values = list(terms)
    if _EXACT_TYPES.issuperset(map(type, values)):
        return sum(values[1:], values[0]) if values else 0  # no 0 + first: one Fraction op fewer
    return math.fsum(values)


class Distribution(_Value):
    """A finite probability vector p = (p_1, .., p_n).

    Entries must be nonnegative and sum to 1 within 1e-9; a small drift is
    renormalized away on construction, anything larger is rejected.  Entries
    may be floats or Fractions; Fractions are preserved so downstream sums
    stay exact, and an all-Fraction/int vector also carries its entries as
    integer numerators over a common denominator, computed on first use.
    """

    _fields = ("probs",)

    def __init__(self, probs: tuple) -> None:
        try:
            values = tuple(probs)
            if not values:
                raise InvalidDistributionError("a distribution needs at least one outcome")
            total = _left_sum(values)
            if not (min(values) >= 0 and total == total):  # C passes: a NaN makes the total NaN
                for p in values:  # walk the entries to name the first bad one
                    if not p >= 0:  # also rejects NaN, which compares false with everything
                        raise InvalidDistributionError(f"probability {p} is not a nonnegative number")
        except TypeError:  # not iterable, or an entry that does not compare or add like a number
            raise InvalidDistributionError(f"{probs!r} is not a sequence of numbers") from None
        if abs(float(total) - 1.0) > NORMALIZATION_TOLERANCE:
            raise InvalidDistributionError(f"probabilities sum to {float(total)}, not 1")
        if total != 1:
            values = tuple(p / total for p in values)
        vars(self).update(probs=values)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int):
        return self.probs[i]

    @_view
    def _integers(self) -> tuple[tuple[int, ...], int] | None:
        """(numerators, D) with p_i = numerators[i] / D over the lcm D of the denominators.

        None unless every entry is a Fraction or an int: only the exact path has them.
        A float entry settles that in one C pass.
        """
        probs = self.probs
        if float in map(type, probs) or not all(isinstance(p, numbers.Rational) for p in probs):
            return None
        denominator = math.lcm(*(int(p.denominator) for p in probs))
        return tuple(int(p.numerator) * (denominator // int(p.denominator)) for p in probs), denominator

    @property
    def is_exact(self) -> bool:
        return self._integers is not None

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        _check_positive("outcome count", n)
        return cls((1.0 / n,) * n)

    @classmethod
    def uniform_exact(cls, n: int) -> "Distribution":
        _check_positive("outcome count", n)
        return cls((Fraction(1, n),) * n)

    @classmethod
    def point_mass(cls, n: int, outcome: int = 0) -> "Distribution":
        _check_positive("outcome count", n)
        if isinstance(outcome, bool) or not isinstance(outcome, int) or not 0 <= outcome < n:
            raise InvalidDistributionError(f"outcome {outcome!r} is not an index in 0..{n - 1}")
        return cls(tuple(1 if i == outcome else 0 for i in range(n)))

    def mix(self, other: "Distribution") -> "Distribution":
        """The half-and-half mixture (p + q) / 2."""
        _check_same_length(self, other)
        half = Fraction(1, 2) if self.is_exact and other.is_exact else 0.5
        return Distribution(tuple((p + q) * half for p, q in zip(self.probs, other.probs)))


class JointDistribution(_Value):
    """A joint probability matrix p(x, y); rows are x values, columns y values.

    The cells are validated and normalized as one :class:`Distribution`, kept
    (not a field); the marginals and the mass table are cached views.
    """

    _fields = ("rows",)

    def __init__(self, rows: tuple) -> None:
        try:
            grid = tuple(tuple(r) for r in rows)
        except TypeError:
            raise InvalidDistributionError(f"{rows!r} is not a matrix of numbers") from None
        if not grid or not grid[0]:
            raise InvalidDistributionError("a joint distribution needs at least one cell")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise InvalidDistributionError("ragged joint matrix")
        cells = Distribution(tuple(chain.from_iterable(grid)))
        grid = tuple(cells.probs[i : i + width] for i in range(0, len(cells), width))
        vars(self).update(rows=grid, _cells=cells)

    @property
    def nx(self) -> int:
        return len(self.rows)

    @property
    def ny(self) -> int:
        return len(self.rows[0])

    @_view
    def marginal_x(self) -> tuple:
        return tuple(map(_left_sum, self.rows))

    @_view
    def marginal_y(self) -> tuple:
        return tuple(map(_left_sum, zip(*self.rows)))

    @_view
    def _table(self) -> "_MassTable":
        """The cell partitions' table from the grid: cells row by row, numerators over D if exact."""
        integers = self._cells._integers
        if integers is None:
            grid, total, rows, cols = self.rows, 1, self.marginal_x, self.marginal_y
        else:
            nums, total = integers
            grid = tuple(nums[k : k + self.ny] for k in range(0, len(nums), self.ny))
            rows, cols = tuple(map(_left_sum, grid)), tuple(map(_left_sum, zip(*grid)))
        cells = tuple((i, j, m) for i, r in enumerate(grid) for j, m in enumerate(r))
        return _MassTable(cells, rows, cols, total, integers is not None)

    def cells(self) -> Iterator[tuple[int, int, object]]:
        for i, r in enumerate(self.rows):
            for j, p in enumerate(r):
                yield i, j, p

    def flatten(self) -> Distribution:
        return Distribution(tuple(p for r in self.rows for p in r))

    def product_of_marginals(self) -> "JointDistribution":
        px, py = self.marginal_x, self.marginal_y
        return JointDistribution(tuple(tuple(a * b for b in py) for a in px))

    def independence_residual(self) -> float:
        """max |p(x,y) - p(x)p(y)|; zero exactly when the joint is a product."""
        px, py = self.marginal_x, self.marginal_y
        return max(abs(float(p - px[i] * py[j])) for i, j, p in self.cells())

    @classmethod
    def uniform(cls, nx: int, ny: int) -> "JointDistribution":
        _check_positive("row count", nx)
        _check_positive("column count", ny)
        return cls(tuple((1.0 / (nx * ny),) * ny for _ in range(nx)))

    @classmethod
    def outer(cls, px: Distribution, py: Distribution) -> "JointDistribution":
        return cls(tuple(tuple(a * b for b in py.probs) for a in px.probs))


class DistanceMatrix(_Value):
    """A symmetric grid of finite nonnegative real distances with zero diagonal."""

    _fields = ("entries",)

    def __init__(self, entries: tuple) -> None:
        try:
            grid = tuple(tuple(r) for r in entries)
            n = len(grid)
            if n == 0 or any(len(r) != n for r in grid):
                raise InvalidDistanceMatrixError("distance matrix must be square and nonempty")
            for i, row in enumerate(grid):
                if row[i] != 0:
                    raise InvalidDistanceMatrixError(f"nonzero diagonal entry at {i}")
                for j, d in enumerate(row):
                    if d < 0:
                        raise InvalidDistanceMatrixError(f"negative distance at ({i}, {j})")
                    if not d >= 0:  # NaN compares false with everything
                        raise InvalidDistanceMatrixError(
                            f"distance {d} at ({i}, {j}) is not a nonnegative number"
                        )
                    if d == math.inf:
                        raise InvalidDistanceMatrixError(f"infinite distance at ({i}, {j})")
                    if not isinstance(d, numbers.Real):  # a Decimal compares, but cannot multiply
                        raise InvalidDistanceMatrixError(f"non-real distance {d!r} at ({i}, {j})")
                    if j < i and d != grid[j][i]:  # row j passed the checks above
                        raise InvalidDistanceMatrixError(f"asymmetric entries at ({j}, {i})")
        except (TypeError, ArithmeticError):  # not a grid, or an entry that does not compare
            raise InvalidDistanceMatrixError(f"{entries!r} is not a matrix of numbers") from None
        vars(self).update(entries=grid)

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def logical(cls, n: int) -> "DistanceMatrix":
        """d_ij = 1 for i != j, 0 on the diagonal."""
        return cls(tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)))


def _check_same_length(p: Distribution, q: Distribution) -> None:
    if len(p.probs) != len(q.probs):
        raise SizeMismatchError(f"distributions of length {len(p)} and {len(q)}")


# ----------------------------------------------------------------------
# core measures
# ----------------------------------------------------------------------


def logical_entropy_dist(p: Distribution):
    """h(p) = 1 - sum(p_i^2), the chance two independent draws differ."""
    return 1 - identification_probability(p)


def identification_probability(p: Distribution):
    """sum(p_i^2): the repeat rate, complement of the logical entropy."""
    return _accumulate([q * q for q in p.probs], p.is_exact)


def _block_masses(partition: Partition, weights: Distribution | None) -> tuple:
    """A partition's block masses in label order, their total T, and whether exact.

    Unweighted, the block sizes the partition counted once and keeps, with
    T = n.  Weighted, left-to-right sums over each block, the rule of a
    distribution's total and a joint's marginals: of the integer numerators
    with T = D, their common denominator, under exact weights, and of the
    weights with T = 1 under float weights.
    """
    n = partition.universe.size
    if weights is None:
        return partition._block_sizes, n, False
    if len(weights) != n:
        raise SizeMismatchError(f"weights of length {len(weights)} for a universe of size {n}")
    exact = weights.is_exact
    values, total = weights._integers if exact else (weights.probs, 1)
    masses: dict = {}
    for label, value in zip(partition.labels, values):
        masses[label] = masses.get(label, 0) + value
    return tuple(masses.values()), total, exact


def _ratio(numerator, denominator, exact: bool):
    """numerator / denominator: one Fraction on the exact path, plain division otherwise."""
    return Fraction(numerator, denominator) if exact else numerator / denominator


class _MassTable(NamedTuple):
    """Cells (i, j, m), row and column sums, masses over T; conditioning is on columns j.

    T is n unweighted, D under exact weights (``exact``: integer masses), 1 for
    floats; each reader divides by T itself.
    """

    cells: tuple
    rows: tuple
    cols: tuple
    total: object
    exact: bool


# (p, s, weights, table) of the last partition table built, in one tuple so that
# one assignment replaces key and table together: safe to read from any thread
_last_table: tuple = (None, None, None, None)


def _partition_table(p: Partition, s: Partition, weights: Distribution | None) -> _MassTable:
    """Nonempty intersections B & C of the blocks of p (rows) and s (columns).

    The cells are the kept join's, in its block order, massed as its blocks;
    row and column sums are the two partitions' own block masses, the numbers
    :func:`logical_entropy_partition` and :func:`block_probabilities` use.
    The last table is reused for the very same objects: the key is identity,
    because equal weights may differ in kind (float or exact).
    """
    global _last_table
    _check_same_universe(p, s)
    last_p, last_s, last_weights, table = _last_table
    if p is last_p and s is last_s and weights is last_weights:
        return table
    rows, total, exact = _block_masses(p, weights)
    cols = _block_masses(s, weights)[0]
    joined, cells = _join_cells(p, s)
    cells = zip(cells, _block_masses(joined, weights)[0])
    table = _MassTable(tuple((i, j, m) for (i, j), m in cells), rows, cols, total, exact)
    _last_table = (p, s, weights, table)
    return table


def _joint_table(joint: JointDistribution, given: str = "y") -> _MassTable:
    """The joint's table, kept on the joint: both axes read it; ``given='x'`` transposes it."""
    if given not in ("x", "y"):
        raise DomainError(f"axis selector must be 'x' or 'y', got {given!r}")
    table = joint._table
    if given == "y":
        return table
    transposed = tuple((j, i, m) for i, j, m in table.cells)
    return _MassTable(transposed, table.cols, table.rows, table.total, table.exact)


def _logical_conditional(table: _MassTable):
    """sum m * (col - m) / T^2: pairs that differ in the row but share the column."""
    cols, total = table.cols, table.total
    numerator = _accumulate(m * (cols[j] - m) for _, j, m in table.cells)
    return _ratio(numerator, total * total, table.exact)


def _logical_mutual(table: _MassTable):
    """sum m * ((T - row) + (T - col) - (T - m)) / T^2: pairs that differ in both."""
    total = table.total
    row_rest = [total - r for r in table.rows]
    col_rest = [total - c for c in table.cols]
    numerator = _accumulate(
        m * (row_rest[i] + col_rest[j] - (total - m)) for i, j, m in table.cells
    )
    return _ratio(numerator, total * total, table.exact)


def logical_entropy_partition(partition: Partition, weights: Distribution | None = None):
    """Measure of the dit set: (T^2 - sum m_B^2) / T^2 over the block masses m_B.

    That is |dit|/n^2 unweighted (T = n, m_B = |B|) and mu(dit) under weights.
    """
    masses, total, exact = _block_masses(partition, weights)
    return _ratio(total * total - _accumulate(m * m for m in masses), total * total, exact)


def block_probabilities(partition: Partition, weights: Distribution | None = None) -> tuple:
    """p_B for each block: the share of weight (or of elements) it carries."""
    masses, total, exact = _block_masses(partition, weights)
    return tuple(_ratio(m, total, exact) for m in masses)


def logical_conditional_partition(
    p: Partition, s: Partition, weights: Distribution | None = None
):
    """Measure of dit(p) - dit(s): distinctions of p that s does not make.

    Equals h(p v s) - h(s).  The unweighted definition is counting measure;
    general weights go through the product measure in the same way as the
    plain entropy (an extension of the unweighted counting form).
    """
    return _logical_conditional(_partition_table(p, s, weights))


def logical_mutual_partition(p: Partition, s: Partition, weights: Distribution | None = None):
    """Measure of dit(p) & dit(s); equals h(p) + h(s) - h(p v s)."""
    return _logical_mutual(_partition_table(p, s, weights))


# ----------------------------------------------------------------------
# joint distributions
# ----------------------------------------------------------------------


def joint_logical_entropy(joint: JointDistribution):
    """h(x, y) = 1 - sum of p(x,y)^2 over all cells."""
    return logical_entropy_dist(joint._cells)


def logical_conditional_joint(joint: JointDistribution, given: str = "y"):
    """h(x|y) = sum p(x,y) * [p(y) - p(x,y)] (swap axes with given='x').

    The product measure of pairs of draws that differ on the free axis but
    agree on the conditioning axis; equals h(x,y) - h(given axis).
    """
    return _logical_conditional(_joint_table(joint, given))


def logical_mutual_joint(joint: JointDistribution):
    """m(x,y) = sum p(x,y) * [(1-p(x)) + (1-p(y)) - (1-p(x,y))].

    The chance a second draw differs in both coordinates; equals
    h(x) + h(y) - h(x,y).
    """
    return _logical_mutual(_joint_table(joint))


# ----------------------------------------------------------------------
# two distributions
# ----------------------------------------------------------------------


def logical_cross_entropy(p: Distribution, q: Distribution):
    """h(p||q) = 1 - sum(p_i * q_i); symmetric, and h(p||p) = h(p)."""
    _check_same_length(p, q)
    return 1 - _accumulate([a * b for a, b in zip(p.probs, q.probs)], p.is_exact and q.is_exact)


def logical_divergence(p: Distribution, q: Distribution):
    """d(p||q) = (1/2) * sum (p_i - q_i)^2, zero exactly when p = q.

    Identical to the Jensen difference h(p||q) - [h(p) + h(q)] / 2.
    """
    _check_same_length(p, q)
    exact = p.is_exact and q.is_exact
    terms = [(a - b) * (a - b) for a, b in zip(p.probs, q.probs)]
    return (Fraction(1, 2) if exact else 0.5) * _accumulate(terms, exact)


def quadratic_entropy(p: Distribution, distances: DistanceMatrix):
    """sum over i != j of d_ij * p_i * p_j: mean distance of two draws.

    With the logical distance (all off-diagonal distances 1) this is exactly
    the logical entropy of p.
    """
    if distances.size != len(p):
        raise SizeMismatchError(
            f"distance matrix of size {distances.size} for distribution of length {len(p)}"
        )
    probs = p.probs
    return _accumulate(
        distances.entries[i][j] * probs[i] * probs[j]
        for i in range(len(p))
        for j in range(len(p))
        if i != j
    )


class MixingReport(NamedTuple):
    """Entropy of the half-and-half mixture with its two comparison values."""

    h_mix: object
    cross: object
    mean_h: object


def mixing_entropy(p: Distribution, q: Distribution) -> MixingReport:
    """h((p+q)/2) together with h(p||q) and [h(p)+h(q)]/2.

    The ``mixing_identity_and_chain`` suite checks h((p+q)/2) = h(p||q)/2 +
    [h(p)+h(q)]/4 and the chain h(p||q) >= h((p+q)/2) >= [h(p)+h(q)]/2.
    """
    h_mix = logical_entropy_dist(p.mix(q))
    cross = logical_cross_entropy(p, q)
    mean_h = (logical_entropy_dist(p) + logical_entropy_dist(q)) / 2
    return MixingReport(h_mix=h_mix, cross=cross, mean_h=mean_h)
