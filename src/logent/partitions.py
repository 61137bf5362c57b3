"""Finite-set partitions and their lattice operations, computed on labels.

The carrier is always the index set {0, .., n-1}.  The dense dit and indit
sets that specify these operations live in :mod:`logent.spec`.

A partition is the inverse image of a labelling ``f: U -> Y``: its blocks are
the classes ``f^-1(y)``.  Its value is the canonical labelling, the
restricted-growth string (Knuth, TAOCP 4A, 7.2.1.5): element 0 has label 0
and each label is at most one more than the largest label before it, so
blocks are numbered in order of least element.  Equality, hashing and all
pair code (join, meet, refinement, implication, the measure tables) read the
labels; the blocks, their number and their sizes are derived from them on
first use and kept, so each measure of a partition reads one count of its
labels.  One pass, :func:`_join_cells`, pairs two partitions' labels into
the join and its cells, which the meet and the measure tables read; it keeps
its last result, so a caller that runs several pair operations on the same
two objects pairs their labels once.  Refinement and implication keep passes
of their own, which can stop early.  :func:`_from_labels` renumbers any
labelling by first appearance, and every partition the library produces
goes through it, except
enumeration, which generates the strings themselves, and blocks that already
come in order of least element (the form :func:`logent.formats.format_partition`
writes), whose block numbers are the string.  Blocks are checked in one
place, :func:`_labels`, which the public ``Partition(...)`` constructor
shares with :func:`make_partition`; parsed text that holds each element
exactly once skips it.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import (
    DomainError,
    InvalidPartitionError,
    LimitExceededError,
    SizeMismatchError,
    _check_positive,
)

DEFAULT_ENUMERATION_LIMIT = 12


class _Value:
    """A frozen value: ``==``, ``hash`` and ``repr`` read only the fields named in ``_fields``,
    which ``__init__`` writes once into the instance dict; a :class:`_view` kept
    beside them there is not part of the value."""

    def __init_subclass__(cls) -> None:
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _view:
    """``functools.cached_property`` without its per-class lock (taken on first reads before 3.12):
    threads that miss together each compute, and ``setdefault`` hands all one kept value."""

    def __init__(self, compute) -> None:
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return vars(instance).setdefault(self.name, self.compute(instance))


class Universe(_Value):
    """The carrier set {0, .., size-1}."""

    _fields = ("size",)

    def __init__(self, size: int) -> None:
        _check_positive("universe size", size)
        vars(self).update(size=size)


class Partition(_Value):
    """A partition of {0, .., n-1}, held as its restricted-growth string.

    ``labels[u]`` is the index of u's block, blocks numbered by least element.
    ``blocks``, ``n_blocks`` and the block sizes, derived and kept once built:
    the blocks are tuples, each ascending, in that order.
    ``Partition(universe, blocks)`` checks the blocks with the same routine as
    :func:`make_partition` and requires them in that form; the library's own
    producers build the labels directly and skip the check.
    """

    _fields = ("universe", "labels")

    def __init__(self, universe: Universe, blocks: tuple[tuple[int, ...], ...]) -> None:
        if not isinstance(universe, Universe):
            raise InvalidPartitionError(f"universe {universe!r} is not a Universe")
        canonical = _from_labels(universe, _labels(blocks, universe.size))
        if blocks != canonical.blocks:
            raise InvalidPartitionError(
                f"blocks {blocks!r} are not in canonical form"
                " (tuples, each ascending, ordered by least element)"
            )
        vars(self).update(universe=universe, labels=canonical.labels)

    @_view
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The classes of the labels, in label order; built once, not a field."""
        return tuple(map(tuple, self._groups()))

    def _groups(self) -> list[list[int]]:
        """The elements of each block, ascending, as fresh lists in label order."""
        groups: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for u, label in enumerate(self.labels):
            groups[label].append(u)
        return groups

    @_view
    def n_blocks(self) -> int:
        return max(self.labels) + 1

    @_view
    def _block_sizes(self) -> tuple[int, ...]:
        """Each block's size, in label order (the order labels first appear); counted once."""
        return tuple(Counter(self.labels).values())

    @property
    def is_indiscrete(self) -> bool:
        return self.n_blocks == 1


def _partition(universe: Universe, rgs: tuple[int, ...]) -> Partition:
    """The partition whose labels are ``rgs``, a restricted-growth string; not re-checked."""
    partition = object.__new__(Partition)
    vars(partition).update(universe=universe, labels=rgs)
    return partition


def _from_labels(universe: Universe, labels: Iterable) -> Partition:
    """The partition whose blocks are the classes of a labelling of 0..n-1.

    ``labels`` gives each element's label, any hashable value, in element
    order.  Renumbered by first appearance it is the restricted-growth
    string, so the result is canonical and is not re-checked.
    """
    code: dict = {}
    return _partition(universe, tuple([code.setdefault(label, len(code)) for label in labels]))


def _labels(blocks: Iterable[Iterable[int]], n: int) -> list[int]:
    """Each element's block number: the one check of a collection of blocks.

    Both :func:`make_partition` and ``Partition(...)`` validate through it.
    """
    labels: list[int | None] = [None] * n
    try:
        for b, members in enumerate(blocks):
            u = None  # stays None only for an empty block: a None element is refused below
            for u in members:  # checked before any deduplication: {1, True} is not one element
                if type(u) is not int and (not isinstance(u, int) or isinstance(u, bool)):
                    raise InvalidPartitionError(f"element {u!r} is not an integer index")
                if not (0 <= u < n):
                    raise InvalidPartitionError(f"element {u} outside universe of size {n}")
                if labels[u] is not None and labels[u] != b:
                    raise InvalidPartitionError(f"element {u} appears in more than one block")
                labels[u] = b
            if u is None:
                raise InvalidPartitionError("empty block")
    except TypeError:
        raise InvalidPartitionError(f"{blocks!r} is not a collection of blocks") from None
    if None in labels:
        raise InvalidPartitionError(f"element {labels.index(None)} not covered by any block")
    return labels


def make_partition(blocks: Iterable[Iterable[int]], n: int) -> Partition:
    """Validate and canonicalize a collection of blocks into a Partition.

    Raises :class:`InvalidPartitionError` on overlap, a missing element, an
    empty block, an element that is not an integer index, or input that is
    not a collection of collections.  Repeats within one block are allowed.
    """
    return _from_labels(Universe(n), _labels(blocks, n))


def _from_block_lists(blocks: list[list[int]], minima: list[int]) -> Partition:
    """:func:`make_partition` of nonempty lists of nonnegative ints, least ``minima``.

    The universe is 0..n-1 for n one past the largest element.  Blocks of n
    elements in all are scattered straight into labels; if no slot is left
    empty, each element was held once.  Any other (a repeat, an overlap, a gap)
    goes through :func:`_labels`, which allows the repeat and names the fault.
    Blocks that already come in order of least element number their elements
    with the restricted-growth string, so the renumbering pass is skipped.
    """
    n = max(map(max, blocks)) + 1
    universe = Universe(n)
    labels = [-1] * n
    if sum(map(len, blocks)) == n:
        for b, members in enumerate(blocks):
            for u in members:
                labels[u] = b
    if -1 in labels:
        labels = _labels(blocks, n)
    if minima == sorted(minima):  # distinct once checked, so this is strictly ascending
        return _partition(universe, tuple(labels))
    return _from_labels(universe, labels)


def discrete_partition(n: int) -> Partition:
    """All singletons: the top of the refinement order."""
    return _from_labels(Universe(n), range(n))


def indiscrete_partition(n: int) -> Partition:
    """One block: the bottom of the refinement order."""
    return _from_labels(Universe(n), [0] * n)


def _check_same_universe(p: Partition, s: Partition) -> Universe:
    if p.universe.size != s.universe.size:
        raise SizeMismatchError(
            f"partitions on universes of size {p.universe.size} and {s.universe.size}"
        )
    return p.universe


# ----------------------------------------------------------------------
# lattice operations
# ----------------------------------------------------------------------


# (p, s, join, cells) of the last pair whose labels were paired, in one tuple so
# that one assignment replaces key and value together: safe to read from any thread
_last_join: tuple = (None, None, None, None)


def _join_cells(p: Partition, s: Partition) -> tuple[Partition, tuple]:
    """The join of p and s and its cells: one (p-label, s-label) per join block, in label order.

    The one pass that pairs the two label vectors, read by :func:`join`,
    :func:`meet` and the measure tables.  The last pair is kept, keyed by
    identity, so several pair operations on the same two objects pair their
    labels once.
    """
    global _last_join
    last_p, last_s, joined, cells = _last_join
    if p is last_p and s is last_s:
        return joined, cells
    _check_same_universe(p, s)
    code: dict = {}  # (p-label, s-label) -> join label, numbered by first element
    labels = tuple([code.setdefault(cell, len(code)) for cell in zip(p.labels, s.labels)])
    joined, cells = _partition(p.universe, labels), tuple(code)
    _last_join = (p, s, joined, cells)
    return joined, cells


def join(p: Partition, s: Partition) -> Partition:
    """Blockwise join: the nonempty intersections B & C, labelled u -> (p(u), s(u)).

    Its dit set is exactly dit(p) | dit(s); the equality is enforced by the
    verification suites.
    """
    return _join_cells(p, s)[0]


def meet(p: Partition, s: Partition) -> Partition:
    """Partition meet: classes of the closure of indit(p) | indit(s).

    The nodes are the labels of both; each cell of the join (one nonempty
    B & C) joins the components of its two blocks, the smaller member list
    merged into the larger (union by size), so a node moves O(log) times and
    no cell walks a chain.  The components, numbered in p-label order
    (first-element order), label the result.  The cells come from the kept
    join, so a meet after the join of the same pair pairs no labels.
    interior(dit(p) & dit(s)) is the specification.
    """
    cells = _join_cells(p, s)[1]
    offset = p.n_blocks  # s-label j is node offset + j
    component = [[x] for x in range(offset + s.n_blocks)]  # node -> its component's members
    for i, j in cells:
        a, b = component[i], component[offset + j]
        if a is not b:
            if len(a) < len(b):
                a, b = b, a
            a += b
            for x in b:
                component[x] = a
    code: dict = {}
    roots = [code.setdefault(id(component[i]), len(code)) for i in range(offset)]
    return _partition(p.universe, tuple(map(roots.__getitem__, p.labels)))


def implication(s: Partition, p: Partition) -> Partition:
    """The implication s => p: discretize blocks of p contained in a block of s.

    Every block of p that sits inside some block of s is replaced by its
    singletons; other blocks are kept.  The result equals the partition whose
    dit set is interior(complement(dit(s)) | dit(p)), and s => p is discrete
    exactly when p refines s.
    """
    _check_same_universe(s, p)
    first: dict = {}  # p-label -> the s-label of its least element, as in refines
    split = {i for i, j in zip(p.labels, s.labels) if first.setdefault(i, j) != j}
    if len(split) == p.n_blocks:  # no block to discretize
        return p
    # a discretized element gets a label of its own, -1 - u; the rest keep their p-label
    labels = [b if b in split else -1 - u for u, b in enumerate(p.labels)]
    return _from_labels(p.universe, labels)


def refines(s: Partition, p: Partition) -> bool:
    """True when p refines s: each block of p lies inside some block of s.

    That is, each p-label meets one s-label; the check stops at the first
    that meets two.  Equivalent to dit(s) being a subset of dit(p), which the
    verification suites check pair by pair.
    """
    _check_same_universe(s, p)
    first: dict = {}  # p-label -> the s-label of its least element
    return all(first.setdefault(i, j) == j for i, j in zip(p.labels, s.labels))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0, .., n-1}, each exactly once.

    Order is the lexicographic order of restricted-growth strings, which is
    deterministic and starts at the one-block partition and ends at the
    all-singletons partition.  The count is the Bell number B(n), and n is
    capped at ``DEFAULT_ENUMERATION_LIMIT``.
    """
    universe = Universe(n)
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"enumeration of {n} elements exceeds the cap of {DEFAULT_ENUMERATION_LIMIT}"
        )
    return _generate_partitions(universe)


def _generate_partitions(universe: Universe) -> Iterator[Partition]:
    n = universe.size
    labels = [0] * n
    caps = [1] * n  # caps[i] = 1 + max(labels[:i]); position i may take 0..caps[i]
    while True:
        yield _partition(universe, tuple(labels))
        j = n - 1
        while j > 0 and labels[j] == caps[j]:
            j -= 1
        if j == 0:
            return
        labels[j] += 1
        rising_cap = max(caps[j], labels[j] + 1)
        for i in range(j + 1, n):
            labels[i] = 0
            caps[i] = rising_cap


def bell_number(n: int) -> int:
    """Bell number B(n) via the Bell triangle recurrence."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"need a nonnegative integer, got {n!r}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def lattice_cover_edges(n: int) -> list[tuple[int, int]]:
    """Cover edges of the refinement order, as index pairs into the enumeration.

    An edge (i, j) means partition j covers partition i: j refines i and has
    exactly one more block (one block of i split in two).  Each edge is made
    once, by splitting a block of i into a part that keeps its least element
    and a nonempty rest; edges come sorted by (i, j).
    """
    parts = list(enumerate_partitions(n))
    index = {p.labels: k for k, p in enumerate(parts)}
    edges = []
    for i, coarser in enumerate(parts):
        fresh = coarser.n_blocks  # the moved part's label before renumbering
        for block in coarser.blocks:
            rest = block[1:]
            for mask in range(1, 1 << len(rest)):
                finer = list(coarser.labels)
                for k, u in enumerate(rest):
                    if (mask >> k) & 1:
                        finer[u] = fresh
                edges.append((i, index[_from_labels(coarser.universe, finer).labels]))
    edges.sort()
    return edges
