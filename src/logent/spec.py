"""Dense pair relations: the specification of the partition operations and measures.

A partition's dit set holds the ordered pairs (u, v) whose endpoints fall in
different blocks; its complement, the indit set, is an equivalence relation.
Each lattice operation is a set operation on these relations, and each logical
measure the product measure of one.  Production reads labels and block masses
and never imports this module; the suites check its values against these.
A relation is irreflexive and anti-transitive exactly when its complement is
reflexive and transitive, so :meth:`PairRelation.is_irreflexive` and
:meth:`PairRelation.is_anti_transitive` are the complement's equivalence checks.
A relation is an n*n-bit integer, bit ``u*n + v`` for (u, v): exact, branch-free
set algebra, refused above ``DENSE_RELATION_LIMIT`` elements.  Each algorithm on
a relation is one private kernel on that integer (``_closure``, ``_interior``,
``_broken_law``, ``_classes``, ``_product_numerator``); the exhaustive suites
call the kernels, and the methods and functions here wrap them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, LimitExceededError, NotEquivalenceError, SizeMismatchError
from .logical import Distribution, _accumulate
from .partitions import Partition, Universe, _Value, _check_same_universe, _from_labels

DENSE_RELATION_LIMIT = 64  # largest n for a dense pair relation: 4,096 bits


def _check_dense(n: int) -> None:
    if n > DENSE_RELATION_LIMIT:
        raise LimitExceededError(
            f"a dense pair relation on {n} elements exceeds the cap of {DENSE_RELATION_LIMIT}"
        )


# ----------------------------------------------------------------------
# kernels on the n*n-bit mask
# ----------------------------------------------------------------------


def _rows(bits: int, n: int) -> list[int]:
    """Every row as an n-bit mask, in element order: row u is {v : (u, v) in the relation}."""
    full_row = (1 << n) - 1
    return [(bits >> (u * n)) & full_row for u in range(n)]


def _transpose(bits: int, n: int) -> int:
    """Column v of the n x n bit grid becomes row v, sliced from the grid as a string."""
    grid = format(bits, f"0{n * n}b")[::-1]  # grid[u*n + v] is bit (u, v)
    return int("".join(grid[v::n] for v in range(n))[::-1], 2)


def _is_reflexive(bits: int, n: int) -> bool:
    return all((bits >> (u * n + u)) & 1 for u in range(n))


def _is_symmetric(bits: int, n: int) -> bool:
    return bits == _transpose(bits, n)


def _is_transitive(bits: int, n: int) -> bool:
    rows = _rows(bits, n)
    for reach in rows:
        m = reach
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[v] & ~reach:
                return False
    return True


def _broken_law(bits: int, n: int) -> str | None:
    """The first equivalence law the relation breaks, or None for an equivalence relation."""
    laws = (("reflexive", _is_reflexive), ("symmetric", _is_symmetric), ("transitive", _is_transitive))
    return next((law for law, holds in laws if not holds(bits, n)), None)


def _classes(universe: Universe, bits: int) -> Partition:
    """The partition whose blocks are the classes of an equivalence relation on the universe.

    Raises :class:`NotEquivalenceError` naming the first law the relation breaks.
    """
    n = universe.size
    law = _broken_law(bits, n)
    if law is not None:
        raise NotEquivalenceError(f"relation is not {law}")
    # an equivalence row is its element's class, so its lowest bit labels the class
    return _from_labels(universe, [(row & -row).bit_length() - 1 for row in _rows(bits, n)])


def _closure(bits: int, n: int) -> int:
    """Smallest equivalence relation containing the relation.

    Its classes are the connected components of the relation read as an
    undirected graph, grown on whole row masks: a component absorbs the row
    (successors and the element itself) of every element whose row reaches
    into it.
    """
    rows = [row | (1 << u) for u, row in enumerate(_rows(bits, n))]
    unplaced = (1 << n) - 1
    closed = 0
    while unplaced:
        component, previous = unplaced & -unplaced, 0
        while component != previous:
            previous = component
            for row in rows:
                if row & component:
                    component |= row
        unplaced &= ~component
        m = component
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            closed |= component << (u * n)
    return closed


def _interior(bits: int, n: int) -> int:
    """Largest partition relation contained in the relation: the complement of the
    closure of the complement."""
    full = (1 << (n * n)) - 1
    return full ^ _closure(full ^ bits, n)


def _product_numerator(bits: int, n: int, nums) -> int:
    """Sum of nums[u] * nums[v] over the member pairs (u, v), row by row."""
    total = 0
    for u, row in enumerate(_rows(bits, n)):
        row_sum = 0
        while row:
            low = row & -row
            row_sum += nums[low.bit_length() - 1]
            row ^= low
        total += nums[u] * row_sum
    return total


class PairRelation(_Value):
    """A subset of U x U held as a dense bitmask.

    The three defining properties of a partition relation (irreflexive,
    symmetric, anti-transitive) are checkable via the predicates below.
    """

    _fields = ("universe", "bits")

    def __init__(self, universe: Universe, bits: int) -> None:
        if not isinstance(universe, Universe) or not isinstance(bits, int):
            raise DomainError(f"need a Universe and int bits, got {universe!r} and {bits!r}")
        n = universe.size
        _check_dense(n)
        if bits < 0 or bits >> (n * n):
            raise DomainError("relation bits fall outside the universe's pair grid")
        vars(self).update(universe=universe, bits=bits)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "PairRelation":
        return cls(Universe(n), 0)

    @classmethod
    def full(cls, n: int) -> "PairRelation":
        return cls(Universe(n), (1 << (n * n)) - 1)

    @classmethod
    def diagonal(cls, n: int) -> "PairRelation":
        bits = 0
        for u in range(n):
            bits |= 1 << (u * n + u)
        return cls(Universe(n), bits)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PairRelation":
        bits = 0
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"pair ({u}, {v}) outside universe of size {n}")
            bits |= 1 << (u * n + v)
        return cls(Universe(n), bits)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        n = self.universe.size
        if not (0 <= u < n and 0 <= v < n):
            return False
        return bool((self.bits >> (u * n + v)) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Member pairs in ascending (u, v) order."""
        n = self.universe.size
        b = self.bits
        while b:
            pos = (b & -b).bit_length() - 1
            yield divmod(pos, n)
            b &= b - 1

    def row(self, u: int) -> int:
        """Successor set of u as an n-bit mask: {v : (u, v) in R}."""
        n = self.universe.size
        return (self.bits >> (u * n)) & ((1 << n) - 1)

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------

    def _like(self, bits: int) -> "PairRelation":
        return PairRelation(self.universe, bits)

    def _check_same(self, other: "PairRelation") -> None:
        if self.universe != other.universe:
            raise SizeMismatchError(
                f"relations on universes of size {self.universe.size} and {other.universe.size}"
            )

    def union(self, other: "PairRelation") -> "PairRelation":
        self._check_same(other)
        return self._like(self.bits | other.bits)

    def intersection(self, other: "PairRelation") -> "PairRelation":
        self._check_same(other)
        return self._like(self.bits & other.bits)

    def difference(self, other: "PairRelation") -> "PairRelation":
        self._check_same(other)
        return self._like(self.bits & ~other.bits)

    def complement(self) -> "PairRelation":
        n = self.universe.size
        return self._like(((1 << (n * n)) - 1) ^ self.bits)

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement

    def issubset(self, other: "PairRelation") -> bool:
        self._check_same(other)
        return self.bits & ~other.bits == 0

    def transpose(self) -> "PairRelation":
        return self._like(_transpose(self.bits, self.universe.size))

    # ------------------------------------------------------------------
    # structural predicates, all by enumeration
    # ------------------------------------------------------------------

    def is_reflexive(self) -> bool:
        return _is_reflexive(self.bits, self.universe.size)

    def is_irreflexive(self) -> bool:
        return self.complement().is_reflexive()

    def is_symmetric(self) -> bool:
        return _is_symmetric(self.bits, self.universe.size)

    def is_transitive(self) -> bool:
        return _is_transitive(self.bits, self.universe.size)

    def is_anti_transitive(self) -> bool:
        """Whenever (u, w) is a member, every v satisfies (u, v) or (v, w)."""
        return self.complement().is_transitive()

    def is_equivalence(self) -> bool:
        return _broken_law(self.bits, self.universe.size) is None


# ----------------------------------------------------------------------
# dit / indit sets
# ----------------------------------------------------------------------


def indit_set(partition: Partition) -> PairRelation:
    """Pairs identified by the partition: the union of B x B over blocks.

    Always an equivalence relation.
    """
    n = partition.universe.size
    _check_dense(n)
    bits = 0
    for block in partition.blocks:
        mask = sum(1 << u for u in block)
        for u in block:
            bits |= mask << (u * n)
    return PairRelation(partition.universe, bits)


def dit_set(partition: Partition) -> PairRelation:
    """Pairs distinguished by the partition: the complement of the indit set."""
    return indit_set(partition).complement()


# ----------------------------------------------------------------------
# closure and interior
# ----------------------------------------------------------------------


def rst_closure(relation: PairRelation) -> PairRelation:
    """Smallest equivalence relation containing the given relation."""
    return relation._like(_closure(relation.bits, relation.universe.size))


def interior(relation: PairRelation) -> PairRelation:
    """Largest partition relation contained in the given relation.

    Computed as the complement of the rst-closure of the complement.
    """
    return relation._like(_interior(relation.bits, relation.universe.size))


def partition_from_equivalence(relation: PairRelation) -> Partition:
    """The partition whose blocks are the classes of an equivalence relation.

    Inverse of :func:`indit_set`; raises :class:`NotEquivalenceError` when
    the relation is not reflexive, symmetric, and transitive.
    """
    return _classes(relation.universe, relation.bits)


def mutual_dit_set(p: Partition, s: Partition) -> PairRelation:
    """Pairs distinguished by both partitions: dit(p) & dit(s)."""
    _check_same_universe(p, s)
    return dit_set(p).intersection(dit_set(s))


def mutual_dit_set_blockform(p: Partition, s: Partition) -> PairRelation:
    """The same set assembled blockwise as the union of (B - C) x (C - B)."""
    _check_same_universe(p, s)
    n = p.universe.size
    c_masks = [sum(1 << v for v in c) for c in s.blocks]
    bits = 0
    for b in p.blocks:
        b_mask = sum(1 << u for u in b)
        for c_mask in c_masks:
            c_minus_b = c_mask & ~b_mask
            if not c_minus_b:
                continue
            for u in b:
                if not (c_mask >> u) & 1:  # u in B - C
                    bits |= c_minus_b << (u * n)
    return PairRelation(p.universe, bits)


def product_measure(relation: PairRelation, p: Distribution):
    """mu(S) = sum of p_i * p_j over the member pairs (i, j) of S."""
    if len(p) != relation.universe.size:
        raise SizeMismatchError(
            f"distribution of length {len(p)} for a universe of size {relation.universe.size}"
        )
    if p.is_exact:
        nums, denominator = p._integers
        return Fraction(_product_numerator(relation.bits, relation.universe.size, nums), denominator**2)
    probs = p.probs
    return _accumulate(probs[i] * probs[j] for i, j in relation.pairs())
