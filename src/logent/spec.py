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
set algebra, refused above ``DENSE_RELATION_LIMIT`` elements.
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

    def _rows(self) -> list[int]:
        """Every row, in element order: n shifts of the grid instead of one per lookup."""
        return [self.row(u) for u in range(self.universe.size)]

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
        """Column v of the n x n bit grid becomes row v, sliced from the grid as a string."""
        n = self.universe.size
        grid = format(self.bits, f"0{n * n}b")[::-1]  # grid[u*n + v] is bit (u, v)
        return self._like(int("".join(grid[v::n] for v in range(n))[::-1], 2))

    # ------------------------------------------------------------------
    # structural predicates, all by enumeration
    # ------------------------------------------------------------------

    def is_reflexive(self) -> bool:
        n = self.universe.size
        return all((self.bits >> (u * n + u)) & 1 for u in range(n))

    def is_irreflexive(self) -> bool:
        return self.complement().is_reflexive()

    def is_symmetric(self) -> bool:
        return self.bits == self.transpose().bits

    def is_transitive(self) -> bool:
        rows = self._rows()
        for reach in rows:
            m = reach
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if rows[v] & ~reach:
                    return False
        return True

    def is_anti_transitive(self) -> bool:
        """Whenever (u, w) is a member, every v satisfies (u, v) or (v, w)."""
        return self.complement().is_transitive()

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()


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
    """Smallest equivalence relation containing the given relation.

    Its classes are the connected components of the relation read as an
    undirected graph, grown on whole row masks: a component absorbs the row
    (successors and the element itself) of every element whose row reaches
    into it.
    """
    n = relation.universe.size
    full_row = (1 << n) - 1
    rows = [row | (1 << u) for u, row in enumerate(relation._rows())]
    unplaced = full_row
    bits = 0
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
            bits |= component << (u * n)
    return PairRelation(relation.universe, bits)


def interior(relation: PairRelation) -> PairRelation:
    """Largest partition relation contained in the given relation.

    Computed as the complement of the rst-closure of the complement.
    """
    return rst_closure(relation.complement()).complement()


def partition_from_equivalence(relation: PairRelation) -> Partition:
    """The partition whose blocks are the classes of an equivalence relation.

    Inverse of :func:`indit_set`; raises :class:`NotEquivalenceError` when
    the relation is not reflexive, symmetric, and transitive.
    """
    if not relation.is_reflexive():
        raise NotEquivalenceError("relation is not reflexive")
    if not relation.is_symmetric():
        raise NotEquivalenceError("relation is not symmetric")
    if not relation.is_transitive():
        raise NotEquivalenceError("relation is not transitive")
    rows = relation._rows()
    # an equivalence row is its element's class, so its lowest bit labels the class
    return _from_labels(relation.universe, ((row & -row).bit_length() - 1 for row in rows))


def mutual_dit_set(p: Partition, s: Partition) -> PairRelation:
    """Pairs distinguished by both partitions: dit(p) & dit(s)."""
    _check_same_universe(p, s)
    return dit_set(p).intersection(dit_set(s))


def mutual_dit_set_blockform(p: Partition, s: Partition) -> PairRelation:
    """The same set assembled blockwise as the union of (B - C) x (C - B)."""
    _check_same_universe(p, s)
    n = p.universe.size
    bits = 0
    for b in p.blocks:
        bset = set(b)
        for c in s.blocks:
            cset = set(c)
            c_minus_b = 0
            for v in cset - bset:
                c_minus_b |= 1 << v
            if not c_minus_b:
                continue
            for u in bset - cset:
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
        return Fraction(sum(nums[i] * nums[j] for i, j in relation.pairs()), denominator**2)
    probs = p.probs
    return _accumulate(probs[i] * probs[j] for i, j in relation.pairs())
