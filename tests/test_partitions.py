import itertools
import math
import random

import pytest

from logent.errors import (
    DomainError,
    InvalidPartitionError,
    LimitExceededError,
    NotEquivalenceError,
    SizeMismatchError,
)
from logent.partitions import (
    Partition,
    Universe,
    _from_labels,
    _join_cells,
    bell_number,
    discrete_partition,
    enumerate_partitions,
    implication,
    indiscrete_partition,
    join,
    lattice_cover_edges,
    make_partition,
    meet,
    refines,
)
from logent.spec import (
    DENSE_RELATION_LIMIT,
    PairRelation,
    dit_set,
    indit_set,
    interior,
    mutual_dit_set,
    mutual_dit_set_blockform,
    partition_from_equivalence,
    rst_closure,
)


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------


def brute_force_dits(partition):
    """Enumerate all ordered pairs and test block membership directly."""
    n = partition.universe.size
    index = {}
    for k, block in enumerate(partition.blocks):
        for u in block:
            index[u] = k
    return {(u, v) for u in range(n) for v in range(n) if index[u] != index[v]}


def union_find_closure(n, pairs):
    """Equivalence closure of a pair set via an independent union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return {
        (u, v) for u in range(n) for v in range(n) if find(u) == find(v)
    }


def bell_oracle(n):
    """B(n) from the binomial recurrence B(m+1) = sum C(m,k) B(k)."""
    bells = [1]
    for m in range(n):
        bells.append(sum(math.comb(m, k) * bells[k] for k in range(m + 1)))
    return bells[n]


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


class TestMakePartition:
    def test_basic(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert p.blocks == ((0, 1), (2,))
        assert p.universe == Universe(3)

    def test_singletons_give_discrete(self):
        assert make_partition([{0}, {1}, {2}], 3) == discrete_partition(3)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidPartitionError, match="more than one block"):
            make_partition([{0, 1}, {1, 2}], 3)

    def test_missing_element_rejected(self):
        with pytest.raises(InvalidPartitionError, match="not covered"):
            make_partition([{0, 1}], 3)

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidPartitionError, match="empty block"):
            make_partition([{0, 1, 2}, set()], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPartitionError):
            make_partition([{0, 3}], 2)

    def test_canonical_order_is_value_equality(self):
        a = make_partition([{2}, {1, 0}], 3)
        b = make_partition([[0, 1], [2]], 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_universe_requires_positive_size(self):
        with pytest.raises(DomainError):
            Universe(0)

    def test_non_integer_element_rejected(self):
        with pytest.raises(InvalidPartitionError, match="integer index"):
            make_partition([{0, 1.5}, {2}], 3)
        # checked before any sorting or deduplication
        for blocks in ([[0, "a"]], [[0, None]], [[0], [1, True]]):
            with pytest.raises(InvalidPartitionError, match="integer index"):
                make_partition(blocks, 2)

    @pytest.mark.parametrize("blocks", [[5], 5, [[0, 1], 3]])
    def test_non_iterable_input_rejected(self, blocks):
        with pytest.raises(InvalidPartitionError, match="not a collection of blocks"):
            make_partition(blocks, 2)


class TestPartitionConstructor:
    """The public constructor validates; only the library's own producers skip the checks."""

    @pytest.mark.parametrize(
        "blocks, message",
        [
            (((0, 1), ()), "empty block"),
            (((1, 0), (2,)), "ascending"),
            (((2,), (0, 1)), "least element"),
            (((0, 1), (2, 3)), "outside universe"),
            (((0, 2), (1, 2)), "more than one block"),
            (((0, 1),), "not covered"),
            # blocks are checked by the same routine as make_partition's
            ([(0, 1), (2,)], "canonical form"),
            (([0, 1], [2]), "canonical form"),
            (((0, True), (2,)), "integer index"),
            (((0, 1.0), (2,)), "integer index"),
            (((0, "a"), (2,)), "integer index"),
            (5, "not a collection of blocks"),
        ],
    )
    def test_malformed_blocks_rejected(self, blocks, message):
        with pytest.raises(InvalidPartitionError, match=message):
            Partition(Universe(3), blocks)

    @pytest.mark.parametrize("universe", [3, None, (0, 1, 2)])
    def test_universe_must_be_a_universe(self, universe):
        with pytest.raises(InvalidPartitionError, match="not a Universe"):
            Partition(universe, ((0, 1), (2,)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumeration_emits_validated_partitions(self, n):
        for p in enumerate_partitions(n):
            rebuilt = Partition(p.universe, p.blocks)
            assert rebuilt == p == make_partition(p.blocks, n)
            assert hash(rebuilt) == hash(p) == hash(make_partition(p.blocks, n))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_discrete_and_indiscrete_are_valid(self, n):
        for p in (discrete_partition(n), indiscrete_partition(n)):
            assert Partition(p.universe, p.blocks) == p


class TestBlockLabels:
    """A partition's value is its label string; the blocks are derived, kept outside it."""

    P = make_partition([{0, 3}, {1}, {2, 4}], 5)

    def test_labels_follow_blocks(self):
        assert list(self.P.labels) == [0, 1, 2, 0, 2]

    def test_each_call_hands_out_a_fresh_copy(self):
        """The labels are an immutable tuple: a caller edits its own list copy."""
        assert type(self.P.labels) is tuple
        labels = list(self.P.labels)
        labels[0], labels[4] = 7, 7
        assert self.P.labels == (0, 1, 2, 0, 2)

    @pytest.mark.parametrize(
        "view, value",
        [
            ("blocks", ((0, 3), (1,), (2, 4))),
            ("n_blocks", 3),
            ("_block_sizes", (2, 1, 2)),
            ("join", None),  # the kept join holds the pair outside both partitions
        ],
        ids=["blocks", "n_blocks", "_block_sizes", "join"],
    )
    def test_cached_labels_leave_value_alone(self, view, value):
        fresh = make_partition([{0, 3}, {1}, {2, 4}], 5)
        used = make_partition([{0, 3}, {1}, {2, 4}], 5)
        if view == "join":
            assert join(used, used) == used
        else:
            assert getattr(used, view) == value and view in vars(used)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumerated_labels_are_restricted_growth_strings(self, n):
        for p in enumerate_partitions(n):
            labels = p.labels
            assert labels[0] == 0
            assert all(labels[i] <= 1 + max(labels[:i]) for i in range(1, n))
            classes = {}
            for u, label in enumerate(labels):
                classes.setdefault(label, []).append(u)
            assert p.blocks == tuple(tuple(c) for c in classes.values())


class TestDenseRelationGuard:
    """The dense relation is the specification only; a large universe fails fast."""

    def test_dit_and_indit_sets_refuse_large_partitions(self):
        p = make_partition([range(5_000), range(5_000, 10_000)], 10_000)
        for build in (dit_set, indit_set):
            with pytest.raises(LimitExceededError, match="dense pair relation"):
                build(p)

    def test_relation_constructors_refuse_past_the_cap(self):
        n = DENSE_RELATION_LIMIT + 1
        with pytest.raises(LimitExceededError):
            PairRelation(Universe(n), 0)
        with pytest.raises(LimitExceededError):
            PairRelation.full(n)

    def test_cap_itself_is_allowed(self):
        n = DENSE_RELATION_LIMIT
        assert len(dit_set(discrete_partition(n))) == n * n - n
        assert len(indit_set(discrete_partition(n))) == n


class TestPairRelationBasics:
    def test_cardinality_and_membership(self):
        r = PairRelation.from_pairs(3, [(0, 1), (2, 2)])
        assert len(r) == 2
        assert (0, 1) in r and (1, 0) not in r
        assert sorted(r.pairs()) == [(0, 1), (2, 2)]

    def test_diagonal_and_full(self):
        assert len(PairRelation.diagonal(4)) == 4
        assert len(PairRelation.full(4)) == 16

    def test_algebra_ops(self):
        a = PairRelation.from_pairs(2, [(0, 1)])
        b = PairRelation.from_pairs(2, [(1, 0)])
        assert len(a | b) == 2
        assert (a & b).is_empty
        assert len(~a) == 3
        assert (a - b) == a

    def test_universe_mismatch(self):
        with pytest.raises(SizeMismatchError):
            PairRelation.empty(2).union(PairRelation.empty(3))

    def test_out_of_range_pair(self):
        with pytest.raises(DomainError):
            PairRelation.from_pairs(2, [(0, 5)])

    @pytest.mark.parametrize(
        "universe, bits",
        [(Universe(2), "3"), (Universe(2), 3.0), (Universe(2), None), (2, 3), (None, 0)],
        ids=["str-bits", "float-bits", "none-bits", "int-universe", "none-universe"],
    )
    def test_constructor_refuses_what_is_not_a_relation(self, universe, bits):
        with pytest.raises(DomainError):
            PairRelation(universe, bits)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transitivity_predicates_match_their_definitions(self, n):
        rng = random.Random(n)
        grid = list(itertools.product(range(n), repeat=2))
        for _ in range(300):
            members = {pair for pair in grid if rng.random() < 0.5}
            r = PairRelation.from_pairs(n, members)
            transitive = all(
                (u, w) in members
                for (u, v), (v2, w) in itertools.product(members, members)
                if v == v2
            )
            anti = all(
                (u, v) in members or (v, w) in members for u, w in members for v in range(n)
            )
            reflexive = all((u, u) in members for u in range(n))
            irreflexive = not any((u, u) in members for u in range(n))
            symmetric = all((v, u) in members for u, v in members)
            assert r.is_transitive() == transitive
            assert r.is_anti_transitive() == anti
            assert r.is_reflexive() == reflexive
            assert r.is_irreflexive() == irreflexive
            assert r.is_symmetric() == symmetric


# ----------------------------------------------------------------------
# dit and indit sets
# ----------------------------------------------------------------------


class TestDitSets:
    def test_two_block_example(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert set(dit_set(p).pairs()) == {(0, 2), (2, 0), (1, 2), (2, 1)}
        assert len(dit_set(p)) == 4

    def test_indiscrete_has_no_dits(self):
        for n in (1, 2, 5):
            assert dit_set(indiscrete_partition(n)).is_empty

    def test_discrete_has_all_dits(self):
        d = dit_set(discrete_partition(3))
        assert len(d) == 6
        assert d.bits == (PairRelation.full(3) - PairRelation.diagonal(3)).bits

    def test_indit_example(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert set(indit_set(p).pairs()) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}

    def test_indit_of_discrete_is_diagonal(self):
        assert indit_set(discrete_partition(4)).bits == PairRelation.diagonal(4).bits

    def test_indit_of_indiscrete_is_full(self):
        assert indit_set(indiscrete_partition(3)).bits == PairRelation.full(3).bits

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force_membership_oracle(self, n):
        for p in enumerate_partitions(n):
            assert set(dit_set(p).pairs()) == brute_force_dits(p)


# ----------------------------------------------------------------------
# closure and interior
# ----------------------------------------------------------------------


class TestClosure:
    def test_empty_closes_to_diagonal(self):
        assert rst_closure(PairRelation.empty(3)).bits == PairRelation.diagonal(3).bits

    def test_chain_closes_to_full(self):
        r = PairRelation.from_pairs(3, [(0, 1), (1, 2)])
        assert rst_closure(r).bits == PairRelation.full(3).bits

    def test_idempotent_on_equivalences(self):
        e = indit_set(make_partition([{0, 1}, {2, 3}], 4))
        assert rst_closure(e).bits == e.bits

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_union_find_oracle_exhaustively(self, n):
        for bits in range(1 << (n * n)):
            r = PairRelation(Universe(n), bits)
            expected = union_find_closure(n, list(r.pairs()))
            assert set(rst_closure(r).pairs()) == expected

    def test_against_union_find_oracle_sampled_n4(self):
        import random

        rng = random.Random(99)
        for _ in range(500):
            bits = rng.getrandbits(16)
            r = PairRelation(Universe(4), bits)
            assert set(rst_closure(r).pairs()) == union_find_closure(4, list(r.pairs()))


class TestInterior:
    def test_open_set_is_fixed(self):
        d = PairRelation.full(3) - PairRelation.diagonal(3)
        assert interior(d).bits == d.bits

    def test_intersection_of_dit_sets_can_be_empty(self):
        a = dit_set(make_partition([{0, 1}, {2}], 3))
        b = dit_set(make_partition([{0, 2}, {1}], 3))
        assert interior(a & b).is_empty

    def test_empty_is_fixed(self):
        assert interior(PairRelation.empty(4)).is_empty

    def test_result_is_flagged_and_open(self):
        r = PairRelation.from_pairs(3, [(0, 1), (1, 0), (0, 2)])
        inner = interior(r)
        assert inner.is_irreflexive() and inner.is_symmetric() and inner.is_anti_transitive()


class TestPartitionFromEquivalence:
    def test_diagonal_gives_discrete(self):
        assert partition_from_equivalence(PairRelation.diagonal(3)) == discrete_partition(3)

    def test_full_gives_indiscrete(self):
        assert partition_from_equivalence(PairRelation.full(3)) == indiscrete_partition(3)

    def test_two_class_example(self):
        e = PairRelation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        assert partition_from_equivalence(e) == make_partition([{0, 1}, {2}], 3)

    def test_rejects_non_equivalence(self):
        with pytest.raises(NotEquivalenceError, match="reflexive"):
            partition_from_equivalence(PairRelation.empty(2))
        with pytest.raises(NotEquivalenceError, match="symmetric"):
            partition_from_equivalence(
                PairRelation.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
            )
        with pytest.raises(NotEquivalenceError, match="transitive"):
            partition_from_equivalence(
                PairRelation.from_pairs(
                    3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
                )
            )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_roundtrip_all_partitions(self, n):
        for p in enumerate_partitions(n):
            assert partition_from_equivalence(indit_set(p)) == p


# ----------------------------------------------------------------------
# lattice operations
# ----------------------------------------------------------------------


class TestJoinMeet:
    def test_crossing_pairs_join_to_discrete(self):
        a = make_partition([{0, 1}, {2, 3}], 4)
        b = make_partition([{0, 2}, {1, 3}], 4)
        assert join(a, b) == discrete_partition(4)

    def test_crossing_pairs_meet_to_indiscrete(self):
        a = make_partition([{0, 1}, {2, 3}], 4)
        b = make_partition([{0, 2}, {1, 3}], 4)
        assert meet(a, b) == indiscrete_partition(4)

    def test_join_with_bottom_and_top(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert join(p, indiscrete_partition(3)) == p
        assert meet(p, discrete_partition(3)) == p

    def test_idempotence(self):
        p = make_partition([{0, 3}, {1, 2}], 4)
        assert join(p, p) == p
        assert meet(p, p) == p

    def test_universe_mismatch(self):
        with pytest.raises(SizeMismatchError):
            join(discrete_partition(3), discrete_partition(4))
        with pytest.raises(SizeMismatchError):
            meet(discrete_partition(3), discrete_partition(4))


def random_partition(n, r):
    """A seeded partition of n elements with between 1 and n labels drawn."""
    k = r.choice([1, 2, r.randint(1, n), n])
    groups = {}
    for u in range(n):
        groups.setdefault(r.randrange(k), []).append(u)
    return make_partition(list(groups.values()), n)


def union_find_meet_labels(p, s):
    """Meet labels by a union-find over elements: u joins the first element of its blocks."""
    n = p.universe.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for labels in (p.labels, s.labels):
        first = {}
        for u, label in enumerate(labels):
            a, b = find(u), find(first.setdefault(label, u))
            if a != b:
                parent[max(a, b)] = min(a, b)
    code = {}
    return tuple(code.setdefault(find(u), len(code)) for u in range(n))


class TestMeetByMergingBlocks:
    """The meet merges block member lists; its specification is the closure of the indit sets."""

    def test_equals_closure_of_indit_union(self):
        r = random.Random("meet-closure")
        for _ in range(300):
            n = r.randint(1, 60)
            p, s = random_partition(n, r), random_partition(n, r)
            spec = partition_from_equivalence(rst_closure(indit_set(p) | indit_set(s)))
            assert meet(p, s) == spec and meet(p, s).labels == spec.labels

    def test_equals_union_find_up_to_3000(self):
        r = random.Random("meet-union-find")
        for n in (61, 200, 1000, 2048, 3000):
            for _ in range(4):
                p, s = random_partition(n, r), random_partition(n, r)
                assert meet(p, s).labels == union_find_meet_labels(p, s)


def element_join_labels(p, s):
    """Join labels from the elements: u's block is the least v with both labels of u."""
    n = p.universe.size
    order = sorted(range(n), key=lambda u: (p.labels[u], s.labels[u], u))
    least = {}
    for u in order:
        least.setdefault((p.labels[u], s.labels[u]), u)
    code = {}
    return tuple(code.setdefault(least[(p.labels[u], s.labels[u])], len(code)) for u in range(n))


def copy_of(p):
    """An equal partition that is another object, so no kept result is keyed by it."""
    return _from_labels(p.universe, p.labels)


class TestKeptJoin:
    """join and meet read one kept pairing of the labels, keyed by the identity of (p, s)."""

    @staticmethod
    def interleaved(n, r):
        p, s, s2 = (random_partition(n, r) for _ in range(3))
        return [(p, s), (s, p), (p, s2), (p, s)]

    def test_interleaved_pairs_match_the_dense_specification(self):
        r = random.Random("kept-join-dense")
        for _ in range(40):
            for p, s in self.interleaved(r.randint(1, 60), r):
                joined, met = join(p, s), meet(p, s)
                assert joined.labels == join(copy_of(p), copy_of(s)).labels
                assert met.labels == meet(copy_of(p), copy_of(s)).labels
                spec_join = partition_from_equivalence(indit_set(p) & indit_set(s))
                spec_meet = partition_from_equivalence(rst_closure(indit_set(p) | indit_set(s)))
                assert joined.labels == spec_join.labels and met.labels == spec_meet.labels

    def test_interleaved_pairs_match_the_elements_up_to_3000(self):
        r = random.Random("kept-join-elements")
        for n in (61, 200, 1000, 2048, 3000):
            for p, s in self.interleaved(n, r):
                assert meet(p, s).labels == union_find_meet_labels(p, s)
                assert join(p, s).labels == element_join_labels(p, s)
                assert meet(p, s).labels == meet(copy_of(p), copy_of(s)).labels

    def test_cells_are_the_join_blocks_labels(self):
        r = random.Random("kept-join-cells")
        for _ in range(100):
            n = r.randint(1, 80)
            p, s = random_partition(n, r), random_partition(n, r)
            joined, cells = _join_cells(p, s)
            assert joined is join(p, s)
            assert cells == tuple((p.labels[b[0]], s.labels[b[0]]) for b in joined.blocks)

    def test_universe_mismatch_after_a_kept_pair(self):
        p = discrete_partition(3)
        join(p, p)
        with pytest.raises(SizeMismatchError):
            meet(p, discrete_partition(4))
        with pytest.raises(SizeMismatchError):
            join(discrete_partition(4), p)


class TestImplicationRefines:
    def test_self_implication_is_discrete(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        assert implication(p, p) == discrete_partition(4)

    def test_indiscrete_antecedent_gives_discrete(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        assert implication(indiscrete_partition(4), p) == discrete_partition(4)

    def test_partial_discretization(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        s = make_partition([{0, 1, 2}, {3}], 4)
        assert implication(s, p) == make_partition([{0}, {1}, {2, 3}], 4)

    def test_refines_bottom_and_top(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert refines(indiscrete_partition(3), p)
        assert refines(p, discrete_partition(3))

    def test_refines_negative_case(self):
        s = make_partition([{0, 1}, {2, 3}], 4)
        p = make_partition([{0, 2}, {1, 3}], 4)
        assert not refines(s, p)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_refines_equals_dit_inclusion_and_implication(self, n):
        parts = list(enumerate_partitions(n))
        top = discrete_partition(n)
        for s, p in itertools.product(parts, parts):
            expected = dit_set(s).issubset(dit_set(p))
            assert refines(s, p) == expected
            assert (implication(s, p) == top) == expected


class TestMutualDitSet:
    def test_nonempty_example(self):
        p = make_partition([{0, 1}, {2}], 3)
        s = make_partition([{0}, {1, 2}], 3)
        mut = mutual_dit_set(p, s)
        assert (0, 2) in mut and (2, 0) in mut
        assert not mut.is_empty

    def test_with_indiscrete_is_empty(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert mutual_dit_set(p, indiscrete_partition(3)).is_empty

    def test_discrete_with_itself(self):
        mut = mutual_dit_set(discrete_partition(4), discrete_partition(4))
        assert len(mut) == 12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_structure_theorem_all_pairs(self, n):
        parts = list(enumerate_partitions(n))
        for p, s in itertools.product(parts, parts):
            assert mutual_dit_set(p, s).bits == mutual_dit_set_blockform(p, s).bits

    @pytest.mark.parametrize("n", range(2, 6))
    def test_nonempty_dit_sets_intersect(self, n):
        parts = [p for p in enumerate_partitions(n) if not p.is_indiscrete]
        for p, s in itertools.product(parts, parts):
            assert not mutual_dit_set(p, s).is_empty

    @pytest.mark.parametrize("n", range(2, 6))
    def test_contrapositive_covering_unions(self, n):
        full = PairRelation.full(n).bits
        parts = list(enumerate_partitions(n))
        for p, s in itertools.product(parts, parts):
            if (indit_set(p).bits | indit_set(s).bits) == full:
                assert p.is_indiscrete or s.is_indiscrete


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


class TestEnumeration:
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_counts_match_bell_oracle(self, n, count):
        assert bell_oracle(n) == count
        assert sum(1 for _ in enumerate_partitions(n)) == count

    def test_larger_counts_against_oracle(self):
        for n in (6, 7, 8):
            assert sum(1 for _ in enumerate_partitions(n)) == bell_oracle(n)
            assert bell_number(n) == bell_oracle(n)

    def test_each_partition_exactly_once(self):
        parts = list(enumerate_partitions(5))
        assert len(set(parts)) == len(parts)

    def test_deterministic_order(self):
        first = [p.blocks for p in enumerate_partitions(4)]
        second = [p.blocks for p in enumerate_partitions(4)]
        assert first == second
        assert first[0] == ((0, 1, 2, 3),)
        assert first[-1] == ((0,), (1,), (2,), (3,))

    def test_limit_enforced(self):
        with pytest.raises(LimitExceededError):
            enumerate_partitions(13)

    def test_bad_size(self):
        with pytest.raises(DomainError):
            enumerate_partitions(0)

    def test_cover_edges_n3(self):
        assert lattice_cover_edges(3) == [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]

    def test_cover_edges_match_no_intermediate_definition(self):
        parts = list(enumerate_partitions(4))
        expected = []
        for i, a in enumerate(parts):
            for j, b in enumerate(parts):
                if a == b or not refines(a, b):
                    continue
                strictly_between = any(
                    c != a and c != b and refines(a, c) and refines(c, b) for c in parts
                )
                if not strictly_between:
                    expected.append((i, j))
        assert sorted(lattice_cover_edges(4)) == sorted(expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cover_edges_equal_all_pairs_scan(self, n):
        parts = list(enumerate_partitions(n))
        scan = [
            (i, j)
            for i, coarser in enumerate(parts)
            for j, finer in enumerate(parts)
            if finer.n_blocks == coarser.n_blocks + 1 and refines(coarser, finer)
        ]
        assert lattice_cover_edges(n) == scan

    def test_cover_edges_at_nine(self):
        assert len(lattice_cover_edges(9)) == 175_896


# ----------------------------------------------------------------------
# lattice laws
# ----------------------------------------------------------------------


class TestLatticeLaws:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_commutative_idempotent_absorption(self, n):
        parts = list(enumerate_partitions(n))
        for a, b in itertools.product(parts, parts):
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a

    def test_associativity_n4_exhaustive(self):
        parts = list(enumerate_partitions(4))
        for a, b, c in itertools.product(parts, parts, parts):
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))

    def test_associativity_n5_sampled(self):
        parts = list(enumerate_partitions(5))
        triples = itertools.product(parts[::3], parts[1::5], parts[2::7])
        for a, b, c in triples:
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_top_and_bottom(self, n):
        top = discrete_partition(n)
        bottom = indiscrete_partition(n)
        for p in enumerate_partitions(n):
            assert join(p, top) == top
            assert join(p, bottom) == p
            assert meet(p, bottom) == bottom
            assert meet(p, top) == p
