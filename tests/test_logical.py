import itertools
import json
import math
import random
import sys
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from logent import cli, logical, partitions
from logent.errors import (
    DomainError,
    InvalidDistanceMatrixError,
    InvalidDistributionError,
    SizeMismatchError,
)
from logent.logical import (
    DistanceMatrix,
    Distribution,
    JointDistribution,
    _logical_conditional,
    _logical_mutual,
    _partition_table,
    block_probabilities,
    identification_probability,
    joint_logical_entropy,
    logical_conditional_joint,
    logical_conditional_partition,
    logical_cross_entropy,
    logical_divergence,
    logical_entropy_dist,
    logical_entropy_partition,
    logical_mutual_joint,
    logical_mutual_partition,
    mixing_entropy,
    quadratic_entropy,
)
from logent.partitions import (
    Universe,
    _from_labels,
    discrete_partition,
    enumerate_partitions,
    indiscrete_partition,
    join,
    make_partition,
    meet,
)
from logent.rng import SplitMix64
from logent.shannon import (
    shannon_conditional_joint,
    shannon_conditional_partition,
    shannon_entropy_partition,
    shannon_mutual_joint,
    shannon_mutual_partition,
)
from logent.spec import (
    DENSE_RELATION_LIMIT,
    PairRelation,
    dit_set,
    mutual_dit_set,
    product_measure,
)
from logent.verification import random_joint

THIRDS = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
THIRDS_OF_SIX = Distribution(tuple(Fraction(k, 21) for k in range(1, 7)))


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError, match="negative"):
            Distribution((0.5, -0.5, 1.0))

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidDistributionError, match="sum"):
            Distribution((0.5, 0.6))

    def test_renormalizes_small_drift(self):
        d = Distribution((0.5, 0.5 + 1e-10))
        assert abs(sum(d.probs) - 1.0) < 1e-15

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            Distribution(())

    def test_exactness_preserved(self):
        assert THIRDS.is_exact
        assert not Distribution.uniform(3).is_exact

    def test_zero_entries_kept(self):
        d = Distribution((0.5, 0.0, 0.5))
        assert len(d) == 3 and d[1] == 0.0

    def test_point_mass(self):
        d = Distribution.point_mass(4, 2)
        assert d.probs == (0, 0, 1, 0)

    @pytest.mark.parametrize("n", ["a", 2.5, 0, -1, True])
    @pytest.mark.parametrize(
        "factory", [Distribution.uniform, Distribution.uniform_exact, Distribution.point_mass]
    )
    def test_factories_reject_bad_sizes(self, factory, n):
        with pytest.raises(DomainError, match="outcome count"):
            factory(n)

    @pytest.mark.parametrize("outcome", ["x", 1.0, True, -1, 3, None])
    def test_point_mass_rejects_bad_outcomes(self, outcome):
        with pytest.raises(InvalidDistributionError, match="not an index"):
            Distribution.point_mass(3, outcome)

    @pytest.mark.parametrize("probs", [(math.nan, 0.5), (0.5, math.nan, 0.5), (math.nan,)])
    def test_rejects_nan(self, probs):
        with pytest.raises(InvalidDistributionError, match="nan"):
            Distribution(probs)

    def test_rejects_infinite(self):
        with pytest.raises(InvalidDistributionError):
            Distribution((math.inf, 0.5))

    @pytest.mark.parametrize("probs", [("a",), (None,), (1j,), (0.5, "a"), 5])
    def test_rejects_non_numbers(self, probs):
        with pytest.raises(InvalidDistributionError):
            Distribution(probs)

    def test_accepts_entries_that_compare_with_zero(self):
        d = Distribution((Decimal("0.25"), Decimal("0.75")))
        assert d.probs == (Decimal("0.25"), Decimal("0.75"))


class TestJointDistribution:
    def test_marginals_are_computed_sums(self):
        j = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
        assert j.marginal_x == (0.5, 0.5)
        assert j.marginal_y == (0.75, 0.25)

    @pytest.mark.parametrize(
        "kind, view",
        [
            (JointDistribution, "marginal_x"),
            (JointDistribution, "marginal_y"),
            (JointDistribution, "_table"),
            (Distribution, "_integers"),
        ],
        ids=["marginal_x", "marginal_y", "_table", "_integers"],
    )
    def test_marginals_are_cached_views(self, kind, view):
        rows = ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 4)))
        value = kind(rows if kind is JointDistribution else rows[0] + rows[1])
        before = (hash(value), repr(value))
        assert getattr(value, view) is getattr(value, view) and view in vars(value)
        fresh = kind(value.rows if kind is JointDistribution else value.probs)
        assert value == fresh
        assert (hash(value), repr(value)) == before == (hash(fresh), repr(fresh))

    @pytest.mark.parametrize("sizes", [(2.5, 2), (2, 2.5), (0, 3), (3, -1), ("2", 2), (2, True)], ids=repr)
    def test_uniform_joint_rejects_bad_sizes(self, sizes):
        with pytest.raises(DomainError, match="row count|column count"):
            JointDistribution.uniform(*sizes)

    def test_ragged_rejected(self):
        with pytest.raises(InvalidDistributionError, match="ragged"):
            JointDistribution(((0.5,), (0.25, 0.25)))

    def test_negative_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(((1.5, -0.5),))

    @pytest.mark.parametrize(
        "rows", [((math.nan, 0.5), (0.25, 0.25)), ((0.5, 0.5), (0.0, math.nan)), ((math.inf, 0.0),)]
    )
    def test_non_finite_rejected(self, rows):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(rows)

    @pytest.mark.parametrize("rows", [5, (5, 6), (("a", 0.5), (0.25, 0.25)), ((None,),)])
    def test_non_numbers_rejected(self, rows):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(rows)

    def test_product_and_residual(self):
        j = JointDistribution.outer(Distribution((0.5, 0.5)), Distribution((0.25, 0.75)))
        assert j.independence_residual() == 0.0
        coupled = JointDistribution(((0.5, 0.0), (0.0, 0.5)))
        assert coupled.independence_residual() == 0.25


class TestPartitionEntropy:
    def test_discrete_on_three(self):
        assert logical_entropy_partition(discrete_partition(3)) == pytest.approx(2 / 3)

    def test_indiscrete_is_zero(self):
        assert logical_entropy_partition(indiscrete_partition(5)) == 0
        weights = Distribution((0.7, 0.1, 0.1, 0.05, 0.05))
        assert logical_entropy_partition(indiscrete_partition(5), weights) == 0

    def test_two_block_example(self):
        assert logical_entropy_partition(make_partition([{0, 1}, {2}], 3)) == pytest.approx(4 / 9)

    def test_equiprobable_bound(self):
        for n in range(2, 10):
            assert logical_entropy_partition(discrete_partition(n)) == pytest.approx(1 - 1 / n)

    def test_weighted_equals_block_sum(self):
        p = make_partition([{0, 1}, {2}], 3)
        w = Distribution((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        by_measure = logical_entropy_partition(p, w)
        p_blocks = [Fraction(3, 4), Fraction(1, 4)]
        assert by_measure == sum(pb * (1 - pb) for pb in p_blocks)

    def test_weight_length_mismatch(self):
        with pytest.raises(SizeMismatchError):
            logical_entropy_partition(discrete_partition(3), Distribution((0.5, 0.5)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unweighted_equals_uniform_product_measure(self, n):
        uniform = Distribution.uniform_exact(n)
        parts = list(enumerate_partitions(n))
        for p in parts:
            h = logical_entropy_partition(p)
            exact = product_measure(dit_set(p), uniform)
            block_form = 1 - sum(Fraction(len(b), n) ** 2 for b in p.blocks)
            assert exact == block_form
            assert h == pytest.approx(float(exact), abs=1e-12)
        # block masses against the counted oracle relation, bit for bit
        for p, s in itertools.product(parts, parts):
            assert logical_entropy_partition(p) == len(dit_set(p)) / (n * n)
            assert logical_conditional_partition(p, s) == len(dit_set(p) - dit_set(s)) / (n * n)
            assert logical_mutual_partition(p, s) == len(mutual_dit_set(p, s)) / (n * n)


class TestMeasureReturnType:
    """Exact weights give Fractions, float weights floats, no weights counts over n^2."""

    P = make_partition([{0, 1}, {2, 3}, {4}], 5)
    S = make_partition([{0, 2, 4}, {1, 3}], 5)

    @pytest.mark.parametrize(
        "weights, kind",
        [
            (Distribution.uniform_exact(5), Fraction),
            (Distribution(tuple(map(Fraction, ("1/3", "1/6", "1/4", "0", "1/4")))), Fraction),
            (Distribution.point_mass(5, 2), Fraction),
            (Distribution((0.1, 0.2, 0.3, 0.15, 0.25)), float),
            (None, float),
        ],
    )
    def test_partition_measures(self, weights, kind):
        p, s = self.P, self.S
        cases = [
            (logical_entropy_partition(p, weights), dit_set(p)),
            (logical_conditional_partition(p, s, weights), dit_set(p) - dit_set(s)),
            (logical_mutual_partition(p, s, weights), mutual_dit_set(p, s)),
        ]
        for value, oracle in cases:
            assert type(value) is kind
            if weights is None:
                assert value == len(oracle) / 25  # bit for bit
            elif kind is Fraction:
                assert value == product_measure(oracle, weights)


class TestNoPairRelationInProduction:
    """Partition measures and the CLI run on block masses, never on a dense relation."""

    @pytest.fixture(autouse=True)
    def forbid_pair_relations(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a production path built a PairRelation")

        monkeypatch.setattr(PairRelation, "__init__", refuse)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_partition_functions(self, weighted):
        p = make_partition([{0, 1}, {2, 3, 4}, {5}], 6)
        s = make_partition([{0, 2}, {1, 3}, {4, 5}], 6)
        w = Distribution((0.1, 0.2, 0.3, 0.15, 0.05, 0.2)) if weighted else None
        for fn in (logical_entropy_partition, shannon_entropy_partition):
            assert 0 < fn(p, w)
        for fn in (
            logical_conditional_partition,
            logical_mutual_partition,
            shannon_conditional_partition,
            shannon_mutual_partition,
        ):
            assert 0 < fn(p, s, w)

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "0,1|2"],
            ["entropy", "0,1|2", "--weights", "1/2,1/4,1/4"],
            ["ops", "join", "0,1|2,3", "0,2|1,3"],
            ["ops", "meet", "0,1|2,3", "0,2|1,3"],
            ["ops", "implies", "0,1|2,3", "0,1,2|3"],
        ],
    )
    def test_cli(self, capsys, argv):
        assert cli.main(argv) == 0
        assert "dits" in json.loads(capsys.readouterr().out)["outputs"]

    def test_large_partition_is_linear(self, capsys):
        n = 20_000  # the dense relation would need n^2 = 4e8 bits
        text = ",".join(map(str, range(n // 2))) + "|" + ",".join(map(str, range(n // 2, n)))
        assert cli.main(["entropy", text]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["dits"] == n * n // 2
        assert outputs["h"] == 0.5


class TestDistributionEntropy:
    def test_uniform_four(self):
        assert logical_entropy_dist(Distribution.uniform(4)) == pytest.approx(0.75)

    def test_point_mass_zero(self):
        assert logical_entropy_dist(Distribution.point_mass(5)) == 0

    def test_halves_thirds_sixths(self):
        assert logical_entropy_dist(THIRDS) == Fraction(11, 18)

    def test_identification_probability_complement(self):
        assert identification_probability(THIRDS) == Fraction(7, 18)
        assert identification_probability(Distribution.uniform(8)) == pytest.approx(1 / 8)
        assert identification_probability(Distribution.point_mass(3)) == 1

    def test_bounds(self):
        for n in (2, 3, 7):
            h = logical_entropy_dist(Distribution.uniform(n))
            assert 0 <= h <= 1 - 1 / n + 1e-15


class TestProductMeasure:
    def test_total_measure_one(self):
        p = Distribution((0.2, 0.3, 0.5))
        assert product_measure(PairRelation.full(3), p) == pytest.approx(1.0)

    def test_diagonal_uniform(self):
        assert product_measure(
            PairRelation.diagonal(4), Distribution.uniform(4)
        ) == pytest.approx(0.25)

    def test_weighted_dit_example(self):
        rel = dit_set(make_partition([{0, 1}, {2}], 3))
        w = Distribution((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert product_measure(rel, w) == Fraction(3, 8)

    def test_additive_over_disjoint(self):
        p = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        diag = PairRelation.diagonal(3)
        off = diag.complement()
        total = product_measure(diag, p) + product_measure(off, p)
        assert total == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            product_measure(PairRelation.full(3), Distribution((0.5, 0.5)))


class TestConditionalAndMutualPartition:
    def test_self_conditional_zero(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        assert logical_conditional_partition(p, p) == 0

    def test_conditional_on_indiscrete(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        assert logical_conditional_partition(p, indiscrete_partition(4)) == pytest.approx(
            logical_entropy_partition(p)
        )

    def test_crossing_example(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        s = make_partition([{0, 2}, {1, 3}], 4)
        assert logical_conditional_partition(p, s) == pytest.approx(1 / 4)

    def test_mutual_examples(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        s = make_partition([{0, 2}, {1, 3}], 4)
        assert logical_mutual_partition(p, s) == pytest.approx(1 / 4)
        assert logical_mutual_partition(p, indiscrete_partition(4)) == 0
        assert logical_mutual_partition(
            discrete_partition(3), discrete_partition(3)
        ) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_venn_identities_exact(self, n):
        weights = Distribution.uniform_exact(n)
        parts = list(enumerate_partitions(n))
        for p, s in itertools.product(parts, parts):
            h_p = logical_entropy_partition(p, weights)
            h_s = logical_entropy_partition(s, weights)
            h_join = logical_entropy_partition(join(p, s), weights)
            h_meet = logical_entropy_partition(meet(p, s), weights)
            assert logical_conditional_partition(p, s, weights) == h_join - h_s
            m = logical_mutual_partition(p, s, weights)
            assert m == h_p + h_s - h_join
            assert h_meet <= h_p + h_s - h_join
            assert (1 - h_join) - (1 - h_p) * (1 - h_s) == m - h_p * h_s


class TestPairTableReuse:
    """A pair's mass table is reused only for the very same (p, s, weights) objects."""

    P = make_partition([{0, 1}, {2, 3}, {4}], 5)
    S = make_partition([{0, 2, 4}, {1, 3}], 5)
    A = make_partition([{0, 1}, {2, 3, 4}, {5}], 6), make_partition([{0, 2}, {1, 3}, {4, 5}], 6)
    B = make_partition([{0, 5}, {1, 2, 3, 4}], 6), make_partition([{0, 1, 2}, {3, 4, 5}], 6)

    def test_equal_weights_of_another_kind_are_not_reused(self):
        dyadic = Distribution((0.25, 0.25, 0.125, 0.125, 0.25))
        exact = Distribution(tuple(Fraction(x) for x in dyadic.probs))
        assert dyadic == exact and hash(dyadic) == hash(exact)  # so the key is identity
        oracle = mutual_dit_set(self.P, self.S)
        first = logical_mutual_partition(self.P, self.S, dyadic)
        second = logical_mutual_partition(self.P, self.S, exact)
        assert type(first) is float and first == product_measure(oracle, dyadic)
        assert type(second) is Fraction and second == product_measure(oracle, exact)

    @pytest.mark.parametrize("weights", [None, THIRDS_OF_SIX, Distribution.uniform(6)])
    def test_alternating_pairs(self, weights):
        a, b = self.A, self.B
        fns = (
            logical_conditional_partition,
            logical_mutual_partition,
            shannon_conditional_partition,
            shannon_mutual_partition,
        )

        def values(p, s):
            return [fn(p, s, weights) for fn in fns]

        first_a, first_b = values(*a), values(*b)
        assert values(*a) == first_a and values(*b) == first_b and values(*a) == first_a
        # fresh copies of the same values take a new table and agree bit for bit
        assert values(*(make_partition(p.blocks, 6) for p in a)) == first_a
        for (p, s), (cond, mutual, *_) in ((a, first_a), (b, first_b)):
            oracles = dit_set(p) - dit_set(s), mutual_dit_set(p, s)
            if weights is None:
                assert [cond, mutual] == [len(r) / 36 for r in oracles]
            else:
                expected = [product_measure(r, weights) for r in oracles]
                assert [cond, mutual] == pytest.approx(expected, abs=1e-12)

    def test_mutating_handed_out_labels_changes_nothing(self):
        before = [
            logical_entropy_partition(self.P),
            logical_conditional_partition(self.P, self.S),
            logical_mutual_partition(self.S, self.P),
        ]
        labels = list(self.P.labels)
        labels.reverse()
        labels[0] = 9
        after = [
            logical_entropy_partition(self.P),
            logical_conditional_partition(self.P, self.S),
            logical_mutual_partition(self.S, self.P),
        ]
        assert after == before
        assert join(self.P, self.S) == join(make_partition(self.P.blocks, 5), self.S)


    def test_threads_sharing_the_memo_get_their_own_pair(self):
        pairs = [self.A, self.B, (discrete_partition(6), self.B[0])]
        weights = [None, THIRDS_OF_SIX, Distribution.uniform(6)]
        jobs = [(p, s, w) for p, s in pairs for w in weights]
        fns = (
            logical_conditional_partition,
            logical_mutual_partition,
            shannon_mutual_partition,
            lambda p, s, _: join(p, s).labels,  # the kept join is shared state too
            lambda p, s, _: meet(p, s).labels,
        )
        expected = [[fn(*job) for fn in fns] for job in jobs]
        wrong = []

        def worker(offset):
            for k in range(400):
                i = (k + offset) % len(jobs)
                if [fn(*jobs[i]) for fn in fns] != expected[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def element_cells(p, s, weights):
    """(p-label, s-label, mass) per nonempty B & C in order of first element, summed element by
    element: counts unweighted, integer numerators under exact weights, floats left to right."""
    if weights is None:
        values = [1] * p.universe.size
    else:
        values = weights._integers[0] if weights.is_exact else weights.probs
    masses = {}
    for i, j, value in zip(p.labels, s.labels, values):
        masses[i, j] = masses.get((i, j), 0) + value
    return tuple((i, j, m) for (i, j), m in masses.items())


def seeded_weights(kind, n, rng):
    raw = [rng.randint(0, 9) for _ in range(n)]
    raw[rng.randrange(n)] += 1  # never all zero
    return {
        "unweighted": None,
        "exact": Distribution(tuple(Fraction(x, sum(raw)) for x in raw)),
        "float": Distribution(tuple(x / sum(raw) for x in raw)),
    }[kind]


class TestTableFromKeptJoin:
    """The table's cells are the kept join's, massed as the join's blocks."""

    @staticmethod
    def interleaved(n, rng):
        p, s, s2 = (
            _from_labels(Universe(n), [rng.randrange(rng.randint(1, n)) for _ in range(n)])
            for _ in range(3)
        )
        return [(p, s), (s, p), (p, s2), (p, s)]

    @pytest.mark.parametrize("kind", ["unweighted", "exact", "float"])
    def test_interleaved_pairs(self, kind):
        rng = random.Random(f"kept-join-table-{kind}")
        for n in [rng.randint(1, 60) for _ in range(12)] + [61, 500, 3000]:
            weights = seeded_weights(kind, n, rng)
            for k, (p, s) in enumerate(self.interleaved(n, rng)):
                if k % 2:  # odd steps find this pair's join kept, even ones the reversed pair's
                    join(p, s)
                table = _partition_table(p, s, weights)
                meet(s, p)
                copies = [_from_labels(x.universe, x.labels) for x in (p, s)]
                assert table == _partition_table(*copies, weights)
                assert table.cells == element_cells(p, s, weights)
                if n > 60:
                    continue
                cond, mutual = _logical_conditional(table), _logical_mutual(table)
                oracles = dit_set(p) - dit_set(s), mutual_dit_set(p, s)
                if weights is None:
                    assert [cond, mutual] == [len(r) / (n * n) for r in oracles]
                elif kind == "exact":
                    assert [cond, mutual] == [product_measure(r, weights) for r in oracles]
                else:
                    expected = [product_measure(r, weights) for r in oracles]
                    assert [cond, mutual] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["unweighted", "exact", "float"])
    def test_a_full_report_pairs_the_labels_once(self, kind, monkeypatch):
        """join, meet and every pair measure of one (p, s) pair the two label vectors once.

        implication and refines keep passes of their own, so they are left out.
        """
        rng = random.Random(f"pair-once-{kind}")
        n = 300
        p, s = (_from_labels(Universe(n), [rng.randrange(k) for _ in range(n)]) for k in (40, 7))
        weights = seeded_weights(kind, n, rng)
        pairings = []

        def counting_zip(*iterables):
            if sorted(map(id, iterables)) == sorted((id(p.labels), id(s.labels))):
                pairings.append(iterables)
            return zip(*iterables)

        for module in (logical, partitions):
            monkeypatch.setattr(module, "zip", counting_zip, raising=False)
        monkeypatch.setattr(logical, "_last_table", (None, None, None, None))
        monkeypatch.setattr(partitions, "_last_join", (None, None, None, None), raising=False)
        joined, met = join(p, s), meet(p, s)
        cond = logical_conditional_partition(p, s, weights)
        for measure in (
            logical_mutual_partition,
            shannon_conditional_partition,
            shannon_mutual_partition,
        ):
            measure(p, s, weights)
        assert len(pairings) == 1
        h_join, h_s = (logical_entropy_partition(x, weights) for x in (joined, s))
        assert cond == pytest.approx(h_join - h_s, abs=1e-12)
        assert met.labels == meet(_from_labels(p.universe, p.labels), s).labels


class TestPairTableAtTheDenseLimit:
    """Block-mass values against the dense dit sets at n = DENSE_RELATION_LIMIT."""

    N = DENSE_RELATION_LIMIT

    @staticmethod
    def random_partition(rng, n):
        k = rng.choice([1, 2, 3, 8, 20, n])
        return _from_labels(Universe(n), [rng.randrange(k) for _ in range(n)])

    @pytest.mark.parametrize("kind", ["unweighted", "exact", "float"])
    def test_conditional_and_mutual(self, kind):
        rng = random.Random(f"dense-limit-{kind}")
        n = self.N
        for _ in range(6):
            p, s = self.random_partition(rng, n), self.random_partition(rng, n)
            raw = [rng.randint(0, 9) for _ in range(n)]
            raw[rng.randrange(n)] += 1  # never all zero
            weights = {
                "unweighted": None,
                "exact": Distribution(tuple(Fraction(x, sum(raw)) for x in raw)),
                "float": Distribution(tuple(x / sum(raw) for x in raw)),
            }[kind]
            cases = (
                (logical_conditional_partition(p, s, weights), dit_set(p) - dit_set(s)),
                (logical_mutual_partition(p, s, weights), mutual_dit_set(p, s)),
            )
            for value, oracle in cases:
                if weights is None:
                    assert value == len(oracle) / (n * n)
                elif kind == "exact":
                    assert type(value) is Fraction and value == product_measure(oracle, weights)
                else:
                    assert value == pytest.approx(product_measure(oracle, weights), abs=1e-12)


class TestPairTableMargins:
    """A pair table's row and column sums are the two partitions' own block masses."""

    @pytest.mark.parametrize("kind", ["unweighted", "exact", "float"])
    def test_margins_are_block_probabilities(self, kind):
        rng = random.Random(f"table-margins-{kind}")
        for _ in range(200):
            n = rng.randint(1, 64)
            p, s = (
                _from_labels(Universe(n), [rng.randrange(rng.randint(1, n)) for _ in range(n)])
                for _ in range(2)
            )
            raw = [(rng.random() + 0.01) * rng.randint(0, 9) for _ in range(n)]
            raw[rng.randrange(n)] += 1  # never all zero
            total = sum(raw)
            weights = {
                "unweighted": None,
                "exact": Distribution(tuple(Fraction(x) / Fraction(total) for x in raw)),
                "float": Distribution(tuple(x / total for x in raw)),
            }[kind]
            table = _partition_table(p, s, weights)
            shares = [
                tuple(Fraction(m, table.total) if table.exact else m / table.total for m in sums)
                for sums in (table.rows, table.cols)
            ]
            assert shares == [block_probabilities(p, weights), block_probabilities(s, weights)]

    def test_an_unweighted_report_counts_each_partition_once(self, monkeypatch):
        """h(p), h(s), the pair table and H(p) read one count of each partition's labels."""
        counted = []

        def counting(iterable=()):
            counted.append(iterable)
            return Counter(iterable)

        for module in (logical, partitions):
            monkeypatch.setattr(module, "Counter", counting, raising=False)
        monkeypatch.setattr(logical, "_last_table", (None, None, None, None))
        rng = random.Random("count-once")
        p, s = (
            _from_labels(Universe(300), [rng.randrange(k) for _ in range(300)]) for k in (40, 7)
        )
        values = [
            logical_entropy_partition(p),
            logical_entropy_partition(s),
            logical_conditional_partition(p, s),
            logical_mutual_partition(p, s),
            shannon_entropy_partition(p),
            shannon_mutual_partition(p, s),
        ]
        assert [sum(labels is x.labels for labels in counted) for x in (p, s)] == [1, 1]
        assert values[:2] == [
            (300**2 - sum(len(b) ** 2 for b in x.blocks)) / 300**2 for x in (p, s)
        ]


class TestJointMeasures:
    def test_uniform_2x2(self):
        j = JointDistribution.uniform(2, 2)
        assert joint_logical_entropy(j) == pytest.approx(0.75)
        assert logical_conditional_joint(j, "y") == pytest.approx(0.25)
        assert logical_mutual_joint(j) == pytest.approx(0.25)

    def test_point_mass_cell(self):
        j = JointDistribution(((1.0, 0.0), (0.0, 0.0)))
        assert joint_logical_entropy(j) == 0
        assert logical_conditional_joint(j, "y") == 0
        assert logical_mutual_joint(j) == 0

    def test_identity_coupling(self):
        j = JointDistribution(((Fraction(1, 2), 0), (0, Fraction(1, 2))))
        assert joint_logical_entropy(j) == Fraction(1, 2)
        assert logical_conditional_joint(j, "y") == 0
        assert logical_mutual_joint(j) == Fraction(1, 2)

    def test_conditional_venn(self):
        j = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
        hy = logical_entropy_dist(Distribution(j.marginal_y))
        hx = logical_entropy_dist(Distribution(j.marginal_x))
        hxy = joint_logical_entropy(j)
        assert logical_conditional_joint(j, "y") == pytest.approx(hxy - hy, abs=1e-12)
        assert logical_conditional_joint(j, "x") == pytest.approx(hxy - hx, abs=1e-12)

    def test_independent_product_multiplies(self):
        px = Distribution((Fraction(1, 2), Fraction(1, 2)))
        py = Distribution((Fraction(1, 4), Fraction(3, 4)))
        j = JointDistribution.outer(px, py)
        assert logical_mutual_joint(j) == logical_entropy_dist(px) * logical_entropy_dist(py)
        assert (1 - logical_entropy_dist(px)) * (1 - logical_entropy_dist(py)) == (
            1 - joint_logical_entropy(j)
        )

    def test_conditional_and_mutual_are_pair_space_measures(self):
        # not just averages: the double-sum product measure over (X x Y)^2
        # of the relevant pair set must give the same numbers
        j = JointDistribution(
            (
                (Fraction(1, 8), Fraction(1, 4), Fraction(1, 8)),
                (Fraction(1, 4), Fraction(0), Fraction(1, 4)),
            )
        )
        cells = list(j.cells())
        cond_oracle = sum(
            p1 * p2
            for i1, j1, p1 in cells
            for i2, j2, p2 in cells
            if i1 != i2 and j1 == j2
        )
        mut_oracle = sum(
            p1 * p2
            for i1, j1, p1 in cells
            for i2, j2, p2 in cells
            if i1 != i2 and j1 != j2
        )
        assert logical_conditional_joint(j, "y") == cond_oracle
        assert logical_mutual_joint(j) == mut_oracle

    @pytest.mark.parametrize(
        "rows",
        [
            ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 4))),
            ((Fraction(1, 8), Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 4), 0, Fraction(1, 4))),
            ((0, 1, 0), (0, 0, 0)),
        ],
    )
    def test_exact_joint_measures_are_fractions_of_cell_dit_sets(self, rows):
        """Rows and columns partition the cells; an exact joint's measures are their dit sets'."""
        j = JointDistribution(rows)
        cells = Universe(j.nx * j.ny)
        dit_rows = dit_set(_from_labels(cells, [i for i, _, _ in j.cells()]))
        dit_cols = dit_set(_from_labels(cells, [c for _, c, _ in j.cells()]))
        values = [
            logical_conditional_joint(j, "y"),
            logical_conditional_joint(j, "x"),
            logical_mutual_joint(j),
        ]
        assert all(type(v) is Fraction for v in values)
        assert values == [
            product_measure(dit_rows - dit_cols, j.flatten()),
            product_measure(dit_cols - dit_rows, j.flatten()),
            product_measure(dit_rows & dit_cols, j.flatten()),
        ]


def _seeded_joints(kind):
    """Float joints of every shape up to 6 x 6 (seeds 2024, 7, 1), some with zero
    cells, as they are, as exact fractions, or with every other cell a Fraction."""
    for seed in (2024, 7, 1):
        gen = SplitMix64(seed)
        for t in range(100):
            j = random_joint(gen, 1 + t % 6, 1 + t // 6 % 6, 0.2 if t % 3 == 0 else 0.0)
            if kind == "exact":
                rows = [[Fraction(v).limit_denominator(997) for v in r] for r in j.rows]
                total = sum(map(sum, rows))
                j = JointDistribution(tuple(tuple(v / total for v in r) for r in rows))
            elif kind == "mixed":
                j = JointDistribution(tuple(
                    tuple(Fraction(v).limit_denominator(10**6) if (x + y) % 2 else v
                          for y, v in enumerate(r))
                    for x, r in enumerate(j.rows)
                ))
            yield j


class TestJointIsItsAxisPartitions:
    """A joint's pair measures are those of its row and column partitions of the cells."""

    @pytest.mark.parametrize("kind", ["float", "exact", "mixed"])
    def test_pair_measures_equal_axis_partition_measures(self, kind):
        for j in _seeded_joints(kind):
            cells = Universe(j.nx * j.ny)
            x = _from_labels(cells, [i for i, _, _ in j.cells()])
            y = _from_labels(cells, [c for _, c, _ in j.cells()])
            pairs = [
                (logical_conditional_joint(j, "y"), logical_conditional_partition(x, y, j._cells)),
                (logical_conditional_joint(j, "x"), logical_conditional_partition(y, x, j._cells)),
                (logical_mutual_joint(j), logical_mutual_partition(x, y, j._cells)),
                (shannon_conditional_joint(j, "y"), shannon_conditional_partition(x, y, j._cells)),
                (shannon_conditional_joint(j, "x"), shannon_conditional_partition(y, x, j._cells)),
                (shannon_mutual_joint(j), shannon_mutual_partition(x, y, j._cells)),
            ]
            for joint_value, partition_value in pairs:
                assert joint_value == partition_value
                assert type(joint_value) is type(partition_value)
            assert block_probabilities(x, j._cells) == j.marginal_x
            assert block_probabilities(y, j._cells) == j.marginal_y

    @pytest.mark.parametrize("kind", ["float", "exact"])
    def test_six_pair_measures_build_one_table(self, kind, monkeypatch):
        """The table is read from the grid once per joint, with no partition of the cells."""
        builds = []
        build = JointDistribution._table.compute

        def counting(joint):
            builds.append(joint)
            return build(joint)

        def refused(*args):
            raise AssertionError("a joint table built through the partition route")

        monkeypatch.setattr(JointDistribution._table, "compute", counting)
        for name in ("_block_masses", "_join_cells", "_partition_table"):
            monkeypatch.setattr(logical, name, refused)
        j = next(_seeded_joints(kind))
        for measure in (logical_conditional_joint, shannon_conditional_joint):
            measure(j, "y")
            measure(j, "x")
        logical_mutual_joint(j)
        shannon_mutual_joint(j)
        assert builds == [j] and j._table.exact == (kind == "exact")


class TestFloatBlockMasses:
    def test_block_masses_are_left_to_right_sums(self):
        """The rule of a distribution's total and a joint's marginals, not fsum."""
        assert math.fsum((0.1, 0.2, 0.3)) != 0.1 + 0.2 + 0.3
        w = Distribution((0.1, 0.2, 0.3, 0.4))
        assert w.probs == (0.1, 0.2, 0.3, 0.4)
        assert block_probabilities(make_partition([{0, 1, 2}, {3}], 4), w) == (0.1 + 0.2 + 0.3, 0.4)

    def test_large_float_weights_agree_with_their_exact_reading(self):
        rng = random.Random("left-to-right-20000")
        n = 20_000
        raw = [rng.random() + 0.01 for _ in range(n)]
        total = math.fsum(raw)
        floats = Distribution(tuple(v / total for v in raw))
        exact = Distribution(tuple(map(Fraction, floats.probs)))
        p = _from_labels(Universe(n), [rng.randrange(7) for _ in range(n)])
        s = _from_labels(Universe(n), [rng.randrange(300) for _ in range(n)])
        for value, oracle in [
            (logical_entropy_partition(p, floats), logical_entropy_partition(p, exact)),
            (logical_mutual_partition(p, s, floats), logical_mutual_partition(p, s, exact)),
            (shannon_entropy_partition(s, floats), shannon_entropy_partition(s, exact)),
        ]:
            assert type(value) is float
            assert value == pytest.approx(float(oracle), abs=1e-12)


class TestCrossAndDivergence:
    def test_cross_of_self_is_entropy(self):
        p = Distribution((0.3, 0.7))
        assert logical_cross_entropy(p, p) == pytest.approx(logical_entropy_dist(p))

    def test_disjoint_supports(self):
        assert logical_cross_entropy(Distribution((1, 0)), Distribution((0, 1))) == 1

    def test_cross_example(self):
        p = Distribution((Fraction(1, 2), Fraction(1, 2)))
        q = Distribution((Fraction(1, 4), Fraction(3, 4)))
        assert logical_cross_entropy(p, q) == Fraction(1, 2)

    def test_divergence_zero_iff_equal(self):
        p = Distribution((0.3, 0.7))
        assert logical_divergence(p, p) == 0
        q = Distribution((0.31, 0.69))
        assert logical_divergence(p, q) > 0

    def test_divergence_examples(self):
        assert logical_divergence(Distribution((1, 0)), Distribution((0, 1))) == 1
        p = Distribution((Fraction(1, 2), Fraction(1, 2)))
        q = Distribution((Fraction(1, 4), Fraction(3, 4)))
        assert logical_divergence(p, q) == Fraction(1, 16)

    def test_jensen_identity_exact(self):
        p = Distribution((Fraction(1, 2), Fraction(1, 2)))
        q = Distribution((Fraction(1, 4), Fraction(3, 4)))
        jensen = logical_cross_entropy(p, q) - (
            logical_entropy_dist(p) + logical_entropy_dist(q)
        ) / 2
        assert logical_divergence(p, q) == jensen == Fraction(1, 16)

    ZERO_FIRST = (0, 0.2, 0.5, 0.01, 0.29)  # sums to exactly 1.0, so 0 is kept as an int

    def test_how_a_zero_is_typed_does_not_change_the_sum(self):
        as_int = Distribution(self.ZERO_FIRST)
        as_float = Distribution((0.0,) + self.ZERO_FIRST[1:])
        assert type(as_int.probs[0]) is int  # the stored entries are not coerced
        other = Distribution((0, 0.3, 0.3, 0.2, 0.2))
        other_float = Distribution((0.0, 0.3, 0.3, 0.2, 0.2))
        assert logical_entropy_dist(as_int) == logical_entropy_dist(as_float) == 0.6258
        assert logical_cross_entropy(as_int, other) == logical_cross_entropy(as_float, other_float)
        assert logical_divergence(as_int, other) == logical_divergence(as_float, other_float)

    def test_zero_typing_over_seeded_vectors(self):
        rng = random.Random(11)
        tried = 0
        while tried < 200:
            raw = [rng.random() for _ in range(7)]
            probs = tuple(x / math.fsum(raw) for x in raw)
            if sum(probs) != 1.0:
                continue  # renormalizing would turn the int 0 into a float
            tried += 1
            p, q = Distribution((0,) + probs), Distribution((0.0,) + probs)
            assert logical_entropy_dist(p) == logical_entropy_dist(q)
            assert logical_cross_entropy(p, p) == logical_cross_entropy(q, q)
            assert logical_divergence(p, Distribution.point_mass(8)) == logical_divergence(
                q, Distribution((1.0,) + (0.0,) * 7)
            )

    def test_length_mismatch(self):
        with pytest.raises(SizeMismatchError):
            logical_cross_entropy(Distribution((1.0,)), Distribution((0.5, 0.5)))
        with pytest.raises(SizeMismatchError):
            logical_divergence(Distribution((1.0,)), Distribution((0.5, 0.5)))


class TestQuadraticEntropy:
    def test_logical_distance_recovers_entropy(self):
        p = THIRDS
        d = DistanceMatrix.logical(3)
        assert quadratic_entropy(p, d) == logical_entropy_dist(p)

    def test_zero_distances(self):
        d = DistanceMatrix(((0, 0), (0, 0)))
        assert quadratic_entropy(Distribution((0.5, 0.5)), d) == 0

    def test_scaled_distance(self):
        d = DistanceMatrix(((0, 3), (3, 0)))
        assert quadratic_entropy(Distribution((Fraction(1, 2), Fraction(1, 2))), d) == Fraction(3, 2)

    def test_invalid_matrices(self):
        with pytest.raises(InvalidDistanceMatrixError, match="diagonal"):
            DistanceMatrix(((1, 0), (0, 0)))
        with pytest.raises(InvalidDistanceMatrixError, match="asymmetric"):
            DistanceMatrix(((0, 1), (2, 0)))
        with pytest.raises(InvalidDistanceMatrixError, match="negative"):
            DistanceMatrix(((0, -1), (-1, 0)))

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((0, "a"), ("a", 0)), "not a matrix of numbers"),
            (5, "not a matrix of numbers"),
            ((5, 6), "not a matrix of numbers"),
            (((0, None), (None, 0)), "not a matrix of numbers"),
            (((0, math.nan), (math.nan, 0)), "nan at \\(0, 1\\) is not a nonnegative number"),
            (((0, 1), (math.nan, 0)), "nan at \\(1, 0\\) is not a nonnegative number"),
            (((0, 1, 2), (1, 0, 3), (2, 4, 0)), "asymmetric entries at \\(1, 2\\)"),
            (((0, math.inf), (math.inf, 0)), "infinite distance at \\(0, 1\\)"),
            (((0, 1), (math.inf, 0)), "infinite distance at \\(1, 0\\)"),
            (((0, Decimal("inf")), (Decimal("inf"), 0)), "infinite distance at \\(0, 1\\)"),
            (((0, Decimal("nan")), (Decimal("nan"), 0)), "not a matrix of numbers"),
            (((0, Decimal(1)), (Decimal(1), 0)), "non-real distance Decimal\\('1'\\) at \\(0, 1\\)"),
            (((0, 1), (Decimal(1), 0)), "non-real distance Decimal\\('1'\\) at \\(1, 0\\)"),
        ],
        ids=[
            "str-entry", "int", "int-rows", "none-entry", "nan-pair", "nan-below", "asymmetric",
            "inf-pair", "inf-below", "inf-decimal", "nan-decimal", "decimal-pair", "decimal-below",
        ],
    )
    def test_refusals_are_distance_matrix_errors(self, entries, message):
        with pytest.raises(InvalidDistanceMatrixError, match=message):
            DistanceMatrix(entries)

    def test_dimension_mismatch(self):
        with pytest.raises(SizeMismatchError):
            quadratic_entropy(Distribution((0.5, 0.5)), DistanceMatrix.logical(3))

    def test_numpy_integer_distances_are_accepted(self):
        import numpy as np

        d = DistanceMatrix(((0, np.int64(3)), (np.int64(3), 0)))
        assert quadratic_entropy(Distribution((0.5, 0.5)), d) == 1.5


class TestMixing:
    def test_degenerate(self):
        p = Distribution((0.3, 0.7))
        report = mixing_entropy(p, p)
        h = logical_entropy_dist(p)
        assert report.h_mix == pytest.approx(h)
        assert report.cross == pytest.approx(h)
        assert report.mean_h == pytest.approx(h)

    def test_disjoint(self):
        report = mixing_entropy(Distribution((1, 0)), Distribution((0, 1)))
        assert report.h_mix == Fraction(1, 2)
        assert report.cross == 1
        assert report.mean_h == 0

    def test_identity_example(self):
        p = Distribution((Fraction(1, 2), Fraction(1, 2)))
        q = Distribution((Fraction(1, 4), Fraction(3, 4)))
        report = mixing_entropy(p, q)
        assert report.h_mix == Fraction(15, 32)
        assert report.h_mix == report.cross / 2 + (report.mean_h * 2) / 4
        assert report.cross >= report.h_mix >= report.mean_h
