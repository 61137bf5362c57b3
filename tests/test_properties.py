"""Property-based checks of the algebraic identities on randomized inputs."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from logent.logical import (
    DistanceMatrix,
    Distribution,
    JointDistribution,
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
    Partition,
    Universe,
    _from_labels,
    implication,
    join,
    make_partition,
    meet,
    refines,
)
from logent.rng import SplitMix64
from logent.sampling import pair_distinction_rate
from logent.shannon import (
    bit_to_dit,
    dit_bit_transform,
    dit_to_bit,
    kl_divergence,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_mutual_joint,
)
from logent.spec import (
    PairRelation,
    dit_set,
    indit_set,
    interior,
    mutual_dit_set,
    mutual_dit_set_blockform,
    partition_from_equivalence,
    product_measure,
    rst_closure,
)


def partition_from_labels(labels):
    groups = {}
    for u, a in enumerate(labels):
        groups.setdefault(a, set()).add(u)
    return make_partition(groups.values(), len(labels))


@st.composite
def partitions(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return partition_from_labels(labels)


@st.composite
def partition_pairs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return partition_from_labels(a), partition_from_labels(b)


@st.composite
def relations(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    return PairRelation(Universe(n), bits)


@st.composite
def relation_pairs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (1 << (n * n)) - 1
    a = draw(st.integers(min_value=0, max_value=top))
    b = draw(st.integers(min_value=0, max_value=top))
    return PairRelation(Universe(n), a), PairRelation(Universe(n), b)


@st.composite
def distributions(draw, min_size=1, max_size=8):
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=min_size,
            max_size=max_size,
        )
    )
    total = sum(raw)
    return Distribution(tuple(v / total for v in raw))


@st.composite
def distribution_pairs(draw, min_size=2, max_size=8):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    p = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    )
    q = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    )
    return (
        Distribution(tuple(v / sum(p) for v in p)),
        Distribution(tuple(v / sum(q) for v in q)),
    )


@st.composite
def joints(draw, max_side=4):
    nx = draw(st.integers(min_value=1, max_value=max_side))
    ny = draw(st.integers(min_value=1, max_value=max_side))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=nx * ny,
            max_size=nx * ny,
        )
    )
    total = sum(raw)
    rows = tuple(
        tuple(raw[i * ny + j] / total for j in range(ny)) for i in range(nx)
    )
    return JointDistribution(rows)


# ----------------------------------------------------------------------
# partition algebra
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.tuples(st.integers(-1, 1), st.integers(-1, 1))),
        min_size=1,
        max_size=8,
    )
)
def test_from_labels_renumbers_any_labelling(labels):
    built = _from_labels(Universe(len(labels)), labels)
    grouped = partition_from_labels(labels)
    assert built == grouped and built.labels == grouped.labels and hash(built) == hash(grouped)


@given(partition_pairs())
def test_join_dit_set_is_union(pair):
    p, s = pair
    assert dit_set(join(p, s)).bits == (dit_set(p) | dit_set(s)).bits


@given(partition_pairs())
def test_meet_dit_set_is_interior_of_intersection(pair):
    p, s = pair
    assert dit_set(meet(p, s)).bits == interior(dit_set(p) & dit_set(s)).bits


@given(partition_pairs())
def test_refinement_is_dit_inclusion(pair):
    p, s = pair
    assert refines(s, p) == dit_set(s).issubset(dit_set(p))


@given(partition_pairs())
def test_mutual_structure_theorem(pair):
    p, s = pair
    assert mutual_dit_set(p, s).bits == mutual_dit_set_blockform(p, s).bits


@given(partition_pairs())
def test_lattice_operations_emit_validated_partitions(pair):
    """join, meet and implication skip validation, so their blocks must already be canonical."""
    p, s = pair
    for x in (join(p, s), meet(p, s), implication(s, p), implication(p, s)):
        assert Partition(x.universe, x.blocks) == x


@given(partition_pairs())
def test_absorption_laws(pair):
    p, s = pair
    assert join(p, meet(p, s)) == p
    assert meet(p, join(p, s)) == p


@given(partitions())
def test_dit_indit_duality(p):
    d, e = dit_set(p), indit_set(p)
    n = p.universe.size
    assert (d.bits | e.bits) == PairRelation.full(n).bits
    assert (d.bits & e.bits) == 0
    assert e.is_equivalence()
    assert d.is_irreflexive() and d.is_symmetric() and d.is_anti_transitive()
    assert partition_from_equivalence(e) == p


@given(relations())
def test_closure_laws(r):
    closed = rst_closure(r)
    assert r.issubset(closed)
    assert rst_closure(closed).bits == closed.bits
    assert closed.is_equivalence()


@given(relation_pairs())
def test_closure_and_interior_monotone(pair):
    a, b = pair
    union = a | b
    assert rst_closure(a).issubset(rst_closure(union))
    assert interior(a).issubset(interior(union))


@given(relations())
def test_interior_laws(r):
    inner = interior(r)
    assert inner.issubset(r)
    assert interior(inner).bits == inner.bits
    assert inner.is_irreflexive() and inner.is_symmetric() and inner.is_anti_transitive()


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------


@given(distributions())
def test_entropy_bounds(p):
    h = logical_entropy_dist(p)
    n = len(p)
    assert -1e-12 <= h <= 1 - 1 / n + 1e-12
    assert math.isclose(h + identification_probability(p), 1.0, abs_tol=1e-12)
    capital = shannon_entropy_dist(p)
    assert -1e-12 <= capital <= math.log2(n) + 1e-12


@given(distribution_pairs())
def test_jensen_difference_identity(pair):
    p, q = pair
    d = logical_divergence(p, q)
    jensen = logical_cross_entropy(p, q) - (
        logical_entropy_dist(p) + logical_entropy_dist(q)
    ) / 2
    assert abs(d - jensen) < 1e-12
    assert d >= 0.0
    assert kl_divergence(p, q) >= -1e-12


@given(distribution_pairs())
def test_cross_entropy_symmetric_and_mixing_chain(pair):
    p, q = pair
    assert abs(logical_cross_entropy(p, q) - logical_cross_entropy(q, p)) < 1e-15
    report = mixing_entropy(p, q)
    assert report.cross >= report.h_mix - 1e-12
    assert report.h_mix >= report.mean_h - 1e-12


@given(distributions(min_size=2))
def test_quadratic_entropy_with_logical_distance(p):
    d = DistanceMatrix.logical(len(p))
    assert abs(quadratic_entropy(p, d) - logical_entropy_dist(p)) < 1e-12


@given(partitions(max_n=5))
def test_partition_entropy_three_forms(p):
    n = p.universe.size
    uniform = Distribution.uniform_exact(n)
    counting = logical_entropy_partition(p)
    measured = product_measure(dit_set(p), uniform)
    block_form = 1 - sum(Fraction(len(b), n) ** 2 for b in p.blocks)
    assert measured == block_form
    assert abs(counting - float(measured)) < 1e-12


@st.composite
def weighted_partition_pairs(draw, max_n=6):
    p, s = draw(partition_pairs(max_n=max_n))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=p.universe.size,
            max_size=p.universe.size,
        ).filter(lambda r: sum(r) > 0.01)
    )
    total = sum(raw)
    return p, s, Distribution(tuple(v / total for v in raw))


@given(weighted_partition_pairs())
def test_float_weighted_block_masses_match_dit_set_measure(case):
    p, s, w = case
    dp, ds = dit_set(p), dit_set(s)
    assert abs(logical_entropy_partition(p, w) - product_measure(dp, w)) < 1e-12
    assert abs(logical_conditional_partition(p, s, w) - product_measure(dp - ds, w)) < 1e-12
    assert abs(logical_mutual_partition(p, s, w) - product_measure(dp & ds, w)) < 1e-12


@st.composite
def exact_weighted_partition_pairs(draw, max_n=6):
    """Partition pairs under Fraction weights with unlike random denominators."""
    p, s = draw(partition_pairs(max_n=max_n))
    raw = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=97),
            min_size=p.universe.size,
            max_size=p.universe.size,
        ).filter(lambda r: sum(r) > 0)
    )
    total = sum(raw)
    return p, s, Distribution(tuple(v / total for v in raw))


@given(exact_weighted_partition_pairs())
def test_exact_weighted_block_masses_equal_dit_set_measure(case):
    p, s, w = case
    dp, ds = dit_set(p), dit_set(s)
    for value, relation in (
        (logical_entropy_partition(p, w), dp),
        (logical_conditional_partition(p, s, w), dp - ds),
        (logical_mutual_partition(p, s, w), dp & ds),
    ):
        assert isinstance(value, Fraction)
        assert value == product_measure(relation, w)
        assert value == sum((w[i] * w[j] for i, j in relation.pairs()), Fraction(0))
    assert sum(block_probabilities(p, w)) == 1


@given(partition_pairs(max_n=5))
def test_partition_inclusion_exclusion(pair):
    p, s = pair
    n = p.universe.size
    w = Distribution.uniform_exact(n)
    m = logical_mutual_partition(p, s, w)
    assert m == (
        logical_entropy_partition(p, w)
        + logical_entropy_partition(s, w)
        - logical_entropy_partition(join(p, s), w)
    )


# ----------------------------------------------------------------------
# joints
# ----------------------------------------------------------------------


@given(joints())
def test_joint_venn_identities(j):
    hx = logical_entropy_dist(Distribution(j.marginal_x))
    hy = logical_entropy_dist(Distribution(j.marginal_y))
    hxy = joint_logical_entropy(j)
    assert abs(logical_conditional_joint(j, "y") - (hxy - hy)) < 1e-12
    assert abs(logical_conditional_joint(j, "x") - (hxy - hx)) < 1e-12
    assert abs(logical_mutual_joint(j) - (hx + hy - hxy)) < 1e-12


@given(joints(max_side=3))
def test_joint_shannon_identities(j):
    hx = shannon_entropy_dist(Distribution(j.marginal_x))
    hy = shannon_entropy_dist(Distribution(j.marginal_y))
    hxy = shannon_entropy_dist(j.flatten())
    mutual = shannon_mutual_joint(j)
    assert abs(mutual - (hx + hy - hxy)) < 1e-12
    assert mutual >= -1e-12
    kl_form = kl_divergence(j.flatten(), j.product_of_marginals().flatten())
    assert abs(mutual - kl_form) < 1e-12


@given(distributions(min_size=2, max_size=4), distributions(min_size=2, max_size=4))
def test_outer_product_independence(px, py):
    j = JointDistribution.outer(px, py)
    assert j.independence_residual() < 1e-15
    assert abs(shannon_mutual_joint(j)) < 1e-12
    expected = logical_entropy_dist(px) * logical_entropy_dist(py)
    assert abs(logical_mutual_joint(j) - expected) < 1e-12


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=0.9999))
def test_dit_bit_roundtrip(h0):
    assert abs(bit_to_dit(dit_to_bit(h0)) - h0) < 1e-12


@given(st.floats(min_value=0.0, max_value=30.0))
def test_bit_dit_roundtrip(bits):
    # near h = 1 the stored dit count only carries ~(53 - bits) significant
    # bits, so the reverse trip is limited by representation, not algebra
    tolerance = 1e-12 + 2.0**bits * 5e-16
    assert abs(dit_to_bit(bit_to_dit(bits)) - bits) < tolerance


@given(distribution_pairs())
def test_transform_matches_direct(pair):
    p, q = pair
    assert abs(dit_bit_transform("entropy", p) - shannon_entropy_dist(p)) < 1e-12
    assert abs(dit_bit_transform("cross", p, q) - shannon_cross_entropy(p, q)) < 1e-12


# ----------------------------------------------------------------------
# sampling determinism
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), distributions(min_size=2, max_size=5))
def test_sampling_reproducible(seed, p):
    a = pair_distinction_rate(p, 500, seed)
    b = pair_distinction_rate(p, 500, seed)
    assert a == b


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_generator_streams_disjoint_views(seed):
    gen = SplitMix64(seed)
    first = [gen.next_uint64() for _ in range(8)]
    gen2 = SplitMix64(seed)
    assert first == [gen2.next_uint64() for _ in range(8)]
