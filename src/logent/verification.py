"""Exhaustive and randomized identity suites.

Small universes are swept completely: every ordered pair of partitions is
pushed through the lattice identities with exact set equality, and through
the measure identities with exact rational weights.  Distributions and joint
matrices are exercised with seeded random inputs at a 1e-12 residual bound.
The CLI ``verify`` command and the acceptance tests both drive these suites.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .logical import (
    IDENTITY_TOLERANCE,
    Distribution,
    JointDistribution,
    _left_sum,
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
)
from .partitions import Universe, _from_labels, enumerate_partitions, implication, join, meet, refines
from .rng import SplitMix64
from .shannon import (
    bit_to_dit,
    dit_bit_transform,
    dit_to_bit,
    kl_divergence,
    shannon_conditional_joint,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_entropy_partition,
    shannon_hartley,
    shannon_mutual_joint,
    shannon_mutual_partition,
    stirling_entropy,
    symmetrized_kl_divergence,
)
from .spec import (
    PairRelation,
    dit_set,
    indit_set,
    interior,
    mutual_dit_set_blockform,
    partition_from_equivalence,
    product_measure,
    rst_closure,
)


class SuiteResult:
    """Checks of one named identity: how many ran, how many failed, the worst residual."""

    __slots__ = ("name", "checks", "failures", "worst_residual")

    def __init__(self, name: str, checks=0, failures=0, worst_residual=0.0) -> None:
        self.name, self.checks, self.failures = name, checks, failures
        self.worst_residual = worst_residual

    def exact(self, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1

    def residual(self, value: float, bound: float = IDENTITY_TOLERANCE) -> None:
        value = abs(float(value))
        self.checks += 1
        self.worst_residual = max(self.worst_residual, value)
        if not value <= bound:
            self.failures += 1

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.checks > 0


# ----------------------------------------------------------------------
# seeded random inputs
# ----------------------------------------------------------------------


def random_distribution(gen: SplitMix64, n: int) -> Distribution:
    """A random vector with components at least 0.05 before normalizing."""
    raw = [0.05 + 0.95 * gen.next_unit() for _ in range(n)]
    total = _left_sum(raw)
    return Distribution(tuple(v / total for v in raw))


def random_joint(
    gen: SplitMix64, nx: int, ny: int, zero_rate: float = 0.0
) -> JointDistribution:
    """A random joint matrix, optionally with some cells forced to exact zero."""
    while True:
        rows = [
            [0.05 + 0.95 * gen.next_unit() for _ in range(ny)] for _ in range(nx)
        ]
        if zero_rate > 0.0:
            for i in range(nx):
                for j in range(ny):
                    if gen.next_unit() <= zero_rate:
                        rows[i][j] = 0.0
        total = _left_sum(v for r in rows for v in r)
        if total > 0:
            return JointDistribution(tuple(tuple(v / total for v in r) for r in rows))


# ----------------------------------------------------------------------
# exhaustive partition-pair suites
# ----------------------------------------------------------------------


def run_lattice_suites(max_n: int) -> list[SuiteResult]:
    """Exact set identities over every ordered partition pair for n <= max_n."""
    relation_laws = SuiteResult("dit_indit_partition_relation_laws")
    roundtrip = SuiteResult("equivalence_roundtrip")
    join_union = SuiteResult("join_dit_union")
    meet_interior = SuiteResult("meet_dit_interior_of_intersection")
    meet_closure = SuiteResult("meet_equals_closure_of_indit_union")
    impl_formula = SuiteResult("implication_discretize_equals_interior_formula")
    refine_equiv = SuiteResult("refines_iff_dit_subset_iff_implication_discrete")
    mut_structure = SuiteResult("mutual_dit_structure_theorem")
    mut_nonempty = SuiteResult("nonempty_dit_sets_intersect")
    contrapositive = SuiteResult("covering_indit_union_forces_indiscrete")

    for n in range(1, max_n + 1):
        parts = list(enumerate_partitions(n))
        full = PairRelation.full(n)
        discrete = parts[-1]
        dits = [dit_set(p) for p in parts]
        indits = [indit_set(p) for p in parts]
        # Lattice results are looked up by their labels: a result that is not a
        # canonical enumerated partition reads None and fails its check.
        dit_bits = {p.labels: d.bits for p, d in zip(parts, dits)}.get

        for p, d, e in zip(parts, dits, indits):
            relation_laws.exact(
                d.is_irreflexive()
                and d.is_symmetric()
                and d.is_anti_transitive()
                and e.is_equivalence()
                and (d.bits | e.bits) == full.bits
                and (d.bits & e.bits) == 0
            )
            roundtrip.exact(partition_from_equivalence(e) == p)

        for i, p in enumerate(parts):
            for j, s in enumerate(parts):
                join_union.exact(dit_bits(join(p, s).labels) == (dits[i].bits | dits[j].bits))

                mut = dits[i] & dits[j]
                met = meet(p, s)
                meet_interior.exact(dit_bits(met.labels) == interior(mut).bits)
                meet_closure.exact(
                    met == partition_from_equivalence(rst_closure(indits[i] | indits[j]))
                )

                arrow = implication(s, p)
                formula_bits = interior(dits[j].complement() | dits[i]).bits
                impl_formula.exact(dit_bits(arrow.labels) == formula_bits)
                refine_equiv.exact(
                    refines(s, p) == dits[j].issubset(dits[i]) == (arrow == discrete)
                )

                mut_structure.exact(mut.bits == mutual_dit_set_blockform(p, s).bits)
                if not dits[i].is_empty and not dits[j].is_empty:
                    mut_nonempty.exact(not mut.is_empty)
                if (indits[i].bits | indits[j].bits) == full.bits:
                    contrapositive.exact(p.is_indiscrete or s.is_indiscrete)

    return [
        relation_laws, roundtrip, join_union, meet_interior, meet_closure,
        impl_formula, refine_equiv, mut_structure, mut_nonempty, contrapositive,
    ]


def run_closure_operator_suite(max_n: int = 4, seed: int = 2024) -> list[SuiteResult]:
    """Closure/interior operator laws on random and dit-derived relations."""
    closure_laws = SuiteResult("rst_closure_idempotent_extensive_monotone")
    interior_laws = SuiteResult("interior_idempotent_intensive_monotone")
    gen = SplitMix64(seed)
    for n in range(1, max_n + 1):
        universe = Universe(n)
        mask = (1 << (n * n)) - 1
        relations = [dit_set(p) for p in enumerate_partitions(n)]
        if n <= 3:
            relations.extend(PairRelation(universe, b) for b in range(mask + 1))
        else:
            relations.extend(
                PairRelation(universe, gen.next_uint64() & mask) for _ in range(400)
            )
        for rel in relations:
            closed = rst_closure(rel)
            closure_laws.exact(
                rel.issubset(closed)
                and rst_closure(closed).bits == closed.bits
                and closed.is_equivalence()
            )
            opened = interior(rel)
            interior_laws.exact(
                opened.issubset(rel)
                and interior(opened).bits == opened.bits
                and opened.is_irreflexive()
                and opened.is_symmetric()
                and opened.is_anti_transitive()
            )
            bigger = rel | PairRelation(universe, gen.next_uint64() & mask)
            closure_laws.exact(closed.issubset(rst_closure(bigger)))
            interior_laws.exact(opened.issubset(interior(bigger)))
    return [closure_laws, interior_laws]


def run_measure_suites(max_n: int) -> list[SuiteResult]:
    """Exact rational measure identities, uniform weights, all pairs, n <= max_n."""
    entropy_forms = SuiteResult("partition_entropy_block_form")
    inclusion_exclusion = SuiteResult("mutual_equals_inclusion_exclusion")
    conditional = SuiteResult("conditional_equals_join_minus_given")
    submodular = SuiteResult("meet_measure_submodular")
    identification = SuiteResult("identification_vs_mutual_identity")

    for n in range(2, max_n + 1):
        weights = Distribution.uniform_exact(n)
        parts = list(enumerate_partitions(n))
        dits = [dit_set(p) for p in parts]
        entropies = [logical_entropy_partition(p, weights) for p in parts]

        for p, d, h in zip(parts, dits, entropies):
            block_form = 1 - sum(Fraction(len(b), n) ** 2 for b in p.blocks)
            counting = Fraction(len(d), n * n)
            entropy_forms.exact(h == block_form == counting == product_measure(d, weights))

        for i, p in enumerate(parts):
            for j, s in enumerate(parts):
                h_p, h_s = entropies[i], entropies[j]
                h_join = logical_entropy_partition(join(p, s), weights)
                h_meet = logical_entropy_partition(meet(p, s), weights)
                m = logical_mutual_partition(p, s, weights)
                cond = logical_conditional_partition(p, s, weights)
                # production (block masses) against the specification (dit-set measure)
                inclusion_exclusion.exact(
                    m == h_p + h_s - h_join == product_measure(dits[i] & dits[j], weights)
                )
                conditional.exact(
                    cond == h_join - h_s == product_measure(dits[i] - dits[j], weights)
                )
                submodular.exact(h_meet <= h_p + h_s - h_join)
                identification.exact(
                    (1 - h_join) - (1 - h_p) * (1 - h_s) == m - h_p * h_s
                )

    return [entropy_forms, inclusion_exclusion, conditional, submodular, identification]


# ----------------------------------------------------------------------
# independence on product universes
# ----------------------------------------------------------------------


def run_independence_suite() -> list[SuiteResult]:
    """Stochastically independent partition pairs on product universes.

    Any partition of X lifted by rows is independent of any partition of Y
    lifted by columns under uniform weights, so the multiplicative laws must
    hold exactly on the rational path and the Shannon mutual information must
    vanish.
    """
    multiplicative = SuiteResult("independent_mutual_is_product")
    identification = SuiteResult("independent_identification_multiplies")
    shannon_zero = SuiteResult("independent_shannon_mutual_zero")
    shannon_additive = SuiteResult("independent_shannon_join_additive")

    for nx in (2, 3, 4):
        for ny in (2, 3, 4):
            universe = Universe(nx * ny)  # cell (x, y) of X x Y is element x * ny + y
            weights = Distribution.uniform_exact(nx * ny)
            lifted_x = [
                _from_labels(universe, [b for b in p.labels for _ in range(ny)])
                for p in enumerate_partitions(nx)
            ]
            lifted_y = [_from_labels(universe, p.labels * nx) for p in enumerate_partitions(ny)]
            hx = [logical_entropy_partition(p, weights) for p in lifted_x]
            hy = [logical_entropy_partition(p, weights) for p in lifted_y]
            capital_hx = [shannon_entropy_partition(p) for p in lifted_x]
            capital_hy = [shannon_entropy_partition(p) for p in lifted_y]
            for p, h_p, capital_h_p in zip(lifted_x, hx, capital_hx):
                for s, h_s, capital_h_s in zip(lifted_y, hy, capital_hy):
                    m = logical_mutual_partition(p, s, weights)
                    joined = join(p, s)
                    h_join = logical_entropy_partition(joined, weights)
                    multiplicative.exact(m == h_p * h_s)
                    identification.exact((1 - h_p) * (1 - h_s) == 1 - h_join)
                    shannon_zero.residual(shannon_mutual_partition(p, s))
                    shannon_additive.residual(
                        shannon_entropy_partition(joined) - capital_h_p - capital_h_s
                    )

    return [multiplicative, identification, shannon_zero, shannon_additive]


# ----------------------------------------------------------------------
# randomized distribution and joint suites
# ----------------------------------------------------------------------


def run_divergence_suite(seed: int = 2024) -> list[SuiteResult]:
    """Divergence positivity, the Jensen difference, and the mixing chain."""
    nonneg = SuiteResult("divergences_nonnegative_zero_iff_equal")
    jensen = SuiteResult("logical_divergence_jensen_difference")
    mixing = SuiteResult("mixing_identity_and_chain")
    cross_sym = SuiteResult("logical_cross_entropy_symmetric")

    gen = SplitMix64(seed)
    for k in range(10_000):
        n = 2 + gen.next_uint64() % 7
        p = random_distribution(gen, int(n))
        q = p if k % 10 == 0 else random_distribution(gen, int(n))
        d = logical_divergence(p, q)
        kl = kl_divergence(p, q)
        if q is p:
            nonneg.exact(d == 0 and kl == 0)
        else:
            nonneg.exact(d > 0 and kl > 0)
        report = mixing_entropy(p, q)
        jensen.residual(d - (report.cross - report.mean_h))
        cross_sym.residual(report.cross - logical_cross_entropy(q, p))
        mixing.residual(report.h_mix - report.cross / 2 - report.mean_h / 2)
        mixing.exact(
            report.cross >= report.h_mix - IDENTITY_TOLERANCE
            and report.h_mix >= report.mean_h - IDENTITY_TOLERANCE
        )

    return [nonneg, jensen, mixing, cross_sym]


def _brute_force(joint: JointDistribution, same_y: bool) -> float:
    """Product measure of pairs differing in x and matching (or not) in y, by double sum."""
    cells = list(joint.cells())
    return math.fsum(
        float(p1) * float(p2)
        for i1, j1, p1 in cells
        for i2, j2, p2 in cells
        if i1 != i2 and (j1 == j2) == same_y
    )


def run_joint_suites(seed: int = 2024) -> list[SuiteResult]:
    """Venn identities on random joint distributions, logical and Shannon."""
    venn_logical = SuiteResult("joint_logical_venn_identities")
    venn_shannon = SuiteResult("joint_shannon_venn_identities")
    kl_form = SuiteResult("shannon_mutual_equals_kl_to_product")
    pair_space = SuiteResult("conditional_and_mutual_as_pair_space_measures")
    product_case = SuiteResult("product_joint_independence_laws")

    gen = SplitMix64(seed)
    for k in range(400):
        nx = 2 + int(gen.next_uint64() % 3)
        ny = 2 + int(gen.next_uint64() % 3)
        joint = random_joint(gen, nx, ny, zero_rate=0.15 if k % 3 == 0 else 0.0)
        marginal_x, marginal_y = Distribution(joint.marginal_x), Distribution(joint.marginal_y)
        flat = joint.flatten()
        hx, hy = logical_entropy_dist(marginal_x), logical_entropy_dist(marginal_y)
        hxy = joint_logical_entropy(joint)
        m = logical_mutual_joint(joint)
        cxy = logical_conditional_joint(joint, "y")
        cyx = logical_conditional_joint(joint, "x")
        venn_logical.residual(cxy - (hxy - hy))
        venn_logical.residual(cyx - (hxy - hx))
        venn_logical.residual(m - (hx + hy - hxy))
        venn_logical.residual((1 - hxy) - (1 - hx) * (1 - hy) - (m - hx * hy))

        capital_hx = shannon_entropy_dist(marginal_x)
        capital_hy = shannon_entropy_dist(marginal_y)
        capital_hxy = shannon_entropy_dist(flat)
        mutual = shannon_mutual_joint(joint)
        venn_shannon.residual(
            shannon_conditional_joint(joint, "y") - (capital_hxy - capital_hy)
        )
        venn_shannon.residual(
            shannon_conditional_joint(joint, "x") - (capital_hxy - capital_hx)
        )
        venn_shannon.residual(mutual - (capital_hx + capital_hy - capital_hxy))
        venn_shannon.exact(mutual >= -IDENTITY_TOLERANCE)
        kl_form.residual(mutual - kl_divergence(flat, joint.product_of_marginals().flatten()))

        if k < 100:
            pair_space.residual(cxy - _brute_force(joint, same_y=True))
            pair_space.residual(m - _brute_force(joint, same_y=False))

        px = random_distribution(gen, nx)
        py = random_distribution(gen, ny)
        product = JointDistribution.outer(px, py)
        product_case.residual(shannon_mutual_joint(product))
        product_case.residual(
            logical_mutual_joint(product)
            - logical_entropy_dist(px) * logical_entropy_dist(py)
        )
        product_case.residual(product.independence_residual(), bound=1e-15)

    return [venn_logical, venn_shannon, kl_form, pair_space, product_case]


def run_dit_bit_suite(seed: int = 2024) -> list[SuiteResult]:
    """Round trips of the conversion formulas and the compound transforms."""
    roundtrip = SuiteResult("dit_bit_roundtrip")
    equiprobable = SuiteResult("equiprobable_set_conversions")
    transforms = SuiteResult("compound_transforms_match_direct")

    for i in range(1000):
        h0 = 0.999 * i / 999
        roundtrip.residual(bit_to_dit(dit_to_bit(h0)) - h0)
    for k in range(2, 65):
        p0 = 1.0 / k
        equiprobable.residual(dit_to_bit(1.0 - p0) - shannon_hartley(p0))
        equiprobable.residual(bit_to_dit(shannon_hartley(p0)) - (1.0 - p0))

    gen = SplitMix64(seed)
    for _ in range(1000):
        n = 2 + int(gen.next_uint64() % 7)
        p = random_distribution(gen, n)
        q = random_distribution(gen, n)
        transforms.residual(dit_bit_transform("entropy", p) - shannon_entropy_dist(p))
        transforms.residual(
            dit_bit_transform("cross", p, q) - shannon_cross_entropy(p, q)
        )
        transforms.residual(
            dit_bit_transform("divergence", p, q) - symmetrized_kl_divergence(p, q)
        )
        nx = 2 + int(gen.next_uint64() % 3)
        ny = 2 + int(gen.next_uint64() % 3)
        joint = random_joint(gen, nx, ny)
        transforms.residual(
            dit_bit_transform("conditional", joint, "y")
            - shannon_conditional_joint(joint, "y")
        )
        transforms.residual(dit_bit_transform("mutual", joint) - shannon_mutual_joint(joint))

    return [roundtrip, equiprobable, transforms]


def _ln_factorial_sum(m: int) -> float:
    """ln(m!) summed term by term: the O(m) oracle for the lgamma route."""
    return math.fsum(math.log(k) for k in range(2, m + 1))


def run_stirling_suite() -> list[SuiteResult]:
    """Three-term Stirling beats two-term, and both errors shrink with N."""
    anchor = SuiteResult("stirling_exact_matches_log_factorials")
    sharper = SuiteResult("three_term_beats_two_term")
    decay = SuiteResult("errors_decrease_with_scale")

    report = stirling_entropy([6, 6])
    anchor.residual(report.s_exact - (_ln_factorial_sum(12) - 2 * _ln_factorial_sum(6)) / 12)

    errors2, errors3 = [], []
    for total in (100, 1000, 10_000):
        rep = stirling_entropy([total // 4] * 4)
        sharper.exact(rep.err3 < rep.err2)
        errors2.append(rep.err2)
        errors3.append(rep.err3)
    decay.exact(errors2[0] > errors2[1] > errors2[2])
    decay.exact(errors3[0] > errors3[1] > errors3[2])

    return [anchor, sharper, decay]


def run_all(max_n: int = 5, seed: int = 2024) -> list[SuiteResult]:
    results: list[SuiteResult] = []
    results.extend(run_lattice_suites(max_n))
    results.extend(run_closure_operator_suite(min(max_n, 4), seed))
    results.extend(run_measure_suites(max_n))
    results.extend(run_independence_suite())
    results.extend(run_divergence_suite(seed))
    results.extend(run_joint_suites(seed))
    results.extend(run_dit_bit_suite(seed))
    results.extend(run_stirling_suite())
    return results
