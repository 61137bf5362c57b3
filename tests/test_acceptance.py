"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Exact-equality sweeps use rational arithmetic and bit-level set
equality; randomized suites use fixed seeds and are bit-reproducible.
"""

import math
import time
from fractions import Fraction

import pytest

from logent.logical import Distribution, logical_entropy_dist
from logent.partitions import bell_number
from logent.sampling import pair_distinction_rate, typical_message_stats
from logent.shannon import shannon_entropy_dist, shannon_hartley, stirling_entropy
from logent.verification import (
    run_dit_bit_suite,
    run_divergence_suite,
    run_independence_suite,
    run_joint_suites,
    run_lattice_suites,
    run_measure_suites,
    run_stirling_suite,
)

TOLERANCE = 1e-12


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def _require_all(suites, expected_checks=None):
    for suite in suites:
        assert suite.failures == 0, f"{suite.name}: {suite.failures} failures"
        assert suite.checks > 0
    if expected_checks is not None:
        by_name = {s.name: s.checks for s in suites}
        for name, count in expected_checks.items():
            assert by_name[name] == count, (name, by_name[name], count)


def test_criterion_1_exhaustive_lattice_identities():
    start = time.monotonic()
    suites = run_lattice_suites(max_n=5)
    elapsed = time.monotonic() - start
    pairs = sum(bell_number(n) ** 2 for n in range(1, 6))  # ordered partition pairs swept
    assert pairs == 1 + 4 + 25 + 225 + 2704
    _require_all(
        suites,
        expected_checks={
            "join_dit_union": pairs,
            "meet_dit_interior_of_intersection": pairs,
            "meet_equals_closure_of_indit_union": pairs,
            "refines_iff_dit_subset_iff_implication_discrete": pairs,
            "implication_discretize_equals_interior_formula": pairs,
            "mutual_dit_structure_theorem": pairs,
        },
    )
    worst = max(s.worst_residual for s in suites)
    assert worst == 0.0, "these are exact set-equality checks"
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _report(
        "C1",
        f"{pairs} ordered pairs (all n <= 5) through join/meet/implication/"
        f"refinement/mutual identities, exact set equality, {elapsed:.2f}s",
    )


def test_criterion_2_exact_rational_measure_identities():
    suites = run_measure_suites(max_n=5)
    _require_all(suites)
    assert all(s.worst_residual == 0.0 for s in suites), "rational path must be exact"
    pair_suites = {
        "mutual_equals_inclusion_exclusion",
        "conditional_equals_join_minus_given",
        "meet_measure_submodular",
        "identification_vs_mutual_identity",
    }
    by_name = {s.name: s for s in suites}
    pairs = sum(
        int(c) for c in (4, 25, 225, 2704)
    )  # ordered pairs for n = 2..5
    for name in pair_suites:
        assert by_name[name].checks == pairs
    _report(
        "C2",
        f"{pairs} pairs: inclusion-exclusion, conditional, submodular, and the "
        "general identification identity with exactly zero rational residual",
    )


def test_criterion_3_independence_theorem():
    suites = run_independence_suite()
    _require_all(suites)
    by_name = {s.name: s for s in suites}
    lifted_pairs = sum(
        bx * by
        for bx in (2, 5, 15)
        for by in (2, 5, 15)
    )
    assert by_name["independent_mutual_is_product"].checks == lifted_pairs
    assert by_name["independent_mutual_is_product"].worst_residual == 0.0
    assert by_name["independent_identification_multiplies"].worst_residual == 0.0
    assert by_name["independent_shannon_mutual_zero"].worst_residual <= TOLERANCE
    assert by_name["independent_shannon_join_additive"].worst_residual <= TOLERANCE
    _report(
        "C3",
        f"{lifted_pairs} independent pairs on product universes (|X|,|Y| in 2..4): "
        "m = h*h and identification multiplicative exactly; Shannon side to 1e-12",
    )


def test_criterion_4_bound_values():
    for n in range(2, 65):
        exact = logical_entropy_dist(Distribution.uniform_exact(n))
        assert exact == 1 - Fraction(1, n)
        assert abs(logical_entropy_dist(Distribution.uniform(n)) - (1 - 1 / n)) <= TOLERANCE
        assert abs(shannon_entropy_dist(Distribution.uniform(n)) - math.log2(n)) <= TOLERANCE
    assert shannon_hartley(1 / 32) == 5.0
    point = Distribution.point_mass(8)
    assert logical_entropy_dist(point) == 0
    assert shannon_entropy_dist(point) == 0.0
    _report(
        "C4",
        "h = 1 - 1/n (exact) and H = log2 n (1e-12) at uniform for n = 2..64; "
        "five-bit anchor at p0 = 1/32 exact; both zero at a point mass",
    )


def test_criterion_5_dit_bit_bridge():
    suites = run_dit_bit_suite(seed=2024)
    _require_all(suites)
    by_name = {s.name: s for s in suites}
    assert by_name["dit_bit_roundtrip"].checks == 1000
    assert by_name["dit_bit_roundtrip"].worst_residual <= TOLERANCE
    assert by_name["compound_transforms_match_direct"].checks == 5000
    assert by_name["compound_transforms_match_direct"].worst_residual <= TOLERANCE
    _report(
        "C5",
        "1000-point round-trip grid on [0, 0.999] and 1000 random inputs per "
        "compound transform (entropy, conditional, mutual, cross, divergence), all to 1e-12",
    )


def test_criterion_6_divergence_suite():
    suites = run_divergence_suite(seed=2024)
    _require_all(suites)
    by_name = {s.name: s for s in suites}
    assert by_name["divergences_nonnegative_zero_iff_equal"].checks == 10_000
    assert by_name["logical_divergence_jensen_difference"].worst_residual <= TOLERANCE
    assert by_name["mixing_identity_and_chain"].worst_residual <= TOLERANCE
    joint_suites = run_joint_suites(seed=2024)
    _require_all(joint_suites)
    kl = {s.name: s for s in joint_suites}["shannon_mutual_equals_kl_to_product"]
    assert kl.checks == 400
    assert kl.worst_residual <= TOLERANCE
    _report(
        "C6",
        "10^4 random pairs: D >= 0 and d >= 0 with equality only at injected "
        "p = q; Jensen and mixing identities and I = D(joint||product) to 1e-12",
    )


def test_criterion_7_stirling_comparison():
    start = time.monotonic()
    report = stirling_entropy([6, 6])
    oracle = (
        math.fsum(math.log(k) for k in range(2, 13))
        - 2 * math.fsum(math.log(k) for k in range(2, 7))
    ) / 12
    assert abs(report.s_exact - oracle) <= TOLERANCE
    assert abs(report.s_exact - math.log(924) / 12) <= TOLERANCE

    errors = [stirling_entropy([total // 4] * 4) for total in (100, 1000, 10_000)]
    for rep in errors:
        assert rep.err3 < rep.err2
    assert errors[0].err2 > errors[1].err2 > errors[2].err2
    assert errors[0].err3 > errors[1].err3 > errors[2].err3
    suites = run_stirling_suite()
    _require_all(suites)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(
        "C7",
        f"S_exact((6,6)) = ln(924)/12 to 1e-12; three-term approximation beats "
        f"two-term at N = 100/1000/10000 with monotone error decay, {elapsed:.2f}s",
    )


def test_criterion_8_stochastic_convergence():
    start = time.monotonic()

    skewed = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    pairs = pair_distinction_rate(skewed, 10**6, seed=42)
    target = 11 / 18
    assert abs(pairs.estimate - target) < 0.002
    assert pairs == pair_distinction_rate(skewed, 10**6, seed=42)

    equiprobable = typical_message_stats(Distribution.uniform(3), 1000, 10, seed=42)
    assert abs(equiprobable.estimate - math.log2(3)) <= TOLERANCE
    assert equiprobable.std_error == 0.0

    dyadic = typical_message_stats(Distribution((0.5, 0.25, 0.25)), 10**4, 100, seed=42)
    assert abs(dyadic.estimate - 1.5) < 0.02

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(
        "C8",
        f"pair rate within 0.002 of 11/18 at 10^6 trials; equiprobable message "
        f"rate = log2(3) with zero spread; dyadic rate within 0.02 of 1.5; "
        f"deterministic under seed 42; {elapsed:.1f}s",
    )


def test_criterion_9_asymptotic_claims_covered_by_property_checks():
    # unbounded-N coding claims are asymptotic; their executable content here
    # is monotone error decay plus fixed-seed convergence bands
    errors = [stirling_entropy([total // 4] * 4).err2 for total in (100, 1000, 10_000)]
    assert errors[0] > errors[1] > errors[2]
    p = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    widths = []
    for trials in (10**3, 10**4, 10**5):
        report = pair_distinction_rate(p, trials, seed=7)
        widths.append(report.std_error)
        assert abs(report.estimate - 11 / 18) < 5 * report.std_error + 1e-9
    assert widths[0] > widths[1] > widths[2]
    _report(
        "C9",
        "asymptotic coding claims represented by monotone error decay and "
        "shrinking fixed-seed convergence bands, not exact reproduction",
    )
