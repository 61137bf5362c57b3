"""The tally each identity suite keeps and reports, and the faults it counts."""

import math
from fractions import Fraction

import pytest

from logent import logical, shannon, spec, verification
from logent.partitions import implication, join
from logent.verification import (
    SuiteResult,
    run_dit_bit_suite,
    run_divergence_suite,
    run_lattice_suites,
    run_measure_suites,
)

MUTUAL_SUITES = {"mutual_equals_inclusion_exclusion", "identification_vs_mutual_identity"}


def failing(results):
    return {r.name for r in results if r.failures}


def test_suite_result_counts_checks_failures_and_the_worst_residual():
    result = SuiteResult("planted")
    assert (result.checks, result.failures, result.worst_residual) == (0, 0, 0.0)
    assert not result.passed  # a suite that ran no check proves nothing

    result.exact(True)
    result.residual(3e-13)
    result.residual(-8e-13)  # a residual counts by its size
    assert (result.checks, result.failures, result.worst_residual) == (3, 0, 8e-13)
    assert result.passed

    result.exact(False)
    result.residual(2e-12)  # past the 1e-12 bound
    result.residual(1e-3, bound=1e-2)  # within a looser bound of its own
    assert (result.checks, result.failures, result.worst_residual) == (6, 2, 1e-3)

    result.residual(math.nan)  # compares false with the bound: a failure, not a pass
    assert (result.checks, result.failures, result.worst_residual) == (7, 3, 1e-3)
    assert not result.passed


def test_a_broken_substitution_is_counted_not_raised(monkeypatch):
    substituted = shannon._substituted_sum
    monkeypatch.setattr(shannon, "_substituted_sum", lambda *a: substituted(*a) + 0.25)
    transforms = run_dit_bit_suite()[-1]
    assert transforms.name == "compound_transforms_match_direct"
    assert transforms.checks > 0 and transforms.failures == transforms.checks


def test_a_broken_mixing_report_is_counted_not_raised(monkeypatch):
    cross = logical.logical_cross_entropy  # the binding mixing_entropy reads
    monkeypatch.setattr(logical, "logical_cross_entropy", lambda p, q: cross(p, q) + 1e-6)
    failing = {r.name for r in run_divergence_suite() if r.failures}
    assert "mixing_identity_and_chain" in failing
    assert "logical_divergence_jensen_difference" in failing


# ----------------------------------------------------------------------
# planted faults in the exhaustive sweeps: each is counted, none raises
# ----------------------------------------------------------------------


def test_an_indit_set_that_is_no_equivalence_is_counted(monkeypatch):
    # drop the pair (0, 1): an indit set holding (1, 0) without it is not symmetric
    monkeypatch.setattr(
        verification, "indit_set", lambda p: spec.PairRelation(p.universe, spec.indit_set(p).bits & ~2)
    )
    assert {"dit_indit_partition_relation_laws", "equivalence_roundtrip"} <= failing(run_lattice_suites(3))


def test_a_closure_that_is_no_equivalence_is_counted(monkeypatch):
    closure = spec._closure
    monkeypatch.setattr(verification, "_closure", lambda bits, n: closure(bits, n) & ~2)
    assert failing(run_lattice_suites(3)) == {"meet_equals_closure_of_indit_union"}


def test_a_meet_that_joins_fails_both_meet_suites(monkeypatch):
    monkeypatch.setattr(verification, "meet", join)
    assert {
        "meet_dit_interior_of_intersection", "meet_equals_closure_of_indit_union"
    } <= failing(run_lattice_suites(3))


def test_a_reversed_implication_fails_the_interior_formula(monkeypatch):
    monkeypatch.setattr(verification, "implication", lambda s, p: implication(p, s))
    assert "implication_discretize_equals_interior_formula" in failing(run_lattice_suites(3))


@pytest.mark.parametrize(
    "fault",
    [
        lambda m: m + Fraction(1, 7),
        lambda m: m + Fraction(1, 3**40),  # off the D^2 grid by less than 1e-19
        float,
    ],
    ids=["skewed", "tiny-skew", "float"],
)
def test_a_mutual_measure_off_the_grid_fails_its_suites(monkeypatch, fault):
    mutual = logical.logical_mutual_partition
    monkeypatch.setattr(verification, "logical_mutual_partition", lambda *a: fault(mutual(*a)))
    results = run_measure_suites(3)
    assert failing(results) == MUTUAL_SUITES
    assert all(r.failures == r.checks for r in results if r.name in MUTUAL_SUITES)


def test_a_float_entropy_fails_every_measure_suite(monkeypatch):
    entropy = logical.logical_entropy_partition
    monkeypatch.setattr(verification, "logical_entropy_partition", lambda *a: float(entropy(*a)))
    results = run_measure_suites(3)
    assert all(r.checks > 0 and r.failures == r.checks for r in results)
