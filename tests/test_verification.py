"""The tally each identity suite keeps and reports."""

import math

from logent import logical, shannon
from logent.verification import SuiteResult, run_dit_bit_suite, run_divergence_suite


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
