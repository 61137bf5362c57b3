"""The tally each identity suite keeps and reports."""

import math

from logent.verification import SuiteResult


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
