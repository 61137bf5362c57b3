import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import logent.rng
from logent.errors import DomainError
from logent.logical import Distribution, logical_entropy_dist
from logent.rng import (
    SplitMix64,
    batch_indices,
    batch_uint64,
    batch_units,
    cumulative_weights,
    mix64,
)
from logent.sampling import (
    average_difference_rate,
    pair_distinction_rate,
    typical_count_log,
    typical_message_stats,
)


class TestGenerator:
    def test_scalar_and_batch_agree(self):
        gen = SplitMix64(123456789)
        scalar = [gen.next_uint64() for _ in range(1000)]
        assert scalar == batch_uint64(123456789, 0, 1000).tolist()

    def test_batch_offsets_compose(self):
        whole = batch_uint64(7, 0, 100).tolist()
        split = batch_uint64(7, 0, 40).tolist() + batch_uint64(7, 40, 60).tolist()
        assert whole == split

    def test_units_in_half_open_high_interval(self):
        units = batch_units(99, 0, 10_000)
        assert (units > 0).all() and (units <= 1).all()
        gen = SplitMix64(99)
        assert [gen.next_unit() for _ in range(100)] == units[:100].tolist()

    def test_mix64_reference_values(self):
        # classic check: mix of 0 and of the golden gamma are distinct nonzero words
        assert mix64(0) == 0
        assert mix64(1) != 0
        gen = SplitMix64(0)
        first = gen.next_uint64()
        assert first == mix64(0x9E3779B97F4A7C15)

    def test_draw_index_right_closed_boundaries(self):
        cum = cumulative_weights((0.5, 0.0, 0.5))
        assert cum == [0.5, 0.5, 1.0]
        # u == 0.5 belongs to outcome 0 (interval (0, 0.5]); anything above goes to 2
        from bisect import bisect_left

        assert bisect_left(cum, 0.5) == 0
        assert bisect_left(cum, 0.5000001) == 2
        assert bisect_left(cum, 1.0) == 2

    def test_zero_probability_never_drawn(self):
        cum = cumulative_weights((0.3, 0.0, 0.7))
        draws = batch_indices(31337, 0, 50_000, cum)
        assert 1 not in set(draws.tolist())

    def test_final_interval_pinned(self):
        # a float cumsum can undershoot 1.0; the last interval must absorb u = 1.0
        cum = cumulative_weights((0.1,) * 10)
        assert cum[-1] == 1.0

    # the float cumsum of these stops short of 1.0 before the trailing zeros
    SHORT_SUMS = [(0.1,) * 10 + (0.0,), (0.3, 0.6, 0.1, 0.0, 0.0), (0.4, 0.0, 0.3, 0.2, 0.1, 0.0)]

    @pytest.mark.parametrize("probs", SHORT_SUMS)
    def test_top_draw_never_lands_on_trailing_zero(self, probs, monkeypatch):
        cum = cumulative_weights(probs)
        # scalar path: SplitMix64.draw_index bisects on the forced draw u = 1.0
        monkeypatch.setattr(SplitMix64, "next_unit", lambda self: 1.0)
        scalar = SplitMix64(0).draw_index(cum)
        assert probs[scalar] > 0
        # batch path: np.searchsorted on the same forced draw
        monkeypatch.setattr(logent.rng, "batch_units", lambda seed, start, count: np.ones(count))
        batch = batch_indices(0, 0, 3, cum)
        assert batch.tolist() == [scalar] * 3

    @pytest.mark.parametrize("start", [0, 12345])
    @pytest.mark.parametrize("count", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_chunked_draws_equal_one_shot(self, count, start):
        # the draws come in chunks of 2**16; a chunk edge must not move any draw
        cum = cumulative_weights((0.3, 0.0, 0.45, 0.25))
        one_shot = np.searchsorted(cum, batch_units(5, start, count), side="left")
        chunked = batch_indices(5, start, count, cum)
        assert chunked.dtype == one_shot.dtype
        assert np.array_equal(chunked, one_shot)


class TestPairDistinctionRate:
    def test_point_mass_never_distinct(self):
        report = pair_distinction_rate(Distribution.point_mass(3), 1000, 5)
        assert report.estimate == 0.0
        assert report.std_error == 0.0

    def test_deterministic_given_seed(self):
        p = Distribution((0.5, 1 / 3, 1 / 6))
        a = pair_distinction_rate(p, 10_000, 42)
        b = pair_distinction_rate(p, 10_000, 42)
        assert a == b
        c = pair_distinction_rate(p, 10_000, 43)
        assert c.estimate != a.estimate

    def test_converges_to_logical_entropy(self):
        p = Distribution((0.5, 1 / 3, 1 / 6))
        report = pair_distinction_rate(p, 200_000, 42)
        target = float(logical_entropy_dist(p))
        assert abs(report.estimate - target) < 4 * report.std_error + 1e-9

    def test_uniform_pair(self):
        report = pair_distinction_rate(Distribution.uniform(2), 100_000, 7)
        assert abs(report.estimate - 0.5) < 0.006

    def test_rejects_bad_trials(self):
        with pytest.raises(DomainError):
            pair_distinction_rate(Distribution.uniform(2), 0, 1)

    def test_memory_peak_stays_bounded(self):
        # 2e6 draws keep an 8-byte index each (16 MB); the uniforms never exist all at once
        p = Distribution((0.5, 0.3, 0.2))
        tracemalloc.start()
        try:
            pair_distinction_rate(p, 10**6, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestAverageDifferenceRate:
    def test_point_mass_exact_zero(self):
        report = average_difference_rate(Distribution.point_mass(4, 1), 100, 9)
        assert report.estimate == 0.0

    def test_uniform_exact(self):
        for n in (2, 3, 5):
            report = average_difference_rate(Distribution.uniform(n), 1000, 3)
            assert report.estimate == pytest.approx(1 - 1 / n, abs=1e-12)
            assert report.std_error == 0.0

    def test_converges(self):
        p = Distribution((0.5, 1 / 3, 1 / 6))
        report = average_difference_rate(p, 200_000, 11)
        assert abs(report.estimate - 11 / 18) < 4 * report.std_error + 1e-9

    def test_deterministic(self):
        p = Distribution((0.7, 0.3))
        assert average_difference_rate(p, 5000, 17) == average_difference_rate(p, 5000, 17)


class TestTypicalMessages:
    def test_equiprobable_alphabet_exact(self):
        report = typical_message_stats(Distribution.uniform(3), 500, 8, 13)
        assert report.estimate == pytest.approx(math.log2(3), abs=1e-12)
        assert report.std_error == 0.0

    def test_point_mass(self):
        report = typical_message_stats(Distribution.point_mass(2), 100, 5, 1)
        assert report.estimate == 0.0

    def test_converges_to_entropy(self):
        p = Distribution((0.5, 0.25, 0.25))
        report = typical_message_stats(p, 2000, 50, 42)
        assert abs(report.estimate - 1.5) < 0.03

    def test_zero_probability_letters_ignored(self):
        p = Distribution((0.5, 0.0, 0.5))
        report = typical_message_stats(p, 300, 10, 4)
        assert math.isfinite(report.estimate)

    def test_count_log_is_length_times_entropy(self):
        p = Distribution((0.5, 0.25, 0.25))
        assert typical_count_log(p, 100) == 150.0
        assert typical_count_log(Distribution.uniform(3), 7) == pytest.approx(7 * math.log2(3))
        assert typical_count_log(Distribution.point_mass(4), 50) == 0.0

    def test_count_log_rejects_bad_length(self):
        with pytest.raises(DomainError):
            typical_count_log(Distribution.uniform(2), 0)


class TestConvergenceFamily:
    def test_both_estimators_share_the_same_limit(self):
        p = Distribution((0.5, 1 / 3, 1 / 6))
        target = 11 / 18
        for estimator in (pair_distinction_rate, average_difference_rate):
            errors = []
            for k in (3, 4, 5, 6):
                report = estimator(p, 10**k, 2024)
                errors.append(abs(report.estimate - target))
                assert abs(report.estimate - target) < 3 * report.std_error + 1e-12
            assert errors[-1] < errors[0]

    def test_message_rate_tracks_entropy(self):
        p = Distribution((0.5, 0.25, 0.25))
        coarse = typical_message_stats(p, 100, 40, 5)
        fine = typical_message_stats(p, 10_000, 40, 5)
        assert abs(fine.estimate - 1.5) < abs(coarse.estimate - 1.5)
        assert fine.std_error < coarse.std_error


class TestReportShape:
    def test_fields(self):
        report = pair_distinction_rate(Distribution.uniform(2), 100, 2)
        assert report.trials == 100
        assert report.seed == 2
        assert 0.0 <= report.estimate <= 1.0
        assert report.std_error >= 0.0

    def test_exact_weights_accepted(self):
        p = Distribution((Fraction(1, 2), Fraction(1, 2)))
        report = pair_distinction_rate(p, 1000, 3)
        assert 0.0 <= report.estimate <= 1.0
