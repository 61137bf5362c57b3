import math
import re
import sys
import threading
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logent.rng
from logent.errors import DomainError, LimitExceededError
from logent.logical import Distribution, logical_entropy_dist
from logent.rng import (
    _CHUNK,
    SplitMix64,
    _draw_chunks,
    batch_uint64,
    batch_units,
    cumulative_weights,
    mix64,
)
from logent.sampling import (
    _report,
    _std_error,
    average_difference_rate,
    pair_distinction_rate,
    typical_count_log,
    typical_message_stats,
)


def inject_words(monkeypatch, words):
    """Make stream outputs start+1 .. start+n be ``words[start : start + n]`` in every batch view.

    The seam is ``rng._mixed``, which stops short of the finisher's last
    ``x ^= x >> 31``; it is handed the words that this xor-shift maps to ``words``.
    """
    before = words ^ (words >> np.uint64(31)) ^ (words >> np.uint64(62))

    def mixed(seed, start, z, scratch):
        z[:] = before[start : start + z.size]
        return z

    monkeypatch.setattr(logent.rng, "_mixed", mixed)
    assert np.array_equal(batch_uint64(0, 0, words.size), words)


def value_tables(p):
    """The per-outcome tables the estimators compose into the guide: number, 1 - p and log2 p."""
    probs = np.array(p.probs, dtype=float)
    return {
        "outcome": np.arange(len(probs), dtype=float),
        "one-minus-p": 1.0 - probs,
        "log2-p": np.log2(probs, out=np.zeros_like(probs), where=probs > 0),
    }


def _drawn(cum, count, table=None, seed=0, start=0):
    """The production kernel's values for draws start+1 .. start+count, gathered into one array;
    without a table, each draw's outcome number."""
    if table is None:
        table = np.arange(len(cum) + 1)
    out = np.empty(count)
    for _ in _draw_chunks(seed, start, count, cum, table, out):
        pass
    return out


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

    @pytest.mark.parametrize(
        "seed, start", [(2**64 - 1, 0), (5, 2**63), (2**64 - 1, 2**63), (5, 2**64 - 2)]
    )
    def test_batch_wraps_like_scalar(self, seed, start):
        # seed + k * gamma passes 2**64 within these draws; both views reduce it mod 2**64
        count = 1000
        expected = [mix64(seed + k * 0x9E3779B97F4A7C15) for k in range(start + 1, start + count + 1)]
        assert batch_uint64(seed, start, count).tolist() == expected

    def test_mix64_reference_values(self):
        # classic check: mix of 0 and of the golden gamma are distinct nonzero words
        assert mix64(0) == 0
        assert mix64(1) != 0
        gen = SplitMix64(0)
        first = gen.next_uint64()
        assert first == mix64(0x9E3779B97F4A7C15)

    def test_negative_seed_is_taken_mod_2_64(self):
        a, b = SplitMix64(-1), SplitMix64(2**64 - 1)
        assert [a.next_uint64() for _ in range(5)] == [b.next_uint64() for _ in range(5)]
        assert batch_uint64(-1, 0, 5).tolist() == batch_uint64(2**64 - 1, 0, 5).tolist()

    def test_start_is_taken_mod_2_64(self):
        for seed in (0, 2024):
            assert batch_uint64(seed, 2**64 + 5, 3).tolist() == batch_uint64(seed, 5, 3).tolist()
            assert batch_units(seed, 2**64 + 5, 3).tolist() == batch_units(seed, 5, 3).tolist()

    @pytest.mark.parametrize("seed", [1.5, "7", True, None])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(DomainError):
            SplitMix64(seed)

    @pytest.mark.parametrize("start", [-3, -1, 1.0, "0", True, None])
    def test_batch_views_reject_a_bad_start(self, start):
        cum = cumulative_weights((0.5, 0.5))
        for call in (
            lambda: batch_uint64(0, start, 5),
            lambda: batch_units(0, start, 5),
            lambda: _drawn(cum, 5, start=start),
        ):
            with pytest.raises(DomainError):
                call()

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
        draws = _drawn(cum, 50_000, seed=31337)
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
        # batch path: the all-ones word is the same forced draw u = 1.0
        inject_words(monkeypatch, np.full(3, 2**64 - 1, dtype=np.uint64))
        assert _drawn(cum, 3).tolist() == [scalar] * 3
        for table in value_tables(Distribution(probs)).values():
            assert _drawn(cum, 3, table).tolist() == [table[scalar]] * 3

    @pytest.mark.parametrize("start", [0, 12345])
    @pytest.mark.parametrize("count", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_chunked_draws_equal_one_shot(self, count, start):
        # these counts span several chunks; a chunk edge must not move any draw
        cum = cumulative_weights((0.3, 0.0, 0.45, 0.25))
        one_shot = np.searchsorted(cum, batch_units(5, start, count), side="left")
        assert np.array_equal(_drawn(cum, count, seed=5, start=start), one_shot)


def spec_indices(seed, start, count, cum):
    """The float specification of a batch of draws: bisect the unit samples."""
    units = batch_units(seed, start, count)
    return np.searchsorted(np.asarray(cum, dtype=np.float64), units, side="left")


_DIRICHLET = np.random.default_rng(20240611)
KERNEL_CASES = {
    "one": (1.0,),
    "two": (0.7, 0.3),
    "two-dyadic": (0.5, 0.5),
    "three": (0.5, 0.3, 0.2),
    "three-dyadic": (0.25, 0.25, 0.5),
    "leading-zero": (0.0, 0.4, 0.6),
    "interior-zero": (0.4, 0.0, 0.6),
    "trailing-zeros": (0.4, 0.6, 0.0, 0.0),
    "tiny-mass": (0.5, 1e-300, 0.5),
    "tiny-first": (1e-300, 0.25, 0.75),
    "five": (0.1, 0.2, 0.3, 0.15, 0.25),
    "six": (0.05, 0.15, 0.2, 0.1, 0.3, 0.2),
    "six-zeros": (0.0, 0.1, 0.2, 0.0, 0.3, 0.15, 0.25, 0.0),
    "bucket-edges": (1 / 4096,) * 4096,
    # leading, interior and trailing zeros among 1,000 masses
    "1000": tuple(np.insert(_DIRICHLET.dirichlet(np.ones(1000)), [0, 500, 1000], 0.0)),
    # more outcomes than buckets: every bucket holds a step
    "5000": tuple(_DIRICHLET.dirichlet(np.ones(5000))),
    **{f"short-sum-{i}": probs for i, probs in enumerate(TestGenerator.SHORT_SUMS)},
}


def _forced_words(cum):
    """Every integer step t, t - 1 and t + 1, both sides of every bucket edge, and the extremes."""
    words = {0, 2**64 - 1}
    for c in cum:
        if c < 1.0:
            t = math.floor(c * 2**53) << 11
            words |= {t - 1, t, t + 1}
    for b in range(1, 1 << 12):
        words |= {(b << 52) - 1, b << 52}
    return np.array(sorted(w for w in words if 0 <= w < 2**64), dtype=np.uint64)


class TestGuideKernel:
    """The integer guide-table draws against the float inverse CDF, draw for draw."""

    @pytest.mark.parametrize("probs", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
    def test_forced_words_match_float_spec(self, probs, monkeypatch):
        p = Distribution(probs)
        cum = cumulative_weights(p.probs)
        words = _forced_words(cum)
        inject_words(monkeypatch, words)
        expected = spec_indices(0, 0, words.size, cum)
        assert np.array_equal(_drawn(cum, words.size), expected)
        # the float spec itself agrees with the scalar bisection on these words
        units = batch_units(0, 0, words.size)
        assert [bisect_left(cum, u) for u in units[::97].tolist()] == expected[::97].tolist()
        # each composed table gives its value of the outcome, on either side of a chunk edge
        tables = value_tables(p)
        for name, table in tables.items():
            assert np.array_equal(_drawn(cum, words.size, table), table[expected]), name
        # and the estimators read these words through the same kernel
        pairs = words.size // 2
        distinct = (expected[0 : 2 * pairs : 2] != expected[1 : 2 * pairs : 2]).astype(np.float64)
        assert pair_distinction_rate(p, pairs, 0) == _report(distinct, 0)
        assert average_difference_rate(p, words.size, 0) == _report(tables["one-minus-p"][expected], 0)
        assert typical_message_stats(p, 1, words.size, 0) == _report(-tables["log2-p"][expected], 0)

    @pytest.mark.parametrize("start", [0, 12345])
    @pytest.mark.parametrize("probs", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
    def test_stream_matches_float_spec(self, probs, start):
        cum = cumulative_weights(Distribution(probs).probs)
        count = _CHUNK + 7
        expected = spec_indices(3, start, count, cum)
        assert np.array_equal(_drawn(cum, count, seed=3, start=start), expected)

    @pytest.mark.parametrize("start", [0, 12345])
    # the chunk edges, and counts that end inside a chunk
    @pytest.mark.parametrize(
        "count",
        [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5],
    )
    def test_chunks_tile_the_draws(self, count, start):
        cum = cumulative_weights((0.3, 0.0, 0.45, 0.25))
        outcomes = np.arange(4.0)
        # without ``out`` each chunk reuses one buffer, so it is copied as it comes
        chunks = [(lo, v.copy()) for lo, v in _draw_chunks(5, start, count, cum, outcomes)]
        assert [lo for lo, _ in chunks] == list(range(0, count, _CHUNK))
        assert all(0 < v.size <= _CHUNK for _, v in chunks)
        assert sum(v.size for _, v in chunks) == count
        drawn = np.concatenate([v for _, v in chunks])
        assert np.array_equal(drawn, spec_indices(5, start, count, cum))
        # with ``out`` each chunk is written in place into ``out``
        out = np.empty(count)
        assert all(v.base is out for _, v in _draw_chunks(5, start, count, cum, outcomes, out))
        assert np.array_equal(out, drawn)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 10**6), min_size=1, max_size=40).filter(any),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
    )
    def test_random_distributions_match_float_spec(self, weights, seed, start):
        total = sum(weights)
        cum = cumulative_weights(Distribution(tuple(Fraction(w, total) for w in weights)).probs)
        expected = spec_indices(seed, start, 5000, cum)
        assert np.array_equal(_drawn(cum, 5000, seed=seed, start=start), expected)


ESTIMATOR_CASES = {
    k: KERNEL_CASES[k] for k in ("one", "three", "six-zeros", "1000", "short-sum-0")
}


class TestEstimatorsMatchSpec:
    """Each estimator, read chunk by chunk, equals its one-shot form on the float draws."""

    @pytest.mark.parametrize("probs", ESTIMATOR_CASES.values(), ids=ESTIMATOR_CASES.keys())
    def test_pair_distinction_rate(self, probs):
        p = Distribution(probs)
        trials = _CHUNK // 2 + 3  # the draws cross a chunk edge; no pair may straddle it
        draws = spec_indices(11, 0, 2 * trials, cumulative_weights(p.probs))
        distinct = (draws[0::2] != draws[1::2]).astype(np.float64)
        report = pair_distinction_rate(p, trials, 11)
        expected = (float(distinct.mean()), _std_error(distinct))
        assert (report.estimate, report.std_error) == expected

    @pytest.mark.parametrize("probs", ESTIMATOR_CASES.values(), ids=ESTIMATOR_CASES.keys())
    def test_average_difference_rate(self, probs):
        p = Distribution(probs)
        length = _CHUNK + 1
        draws = spec_indices(12, 0, length, cumulative_weights(p.probs))
        values = 1.0 - np.asarray([float(q) for q in p.probs])[draws]
        report = average_difference_rate(p, length, 12)
        expected = (float(values.mean()), _std_error(values))
        assert (report.estimate, report.std_error) == expected

    @pytest.mark.parametrize("probs", ESTIMATOR_CASES.values(), ids=ESTIMATOR_CASES.keys())
    def test_typical_message_stats(self, probs):
        p = Distribution(probs)
        length, samples = 300, 250  # messages straddle the chunk edges
        draws = spec_indices(13, 0, length * samples, cumulative_weights(p.probs))
        probs = np.asarray([float(q) for q in p.probs])
        log_probs = np.log2(probs[draws.reshape(samples, length)])
        per_message = -log_probs.sum(axis=1) / length
        report = typical_message_stats(p, length, samples, 13)
        expected = (float(per_message.mean()), _std_error(per_message))
        assert (report.estimate, report.std_error) == expected


def _report_cases():
    r = np.random.default_rng(20261019)
    cases = {f"size-{n}": r.normal(size=n) for n in (1, 2, 129, 1025)}
    cases["constant"] = np.full(1000, 0.1)
    cases["alternating"] = np.tile([0.0, 1.0], 10**6 // 2)
    cases["offset-1e8"] = 1e8 + r.normal(scale=1e-3, size=10_000)
    cases["log2-probs"] = np.log2(r.dirichlet(np.ones(7), size=4000).ravel())
    return cases


REPORT_CASES = _report_cases()


class TestReportArithmetic:
    """The in-place variance is np.std(ddof=1)'s arithmetic, bit for bit."""

    @pytest.mark.parametrize("values", REPORT_CASES.values(), ids=REPORT_CASES.keys())
    def test_report_equals_mean_and_std_error(self, values):
        report = _report(values.copy(), 9)  # _report consumes its array
        assert (report.estimate, report.std_error) == (float(values.mean()), _std_error(values))
        assert (report.trials, report.seed) == (values.size, 9)


@pytest.mark.parametrize("seed", [1.5, "7", True, None])
@pytest.mark.parametrize(
    "estimator, args",
    [
        (pair_distinction_rate, (3,)),
        (average_difference_rate, (3,)),
        (typical_message_stats, (3, 2)),
    ],
    ids=["pairs", "seqavg", "typical"],
)
def test_estimators_reject_non_integer_seed(estimator, args, seed):
    with pytest.raises(DomainError):
        estimator(Distribution((0.5, 0.5)), *args, seed)


def test_estimators_accept_negative_seed():
    p = Distribution((0.5, 1 / 3, 1 / 6))
    assert pair_distinction_rate(p, 100, -1).estimate == pair_distinction_rate(p, 100, 2**64 - 1).estimate


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # one 8-byte flag per pair (7.6 MiB) plus one chunk's scratch and outcome numbers;
        # no index per draw, and the variance needs no second array
        peak = _traced_peak(pair_distinction_rate, Distribution((0.5, 0.3, 0.2)), 10**6, 42)
        assert peak < 12 * 2**20


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

    def test_memory_peak_stays_bounded(self):
        # one 8-byte value per draw plus one chunk's scratch, never an index per draw
        peak = _traced_peak(average_difference_rate, Distribution((0.5, 0.3, 0.2)), 10**6, 7)
        assert peak < 12 * 2**20


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

    def test_memory_peak_stays_bounded(self):
        # one 8-byte log-probability per draw, never an index per draw
        peak = _traced_peak(typical_message_stats, Distribution((0.5, 0.3, 0.2)), 1000, 1000, 7)
        assert peak < 12 * 2**20

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


class TestValuesBuffer:
    """The estimators' values buffer is kept per thread and reused from call to call."""

    def test_chunk_arrays_stay_under_the_mapping_threshold(self):
        # 8-byte words and values below malloc's default 128 KiB mmap threshold
        assert _CHUNK % 2 == 0 and 8 * _CHUNK < 128 * 2**10

    def test_repeated_call_allocates_no_new_values(self):
        p = Distribution((0.5, 0.3, 0.2))
        first = pair_distinction_rate(p, 10**6, 42)
        peak = _traced_peak(pair_distinction_rate, p, 10**6, 42)
        assert peak < 2**20  # one chunk's scratch, not another 7.6 MiB of flags
        assert pair_distinction_rate(p, 10**6, 42) == first

    def test_a_larger_call_before_leaves_no_trace(self):
        p = Distribution((0.5, 0.3, 0.2))
        small = [average_difference_rate(p, 1000, 5), pair_distinction_rate(p, 999, 6)]
        average_difference_rate(p, 50_000, 7)  # fills more of the buffer with other values
        assert [average_difference_rate(p, 1000, 5), pair_distinction_rate(p, 999, 6)] == small

    def test_threads_do_not_share_values(self):
        p = Distribution((0.5, 1 / 3, 1 / 6))
        cum = cumulative_weights(p.probs)
        calls = [
            lambda seed: pair_distinction_rate(p, 200_000, seed),
            lambda seed: average_difference_rate(p, 200_000, seed),
            lambda seed: typical_message_stats(p, 1000, 200, seed),
            lambda seed: _drawn(cum, 200_000, seed=seed).tolist(),
        ]
        seeds = range(20, 26)
        expected = [[call(s) for call in calls] for s in seeds]
        got = [[None] * len(calls) for _ in seeds]

        def run(k, seed):
            # each thread starts at another call, so different calls overlap
            for j in range(len(calls)):
                j = (j + k) % len(calls)
                got[k][j] = calls[j](seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=ks) for ks in enumerate(seeds)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    @pytest.mark.parametrize(
        "estimator, args",
        [
            (pair_distinction_rate, (10**15,)),
            (average_difference_rate, (10**15,)),
            (typical_message_stats, (10**9, 10**6)),
        ],
        ids=["pairs", "seqavg", "typical"],
    )
    def test_count_too_large_to_allocate_is_refused(self, estimator, args):
        # 8 * 10**15 bytes is beyond any address space, so nothing is really allocated
        p = Distribution((0.5, 0.3, 0.2))
        message = f"cannot allocate {10**15} sampled values ({8 * 10**15} bytes)"
        with pytest.raises(LimitExceededError, match=re.escape(message)):
            estimator(p, *args, 1)
        # the thread's buffer is still usable afterwards
        small = (3,) * len(args)
        assert estimator(p, *small, 1) == estimator(p, *small, 1)


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
