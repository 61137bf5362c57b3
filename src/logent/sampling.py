"""Law-of-large-numbers experiments behind the two entropy readings.

Logical entropy is the chance that a pair of independent draws differs, and
also the long-run average probability of "being different" along one sampled
sequence; Shannon entropy is the long-run bits-per-letter of sampled
messages.  The estimators here check those limits empirically.

Every run is a pure function of its arguments: the stream is SplitMix64 (see
:mod:`logent.rng`), consumed in draw order, so two runs with the same seed
produce bit-identical reports.  Each draw is gathered straight into the values
from a per-outcome table, so an estimator holds 8 bytes per value it averages
plus one chunk's scratch, never an index per draw; a count too large to
allocate raises :class:`LimitExceededError`.  The values reuse one buffer per
thread, so a call neither faults in fresh pages nor leaves a large hole in
malloc's heap.  Standard errors come from the sample variance, taken in place
on the consumed values, not from analytic formulas, so they remain honest for
arbitrary user-supplied distributions.
The typical-message check is a sampled one: real message ensembles only
concentrate asymptotically, so membership of an exact typical set is not
tested, only the convergence of the observed bits-per-letter.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import LimitExceededError, _check_positive, _check_seed
from .logical import Distribution
from .rng import _draw_chunks, cumulative_weights
from .shannon import shannon_entropy_dist

_scratch = threading.local()


class SampleReport(NamedTuple):
    """One estimator run: the estimate, its scale, and what reproduces it."""

    estimate: float
    trials: int
    std_error: float
    seed: int


def _std_error(values: np.ndarray) -> float:
    if values.size < 2 or values.min() == values.max():
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _values(count: int) -> np.ndarray:
    """This thread's float64 buffer for ``count`` values, reused by its next call."""
    if getattr(_scratch, "values", np.empty(0)).size < count:
        _scratch.values = np.empty(0)  # the old buffer goes before the new one comes
        try:
            _scratch.values = np.empty(count)
        except MemoryError:
            message = f"cannot allocate {count} sampled values ({8 * count} bytes)"
            raise LimitExceededError(message) from None
    return _scratch.values[:count]


def _report(values: np.ndarray, seed: int) -> SampleReport:
    """The mean of ``values`` with its size and standard error; consumes ``values``.

    The variance is ``np.std(ddof=1)``'s arithmetic in place: ``_std_error`` bit for bit.
    """
    mean, n, std_error = values.mean(), values.size, 0.0
    head = values[:64]  # a sample that varies almost always varies here; a constant one is scanned whole
    if n > 1 and (head.min() != head.max() or values.min() != values.max()):
        np.subtract(values, mean, out=values)
        np.square(values, out=values)
        std_error = math.sqrt(values.sum() / (n - 1)) / math.sqrt(n)
    return SampleReport(float(mean), n, std_error, seed)


def pair_distinction_rate(p: Distribution, trials: int, seed: int) -> SampleReport:
    """Fraction of independent draw pairs that land on distinct outcomes.

    Unbiased estimator of the logical entropy of ``p``.  Trial t consumes
    stream draws 2t-1 and 2t.
    """
    _check_positive("trials", trials)
    _check_seed(seed)
    distinct = _values(trials)
    outcomes = np.arange(len(p.probs), dtype=float)
    for lo, drawn in _draw_chunks(seed, 0, 2 * trials, cumulative_weights(p.probs), outcomes):
        np.not_equal(drawn[0::2], drawn[1::2], out=distinct[lo // 2 : (lo + drawn.size) // 2])
    return _report(distinct, seed)


def average_difference_rate(p: Distribution, sequence_length: int, seed: int) -> SampleReport:
    """Mean of 1 - Pr(u_j) along one sampled sequence u_1 .. u_N.

    Converges to the logical entropy of ``p`` as the sequence grows; for the
    uniform distribution every term is already 1 - 1/n.
    """
    _check_positive("sequence_length", sequence_length)
    _check_seed(seed)
    values = _values(sequence_length)
    one_minus = 1.0 - np.array(p.probs, dtype=float)
    for _ in _draw_chunks(seed, 0, sequence_length, cumulative_weights(p.probs), one_minus, values):
        pass  # each chunk is gathered straight into values
    return _report(values, seed)


def typical_message_stats(
    p: Distribution, message_length: int, samples: int, seed: int
) -> SampleReport:
    """Mean observed bits per letter, -(1/N) log2 Pr(message), over sampled messages.

    Converges to the Shannon entropy of ``p``; for an equiprobable alphabet
    every message gives the same value, so the spread is exactly zero.
    Message s (0-based) consumes stream draws s*N+1 .. (s+1)*N.
    """
    _check_positive("message_length", message_length)
    _check_positive("samples", samples)
    _check_seed(seed)
    probs = np.array(p.probs, dtype=float)
    # zero-mass outcomes are never drawn, so their entry is never read
    log2_probs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0)
    log_probs = _values(samples * message_length)
    for _ in _draw_chunks(seed, 0, log_probs.size, cumulative_weights(p.probs), log2_probs, log_probs):
        pass
    per_message = -log_probs.reshape(samples, message_length).sum(axis=1) / message_length
    return _report(per_message, seed)


def typical_count_log(p: Distribution, message_length: int) -> float:
    """log2 of the number of typical length-N messages: exactly N * H(p).

    Analytic, no sampling: the typical messages are equiprobable with
    probability prod(p_k**(p_k * N)), so their count is the reciprocal.
    """
    _check_positive("message_length", message_length)
    return message_length * shannon_entropy_dist(p)
