"""Deterministic, portable pseudo-random sampling.

Generator identity: SplitMix64.  For a 64-bit seed ``s`` the k-th output
(k = 1, 2, ...) is ``mix64(s + k * GOLDEN_GAMMA) mod 2**64`` where ``mix64``
is the standard xor-shift/multiply finalizer below.  Because the state is a
pure function of (seed, k) the stream can be produced scalar or in batches
and reproduced bit-for-bit in any language.  The scalar view (``mix64``,
``SplitMix64``, ``cumulative_weights``) is stdlib-only; the batch view
(``batch_*``) imports numpy when it is called, so importing this module, and
everything that uses only the scalar view, never loads numpy.

Unit samples are ``((x >> 11) + 1) * 2**-53``, uniform on (0, 1].  Categorical
draws use the inverse CDF with right-closed intervals: outcome i owns
(c_{i-1}, c_i] where c_i is the cumulative probability, so a zero-probability
outcome owns an empty interval and is never drawn.  The cumulative values
from the last outcome with mass onward are pinned to 1.0, trailing zeros too.
``SplitMix64.draw_index`` and ``np.searchsorted(cum, batch_units(...))`` are
that rule on floats, and stay its specification.

The batch draws compare the raw words instead, with no float conversion.
For a cumulative value ``c < 1``, ``u > c`` holds exactly when
``x >= floor(c * 2**53) << 11``; a value ``>= 1`` is never below ``u``.  So
a draw is the number of these integer steps that are ``<= x``.  A guide
table of 2**12 buckets, on the top 12 bits of ``x``, holds that count at each
bucket's lowest word (Chen & Asau 1974; Devroye 1986, III.2.4).  The caller's
value per outcome (its number, ``1 - p`` or ``log2 p``) is composed into that
table once per call, NaN marking a bucket that holds a step, so a draw is one
gather into the caller's values.  The finisher's last ``x ^= x >> 31`` keeps
the top 12 bits, so only NaN draws (about (k-1)/4096 for k outcomes) get it,
and a search.  Chunks of 15 * 2**10 draws change no value; a call reuses one
chunk's words, shift scratch and NaN flags, and the chunk's Weyl offsets
``k * GOLDEN_GAMMA`` are built once per process.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import DomainError, _check_seed

if TYPE_CHECKING:
    import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_CHUNK = 15 << 10  # even: no pair is split; 120 KiB arrays: under malloc's 128 KiB mmap threshold
_GUIDE_BITS = 12


def mix64(z: int) -> int:
    """The SplitMix64 output finalizer (a bijection on 64-bit words)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar stream view of the generator; the k-th output is mix64(seed + k*gamma)."""

    def __init__(self, seed: int) -> None:
        _check_seed(seed)
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & _MASK64
        return mix64(self._state)

    def next_unit(self) -> float:
        """Uniform on (0, 1] with 53-bit resolution."""
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def draw_index(self, cumulative: list[float]) -> int:
        """Inverse-CDF draw with right-closed intervals."""
        return bisect_left(cumulative, self.next_unit())


def _check_start(start) -> None:
    if not isinstance(start, int) or isinstance(start, bool) or start < 0:
        raise DomainError(f"start must be a nonnegative integer, got {start!r}")


_offsets = None  # k * GOLDEN_GAMMA for k = 1 .. _CHUNK, built on first use


def _mixed(seed: int, start: int, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Outputs start+1 .. start+z.size (at most ``_CHUNK``) into ``z``, short of the last xor-shift."""
    global _offsets
    import numpy as np

    if _offsets is None:
        _offsets = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    np.add(_offsets[: z.size], np.uint64((seed + start * GOLDEN_GAMMA) & _MASK64), out=z)
    for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=scratch[: z.size]), out=z)
        np.multiply(z, np.uint64(mix), out=z)
    return z


def batch_uint64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count (mod 2**64) of the stream, identical to the scalar view."""
    import numpy as np

    _check_start(start)
    z, scratch = np.empty(count, dtype=np.uint64), np.empty(min(count, _CHUNK), dtype=np.uint64)
    for lo in range(0, count, _CHUNK):
        _mixed(seed, start + lo, z[lo : lo + _CHUNK], scratch)
    return np.bitwise_xor(z, z >> np.uint64(31), out=z)


def batch_units(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform samples on (0, 1] matching SplitMix64.next_unit draw for draw."""
    import numpy as np

    return ((batch_uint64(seed, start, count) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def cumulative_weights(probs) -> list[float]:
    """Cumulative sums, pinned to exactly 1.0 from the last outcome with mass onward."""
    probs = list(probs)
    cum = list(accumulate(float(p) for p in probs))
    last = max((i for i, p in enumerate(probs) if p > 0), default=0)
    cum[last:] = [1.0] * (len(cum) - last)
    return cum


def _draw_chunks(seed: int, start: int, count: int, cumulative: list[float], table, out=None):
    """Yield ``(lo, values)`` per chunk: ``values[j] = table[i]`` for the outcome i of draw lo + j.

    Draw 0 is stream output ``start + 1``.  The values are ``out[lo : lo + n]``,
    or without ``out`` one chunk buffer that the next chunk overwrites.
    """
    import numpy as np

    _check_start(start)
    cum = np.asarray(cumulative, dtype=np.float64)
    steps = np.floor(cum[: np.searchsorted(cum, 1.0)] * 2.0**53).astype(np.uint64) << np.uint64(11)
    # bucket b holds table[i] for the number i of steps <= its lowest word b << 52, or NaN
    # when a step lies inside it, so that its draws are searched
    lows = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << np.uint64(64 - _GUIDE_BITS)
    base = np.searchsorted(steps, lows, side="right")
    top = np.searchsorted(steps, lows | np.uint64((1 << (64 - _GUIDE_BITS)) - 1), side="right")
    table = np.asarray(table, dtype=np.float64)
    composed = np.where(top == base, table[base], np.nan)
    del lows, base, top  # the chunks keep only the composed table
    size = min(count, _CHUNK)
    z, scratch, searched = np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size, bool)
    chunk = np.empty(size) if out is None else None
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        words = _mixed(seed, start + lo, z[:n], scratch)
        values = chunk[:n] if out is None else out[lo : lo + n]
        buckets = np.right_shift(words, np.uint64(64 - _GUIDE_BITS), out=scratch[:n])
        # a signed index gathers faster; every bucket is in range, so "wrap" never acts
        np.take(composed, buckets.view(np.int64), out=values, mode="wrap")
        inside = np.isnan(values, out=searched[:n]).nonzero()[0]
        if inside.size:
            x = words[inside]
            values[inside] = table[np.searchsorted(steps, x ^ (x >> np.uint64(31)), side="right")]
        yield lo, values
