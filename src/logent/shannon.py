"""Shannon information measures and the bridge to the logical measures.

Values are in bits (base-2 logarithms) unless a ``base`` argument says
otherwise; pass ``base=math.e`` for nats.  The convention 0 * log(1/0) = 0
applies in every sum, and a cross entropy or divergence evaluated against a
zero probability where the reference puts mass is reported as ``math.inf``
rather than raised, since that is the correct limiting value.

Every sum runs through :func:`_range_sum`, its one way past the float range:
a sum whose term leaves that range, or whose value is infinite, runs once
more on its masses as exact Fractions; an exact input with an entry below
that range runs there at once.

The termwise substitution log(1/p) <-> (1 - p) turns each logical compound
formula into its Shannon counterpart: :func:`dit_bit_transform` performs it,
and the ``compound_transforms_match_direct`` suite checks it.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, _check_positive
from .logical import (
    Distribution,
    JointDistribution,
    _check_same_length,
    _block_masses,
    _MassTable,
    _joint_table,
    _partition_table,
)
from .partitions import Partition


def _log_to(base: float):
    """The log to ``base``, chosen once per sum: ``math.log2``, ``math.log``, or
    ``log(x) / log(base)``.  Each takes ints of any size, and reads any other
    number through ``float``.  The one check of a base: a finite real > 0, not 1."""
    if base == 2.0:
        return math.log2
    if base == math.e:
        return math.log
    if not (isinstance(base, numbers.Real) and 0 < base < math.inf and base != 1):
        raise DomainError(f"log base must be a finite real > 0 other than 1, got {base!r}")
    scale = math.log(base)
    return lambda x: math.log(x) / scale


def _range_log(base: float):
    """:func:`_log_to` that also takes a Fraction past the float range, as the log
    of its numerator less the log of its denominator: the log of the exact
    retry of :func:`_range_sum`."""
    log = _log_to(base)

    def range_log(x) -> float:
        if type(x) is Fraction and not sys.float_info.min <= x <= sys.float_info.max:
            return log(x.numerator) - log(x.denominator)
        return log(x)

    return range_log


def _range_sum(total_of, base: float, *masses, exact: bool = False) -> float:
    """``total_of(log, *masses)``: every Shannon sum, and its one way past the float range.

    The sum runs with :func:`_log_to` on the masses as they are.  If a term
    fails (its quotient or log leaves the float range) or the sum comes out
    infinite, the same sum runs once more on the masses as exact Fractions,
    with :func:`_range_log`: an exact quotient or product cannot leave the
    float range, and ``_range_log`` takes a Fraction past it.  ``exact`` (see
    :func:`_below_range`) sends the sum there at once.  That costs O(terms)
    Fraction work on those inputs only.  A sum against missing mass is
    infinite either way.
    """
    if not exact:
        try:
            value = total_of(_log_to(base), *masses)
        except (ValueError, OverflowError, ZeroDivisionError):
            value = math.inf
        if value < math.inf:
            return value
    return total_of(_range_log(base), *map(_exact, masses))


def _below_range(*dists: Distribution) -> bool:
    """Whether an exact entry is positive but below the normal float range, 2**-1022,
    where a float keeps only some of its digits.  Decided once per call from the
    integer numerators over D: they are scanned only when D is past 2**1022."""
    for p in dists:
        if p.is_exact and (d := p._integers[1]) >> 1022 and min(filter(None, p._integers[0])) << 1022 < d:
            return True
    return False


def _exact(masses):
    """A mass, a sequence of masses or a mass table, as exact Fractions; cell indices stay ints."""
    if isinstance(masses, _MassTable):
        cells = tuple((i, j, Fraction(m)) for i, j, m in masses.cells)
        return _MassTable(cells, *map(_exact, (masses.rows, masses.cols, masses.total)), True)
    if isinstance(masses, (tuple, list)):
        return tuple(map(_exact, masses))
    return Fraction(masses)


def _over_total(p: Distribution) -> tuple:
    """A distribution's entries as masses over a total T, so that m / T is float(p_i):
    the integer numerators over D when exact, the entries over 1.0 otherwise."""
    return p._integers or (p.probs, 1.0)


def shannon_hartley(p0: float, base: float = 2.0) -> float:
    """log(1/p0): bits needed to single out one of 1/p0 equiprobable items."""
    if not 0.0 < float(p0) <= 1.0:
        raise DomainError(f"probability must lie in (0, 1], got {p0}")
    return -_log_to(base)(float(p0))


def _entropy_sum(log, masses, total) -> float:
    """sum q * log(1/q) over the shares q = m / T > 0."""
    return math.fsum([q * -log(q) for m in masses if (q := m / total) > 0])


def shannon_entropy_dist(p: Distribution, base: float = 2.0) -> float:
    """H(p) = sum p_i * log(1/p_i), between 0 and log(n)."""
    return _range_sum(_entropy_sum, base, *_over_total(p), exact=_below_range(p))


def shannon_entropy_partition(
    partition: Partition, weights: Distribution | None = None, base: float = 2.0
) -> float:
    """H of the block-probability vector of the partition: each block mass m over T."""
    masses, total, _ = _block_masses(partition, weights)
    return _range_sum(_entropy_sum, base, masses, total)


def _conditional_sum(log, table) -> float:
    """sum w * log(col / m) over the cells of weight w = m / T > 0."""
    cols, total = table.cols, table.total
    return math.fsum([w * log(cols[j] / m) for _, j, m in table.cells if (w := m / total) > 0])


def _mutual_sum(log, table) -> float:
    """sum w * log(m T / (row col)) over the cells of weight w = m / T > 0."""
    rows, cols, total = table.rows, table.cols, table.total
    return math.fsum([
        w * log(m * total / (rows[i] * cols[j]))
        for i, j, m in table.cells
        if (w := m / total) > 0
    ])


def shannon_conditional_joint(
    joint: JointDistribution, given: str = "y", base: float = 2.0
) -> float:
    """H(x|y) = sum p(x,y) * log(p(y)/p(x,y)) (swap axes with given='x')."""
    return _range_sum(_conditional_sum, base, _joint_table(joint, given))


def shannon_conditional_partition(
    p: Partition, s: Partition, weights: Distribution | None = None, base: float = 2.0
) -> float:
    """H(p|s): block entropies of p restricted to each block of s, averaged.

    Equals H(p v s) - H(s).
    """
    return _range_sum(_conditional_sum, base, _partition_table(p, s, weights))


def shannon_mutual_joint(joint: JointDistribution, base: float = 2.0) -> float:
    """I(x,y) = sum p(x,y) * log(p(x,y) / (p(x)p(y))); zero cells contribute 0."""
    return _range_sum(_mutual_sum, base, _joint_table(joint))


def shannon_mutual_partition(
    p: Partition, s: Partition, weights: Distribution | None = None, base: float = 2.0
) -> float:
    """I(p,s) = sum over nonempty B & C of p_BC * log(p_BC / (p_B p_C))."""
    return _range_sum(_mutual_sum, base, _partition_table(p, s, weights))


def _cross_sum(log, ps, p_total, qs, q_total) -> float:
    """sum a * log(1/b) over a = m / T > 0 of p, b that of q; inf when q lacks mass there."""
    total = 0.0
    for a, b in zip(ps, qs):
        if a > 0:
            if b <= 0:
                return math.inf
            total += a / p_total * -log(b / q_total)
    return total


def _kl_sum(log, ps, p_total, qs, q_total) -> float:
    """sum a * log(a / b) over a = m / T > 0 of p, b that of q; inf when q lacks mass there."""
    total = 0.0
    for a, b in zip(ps, qs):
        if a > 0:
            if b <= 0:
                return math.inf
            total += (x := a / p_total) * log(x / (b / q_total))
    return total


def _support_sum(total_of, p: Distribution, q: Distribution, base: float) -> float:
    """``total_of`` over the masses of :func:`_over_total` of p and q, where p has mass."""
    _check_same_length(p, q)
    return _range_sum(total_of, base, *_over_total(p), *_over_total(q), exact=_below_range(p, q))


def shannon_cross_entropy(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    """H(p||q) = sum p_i * log(1/q_i); inf when q lacks mass where p has it."""
    return _support_sum(_cross_sum, p, q, base)


def symmetrized_cross_entropy(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    return (shannon_cross_entropy(p, q, base) + shannon_cross_entropy(q, p, base)) / 2


def kl_divergence(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    """D(p||q) = sum p_i * log(p_i/q_i) >= 0, zero exactly when p = q."""
    return _support_sum(_kl_sum, p, q, base)


def symmetrized_kl_divergence(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    return (kl_divergence(p, q, base) + kl_divergence(q, p, base)) / 2


# ----------------------------------------------------------------------
# the dit-bit bridge
# ----------------------------------------------------------------------


def dit_to_bit(h0: float, base: float = 2.0) -> float:
    """log(1/(1-h0)): the bit count of the equiprobable set whose dit count is h0."""
    if not 0.0 <= h0 < 1.0:
        raise DomainError(f"normalized dit count must lie in [0, 1), got {h0}")
    _log_to(base)  # checks the base
    return -math.log1p(-h0) / math.log(base)


def bit_to_dit(bits: float, base: float = 2.0) -> float:
    """1 - base**(-bits): inverse of :func:`dit_to_bit`."""
    if not bits >= 0:  # also refuses NaN
        raise DomainError(f"bit count must be nonnegative, got {bits}")
    _log_to(base)  # checks the base
    return -math.expm1(-bits * math.log(base))


def _substituted_sum(log, terms) -> float:
    """Map each logical term w * (1 - x) to w * log(1/x) and sum the images.

    Terms with w = 0 drop out (0 * log(1/0) = 0); x = 0 with w != 0 makes
    the sum infinite.
    """
    return math.fsum([w * -log(x) if x > 0 else math.inf for w, x in terms if w != 0])


def _transform_inputs(kind: str, inputs: tuple, *types) -> tuple:
    """``inputs`` when they are one of each of ``types``; a DomainError naming them otherwise."""
    if len(inputs) != len(types) or not all(map(isinstance, inputs, types)):
        takes, got = (", ".join(t.__name__ for t in ts) for ts in (types, map(type, inputs)))
        raise DomainError(f"transform {kind!r} takes ({takes}), got ({got})")
    return inputs


def dit_bit_transform(kind: str, *inputs, base: float = 2.0) -> float:
    """Termwise substitution log(1/p) for (1-p) in a logical compound formula.

    Supported kinds and inputs:

    - ``entropy``     (p)            -> H(p)
    - ``conditional`` (joint, given) -> H(x|y) or H(y|x)
    - ``mutual``      (joint)        -> I(x,y)
    - ``cross``       (p, q)         -> H(p||q)
    - ``divergence``  (p, q)         -> symmetrized KL divergence

    Each kind lists the terms (w, x) of its logical formula sum w * (1 - x);
    the ``compound_transforms_match_direct`` suite checks the substituted sum
    against the directly computed Shannon quantity.
    """
    if kind == "entropy":
        (p,) = _transform_inputs(kind, inputs, Distribution)
        # h(p) = sum p (1 - p)
        terms = [(a, a) for a in p.probs]
    elif kind == "conditional":
        joint, given = _transform_inputs(kind, inputs, JointDistribution, str)
        table = _joint_table(joint, given)
        cols, d = table.cols, table.total
        # h(x|y) = sum p [(1 - p) - (1 - p_y)], each probability a mass over T
        terms = [t for _, j, m in table.cells for t in ((m / d, m / d), (-m / d, cols[j] / d))]
    elif kind == "mutual":
        (joint,) = _transform_inputs(kind, inputs, JointDistribution)
        table = _joint_table(joint)
        rows, cols, d = table.rows, table.cols, table.total
        # m(x,y) = sum p [(1 - p_x) + (1 - p_y) - (1 - p)], each probability a mass over T
        terms = [
            t for i, j, m in table.cells
            for t in ((m / d, rows[i] / d), (m / d, cols[j] / d), (-m / d, m / d))
        ]
    elif kind == "cross":
        p, q = _transform_inputs(kind, inputs, Distribution, Distribution)
        _check_same_length(p, q)
        # h(p||q) = sum p (1 - q)
        terms = list(zip(p.probs, q.probs))
    elif kind == "divergence":
        p, q = _transform_inputs(kind, inputs, Distribution, Distribution)
        _check_same_length(p, q)
        # d(p||q) = [h(p||q) + h(q||p)] / 2 - [h(p) + h(q)] / 2
        terms = [
            t
            for a, b in zip(p.probs, q.probs)
            for t in ((a / 2, b), (b / 2, a), (-a / 2, a), (-b / 2, b))
        ]
    else:
        raise DomainError(f"unknown transform selector {kind!r}")
    exact = kind in ("entropy", "cross", "divergence") and _below_range(*inputs)
    return _range_sum(_substituted_sum, base, terms, exact=exact)


# ----------------------------------------------------------------------
# multinomial entropy and its Stirling approximations
# ----------------------------------------------------------------------


class StirlingReport(NamedTuple):
    """Exact normalized log-multinomial next to its two Stirling approximations.

    ``s_exact`` is ln(N! / prod N_i!) / N from log-gamma log-factorials;
    ``approx2`` drops each factorial to the two-term Stirling form and lands
    on the natural-log entropy of the size proportions; ``approx3`` keeps the
    (1/2) ln(2 pi M) term of each factorial as well.  Values are in nats
    unless ``unit`` says bits.

    ``s_exact`` is itself good only to a few ulp of ln(N!)/N, so an ``err2``
    or ``err3`` of that size is rounding noise, not Stirling error: for sizes
    ``[10**9, 10**9]`` ``err3`` reads 1.22e-15, but the true three-term error
    is about 6e-20.
    """

    s_exact: float
    approx2: float
    approx3: float
    unit: str = "nats"

    @property
    def err2(self) -> float:
        return abs(self.s_exact - self.approx2)

    @property
    def err3(self) -> float:
        return abs(self.s_exact - self.approx3)


def stirling_entropy(block_sizes, bits: bool = False) -> StirlingReport:
    """Exact S = ln(W)/N for W = N!/(prod N_i!) and its Stirling estimates.

    Each ln(m!) is ``math.lgamma(m + 1)``, so the cost is O(blocks) whatever
    N is and no size makes it hang.  lgamma is accurate to a few ulp of
    ln(m!), so ``s_exact`` carries an absolute error of a few ulp of
    ln(N!)/N; the difference cancels when the sizes are very unbalanced, as
    the O(N) summed form does too.  A total past lgamma's float range (about
    2.5e305) raises :class:`DomainError`.
    """
    sizes = list(block_sizes)
    if not sizes:
        raise DomainError("need at least one block size")
    for s in sizes:
        _check_positive("block size", s)
    total = sum(sizes)
    try:
        log_total_factorial = math.lgamma(total + 1)
    except OverflowError:
        raise DomainError(
            f"block sizes total at least 2**{total.bit_length() - 1}, past the float range"
            " of lgamma (about 2.5e305)"
        ) from None
    s_exact = (log_total_factorial - math.fsum(math.lgamma(s + 1) for s in sizes)) / total
    proportions = [s / total for s in sizes]
    approx2 = math.fsum(-p * math.log(p) for p in proportions if p > 0)
    # third Stirling term: (1/2N) * [ln(2 pi N) - sum_i ln(2 pi N_i)]
    correction = (
        math.log(2 * math.pi * total)
        - math.fsum(math.log(2 * math.pi * s) for s in sizes)
    ) / (2 * total)
    approx3 = approx2 + correction
    scale = 1.0 / math.log(2) if bits else 1.0  # times 1.0 is exact: nats are unchanged
    return StirlingReport(
        s_exact * scale, approx2 * scale, approx3 * scale, "bits" if bits else "nats"
    )
