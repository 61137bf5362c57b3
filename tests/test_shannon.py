import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from logent import shannon
from logent.errors import DomainError, SizeMismatchError
from logent.logical import Distribution, JointDistribution
from logent.partitions import (
    discrete_partition,
    enumerate_partitions,
    indiscrete_partition,
    join,
    make_partition,
)
from logent.shannon import (
    bit_to_dit,
    dit_bit_transform,
    dit_to_bit,
    kl_divergence,
    shannon_conditional_joint,
    shannon_conditional_partition,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_entropy_partition,
    shannon_hartley,
    shannon_mutual_joint,
    shannon_mutual_partition,
    stirling_entropy,
    symmetrized_cross_entropy,
    symmetrized_kl_divergence,
)

HALF_QUARTERS = Distribution((0.5, 0.25, 0.25))
SKEWED = Distribution((0.25, 0.75))
FIFTHS = Distribution((0.2, 0.3, 0.5))
ZERO_CELL_JOINT = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
EXACT_JOINT = JointDistribution(
    ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 4)))
)


def log_factorial_oracle(m):
    return math.fsum(math.log(k) for k in range(2, m + 1))


def stirling_in_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` after importing stirling_entropy, in a fresh interpreter, within 30 s."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", f"from logent.shannon import stirling_entropy\n{code}"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )


class TestHartley:
    def test_five_bits_for_thirty_two(self):
        assert shannon_hartley(1 / 32) == 5.0

    def test_singleton(self):
        assert shannon_hartley(1.0) == 0.0

    def test_one_third(self):
        assert shannon_hartley(1 / 3) == pytest.approx(math.log2(3))

    def test_nats(self):
        assert shannon_hartley(1 / 8, base=math.e) == pytest.approx(3 * math.log(2))

    def test_domain(self):
        with pytest.raises(DomainError):
            shannon_hartley(0.0)
        with pytest.raises(DomainError):
            shannon_hartley(1.5)


class TestEntropy:
    def test_uniform_eight(self):
        assert shannon_entropy_dist(Distribution.uniform(8)) == pytest.approx(3.0)

    def test_point_mass(self):
        assert shannon_entropy_dist(Distribution.point_mass(3)) == 0.0

    def test_dyadic(self):
        assert shannon_entropy_dist(HALF_QUARTERS) == 1.5

    def test_bounds(self):
        for n in (2, 5, 16, 64):
            h = shannon_entropy_dist(Distribution.uniform(n))
            assert h == pytest.approx(math.log2(n), abs=1e-12)

    def test_zero_terms_skipped(self):
        assert shannon_entropy_dist(Distribution((0.5, 0.5, 0.0))) == pytest.approx(1.0)


class TestEntropyPartition:
    def test_discrete_uniform_four(self):
        assert shannon_entropy_partition(discrete_partition(4)) == pytest.approx(2.0)

    def test_indiscrete(self):
        assert shannon_entropy_partition(indiscrete_partition(6)) == 0.0

    def test_block_sizes(self):
        p = make_partition([{0, 1}, {2}, {3}], 4)
        assert shannon_entropy_partition(p) == pytest.approx(1.5)

    def test_matches_block_distribution(self):
        p = make_partition([{0, 1, 2}, {3, 4}], 5)
        w = Distribution((0.1, 0.2, 0.3, 0.25, 0.15))
        expected = shannon_entropy_dist(Distribution((0.6, 0.4)))
        assert shannon_entropy_partition(p, w) == pytest.approx(expected)

    def test_weight_mismatch(self):
        with pytest.raises(SizeMismatchError):
            shannon_entropy_partition(discrete_partition(3), Distribution((0.5, 0.5)))


class TestConditionalJoint:
    def test_independent_uniform(self):
        j = JointDistribution.uniform(2, 2)
        assert shannon_conditional_joint(j, "y") == pytest.approx(1.0)

    def test_determined(self):
        j = JointDistribution(((0.5, 0.0), (0.0, 0.5)))
        assert shannon_conditional_joint(j, "y") == 0.0

    def test_mixed_example(self):
        j = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
        expected = 1.5 - shannon_entropy_dist(Distribution((0.75, 0.25)))
        assert shannon_conditional_joint(j, "y") == pytest.approx(expected, abs=1e-12)
        assert shannon_conditional_joint(j, "y") == pytest.approx(0.68872, abs=5e-6)

    def test_axis_selector(self):
        j = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
        hxy = shannon_entropy_dist(j.flatten())
        hx = shannon_entropy_dist(Distribution(j.marginal_x))
        assert shannon_conditional_joint(j, "x") == pytest.approx(hxy - hx, abs=1e-12)
        with pytest.raises(DomainError):
            shannon_conditional_joint(j, "z")

    def test_nonnegative(self):
        j = JointDistribution(((0.4, 0.1), (0.1, 0.4)))
        assert shannon_conditional_joint(j, "y") >= 0.0


class TestConditionalPartition:
    def test_conditioning_on_indiscrete(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert shannon_conditional_partition(p, indiscrete_partition(3)) == pytest.approx(
            shannon_entropy_partition(p)
        )

    def test_self_conditioning(self):
        p = make_partition([{0, 1}, {2}], 3)
        assert shannon_conditional_partition(p, p) == pytest.approx(0.0)

    def test_crossing_example(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        s = make_partition([{0, 2}, {1, 3}], 4)
        assert shannon_conditional_partition(p, s) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_join_identity_all_pairs(self, n):
        parts = list(enumerate_partitions(n))
        for p in parts:
            for s in parts:
                direct = shannon_conditional_partition(p, s)
                via_join = shannon_entropy_partition(join(p, s)) - shannon_entropy_partition(s)
                assert direct == pytest.approx(via_join, abs=1e-12)


class TestMutual:
    def test_independent_joint_zero(self):
        j = JointDistribution.outer(Distribution((0.3, 0.7)), Distribution((0.2, 0.8)))
        assert shannon_mutual_joint(j) == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling(self):
        j = JointDistribution(((0.5, 0.0), (0.0, 0.5)))
        assert shannon_mutual_joint(j) == pytest.approx(1.0)

    def test_mixed_example_three_term_and_kl_forms(self):
        j = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
        expected = shannon_entropy_dist(Distribution((0.75, 0.25))) + 1.0 - 1.5
        mutual = shannon_mutual_joint(j)
        assert mutual == pytest.approx(expected, abs=1e-12)
        assert mutual == pytest.approx(0.31128, abs=5e-6)
        kl_form = kl_divergence(j.flatten(), j.product_of_marginals().flatten())
        assert mutual == pytest.approx(kl_form, abs=1e-12)

    def test_partition_mutual(self):
        p = make_partition([{0, 1}, {2, 3}], 4)
        s = make_partition([{0, 2}, {1, 3}], 4)
        assert shannon_mutual_partition(p, s) == pytest.approx(0.0, abs=1e-12)
        assert shannon_mutual_partition(p, indiscrete_partition(4)) == pytest.approx(0.0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_partition_mutual_inclusion_exclusion(self, n):
        parts = list(enumerate_partitions(n))
        for p in parts:
            for s in parts:
                lhs = shannon_mutual_partition(p, s)
                rhs = (
                    shannon_entropy_partition(p)
                    + shannon_entropy_partition(s)
                    - shannon_entropy_partition(join(p, s))
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)
                assert lhs >= -1e-12


def test_exact_weights_past_the_float_range():
    """Masses over a 514-digit denominator are read as ratios, never through float()."""
    primes = [q for q in range(2, 1224) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    assert len(primes) == 200
    raw = [Fraction(1, q) for q in primes]
    total = sum(raw)
    exact = Distribution(tuple(x / total for x in raw))
    assert len(str(exact._integers[1])) == 514
    floats = Distribution(tuple(map(float, exact.probs)))
    p = make_partition([range(k, 200, 7) for k in range(7)], 200)
    s = make_partition([range(k, min(k + 13, 200)) for k in range(0, 200, 13)], 200)
    for f, args in [
        (shannon_conditional_partition, (p, s)),
        (shannon_conditional_partition, (s, p)),
        (shannon_mutual_partition, (p, s)),
        (shannon_entropy_partition, (p,)),
    ]:
        value = f(*args, exact)
        assert math.isfinite(value)
        assert value == pytest.approx(f(*args, floats), abs=1e-12)


TINY = Fraction(1, 10**315)  # its inverse is past the float range, itself subnormal
BELOW = Fraction(1, 10**400)  # below the float range: float(BELOW) is 0.0
SUBNORMAL = Fraction(1, 3 * 10**323)  # float(SUBNORMAL) is 5e-324, half again too large


def _close(value, oracle):
    """Within 1e-12, or a few units of the subnormal spacing, finer than which a
    subnormal value cannot be told apart."""
    return math.isfinite(value) and math.isclose(
        value, oracle, rel_tol=1e-12, abs_tol=4 * math.ulp(0.0)
    )


def _log2(x) -> float:
    """log2 of a positive rational, from the logs of its numerator and denominator."""
    x = Fraction(x)
    return math.log2(x.numerator) - math.log2(x.denominator)


def _oracle(p, q, divergence=False) -> float:
    """H(p||q), or D(p||q) with ``divergence``, termwise from :func:`_log2`."""
    return math.fsum(
        float(a) * ((_log2(a) if divergence else 0.0) - _log2(b))
        for a, b in zip(p.probs, q.probs)
        if a > 0
    )


@pytest.mark.parametrize(
    "t",
    [1e-200, 1e-320, Fraction(1, 10**200), TINY, BELOW],
    ids=["float-1e-200", "float-1e-320", "exact-1e-200", "exact-1e-315", "exact-1e-400"],
)
def test_pair_measures_of_a_cell_near_the_float_range(t):
    """A cell whose quotient leaves the float range takes its log from exact masses."""
    w = Distribution((1 - t, t))
    discrete, indiscrete = discrete_partition(2), indiscrete_partition(2)
    entropy = shannon_entropy_partition(discrete, w)
    # positive for every t but BELOW, whose t * log2(1/t) is itself below the float range
    assert _close(entropy, _oracle(w, w)) and (entropy > 0) == (t is not BELOW)
    assert _close(shannon_conditional_partition(discrete, indiscrete, w), entropy)
    assert _close(shannon_mutual_partition(discrete, discrete, w), entropy)
    diagonal = JointDistribution(((1 - t, 0), (0, t)))
    assert _close(shannon_mutual_joint(diagonal), shannon_entropy_dist(w))
    assert _close(shannon_conditional_joint(JointDistribution(((1 - t, t),)), "x"), entropy)


def _mixed_weight_measures(t):
    """H(discrete), H(discrete | indiscrete) and I(discrete, discrete) under weights (t, 1.0)."""
    w = Distribution((t, 1.0))  # t is a Fraction below 1e-16: the float total stays 1.0
    assert w.probs[0] is t and not w.is_exact
    discrete, indiscrete = discrete_partition(2), indiscrete_partition(2)
    return (
        shannon_entropy_partition(discrete, w),
        shannon_conditional_partition(discrete, indiscrete, w),
        shannon_mutual_partition(discrete, discrete, w),
    )


def test_mixed_weights_with_a_fraction_below_the_float_range():
    """Each value is t * log2(1/t), about 1.3e-397 here: below the float range, so 0.0."""
    assert _mixed_weight_measures(Fraction(1, 10**400)) == (0.0, 0.0, 0.0)


def test_mixed_weights_with_a_fraction_inside_the_float_range():
    t = Fraction(1, 10**300)
    oracle = 1e-300 * math.log2(1e300)
    for value in _mixed_weight_measures(t):
        assert math.isclose(value, oracle, rel_tol=1e-12)


class TestCrossAndKL:
    def test_cross_of_self(self):
        p = Distribution((0.3, 0.7))
        assert shannon_cross_entropy(p, p) == pytest.approx(shannon_entropy_dist(p))

    def test_cross_infinite(self):
        assert shannon_cross_entropy(Distribution((1, 0)), Distribution((0, 1))) == math.inf

    def test_cross_example(self):
        p = Distribution((0.5, 0.5))
        assert shannon_cross_entropy(p, SKEWED) == pytest.approx(1.2075187, abs=1e-6)

    def test_kl_zero_iff_equal(self):
        p = Distribution((0.3, 0.7))
        assert kl_divergence(p, p) == 0.0
        assert kl_divergence(p, Distribution((0.31, 0.69))) > 0

    def test_kl_examples(self):
        p = Distribution((0.5, 0.5))
        assert kl_divergence(p, SKEWED) == pytest.approx(0.2075187, abs=1e-6)
        assert kl_divergence(Distribution((1, 0)), Distribution((0.5, 0.5))) == pytest.approx(1.0)

    def test_kl_is_cross_minus_entropy(self):
        p = Distribution((0.2, 0.5, 0.3))
        q = Distribution((0.4, 0.4, 0.2))
        assert kl_divergence(p, q) == pytest.approx(
            shannon_cross_entropy(p, q) - shannon_entropy_dist(p), abs=1e-12
        )

    def test_symmetrized_forms(self):
        p = Distribution((0.5, 0.5))
        ds = symmetrized_kl_divergence(p, SKEWED)
        assert ds == pytest.approx(0.1981203, abs=1e-6)
        hs = symmetrized_cross_entropy(p, SKEWED)
        mean_h = (shannon_entropy_dist(p) + shannon_entropy_dist(SKEWED)) / 2
        assert ds == pytest.approx(hs - mean_h, abs=1e-12)

    def test_kl_infinite(self):
        assert kl_divergence(Distribution((0.5, 0.5)), Distribution((1, 0))) == math.inf

    @pytest.mark.parametrize(
        "p, q",
        [
            (Distribution.uniform_exact(2), Distribution((BELOW, 1 - BELOW))),
            (Distribution.uniform_exact(2), Distribution((SUBNORMAL, 1 - SUBNORMAL))),
            (Distribution((0.5, 0.5)), Distribution((5e-324, 1.0))),
        ],
        ids=["exact-1e-400", "exact-subnormal", "float-5e-324"],
    )
    def test_past_the_float_range(self, p, q):
        """A quotient or log past the float range, or an exact mass that a float reads
        as a subnormal, takes the exact retry: finite values, to the oracle's digits."""
        for a, b in ((p, q), (q, p)):
            assert _close(shannon_cross_entropy(a, b), _oracle(a, b))
            assert _close(kl_divergence(a, b), _oracle(a, b, divergence=True))
        assert _close(shannon_entropy_dist(q), _oracle(q, q))
        assert _close(dit_bit_transform("entropy", q), _oracle(q, q))
        assert _close(dit_bit_transform("cross", p, q), _oracle(p, q))
        symmetrized = (_oracle(p, q, True) + _oracle(q, p, True)) / 2
        assert _close(symmetrized_kl_divergence(p, q), symmetrized)
        assert _close(dit_bit_transform("divergence", p, q), symmetrized)


def test_ordinary_inputs_never_take_the_exact_retry(monkeypatch):
    """The exact retry is for the float range only: with it broken, every sum on
    inputs of full support still returns, for float, exact, all-int and unweighted
    inputs alike."""

    def refuse(base):
        raise AssertionError("an ordinary input took the exact retry")

    monkeypatch.setattr(shannon, "_range_log", refuse)
    p = make_partition([{0, 1}, {2, 3}, {4}], 5)
    s = make_partition([{0, 2, 4}, {1, 3}], 5)
    all_weights = [
        Distribution.uniform_exact(5),
        Distribution(tuple(map(Fraction, ("1/3", "1/6", "1/4", "0", "1/4")))),
        Distribution.point_mass(5, 2),
        Distribution((0.1, 0.2, 0.3, 0.15, 0.25)),
        None,
    ]
    r = random.Random(7)
    raw = [[r.random() for _ in range(4)] for _ in range(3)]
    total = math.fsum(map(math.fsum, raw))
    joints = [EXACT_JOINT, ZERO_CELL_JOINT, JointDistribution(((1, 0), (0, 0)))]
    joints.append(JointDistribution(tuple(tuple(x / total for x in row) for row in raw)))
    exact = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    pairs = [(HALF_QUARTERS, FIFTHS), (Distribution((1,)), Distribution((1,)))]
    pairs.append((Distribution.uniform_exact(3), exact))
    for base in (2.0, math.e, 10.0):
        for weights in all_weights:
            for a, b in ((p, s), (s, p)):
                assert shannon_entropy_partition(a, weights, base) >= 0
                assert shannon_conditional_partition(a, b, weights, base) >= -1e-12
                assert shannon_mutual_partition(a, b, weights, base) >= -1e-12
        for joint in joints:
            for given in ("x", "y"):
                assert shannon_conditional_joint(joint, given, base) >= -1e-12
                assert dit_bit_transform("conditional", joint, given, base=base) >= -1e-12
            assert shannon_mutual_joint(joint, base) >= -1e-12
            assert dit_bit_transform("mutual", joint, base=base) >= -1e-12
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                assert shannon_entropy_dist(x, base) >= 0
                assert dit_bit_transform("entropy", x, base=base) >= 0
                assert shannon_cross_entropy(x, y, base) < math.inf
                assert kl_divergence(x, y, base) < math.inf
                assert dit_bit_transform("cross", x, y, base=base) < math.inf
                assert dit_bit_transform("divergence", x, y, base=base) < math.inf


class TestDitBitConversion:
    def test_anchor_values(self):
        assert dit_to_bit(0.5) == pytest.approx(1.0)
        assert dit_to_bit(0.0) == 0.0
        assert dit_to_bit(1 - 1 / 8) == pytest.approx(3.0)
        assert bit_to_dit(1.0) == pytest.approx(0.5)
        assert bit_to_dit(0.0) == 0.0
        assert bit_to_dit(math.log2(3)) == pytest.approx(2 / 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            dit_to_bit(1.0)
        with pytest.raises(DomainError):
            dit_to_bit(-0.1)
        with pytest.raises(DomainError):
            bit_to_dit(-1.0)
        with pytest.raises(DomainError, match="bit count"):
            bit_to_dit(math.nan)

    def test_roundtrip_grid(self):
        for i in range(1000):
            h0 = 0.999 * i / 999
            assert bit_to_dit(dit_to_bit(h0)) == pytest.approx(h0, abs=1e-12)

    def test_equiprobable_chain(self):
        for k in range(2, 65):
            p0 = 1 / k
            assert dit_to_bit(1 - p0) == pytest.approx(shannon_hartley(p0), abs=1e-12)
            assert bit_to_dit(shannon_hartley(p0)) == pytest.approx(1 - p0, abs=1e-12)


BAD_BASES = [1.0, 0, -2, math.nan, math.inf, "2"]


class TestLogBase:
    """A base that is not a finite real > 0 and other than 1 is a DomainError everywhere."""

    @pytest.mark.parametrize("base", BAD_BASES, ids=repr)
    @pytest.mark.parametrize(
        "measure",
        [
            lambda b: shannon_entropy_dist(Distribution((0.5, 0.5)), base=b),
            lambda b: shannon_entropy_partition(make_partition([{0}, {1, 2}], 3), base=b),
            lambda b: shannon_cross_entropy(HALF_QUARTERS, HALF_QUARTERS, base=b),
            lambda b: kl_divergence(HALF_QUARTERS, HALF_QUARTERS, base=b),
            lambda b: shannon_conditional_joint(EXACT_JOINT, base=b),
            lambda b: shannon_mutual_joint(EXACT_JOINT, base=b),
            lambda b: dit_bit_transform("entropy", HALF_QUARTERS, base=b),
            lambda b: shannon_hartley(0.5, base=b),
            lambda b: dit_to_bit(0.5, base=b),
            lambda b: bit_to_dit(1.0, base=b),
        ],
        ids=["entropy", "partition", "cross", "kl", "conditional", "mutual", "transform",
             "hartley", "dit_to_bit", "bit_to_dit"],
    )
    def test_bad_base_is_a_domain_error(self, measure, base):
        with pytest.raises(DomainError, match="log base"):
            measure(base)

    @pytest.mark.parametrize("base", [2, 2.0, math.e, 10, 0.5, Fraction(3, 2)], ids=repr)
    def test_good_bases_convert_bits(self, base):
        bits = shannon_entropy_dist(HALF_QUARTERS)
        assert shannon_entropy_dist(HALF_QUARTERS, base=base) == pytest.approx(
            bits * math.log(2) / math.log(base), abs=1e-12
        )
        assert dit_to_bit(0.5, base=base) == pytest.approx(math.log(2) / math.log(base))


class TestDitBitTransform:
    def test_entropy(self):
        assert dit_bit_transform("entropy", HALF_QUARTERS) == pytest.approx(1.5)

    def test_divergence(self):
        p = Distribution((0.5, 0.5))
        value = dit_bit_transform("divergence", p, SKEWED)
        assert value == pytest.approx(symmetrized_kl_divergence(p, SKEWED), abs=1e-12)
        assert value == pytest.approx(0.1981203, abs=1e-6)

    def test_mutual_of_independent_is_zero(self):
        j = JointDistribution.outer(Distribution((0.5, 0.5)), Distribution((0.5, 0.5)))
        assert dit_bit_transform("mutual", j) == pytest.approx(0.0, abs=1e-12)

    def test_conditional(self):
        j = JointDistribution(((0.25, 0.25), (0.5, 0.0)))
        assert dit_bit_transform("conditional", j, "y") == pytest.approx(
            shannon_conditional_joint(j, "y"), abs=1e-12
        )

    @pytest.mark.parametrize(
        "kind, inputs, direct",
        [
            ("conditional", (EXACT_JOINT, "y"), shannon_conditional_joint),
            ("conditional", (EXACT_JOINT, "x"), shannon_conditional_joint),
            ("mutual", (EXACT_JOINT,), shannon_mutual_joint),
        ],
        ids=["given-y", "given-x", "mutual"],
    )
    def test_exact_joint(self, kind, inputs, direct):
        assert dit_bit_transform(kind, *inputs) == pytest.approx(direct(*inputs), abs=1e-12)

    def test_cross_with_infinite_value(self):
        assert dit_bit_transform(
            "cross", Distribution((1, 0)), Distribution((0, 1))
        ) == math.inf

    def test_unknown_selector(self):
        with pytest.raises(DomainError, match="selector"):
            dit_bit_transform("nonsense", HALF_QUARTERS)

    @pytest.mark.parametrize(
        "kind, inputs, takes",
        [
            ("entropy", (HALF_QUARTERS, HALF_QUARTERS), r"\(Distribution\)"),
            ("entropy", (EXACT_JOINT,), r"\(Distribution\)"),
            ("conditional", (EXACT_JOINT,), r"\(JointDistribution, str\)"),
            ("conditional", (HALF_QUARTERS, "y"), r"\(JointDistribution, str\)"),
            ("mutual", (HALF_QUARTERS,), r"\(JointDistribution\)"),
            ("mutual", (), r"\(JointDistribution\)"),
            ("cross", (HALF_QUARTERS,), r"\(Distribution, Distribution\)"),
            ("divergence", (HALF_QUARTERS, EXACT_JOINT), r"\(Distribution, Distribution\)"),
        ],
        ids=["entropy-two", "entropy-joint", "conditional-no-axis", "conditional-dist",
             "mutual-dist", "mutual-none", "cross-one", "divergence-joint"],
    )
    def test_wrong_inputs_name_what_the_kind_takes(self, kind, inputs, takes):
        with pytest.raises(DomainError, match=f"transform '{kind}' takes {takes}"):
            dit_bit_transform(kind, *inputs)

    @pytest.mark.parametrize("kind", ["cross", "divergence"])
    def test_lengths_must_match(self, kind):
        with pytest.raises(SizeMismatchError):
            dit_bit_transform(kind, HALF_QUARTERS, Distribution((0.5, 0.5)))


class TestStirling:
    def test_binomial_anchor(self):
        report = stirling_entropy([6, 6])
        assert report.s_exact == pytest.approx(math.log(924) / 12, abs=1e-12)
        assert report.approx2 == pytest.approx(math.log(2), abs=1e-12)
        assert report.unit == "nats"

    def test_exact_from_log_factorial_oracle(self):
        report = stirling_entropy([3, 4, 5])
        expected = (
            log_factorial_oracle(12)
            - log_factorial_oracle(3)
            - log_factorial_oracle(4)
            - log_factorial_oracle(5)
        ) / 12
        assert report.s_exact == pytest.approx(expected, abs=1e-12)

    def test_single_block(self):
        report = stirling_entropy([1])
        assert report.s_exact == 0.0
        assert report.approx2 == 0.0

    def test_three_term_beats_two_term_at_scale(self):
        for total in (100, 1000, 10_000):
            report = stirling_entropy([total // 4] * 4)
            assert report.err3 < report.err2

    def test_errors_shrink_with_scale(self):
        errs = [stirling_entropy([total // 4] * 4) for total in (100, 1000, 10_000)]
        assert errs[0].err2 > errs[1].err2 > errs[2].err2
        assert errs[0].err3 > errs[1].err3 > errs[2].err3

    def test_bits_flag(self):
        nats = stirling_entropy([6, 6])
        bits = stirling_entropy([6, 6], bits=True)
        assert nats.unit == "nats" and bits.unit == "bits"
        scale = 1 / math.log(2)
        for field in ("s_exact", "approx2", "approx3"):
            assert getattr(bits, field) == getattr(nats, field) * scale

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            stirling_entropy([])
        with pytest.raises(DomainError):
            stirling_entropy([0, 3])

    def test_lgamma_matches_summed_log_factorials(self):
        rng = random.Random(2024)
        fixed = [[6, 6], [250] * 4, [1000] * 7, [1, 10_000], [12345, 1, 7], [1], [1] * 50]
        seeded = [
            [rng.randint(1, rng.choice((10, 1000, 20_000))) for _ in range(rng.randint(1, 6))]
            for _ in range(44)
        ]
        # the difference cancels on unbalanced sizes, so the bound scales with ln(N!)/N
        for sizes in fixed + seeded:
            total = sum(sizes)
            expected = (
                log_factorial_oracle(total) - math.fsum(log_factorial_oracle(s) for s in sizes)
            ) / total
            tol = 1e-14 * max(1.0, math.lgamma(total + 1) / total)
            assert abs(stirling_entropy(sizes).s_exact - expected) <= tol, sizes

    # Large totals run in a child process with a timeout, so a route that is
    # O(N) again fails here instead of hanging the suite.
    def test_large_total_returns_promptly(self):
        done = stirling_in_child("print(stirling_entropy([10**9, 10**9]).s_exact)")
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(math.log(2), abs=1e-8)

    @pytest.mark.parametrize("sizes", ["[10**306]", "[10**400]", "[5 * 10**305, 5 * 10**305]"])
    def test_total_past_lgamma_range_is_a_domain_error(self, sizes):
        done = stirling_in_child(
            "from logent.errors import DomainError\n"
            f"try:\n    stirling_entropy({sizes})\nexcept DomainError as exc:\n    print(exc)"
        )
        assert done.returncode == 0, done.stderr
        assert "float range" in done.stdout
