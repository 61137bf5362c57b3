import itertools
import random
from fractions import Fraction

import pytest

from logent.errors import InvalidPartitionError, ParseError
from logent.formats import (
    format_distribution,
    format_partition,
    parse_distribution,
    parse_joint,
    parse_partition,
)
from logent.partitions import (
    Universe,
    _from_labels,
    discrete_partition,
    indiscrete_partition,
    join,
    make_partition,
)


class TestPartitionText:
    def test_parse_basic(self):
        assert parse_partition("0,1|2|3,4") == make_partition([{0, 1}, {2}, {3, 4}], 5)

    def test_size_inferred_from_max_index(self):
        p = parse_partition("0,1|2")
        assert p.universe.size == 3

    def test_roundtrip_exact(self):
        for text in ("0,1|2|3,4", "0|1|2", "0,1,2,3", "0,2|1,3"):
            assert format_partition(parse_partition(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_partition(" 0 , 1 | 2 ") == make_partition([{0, 1}, {2}], 3)

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_partition("0,x|2")
        with pytest.raises(ParseError):
            parse_partition("0,1||2")


def per_chunk_parse(text, n=None):
    """The reference reading: each block's tokens through int(), then make_partition."""
    blocks = []
    for b, chunk in enumerate(text.strip().split("|")):
        if not chunk.strip():
            raise ParseError(f"empty block at position {b} in partition text {text!r}")
        try:
            blocks.append(list(map(int, chunk.split(","))))
        except ValueError:
            raise ParseError(
                f"bad element index in block {b} of partition text: {chunk!r}"
            ) from None
    if min(map(min, blocks)) < 0:
        raise ParseError("element indices must be nonnegative")
    return make_partition(blocks, max(map(max, blocks)) + 1 if n is None else n)


def outcome(parse, text):
    try:
        p = parse(text)
    except (ParseError, InvalidPartitionError) as exc:
        return type(exc), str(exc)
    return p, p.labels


def seeded_texts():
    """Canonical, shuffled and spaced texts of seeded partitions, n from 1 to 300."""
    rng = random.Random("partition-text")
    for _ in range(150):
        n = rng.randint(1, 300)
        k = rng.randint(1, n)
        groups = {}
        for u in range(n):
            groups.setdefault(rng.randrange(k), []).append(u)
        blocks = list(groups.values())
        yield "|".join(",".join(map(str, b)) for b in blocks)  # least-element order
        rng.shuffle(blocks)
        for b in blocks:
            rng.shuffle(b)
        yield "|".join(",".join(map(str, b)) for b in blocks)
        yield " | ".join(" , ".join(map(str, b)) for b in blocks) + "\n"


ODD_TEXTS = [
    # lenient int() tokens and whitespace: JSON refuses them, the per-chunk reading accepts them
    "01,1|2", "+1,0|2", "0,١|2", "\t0 ,1\n| 2\r", " 0,1|2",
    ",".join(map(str, range(1000))) + ",1_000", "2|0,+0|1",
    # JSON-only tokens
    "0,1.0|2", "1e2|0", "true|0", "0|false", "null|0", "NaN|0", "Infinity|0", '"1"|0', "0,{}|1",
    '{"a":' * 5000 + "0" + "}" * 5000 + "|0",  # nested past the JSON reader's recursion limit
    # bracket injections
    "0],[1", "[0]|1", "0,[|],1", "[[0]]", "0]|[1",
    # empty blocks and text
    "0||1", "|0", "0|", " ", "", "0, |1", "0,,1", ",0|1",
    # negative indices, overlaps, gaps
    "-1|0", "0,-0|1", "0|-2,1", "0,1|1", "0|2", "0,0|1", "1|0|1",
]


class TestPartitionTextReading:
    """The one-pass JSON reading gives the partition, or the error, that int() per block gives."""

    @pytest.mark.parametrize("text", ODD_TEXTS)
    def test_odd_tokens(self, text):
        assert outcome(parse_partition, text) == outcome(per_chunk_parse, text)

    def test_seeded_texts(self):
        for text in seeded_texts():
            assert outcome(parse_partition, text) == outcome(per_chunk_parse, text)

    @pytest.mark.parametrize("n", [3])
    def test_explicit_size(self, n):
        # n is the size parse_partition infers for each of these texts
        for text in ("0,1|2", "2|1,0", "0|1,x", "0,1||2"):
            assert outcome(parse_partition, text) == outcome(lambda t: per_chunk_parse(t, n), text)

    def test_formatted_text_is_read_back(self):
        for text in seeded_texts():
            p = parse_partition(text)
            assert parse_partition(format_partition(p)) == p

    @pytest.mark.parametrize(
        "text, n",
        [
            ("0,0,1|2", 3),  # a repeat inside a block: allowed
            ("0,1|1,2", 3),  # an overlap
            ("0|2", 3),  # a gap
            ("0,1|3", 4),
            ("0,1|2", 3),  # each element once: the direct scatter
            ("2|1,0", 3),
            ("0,1,1|3", 4),  # n elements in all, a repeat leaving a slot empty
        ],
    )
    def test_explicit_size_faults(self, text, n):
        # the size parse_partition infers is the size n, one past the largest element
        assert outcome(parse_partition, text) == outcome(lambda t: per_chunk_parse(t, n), text)


def generator_format(partition):
    """The former formatter: one ``str`` per element and one join per block."""
    return "|".join(",".join(str(u) for u in block) for block in partition.blocks)


def labelled(labels):
    return _from_labels(Universe(len(labels)), labels)


def formatter_cases():
    """The n = 2048 report shapes (1, 64 and 256 blocks, and the join of the last two),
    the discrete and indiscrete partitions, n = 1, and 300 seeded partitions up to n = 300."""
    rng = random.Random("format-partition")
    n = 2048
    p, s = (labelled([rng.randrange(k) for _ in range(n)]) for k in (256, 64))
    yield from (indiscrete_partition(n), s, p, join(p, s))
    for m in (1, 2, 7, n):
        yield from (discrete_partition(m), indiscrete_partition(m))
    for _ in range(300):
        m = rng.randint(1, 300)
        k = rng.randint(1, m)
        yield labelled([rng.randrange(k) for _ in range(m)])


class TestFormatPartition:
    """One ``repr`` of the element lists, separators rewritten, is the former text byte for byte."""

    def test_baseline_shapes(self):
        blocks = [p.n_blocks for p in itertools.islice(formatter_cases(), 4)]
        assert blocks[:3] == [1, 64, 256] and blocks[3] > 1900

    def test_same_text_as_the_generator_formatter(self):
        for p in formatter_cases():
            text = format_partition(p)
            assert text == generator_format(p)
            assert parse_partition(text) == p


class TestNumbers:
    def test_fractions_always_exact(self):
        d = parse_distribution("1/2,1/3,1/6")
        assert d.probs == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

    def test_decimals_float_by_default(self):
        d = parse_distribution("0.5,0.25,0.25")
        assert all(isinstance(p, float) for p in d.probs)

    def test_decimals_exact_on_request(self):
        d = parse_distribution("0.5,0.25,0.25", exact=True)
        assert d.probs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_roundtrip(self):
        d = parse_distribution("1/2,1/3,1/6")
        assert parse_distribution(format_distribution(d)) == d

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_distribution("0.5,abc")
        with pytest.raises(ParseError):
            parse_distribution("1/0,0")


class TestMatrices:
    def test_joint_semicolon_rows(self):
        j = parse_joint("1/4,1/4;1/2,0", exact=True)
        assert j.rows == ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(0)))

    def test_joint_newline_rows(self):
        j = parse_joint("0.25,0.25\n0.25,0.25")
        assert j.nx == 2 and j.ny == 2

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_joint("   ")
