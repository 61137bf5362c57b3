"""Text formats for partitions, distributions, and matrices.

Partitions: blocks separated by ``|``, element indices comma-separated, e.g.
``0,1|2|3,4``.  The universe size is inferred as max index + 1.
Parsing and printing round-trip exactly.  Plain integer text is read in one
C pass, as the JSON array of its blocks; any other token form (``01``,
``+1``, ``1_000``, Unicode digits) falls back to reading each block with
``int``, which gives every token its old meaning and every error its old
message.  Blocks that hold each element exactly once skip the element by
element check, which names every other fault; blocks in order of least
element, the form :func:`format_partition` writes, are not renumbered.
Printing is one ``repr`` of the block lists with its separators rewritten.

Numbers: plain decimals or fractions like ``1/3``.  Fractions always parse
exactly; with ``exact=True`` decimals are also read as exact rationals.
Distributions are comma-separated numbers; joint matrices are CSV with ``;``
accepted as a row separator for inline input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .errors import ParseError
from .logical import Distribution, JointDistribution
from .partitions import Partition, _from_block_lists

_INT = frozenset((int,))  # tested with issuperset: a C loop, stops at the first other type


def _json_blocks(text: str, chunks: list[str]) -> list | None:
    """The blocks as one JSON array, kept only when it is exactly the chunks' integers.

    No bracket in the text, one nonempty block per chunk, and every element
    an exact int (so ``true``, ``1.0`` and ``"1"`` are refused); else None.
    """
    if "[" in text or "]" in text:
        return None
    try:
        blocks = json.loads("[[" + "],[".join(chunks) + "]]")
    except (ValueError, RecursionError):
        return None
    if len(blocks) != len(chunks) or not all(blocks):
        return None
    return blocks if _INT.issuperset(map(type, chain.from_iterable(blocks))) else None


def parse_partition(text: str) -> Partition:
    chunks = text.strip().split("|")
    blocks = _json_blocks(text, chunks)
    if blocks is None:
        blocks = []
        for b, chunk in enumerate(chunks):
            if not chunk.strip():
                raise ParseError(f"empty block at position {b} in partition text {text!r}")
            try:
                blocks.append(list(map(int, chunk.split(","))))  # int() strips whitespace
            except ValueError:
                raise ParseError(
                    f"bad element index in block {b} of partition text: {chunk!r}"
                ) from None
    minima = list(map(min, blocks))
    if min(minima) < 0:
        raise ParseError("element indices must be nonnegative")
    return _from_block_lists(blocks, minima)


def format_partition(partition: Partition) -> str:
    """The blocks as text: one ``repr`` of the element lists, separators rewritten."""
    return repr(partition._groups())[2:-2].replace("], [", "|").replace(", ", ",")


def parse_number(token: str, exact: bool = False):
    token = token.strip()
    if not token:
        raise ParseError("empty number token")
    try:
        if "/" in token:
            return Fraction(token)
        if exact:
            return Fraction(token)
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {token!r}") from None


def parse_numbers(text: str, exact: bool = False) -> list:
    values = []
    for i, tok in enumerate(text.strip().split(",")):
        try:
            values.append(parse_number(tok, exact))
        except ParseError as exc:
            raise ParseError(f"{exc} at position {i}") from None
    return values


def parse_distribution(text: str, exact: bool = False) -> Distribution:
    return Distribution(tuple(parse_numbers(text, exact)))


def format_number(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def format_distribution(dist: Distribution) -> str:
    return ",".join(format_number(p) for p in dist.probs)


def _split_rows(text: str) -> list[str]:
    raw = text.strip()
    rows = raw.splitlines() if "\n" in raw else raw.split(";")
    rows = [r.strip() for r in rows if r.strip()]
    if not rows:
        raise ParseError("no rows in matrix text")
    return rows


def parse_joint(text: str, exact: bool = False) -> JointDistribution:
    return JointDistribution(tuple(tuple(parse_numbers(r, exact)) for r in _split_rows(text)))
