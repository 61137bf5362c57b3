"""Tests of the benchmark itself: references, statistics, span arithmetic, seeding.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import random
from fractions import Fraction

import pytest

from logent import (
    implication,
    join,
    lattice_cover_edges,
    logical_conditional_partition,
    logical_entropy_partition,
    logical_mutual_partition,
    meet,
    refines,
    Distribution,
    shannon_conditional_partition,
    shannon_entropy_partition,
    shannon_mutual_partition,
)
from logent.formats import format_partition, parse_partition

import refs
import run
import stats
import tracing
import workloads


def _seeded_cases():
    r = random.Random(20240601)
    for n in range(1, 9):
        for _ in range(6):
            p = workloads.random_labels(n, r.randint(1, n), r)
            s = workloads.random_labels(n, r.randint(1, n), r)
            counts = [r.randint(1, 7) for _ in range(n)]
            yield n, p, s, [Fraction(c, sum(counts)) for c in counts]


@pytest.mark.parametrize("weighted", [False, True])
def test_block_count_reference_matches_library(weighted):
    for n, p_labels, s_labels, fractions in _seeded_cases():
        weights = fractions if weighted else None
        ref = refs.partition_pair_reference(p_labels, s_labels, weights)
        p = parse_partition(refs.partition_text(refs.blocks_of(p_labels)))
        s = parse_partition(refs.partition_text(refs.blocks_of(s_labels)))
        w = Distribution(tuple(fractions)) if weighted else None
        # Unweighted results are floats of exact ratios; weighted ones stay exact.
        expect = (lambda x: x) if weighted else float
        assert logical_entropy_partition(p, w) == expect(ref["h_p"])
        assert logical_entropy_partition(s, w) == expect(ref["h_s"])
        assert logical_conditional_partition(p, s, w) == expect(ref["h_p_given_s"])
        assert logical_mutual_partition(p, s, w) == expect(ref["m_ps"])
        assert math.isclose(shannon_entropy_partition(p, w), ref["H_p"], abs_tol=1e-12)
        assert math.isclose(shannon_conditional_partition(p, s, w), ref["H_p_given_s"], abs_tol=1e-12)
        assert math.isclose(shannon_mutual_partition(p, s, w), ref["I_ps"], abs_tol=1e-12)
        assert format_partition(join(p, s)) == ref["join"]
        assert format_partition(meet(p, s)) == ref["meet"]
        assert implication(s, p).blocks == ref["implication"]
        assert refines(s, p) == ref["refines"]


def test_dit_count_and_lattice_counts():
    assert refs.dit_count([0, 0, 1]) == 4
    assert workloads.bell_number(9) == 21147
    for n in range(1, 7):
        assert workloads.cover_edge_count(n) == len(lattice_cover_edges(n))


def test_weighted_nearest_rank_on_fixed_samples():
    ten = [(float(x), 1.0) for x in range(1, 11)]
    assert stats.weighted_nearest_rank(ten, 0.5) == 5.0
    assert stats.weighted_nearest_rank(ten, 0.9) == 9.0
    assert stats.weighted_nearest_rank([(7.0, 1.0)], 0.9) == 7.0
    assert stats.weighted_nearest_rank([(1.0, 3.0), (10.0, 1.0)], 0.5) == 1.0
    assert stats.weighted_nearest_rank([(1.0, 3.0), (10.0, 1.0)], 0.9) == 10.0


def test_p90_needs_ten_samples_beyond_it():
    hundred = stats.mix_summary({0: [float(x) for x in range(100)]})
    assert hundred["p90"] == 89.0 and hundred["beyond_p90"] == 10
    assert hundred["p50"] == 49.0
    short = stats.mix_summary({0: [float(x) for x in range(99)]})
    assert short["p90"] is None and short["beyond_p90"] == 9


def test_mix_summary_weighs_every_slot_the_same():
    # Slot 0 kept ten samples and slot 1 two: each still counts for half the mix.
    mix = stats.mix_summary({0: [1.0] * 10, 1: [3.0, 5.0]})
    assert mix["throughput"] == pytest.approx(2 / (1.0 + 4.0))
    assert mix["p50"] == 1.0
    assert stats.weighted_nearest_rank([(1.0, 0.1)] * 10 + [(3.0, 0.5), (5.0, 0.5)], 0.75) == 3.0


def test_loglog_slope_recovers_a_power_law():
    assert math.isclose(stats.loglog_slope([(n, 2.0 * n**3) for n in (32, 64, 128)]), 3.0)
    assert stats.loglog_slope([(64, 1.0), (64, 2.0)]) is None


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "op": 0, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0, "op"),
        _span(1, 0, 1.0, 3.0, "a"),
        _span(2, 0, 2.0, 5.0, "b"),  # overlaps a: the union 1..5 counts once
        _span(3, 0, 7.0, 8.0, "a"),
        _span(4, 0, 9.5, 11.0, "b"),  # runs past its parent: only 9.5..10 is covered
        _span(5, 2, 2.5, 3.5, "c"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[5] == pytest.approx(1.0)
    seconds, calls = tracing.sum_by_name(spans)
    assert seconds["a"] == pytest.approx(3.0)
    assert seconds["b"] == pytest.approx(2.0 + 1.5)
    assert calls == {"op": 1, "a": 2, "b": 2, "c": 1}


def test_tracer_parents_calls_to_their_op():
    tracer = tracing.Tracer()
    tracer.begin_op(3, {"n": 1})
    assert tracer.call("m.f", lambda a, b: a + b, 1, 2) == 3
    tracer.end_op()
    op, call = tracer.spans
    assert call["parent"] == op["id"] and call["op"] == 3 and op["parent"] is None
    assert op["start"] <= call["start"] <= call["end"] <= op["end"]


def _inputs(workload):
    return [(op.kind, op.sizes, op.data, op.ref) for op in (workload.spec(i) for i in range(40))]


@pytest.mark.parametrize("name", ["partition-scale", "distributions", "exhaustive-sweep"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = workloads.make(name, 5, tmp_path)
    assert _inputs(first) == _inputs(workloads.make(name, 5, tmp_path))
    assert _inputs(first) != _inputs(workloads.make(name, 6, tmp_path))


def test_same_seed_gives_identical_cli_files(tmp_path):
    def files(seed, sub):
        workload = workloads.make("cli-session", seed, tmp_path / sub)
        return [p.read_text() for p in sorted((tmp_path / sub).iterdir())], workload

    a, wa = files(5, "a")
    b, wb = files(5, "b")
    c, wc = files(6, "c")
    assert a == b and a != c
    for w in (wa, wb, wc):
        w.close()


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    assert run.git_commit(git) == "unknown"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_commit(git) == "unknown"
    (git / "packed-refs").write_text("# pack-refs with: peeled\nabc123 refs/heads/main\n")
    assert run.git_commit(git) == "abc123"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit(git) == "def456"
    (git / "HEAD").write_text("0123abcd\n")
    assert run.git_commit(git) == "0123abcd"
