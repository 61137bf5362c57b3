"""Spans around the benchmark's calls into ``logent``, and the layer sums built from them.

Every call the workloads make into a public ``logent`` function goes through
``call(name, fn, *args)``.  Untraced runs use :class:`Direct`, which only
calls through.  Traced runs use :class:`Tracer`, which records one span per
call (name ``module.function``, start, end, parent) under the span of the op
that made it.  Spans stay in memory until the run ends.  No span is recorded
inside ``logent`` itself.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Direct:
    """Calls straight through; used for the untraced, measured runs."""

    def begin_op(self, index: int, sizes: dict) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span per call, parented to the span of the current op."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._op: dict | None = None

    def begin_op(self, index: int, sizes: dict) -> None:
        self._op = {
            "id": len(self.spans),
            "op": index,
            "parent": None,
            "name": "op",
            "sizes": sizes,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(self._op)

    def end_op(self) -> None:
        self._op["end"] = time.perf_counter()
        self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        op = self._op
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(
                {
                    "id": len(self.spans),
                    "op": op["op"],
                    "parent": op["id"],
                    "name": name,
                    "start": start,
                    "end": end,
                }
            )


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def sum_by_name(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts summed per span name."""
    selfs = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        seconds[s["name"]] += selfs[s["id"]]
        calls[s["name"]] += 1
    return dict(seconds), dict(calls)
