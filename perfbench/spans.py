"""Span arithmetic for the traced run: self times and per-layer totals.

A span is a dict with `name`, `start`, `end`, `parent` (index of the parent
span in the same invocation's list, or None), `inv` (the invocation id that
all spans of one process share) and optional numeric `counters`.
"""

from __future__ import annotations

BOOKKEEPING = "trace.bookkeeping"


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]].append((sp["start"], sp["end"]))
    return [sp["end"] - sp["start"] - covered(kids)
            for sp, kids in zip(spans, children)]


def aggregate(invocations) -> dict:
    """Per span name: calls, summed self time, and each counter's sum and max.

    `invocations` holds one span list per traced process.
    """
    out: dict = {}
    for spans in invocations:
        for sp, own in zip(spans, self_times(spans)):
            agg = out.setdefault(sp["name"],
                                 {"calls": 0, "self_s": 0.0, "sum": {}, "max": {}})
            agg["calls"] += 1
            agg["self_s"] += own
            for key, val in sp.get("counters", {}).items():
                agg["sum"][key] = agg["sum"].get(key, 0) + val
                agg["max"][key] = max(agg["max"].get(key, val), val)
    return out
