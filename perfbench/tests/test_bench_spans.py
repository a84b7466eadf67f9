"""Self time is a span's duration minus the time its child spans cover."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import aggregate, covered, self_times  # noqa: E402


def span(name, start, end, parent=None, **counters):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "inv": "x", "counters": counters}


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 4), (1, 2)]) == 4


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 2.0, 3.0, parent=1),
        span("c", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_aggregate_sums_self_times_calls_and_counters_per_name():
    inv1 = [span("k", 0.0, 2.0, rows=3), span("r", 0.5, 1.0, parent=0)]
    inv2 = [span("k", 0.0, 1.0, rows=7)]
    agg = aggregate([inv1, inv2])
    assert agg["k"]["calls"] == 2
    assert agg["k"]["self_s"] == pytest.approx(1.5 + 1.0)
    assert agg["k"]["sum"] == {"rows": 10}
    assert agg["k"]["max"] == {"rows": 7}
    assert agg["r"]["self_s"] == pytest.approx(0.5)
