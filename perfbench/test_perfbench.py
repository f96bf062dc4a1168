"""Tests for the benchmark's own helpers: span self time and tail percentiles."""

import json

import pytest

from spans import Span, Tracer, read_jsonl, self_times
from summary import percentile, tail_percentile


def span(i, parent, start, end, name="s"):
    return Span(i, name, parent, "run", start, end)


def test_self_time_subtracts_children_only():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),  # grandchild: covered by span 1, not span 0
        span(3, 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span(0, None, 2.0, 2.5)]) == pytest.approx({0: 0.5})


def test_tracer_nests_spans_and_round_trips(tmp_path):
    tracer = Tracer("run-1")

    def inner(x):
        return x + 1

    traced = tracer.wrap(inner, "inner", lambda a, k, r: {"result": r})
    with tracer.span("outer"):
        assert traced(1) == 2
    outer, child = tracer.spans
    assert (child.name, child.parent, child.counters) == ("inner", outer.id, {"result": 2})
    assert outer.start <= child.start <= child.end <= outer.end

    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert [json.loads(line)["run"] for line in lines] == ["run-1", "run-1"]
    assert read_jsonl(str(path)) == tracer.spans


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, None),
        (10, None),
        (19, None),  # median rank 10 leaves only 9 beyond
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 50.0) == 50
    assert percentile([7.0], 50.0) == 7.0
