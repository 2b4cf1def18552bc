"""Unit tests for the benchmark's own arithmetic and metric catalogue."""

import json
from pathlib import Path

import pytest

from fhebench import benchstats, catalog, hostspeed
from fhebench.benchstats import SpanRecord


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(20, 2000):  # below 20 even the median has < 10 beyond
        p = benchstats.tail_percentile(n)
        assert n - benchstats.rank(p, n) >= benchstats.MIN_BEYOND
        higher = [q for q in benchstats.TAIL_LADDER if q > p]
        # every higher rung would leave fewer than ten beyond
        assert all(n - benchstats.rank(q, n) < benchstats.MIN_BEYOND
                   for q in higher)


@pytest.mark.parametrize("n, expected", [
    (35, 70.0),     # 35 bootstraps: rank 25 leaves 10 beyond
    (100, 90.0),    # rank 90 leaves 10; p95 would leave 5
    (120, 90.0),
    (320, 95.0),    # rank 304 leaves 16; p99 would leave 4
    (1000, 99.0),
    (5, 50.0),      # too few for any tail: the median
])
def test_tail_percentile_examples(n, expected):
    assert benchstats.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert benchstats.percentile(values, 50) == 50
    assert benchstats.percentile(values, 90) == 90
    assert benchstats.percentile(values, 99.9) == 100
    assert benchstats.percentile([3.0], 90) == 3.0


def test_self_time_subtracts_nested_children():
    spans = [
        SpanRecord(1, None, 0.0, 10.0, "root"),
        SpanRecord(2, 1, 1.0, 4.0, "a"),
        SpanRecord(3, 2, 2.0, 3.0, "b"),
        SpanRecord(4, 1, 5.0, 9.0, "a"),
    ]
    self_s = benchstats.self_times(spans)
    assert self_s == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    per_label, wall = benchstats.attribute(spans)
    assert per_label == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert wall == 10.0
    assert sum(per_label.values()) == wall


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        SpanRecord(1, None, 0.0, 10.0, "root"),
        SpanRecord(2, 1, 2.0, 6.0, "worker1"),   # siblings on two threads
        SpanRecord(3, 1, 4.0, 8.0, "worker2"),
        SpanRecord(4, None, 20.0, 25.0, "root"),
        SpanRecord(5, 4, 23.0, 30.0, "late"),    # outlives its parent
    ]
    self_s = benchstats.self_times(spans)
    assert self_s[1] == 4.0      # 10 - |[2, 8]|
    assert self_s[4] == 3.0      # 5 - |[23, 25]|
    assert min(self_s.values()) >= 0.0


def test_lags_measure_lateness_from_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0005, 1.25, 1.999]
    assert benchstats.lags(due, sent) == pytest.approx([0.0005, 0.25, 0.0])
    with pytest.raises(ValueError):
        benchstats.lags([0.0], [])


def test_host_factor_scales_to_the_reference_host():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factor([ref, ref, 9 * ref]) == 1.0
    assert hostspeed.factor([2 * ref]) == 0.5   # slow host: times shrink
    assert hostspeed.sample() > 0.0


def test_benchmark_json_matches_catalogue():
    spec = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == catalog.per_layer()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
