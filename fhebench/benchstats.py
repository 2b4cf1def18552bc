"""Arithmetic the benchmark reports with: percentiles, span self time, lag.

Kept free of any ``repro`` import so the unit tests in this directory
run without building a ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Fewest samples that must lie strictly beyond a reported tail.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` in ``n`` sorted samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(1, min(n, math.ceil(p / 100.0 * n)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: a measured value, never an interpolation."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest ladder percentile with ``min_beyond`` samples beyond it.

    ``n`` is the sample count a run is planned to collect; the sample at
    the returned percentile's nearest rank has at least ``min_beyond``
    larger-ranked samples after it.  Falls back to the median when even
    that leaves fewer than ``min_beyond`` beyond (tiny runs).
    """
    for p in TAIL_LADDER:
        if n - rank(p, n) >= min_beyond:
            return p
    return 50.0


@dataclass(frozen=True)
class SpanRecord:
    """One span, flattened: identity, parent, interval, layer label."""

    span_id: int
    parent_id: int | None
    t0: float
    t1: float
    label: str


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children (siblings opened on different threads) count once, so a
    parent's self time is never negative and never double-subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.t0, span.t1))
    out: dict[int, float] = {}
    for span in spans:
        clipped = [(max(lo, span.t0), min(hi, span.t1))
                   for lo, hi in children.get(span.span_id, ())
                   if min(hi, span.t1) > max(lo, span.t0)]
        out[span.span_id] = (span.t1 - span.t0) - _covered(clipped)
    return out


def attribute(spans: list[SpanRecord]) -> tuple[dict[str, float], float]:
    """(self seconds per label, total root seconds) of a span forest.

    Every span's self time goes to its label; the roots' durations add
    up to the traced wall.  When children nest inside their parents the
    self times sum exactly to that wall, so a label set aside as
    "unattributed" is the remainder, not an estimate.
    """
    label_of = {s.span_id: s.label for s in spans}
    per_label: dict[str, float] = {}
    for span_id, self_s in self_times(spans).items():
        label = label_of[span_id]
        per_label[label] = per_label.get(label, 0.0) + self_s
    wall = sum(s.t1 - s.t0 for s in spans if s.parent_id is None)
    return per_label, wall


def lags(due: list[float], sent: list[float]) -> list[float]:
    """Seconds each submission left after its due time (never negative).

    An open-loop generator that wakes early waits; one that wakes late
    has lag, which the reported latencies already include because jobs
    are timed from ``due``.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]

