"""Estimate-vs-actual calibration of the BTS cycle model.

The serving layer prices every job with the cycle simulator (admission,
deadlines, backlog budgets) but PR 5/6 never *recorded* how those
estimates compare to real execution.  :class:`CalibrationRecorder`
closes the loop: every supervised job reports its
``(simulator estimate, actual wall seconds)`` pair keyed by plan-cache
key, and the recorder maintains

* a **ratio distribution** per plan (``actual / estimate`` — on the
  functional rings this is the simulator-to-host gap the supervision
  deadline multiplier must absorb, so its spread is directly the
  honesty of admission pricing), with bounded-memory quantiles over a
  sliding window of recent ratios, and
* a **slow-job log**: jobs whose actual time exceeded
  ``slow_factor x estimate`` are recorded individually (tenant,
  program, both times, ratio, wall-clock timestamp from an injectable
  clock).  This is the PR-6 MISPRICE fault turned from an injected
  hypothetical into a *detected* condition — an estimate shrunk by a
  mispricing (or a plan whose cost model is simply wrong) surfaces
  here instead of only as a mysteriously late deadline.

The recorder is thread-safe (workers report from pool threads) and
renders into the Prometheus exposition alongside the metrics registry
(:meth:`render_prometheus`).
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SlowJob:
    """One detected mispricing: actual blew through k x estimate."""

    plan_key: str
    tenant: str
    program: str
    estimate_s: float
    actual_s: float
    ratio: float
    at_s: float        #: recorder-clock timestamp of detection


class _PlanCalibration:
    """Accumulated calibration state for one plan-cache key."""

    __slots__ = ("program", "programs", "count", "ratio_sum", "ratio_min",
                 "ratio_max", "estimate_s", "last_actual_s", "window")

    def __init__(self, program: str, estimate_s: float) -> None:
        self.program = program
        # Structurally identical programs share a plan-cache key (the
        # cache is cross-tenant), so one entry can serve many names.
        self.programs: set[str] = {program} if program else set()
        self.count = 0
        self.ratio_sum = 0.0
        self.ratio_min = float("inf")
        self.ratio_max = float("-inf")
        self.estimate_s = estimate_s
        self.last_actual_s = 0.0
        self.window: list[float] = []  # quantile window, capacity from
        #: the recorder (add() trims)

    def add(self, ratio: float, actual_s: float, capacity: int) -> None:
        self.count += 1
        self.ratio_sum += ratio
        self.ratio_min = min(self.ratio_min, ratio)
        self.ratio_max = max(self.ratio_max, ratio)
        self.last_actual_s = actual_s
        self.window.append(ratio)
        if len(self.window) > capacity:
            del self.window[0]


class CalibrationRecorder:
    """Accumulates (estimate, actual) pairs per plan-cache key.

    ``slow_factor`` is the mispricing threshold: ``actual >
    slow_factor * estimate`` logs the job individually.  The serving
    scheduler sets it to the supervision deadline multiplier — a
    job slower than that was one floor away from timing out, which is
    exactly "the estimate lied".  ``clock`` stamps slow-job detections
    and is injectable for tests.

    ``plans`` is where the per-plan state lives: a private dict by
    default, or any object with the dict's ``get``, item assignment,
    ``items`` and ``len``.  The serving scheduler passes its plan cache's
    :meth:`~repro.runtime.planner.PlanCache.derived_view`, so a plan's
    calibration is evicted with the plan and :meth:`summary`,
    :meth:`stats` and the Prometheus block cover resident plans only.
    """

    def __init__(self, slow_factor: float | None = None,
                 window: int = 256, max_slow_log: int = 64,
                 clock=time.monotonic, plans=None) -> None:
        if slow_factor is not None and slow_factor <= 0:
            raise ValueError("slow_factor must be positive")
        self.slow_factor = slow_factor
        self.window = max(1, int(window))
        self.max_slow_log = max(1, int(max_slow_log))
        self._clock = clock
        self._lock = threading.Lock()
        self._plans = {} if plans is None else plans
        self._slow: list[SlowJob] = []
        self.records = 0         #: pairs recorded
        self.slow_detected = 0   #: mispricings detected (log may trim)

    def record(self, plan_key: str, estimate_s: float, actual_s: float,
               tenant: str = "", program: str = "") -> float:
        """Add one pair; returns the actual/estimate ratio."""
        if estimate_s <= 0:
            raise ValueError("estimate_s must be positive")
        ratio = actual_s / estimate_s
        slow = self.slow_factor is not None \
            and actual_s > self.slow_factor * estimate_s
        with self._lock:
            entry = self._plans.get(plan_key)
            if entry is None:
                entry = _PlanCalibration(program, estimate_s)
                self._plans[plan_key] = entry
            entry.program = program or entry.program
            if program:
                entry.programs.add(program)
            entry.estimate_s = estimate_s
            entry.add(ratio, actual_s, self.window)
            self.records += 1
            if slow:
                self.slow_detected += 1
                self._slow.append(SlowJob(
                    plan_key=plan_key, tenant=tenant,
                    program=entry.program, estimate_s=estimate_s,
                    actual_s=actual_s, ratio=ratio, at_s=self._clock()))
                if len(self._slow) > self.max_slow_log:
                    del self._slow[0]
        return ratio

    def summary(self) -> dict[str, dict]:
        """Per-plan calibration stats: plan_key -> stat dict."""
        with self._lock:
            entries = {key: (entry.program, sorted(entry.programs),
                             entry.count, entry.ratio_sum,
                             entry.ratio_min, entry.ratio_max,
                             entry.estimate_s, entry.last_actual_s,
                             list(entry.window))
                       for key, entry in self._plans.items()}
        out: dict[str, dict] = {}
        for key, (program, programs, count, ratio_sum, lo, hi,
                  estimate_s, last_actual_s, window) in entries.items():
            window.sort()
            out[key] = {
                "program": program,
                "programs": programs,
                "count": count,
                "estimate_s": estimate_s,
                "last_actual_s": last_actual_s,
                "ratio_mean": ratio_sum / count,
                "ratio_min": lo,
                "ratio_max": hi,
                "ratio_p50": _percentile(window, 0.50),
                "ratio_p90": _percentile(window, 0.90),
            }
        return out

    def slow_jobs(self) -> list[SlowJob]:
        """The retained mispricing log, oldest first."""
        with self._lock:
            return list(self._slow)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"plans": len(self._plans), "records": self.records,
                    "slow_detected": self.slow_detected}

    def render_prometheus(self, prefix: str = "fhe_calibration") -> str:
        """Calibration ratios in Prometheus text form (one block)."""
        summary = self.summary()
        lines = [
            f"# HELP {prefix}_ratio actual/estimate wall-vs-cycle-model"
            " ratio per plan",
            f"# TYPE {prefix}_ratio summary",
        ]
        for key in sorted(summary):
            stats = summary[key]
            labels = (f'plan="{key[:16]}",'
                      f'program="{stats["program"]}"')
            for quantile, field in (("0.5", "ratio_p50"),
                                    ("0.9", "ratio_p90")):
                lines.append(f'{prefix}_ratio{{{labels},'
                             f'quantile="{quantile}"}} '
                             f'{stats[field]:.6g}')
            lines.append(f"{prefix}_ratio_sum{{{labels}}} "
                         f"{stats['ratio_mean'] * stats['count']:.6g}")
            lines.append(f"{prefix}_ratio_count{{{labels}}} "
                         f"{stats['count']}")
        with self._lock:
            slow = self.slow_detected
        lines.append(f"# HELP {prefix}_slow_jobs_total jobs whose actual"
                     " time exceeded slow_factor x estimate")
        lines.append(f"# TYPE {prefix}_slow_jobs_total counter")
        lines.append(f"{prefix}_slow_jobs_total {slow}")
        return "\n".join(lines) + "\n"


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    return float(statistics.quantiles(sorted_values, n=100,
                                      method="inclusive")[
        min(98, max(0, round(q * 100) - 1))])
