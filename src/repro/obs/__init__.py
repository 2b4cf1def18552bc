"""Observability: metrics, trace spans, and cycle-model calibration.

The cross-cutting layer every subsystem reports through:

* :mod:`repro.obs.metrics` — thread-safe counters, gauges, and
  fixed-bucket histograms with quantile snapshots, rendered in the
  Prometheus text exposition format.  The *default registry* is gated
  behind a module-level flag so instruments embedded in library code
  (the wire codec) are near-zero-cost until :func:`enable` is called;
  the serving scheduler uses its own always-on registry for per-job
  counters.
* :mod:`repro.obs.kernel` — thread-local kernel tallies (NTT passes,
  BConv plane accumulations, ModDown counts) behind the same
  fast-path flag, cheap enough to live inside the hot kernels; spans
  and the scheduler consume them as deltas.
* :mod:`repro.obs.trace` — a span tracer producing per-job trace trees
  with explicit cross-thread parenting, exported as Chrome trace-event
  JSON (``chrome://tracing`` loadable); ``python -m repro.obs.trace``
  validates an exported file.
* :mod:`repro.obs.calibration` — (simulator estimate, actual wall)
  pairs per plan-cache key: ratio distributions that audit the BTS
  cycle model against real execution, plus a slow-job log that turns
  mispriced admission estimates into a detected condition.
* :mod:`repro.obs.noise` — the numeric axis: a :class:`NoiseTracker`
  that scores every plan node with analytic ``noise_bits`` /
  ``headroom_bits``, and a :class:`PrecisionProbe` decrypt-probe
  calibrator (estimate vs true error, trusted side only).
* :mod:`repro.obs.events` — opt-in JSON-lines job journal, one line
  per job lifecycle transition; ``python -m repro.obs.events``
  validates a file.

:func:`enable` / :func:`disable` flip the global fast-path switch for
the gated instruments (default registry + kernel tallies).  Tracers
and serving-layer metrics are object-scoped and unaffected — attach a
:class:`Tracer` to get spans, construct a :class:`MetricsRegistry` to
get always-on instruments.
"""

import importlib

from repro.obs import kernel, metrics
from repro.obs.calibration import CalibrationRecorder, SlowJob
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)

#: exports resolved lazily (PEP 562), name -> submodule.  repro.obs is
#: imported from inside the ckks kernels (the gated tallies), while
#: repro.obs.noise builds on the ckks analytic model — an eager import
#: would be circular.  repro.obs.trace and repro.obs.events double as
#: ``python -m`` validators, and runpy warns when the package import
#: has already loaded the module it is asked to run.
_LAZY = {
    "NoiseTracker": "noise",
    "PlanNoiseProfile": "noise",
    "PrecisionProbe": "noise",
    "Span": "trace",
    "Tracer": "trace",
    "validate_chrome_trace": "trace",
    "JobJournal": "events",
    "read_journal": "events",
    "validate_journal": "events",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"repro.obs.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def enable() -> None:
    """Turn on the gated instruments (default registry + kernel tallies)."""
    metrics.set_enabled(True)
    kernel.set_enabled(True)


def disable() -> None:
    """Return the gated instruments to their no-op fast path."""
    metrics.set_enabled(False)
    kernel.set_enabled(False)


def enabled() -> bool:
    return metrics.enabled()


__all__ = [
    "CalibrationRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "JobJournal",
    "MetricsRegistry",
    "NoiseTracker",
    "PlanNoiseProfile",
    "PrecisionProbe",
    "SlowJob",
    "Span",
    "Tracer",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "kernel",
    "metrics",
    "read_journal",
    "validate_journal",
    "validate_chrome_trace",
]
