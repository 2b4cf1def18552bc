"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

Two cost regimes, chosen per registry:

* **Always-on registries** (``MetricsRegistry()``) record every sample.
  The serving scheduler uses one of these — its instruments fire a
  handful of times per *job*, so the cost is a lock acquire + dict
  update at request granularity, never inside a kernel.

* **The gated default registry** (:func:`default_registry`) backs
  instruments embedded in hot library code (the wire codec, kernel
  tallies).  Every instrument method checks the module-level
  ``_ENABLED`` flag *first* — one global load and a bool test — so with
  observability disabled (the default) the instrumented code paths pay
  near-zero cost.  :func:`repro.obs.enable` flips the flag.

Exposition follows the Prometheus text format (``render_text``):
``# HELP`` / ``# TYPE`` headers, ``name{label="value"} sample`` lines,
histogram ``_bucket``/``_sum``/``_count`` series with cumulative
``le`` buckets.  Output is sorted so snapshots diff cleanly.
"""

from __future__ import annotations

import bisect
import functools
import threading

#: Module-level fast-path switch for *gated* instruments (the default
#: registry).  Instruments on explicitly-constructed registries ignore
#: it.  Flipped by :func:`repro.obs.enable` / :func:`repro.obs.disable`.
_ENABLED = False


def set_enabled(on: bool) -> None:
    global _ENABLED
    _ENABLED = bool(on)


def enabled() -> bool:
    return _ENABLED


#: Default histogram bucket upper bounds (seconds-flavoured: 100 µs to
#: 10 s), chosen to straddle both wire round-trips (~0.5 ms) and small
#: bootstraps (~0.5 s).
DEFAULT_BUCKETS = (1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
                   2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Bucket bounds for *bit-valued* histograms (noise headroom): dense
#: near zero where jobs are at the precision cliff, coarse above — a
#: job in the 0/2/4-bit buckets is an alert, one past 64 is idle slack.
BIT_BUCKETS = (0.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0,
               64.0, 96.0, 128.0, 192.0, 256.0)


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n") \
        .replace('"', r'\"')


def _format_number(value: float) -> str:
    """Prometheus sample formatting: integers render without the dot."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared registration state; concrete types add sample storage."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._gated = registry.gated
        self._lock = registry._lock

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} != declared "
                f"{sorted(self.labelnames)}")
        return tuple(str(labels[n]) for n in self.labelnames)

    def _suffix(self, key: tuple[str, ...],
                extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = [(n, v) for n, v in zip(self.labelnames, key)]
        pairs.extend(extra)
        if not pairs:
            return ""
        body = ",".join(f'{n}="{_escape(v)}"' for n, v in pairs)
        return "{" + body + "}"

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Instrument):
    """Monotonically increasing sum, exact under concurrent ``inc``."""

    kind = "counter"

    def __init__(self, registry, name, help, labelnames) -> None:
        super().__init__(registry, name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        if self._gated and not _ENABLED:
            return
        self._inc_key(self._key(labels), value)

    def bind(self, **labels):
        """``inc`` bound to one fixed label set: a ``fn(value=1.0)`` that
        skips building the label key (the hot-path form of ``inc``)."""
        return functools.partial(self._inc_key, self._key(labels))

    def _inc_key(self, key: tuple[str, ...], value: float = 1.0) -> None:
        if self._gated and not _ENABLED:
            return
        if value < 0:
            raise ValueError(f"{self.name}: counters only go up")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> dict[tuple[str, ...], float]:
        """Every label combination's value, keyed by its label values in
        declaration order (a copy: the read-back path for callers that
        keep their ledger in the registry)."""
        with self._lock:
            return dict(self._values)

    def collect(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return self._header() + [
            f"{self.name}{self._suffix(key)} {_format_number(v)}"
            for key, v in items]

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Instrument):
    """Last-write-wins scalar that can also be adjusted incrementally,
    or, given ``read``, a live ``{label values: value}`` read at collect
    time (outside the registry lock) instead of stored samples."""

    kind = "gauge"

    def __init__(self, registry, name, help, labelnames,
                 read=None) -> None:
        super().__init__(registry, name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        self._read = read

    def set(self, value: float, **labels) -> None:
        if self._gated and not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, delta: float, **labels) -> None:
        if self._gated and not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels) -> float:
        return self._samples().get(self._key(labels), 0.0)

    def _samples(self) -> dict[tuple[str, ...], float]:
        if self._read is not None:
            return self._read()
        with self._lock:
            return dict(self._values)

    def collect(self) -> list[str]:
        return self._header() + [
            f"{self.name}{self._suffix(key)} {_format_number(v)}"
            for key, v in sorted(self._samples().items())]

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()


class _Series:
    """One label combination's histogram state."""

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Instrument):
    """Fixed-bucket histogram with interpolation-based quantiles.

    Buckets are upper bounds (an implicit ``+Inf`` bucket is appended).
    Quantiles are estimated by linear interpolation inside the covering
    bucket, clamped to the observed min/max — exact enough for latency
    dashboards, constant memory regardless of sample count.
    """

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames,
                 buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"{self.name}: need at least one bucket")
        if any(b != b or b == float("inf") for b in self.buckets):
            raise ValueError(f"{self.name}: buckets must be finite")
        self._series: dict[tuple[str, ...], _Series] = {}

    def observe(self, value: float, **labels) -> None:
        if self._gated and not _ENABLED:
            return
        key = self._key(labels)
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(len(self.buckets))
            series.counts[index] += 1
            series.total += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    def snapshot(self, **labels) -> dict:
        """Count/sum/min/max plus p50/p90/p99 for one label combo."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0, "min": None, "max": None,
                        "p50": None, "p90": None, "p99": None}
            counts = list(series.counts)
            total, sum_, lo, hi = (series.total, series.sum,
                                   series.min, series.max)
        return {
            "count": total, "sum": sum_, "min": lo, "max": hi,
            "p50": self._quantile(counts, total, lo, hi, 0.50),
            "p90": self._quantile(counts, total, lo, hi, 0.90),
            "p99": self._quantile(counts, total, lo, hi, 0.99),
        }

    def series(self) -> dict[tuple[str, ...], dict]:
        """Count/sum/min/max of every observed label combination, keyed
        like :meth:`Counter.samples`."""
        with self._lock:
            return {key: {"count": s.total, "sum": s.sum, "min": s.min,
                          "max": s.max}
                    for key, s in self._series.items()}

    def quantile(self, q: float, **labels) -> float | None:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return None
            counts = list(series.counts)
            total, lo, hi = series.total, series.min, series.max
        return self._quantile(counts, total, lo, hi, q)

    def _quantile(self, counts: list[int], total: int, lo: float,
                  hi: float, q: float) -> float | None:
        if total == 0:
            return None
        rank = q * total
        cumulative = 0.0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                lower = self.buckets[index - 1] if index > 0 else lo
                upper = self.buckets[index] if index < len(self.buckets) \
                    else hi
                fraction = (rank - cumulative) / count
                estimate = lower + (upper - lower) * max(0.0, fraction)
                return min(max(estimate, lo), hi)
            cumulative += count
        return hi  # pragma: no cover - rank <= total by construction

    def collect(self) -> list[str]:
        with self._lock:
            items = [(key, list(s.counts), s.total, s.sum)
                     for key, s in sorted(self._series.items())]
        lines = self._header()
        for key, counts, total, sum_ in items:
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                lines.append(
                    f"{self.name}_bucket"
                    f"{self._suffix(key, (('le', _format_number(bound)),))}"
                    f" {cumulative}")
            lines.append(
                f"{self.name}_bucket{self._suffix(key, (('le', '+Inf'),))}"
                f" {total}")
            lines.append(f"{self.name}_sum{self._suffix(key)} "
                         f"{_format_number(sum_)}")
            lines.append(f"{self.name}_count{self._suffix(key)} {total}")
        return lines

    def _reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Named instruments behind one lock; renders Prometheus text.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the registered instrument (so module-level
    call sites and introspection code share one object), and asking for
    it with a conflicting type or label set fails loudly.
    """

    def __init__(self, gated: bool = False) -> None:
        self.gated = gated
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = (), read=None) -> Gauge:
        return self._get(Gauge, name, help, labelnames, read=read)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labelnames,
                         buckets=buckets)

    def _get(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is not None:
                if type(instrument) is not cls \
                        or instrument.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(instrument).__name__}"
                        f"{instrument.labelnames}")
                return instrument
            instrument = cls(self, name, help, tuple(labelnames),
                             **kwargs)
            self._instruments[name] = instrument
            return instrument

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def render_text(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        with self._lock:
            instruments = [self._instruments[name]
                           for name in sorted(self._instruments)]
        lines: list[str] = []
        for instrument in instruments:
            lines.extend(instrument.collect())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Clear every instrument's samples (registrations survive)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument._reset()


#: Process-wide gated registry for instruments embedded in library code
#: (wire codec byte counters, kernel tallies).  Disabled by default —
#: see the module docstring for the cost contract.
_DEFAULT = MetricsRegistry(gated=True)


def default_registry() -> MetricsRegistry:
    return _DEFAULT
