"""Supervised execution: deadlines, cancellation, retry, breakers.

Every worker attempt runs under a supervision contract, so a stalled
attempt holds only its own worker (the scheduler keeps starting
windows on the free ones, and the stall's batch-mates keep their full
deadlines) and a flaky failure is told apart from a poisoned job:

* **Deadlines priced from the cost model** — each attempt gets
  ``deadline = estimate x deadline_multiplier + deadline_floor_s``,
  where ``estimate`` is the job's BTS cycle-simulator admission
  estimate.  Cheap jobs get tight deadlines, heavy jobs get room; the
  floor covers scheduling noise and jobs priced with admission off.
* **Cancellation, not abandonment** — a timed-out attempt is cancelled
  cooperatively: the supervisor sets a :class:`threading.Event` that
  the runtime executor checks between op-graph nodes
  (:func:`repro.runtime.executor.execute`'s ``should_cancel``), so a
  stalled worker releases its pool slot at the next node boundary
  instead of computing a result nobody is waiting for.
* **Retry with exponential backoff + full jitter** — failures
  classified transient by :func:`repro.service.errors.is_transient`
  are retried up to ``max_retries`` times, sleeping
  ``uniform(0, min(cap, base * 2^attempt))`` between attempts (the
  full-jitter strategy: retries of concurrent failures spread out
  instead of stampeding).  The RNG is seeded, so test schedules are
  reproducible.
* **Per-tenant circuit breakers** (:class:`CircuitBreaker`) — a tenant
  whose jobs keep failing terminally is *shed* for a cooldown instead
  of burning pool time on every resubmit; one half-open probe decides
  between closing the breaker and re-opening it.

The supervisor is deliberately scheduler-agnostic: it runs any
``fn(cancel_event)`` on any pool, which is what makes it unit-testable
without spinning up the whole serving stack.  It counts its lifecycle
events in ``fhe_supervisor_events_total{kind}`` of the registry it is
given (the scheduler's ledger; a private one by default).
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN
from repro.service.errors import DeadlineExceeded, is_transient


@dataclass
class SupervisionConfig:
    """Deadline and retry policy knobs."""

    #: deadline = estimate * multiplier + floor.  Estimates are
    #: *accelerator* seconds (typically µs on the functional rings)
    #: while deadlines bound *wall* seconds, so the multiplier absorbs
    #: the simulator-to-host gap and the floor dominates for tiny jobs.
    deadline_multiplier: float = 1e4
    deadline_floor_s: float = 30.0
    max_retries: int = 3             #: backoff retries after attempt 1
    backoff_base_s: float = 0.05     #: first backoff ceiling
    backoff_cap_s: float = 2.0       #: backoff ceiling growth cap
    seed: int = 2022                 #: full-jitter RNG seed


@dataclass
class BreakerConfig:
    """Per-tenant circuit-breaker policy."""

    threshold: int = 5       #: consecutive terminal failures to open
    cooldown_s: float = 30.0 #: open duration before the half-open probe


class CircuitBreaker:
    """closed -> open -> half-open tenant shedding (thread-safe).

    ``threshold`` consecutive terminal failures open the breaker; while
    open, :meth:`allow` rejects with the remaining cooldown.  After the
    cooldown one probe job is admitted (half-open): success closes the
    breaker, failure re-opens it for a fresh cooldown.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 clock=time.monotonic) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False

    def allow(self) -> tuple[bool, float]:
        """``(admitted, retry_after_s)`` for one job asking to run."""
        with self._lock:
            if self.state == "open":
                remaining = self._opened_at + self.config.cooldown_s \
                    - self._clock()
                if remaining > 0:
                    return False, remaining
                self.state = "half_open"
                self._probing = False
            if self.state == "half_open":
                if self._probing:  # one probe at a time
                    return False, self.config.cooldown_s
                self._probing = True
            return True, 0.0

    def release_probe(self) -> None:
        """Free the half-open probe slot held by a job that never ran
        (refused at submit, cancelled while queued): the next job
        probes instead."""
        with self._lock:
            if self.state == "half_open":
                self._probing = False

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state == "half_open" \
                    or self.consecutive_failures >= self.config.threshold:
                self.state = "open"
                self._opened_at = self._clock()
                self._probing = False

    def snapshot(self) -> dict:
        with self._lock:
            return {"state": self.state,
                    "consecutive_failures": self.consecutive_failures}


def _run_started(loop, started, attempt_fn, cancel: threading.Event):
    """Worker side: tell the loop the attempt was picked up, then run it."""
    loop.call_soon_threadsafe(started.set_result, None)
    return attempt_fn(cancel)


def _swallow(future) -> None:
    """Consume the exception of an abandoned (timed-out) attempt."""
    if not future.cancelled():
        future.exception()


class Supervisor:
    """Runs worker attempts under deadlines with classified retries."""

    #: attempts started, jobs returning a result or a terminal error,
    #: backoff retries taken, attempts cancelled at their deadline
    KINDS = ("attempts", "successes", "failures", "retries", "timeouts")

    def __init__(self, pool, config: SupervisionConfig | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.pool = pool
        self.config = config or SupervisionConfig()
        self._rng = random.Random(self.config.seed)
        self._lock = threading.Lock()
        self._events = (metrics or MetricsRegistry()).counter(
            "fhe_supervisor_events_total", "supervisor lifecycle events",
            ("kind",))

    def deadline_for(self, estimate_s: float | None) -> float:
        """Price an attempt deadline from the admission estimate."""
        config = self.config
        return (estimate_s or 0.0) * config.deadline_multiplier \
            + config.deadline_floor_s

    def backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with full jitter for retry ``attempt``."""
        config = self.config
        ceiling = min(config.backoff_cap_s,
                      config.backoff_base_s * (2.0 ** attempt))
        with self._lock:
            return self._rng.uniform(0.0, ceiling)

    async def supervise(self, attempt_fn, estimate_s: float | None = None,
                        label: str = "job", span=NULL_SPAN):
        """Run ``attempt_fn(cancel_event)`` on the pool to completion.

        Returns ``(result, attempts_taken)``; raises the final
        classified error after the retry budget is spent.  Each attempt
        gets the full priced deadline, counted from the moment a pool
        worker picks it up (time queued behind other attempts is not
        its own); on timeout the attempt's cancel event is set (the
        executor aborts at the next node boundary, an injected stall at
        once) and the attempt's eventual result is discarded.

        ``span`` is a :class:`repro.obs.trace.Span` (default
        :data:`~repro.obs.trace.NULL_SPAN`, untraced): every
        backoff taken opens a ``retry_backoff`` child recording the
        retry number, the jittered delay actually slept, and the error
        class that triggered it — the retry schedule becomes visible in
        the job's trace instead of reading as unexplained dead time.
        """
        loop = asyncio.get_running_loop()
        deadline = self.deadline_for(estimate_s)
        attempt = 0
        while True:
            self._events.inc(kind="attempts")
            cancel = threading.Event()
            started = loop.create_future()
            future = loop.run_in_executor(self.pool, _run_started, loop,
                                          started, attempt_fn, cancel)
            await asyncio.wait((started, future),
                               return_when=asyncio.FIRST_COMPLETED)
            try:
                result = await asyncio.wait_for(asyncio.shield(future),
                                                deadline)
                self._events.inc(kind="successes")
                return result, attempt + 1
            except asyncio.TimeoutError:
                cancel.set()
                future.add_done_callback(_swallow)
                self._events.inc(kind="timeouts")
                exc = DeadlineExceeded(
                    f"{label}: attempt {attempt + 1} exceeded its "
                    f"{deadline:.3f}s deadline",
                    deadline_s=deadline, attempts=attempt + 1)
            except Exception as caught:
                exc = caught
            if is_transient(exc) and attempt < self.config.max_retries:
                self._events.inc(kind="retries")
                delay = self.backoff_delay(attempt)
                with span.child("retry_backoff", cat="sched",
                                retry=attempt + 1, delay_s=delay,
                                error=type(exc).__name__):
                    await asyncio.sleep(delay)
                attempt += 1
                continue
            self._events.inc(kind="failures")
            raise exc

    def stats(self) -> dict[str, int]:
        """Every event kind's count, read back from the registry."""
        samples = self._events.samples()
        return {kind: int(samples.get((kind,), 0)) for kind in self.KINDS}
