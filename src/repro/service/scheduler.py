"""Async request scheduler: admission, batching, supervised execution.

The serving pipeline for one job is

    blob inputs -> deserialize (dedup by digest) -> plan (cached)
    -> admission (BTS cycle estimate) -> share work across jobs
    -> supervised execution on the worker pool -> serialize outputs

* **One plan record** — planning is pure, so plans are cached by
  :func:`~repro.runtime.planner.plan_cache_key` (structural program
  hash x planner config x params digest) and shared across tenants.
  The values derived from a plan — its BTS cycle estimate on INS-2
  (:class:`~repro.core.simulator.BtsSimulator`), its analytic noise
  profile and its window-plan keys — are memoized on its
  :class:`~repro.runtime.planner.PlanEntry` and evicted with it.
* **Cost admission** — jobs whose estimate exceeds ``max_job_seconds``
  are rejected before consuming worker time.
* **Dispatch pipeline** — up to ``workers`` batch windows run at once;
  the next window starts as soon as one settles, so a slow job holds
  its own worker, not every job queued behind it.
* **Cross-job sharing** — per tenant, the jobs of one batch window that
  bind a common input blob are merged into one hash-consed window plan
  (:mod:`repro.runtime.window`): every value two jobs compute, and
  every rotation of it two jobs make, runs once (the Section 3.3
  hoisting, across request boundaries), and each job is seeded at its
  frontier — byte-identical to running each job alone.
* **Robustness** (failure model in ``service/README.md``) — every stage
  fails at job granularity; attempts run under supervision
  (:mod:`repro.service.supervisor`: priced deadlines, cooperative
  cancellation, jittered retries of transient errors); the submit
  queue is bounded in jobs (:class:`~repro.service.errors.Overloaded`),
  a per-tenant breaker sheds failing tenants, and
  :meth:`RequestScheduler.health` shows it.
* **One ledger** — every event is counted once, in the scheduler's
  metrics registry; ``stats()``, ``health()`` and the metrics gauges
  read it, and the live queue/breaker/memory state, back when asked.
* **One code path** for plain, faulted and traced runs — fault hooks
  are :class:`~repro.service.faults.FaultPlan` methods (an empty plan
  by default) and untraced jobs carry
  :data:`~repro.obs.trace.NULL_SPAN`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import hashlib
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.ckks.cipher import Ciphertext
from repro.ckks.params import CkksParams
from repro.obs import kernel as _obs_kernel
from repro.obs import metrics as _obs_metrics
from repro.obs.calibration import CalibrationRecorder
from repro.obs.events import JobJournal
from repro.obs.metrics import BIT_BUCKETS, MetricsRegistry
from repro.obs.noise import NoiseTracker
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.runtime.executor import execute, execute_subgraph
from repro.runtime.ir import OpCode, Program
from repro.runtime.planner import Plan, PlanCache, PlanEntry, PlannerConfig
from repro.runtime.window import merge_window, plan_keys
from repro.service import wire
from repro.service.errors import (
    AdmissionError,
    CircuitOpen,
    KeyEvictedError,
    Overloaded,
    PrecisionAtRisk,
    SchedulerStopped,
)
from repro.service.faults import FaultPlan
from repro.service.registry import KeyRegistry
from repro.service.supervisor import BreakerConfig, CircuitBreaker, \
    SupervisionConfig, Supervisor

#: Floor for the ``Overloaded.retry_after_s`` hint.  With
#: ``max_queue_jobs=0`` and no batch window the drain estimate is 0.0,
#: and a zero hint tells the client to hammer the scheduler.
_MIN_RETRY_AFTER_S = 0.01


@dataclass
class ServiceConfig:
    """Scheduler knobs (defaults favour small functional rings)."""

    workers: int = 2                 #: worker-pool threads
    max_batch: int = 8               #: jobs pulled per batch window
    batch_window_s: float = 0.005    #: how long an underfull batch waits
    #: for more jobs before dispatching (bounds added latency; without
    #: it, batch composition races the submitters and sharing becomes
    #: timing-dependent)
    optimize: bool = False           #: plan with rotate-reduce fusion
    #: (:mod:`repro.runtime.optimizer`).  Opt-in: a fused tree's one
    #: shared ModDown changes output bits at the noise level (the
    #: double-hoisting trade), and a fused tree shares across jobs only
    #: as a whole — its galois members no longer join a window raise.
    max_job_seconds: float | None = None  #: admission ceiling (estimated
    #: seconds on the paper's INS-2; None disables the simulator)
    # ----- robustness ------------------------------------------------------
    supervision: SupervisionConfig = field(
        default_factory=SupervisionConfig)  #: deadline/retry policy
    breaker: BreakerConfig = field(
        default_factory=BreakerConfig)      #: per-tenant shedding policy
    max_queue_jobs: int = 256        #: submit-queue bound (queued + running)
    fault_plan: FaultPlan | None = None  #: deterministic fault injection
    # ----- observability ---------------------------------------------------
    tracer: Tracer | None = None     #: per-job trace spans (None: untraced)
    min_headroom_bits: float | None = 8.0  #: numeric-health floor: a
    #: completed job whose terminal analytic noise headroom falls below
    #: this many bits carries a non-fatal
    #: :class:`~repro.service.errors.PrecisionAtRisk` warning (None
    #: disables the check; headroom is still tracked and exported)
    events: JobJournal | None = None  #: opt-in JSON-lines job journal
    #: (one line per lifecycle transition; never a liveness dependency)


@dataclass
class JobRequest:
    """One unit of work: a tenant runs a program on wire-format inputs."""

    tenant: str
    program: Program
    inputs: dict[str, bytes]         #: input name -> CIPHERTEXT blob


@dataclass
class JobResult:
    """Outputs (wire blobs) plus scheduling telemetry."""

    outputs: dict[str, bytes]
    tenant: str
    program_name: str
    estimated_seconds: float | None  #: BTS cycle estimate (None: admission off)
    plan_cache_hit: bool
    coalesced: bool                  #: rotations rode a raise shared with
    #: other jobs of the batch window
    wall_seconds: float
    attempts: int = 1                #: supervised attempts taken
    cse_seeded: bool = False         #: reused a value another job of the
    #: batch window also computes
    headroom_bits: float | None = None  #: terminal analytic noise
    #: headroom (worst output): log2(q_chain/scale) - noise_bits
    precision_at_risk: PrecisionAtRisk | None = None  #: non-fatal
    #: warning when headroom fell below ``ServiceConfig.min_headroom_bits``


@dataclass
class TenantHealth:
    """One tenant's breaker state plus lifetime job counters."""

    state: str = "closed"
    consecutive_failures: int = 0
    shed: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_rejected: int = 0
    precision_at_risk: int = 0       #: completed jobs below the floor
    min_headroom_bits: float | None = None  #: worst terminal headroom seen

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class HealthSnapshot:
    """Typed degradation snapshot; ``as_dict`` is the endpoint shape."""

    queue_depth: int
    backlog_jobs: int
    max_queue_jobs: int
    tenants: dict[str, TenantHealth]
    counters: dict[str, int]
    plan_cache: dict
    calibration: dict
    numeric_health: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class _Job:
    """Internal state riding a request through the pipeline."""

    request: JobRequest
    future: asyncio.Future
    probe: bool = False              #: holds its tenant's half-open probe
    entry: PlanEntry | None = None   #: plan plus its derived values
    cache_hit: bool = False
    estimate: float | None = None    #: admission estimate (MISPRICE applied)
    inputs: dict[str, Ciphertext] = field(default_factory=dict)
    #: input name -> blob digest (window-plan INPUT keys)
    digests: dict[str, str] = field(default_factory=dict)
    #: node id -> precomputed ciphertext (window-plan frontier)
    seeded_nodes: dict | None = None
    coalesced: bool = False
    cse_seeded: bool = False
    cache_key: str | None = None     #: plan-cache key (calibration key)
    submitted_at: float = 0.0        #: perf_counter at submit
    attempt_no: int = 0              #: supervised attempts started
    span: Span = NULL_SPAN           #: per-job trace root
    queue_span: Span = NULL_SPAN     #: submit -> batch-pull interval
    supervise_span: Span = NULL_SPAN  #: supervision envelope


class RequestScheduler:
    """Batching scheduler over a key registry and a worker pool."""

    def __init__(self, registry: KeyRegistry,
                 config: ServiceConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self.ring = registry.ring
        self.plan_cache = PlanCache()
        self.planner_config = dataclasses.replace(
            PlannerConfig.from_ring(self.ring),
            fuse_rotate_reduce=self.config.optimize)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="fhe-worker")
        self.fault_plan = self.config.fault_plan or FaultPlan()
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._stopping = False
        self._breakers: dict[str, CircuitBreaker] = {}
        # Backlog and attempt accounting is mutated from worker threads
        # and the event loop alike; _stats_lock keeps it exact.
        self._stats_lock = threading.Lock()
        self._backlog_jobs = 0       #: queued + in-flight jobs
        # ----- observability ------------------------------------------------
        self.tracer = self.config.tracer
        # The private always-on registry is the job ledger: stats() and
        # health() read job outcomes back from it (a shared registry
        # would count other schedulers' jobs).
        self.metrics = MetricsRegistry()
        self.supervisor = Supervisor(self._pool, self.config.supervision,
                                     self.metrics)
        self.events = self.config.events
        # Noise profiles are pure functions of the plan (input level and
        # scale are fixed by the planner's meta), so one tracker serves
        # every tenant and each profile is memoized on its plan entry.
        self.noise_tracker = NoiseTracker.from_ring(self.ring)
        # A job slower than deadline_multiplier x estimate was one floor
        # away from timing out, which is exactly "the admission estimate
        # lied"; a nonpositive multiplier (the fault tests pin deadlines
        # to the floor) disables the slow-job log.
        multiplier = self.config.supervision.deadline_multiplier
        self.calibration = CalibrationRecorder(
            slow_factor=multiplier if multiplier > 0 else None,
            plans=self.plan_cache.derived_view("calibration"))
        metrics = self.metrics
        self._m_jobs = metrics.counter(
            "fhe_jobs_total", "jobs by tenant and outcome",
            ("tenant", "outcome"))
        self._m_plan_cache = metrics.counter(
            "fhe_plan_cache_total", "plan-cache lookups", ("result",))
        self._m_raises_saved = metrics.counter(
            "fhe_coalesced_raises_total",
            "hoisted raises saved by cross-job window plans")
        self._m_cse = metrics.counter(
            "fhe_cse_reuses_total",
            "jobs reusing a value another job of their window computed")
        self._m_at_risk = metrics.counter(
            "fhe_precision_at_risk_total",
            "completed jobs whose terminal headroom fell below the floor",
            ("tenant",))
        self._m_queue_wait = metrics.histogram(
            "fhe_job_queue_wait_seconds", "submit-to-batch-pull latency")
        self._m_wall = metrics.histogram(
            "fhe_job_wall_seconds", "worker attempt wall time",
            ("tenant",))
        self._m_headroom = metrics.histogram(
            "fhe_noise_headroom_bits",
            "terminal analytic noise headroom per completed job",
            ("tenant",), buckets=BIT_BUCKETS)
        metrics.gauge("fhe_queue_depth", "jobs sitting in the submit queue",
                      read=lambda: {(): self._backlog()[0]})
        metrics.gauge("fhe_backlog_jobs", "queued + in-flight jobs",
                      read=lambda: {(): self._backlog()[1]})
        metrics.gauge(
            "fhe_breaker_state",
            "per-tenant breaker (0 closed, 1 half-open, 2 open)",
            ("tenant",), read=lambda: {
                (tenant,): ("closed", "half_open", "open").index(b.state)
                for tenant, b in list(self._breakers.items())})
        metrics.gauge(
            "fhe_noise_min_headroom_bits",
            "worst terminal headroom seen per tenant", ("tenant",),
            read=lambda: {key: round(series["min"], 3) for key, series
                          in self._m_headroom.series().items()})
        metrics.gauge(
            "fhe_registry_bytes",
            "resident evaluation-key bytes per tenant", ("tenant",),
            read=lambda: {(tenant,): nbytes for tenant, nbytes
                          in registry.bytes_by_tenant().items()})
        metrics.gauge(
            "fhe_plan_cache_entries", "plans resident in the cache",
            read=lambda: {(): len(self.plan_cache)})

    # ----- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin dispatching (must run inside an event loop)."""
        if self._dispatcher is not None:
            return
        self._stopping = False
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop())

    async def stop(self) -> None:
        """Drain deterministically, then tear down.

        ``_stopping`` flips before the sentinel is enqueued and
        :meth:`submit` checks it atomically with its queue put (no
        await between check and put on an unbounded queue), so every
        job admitted before ``stop()`` sits ahead of the sentinel and
        is dispatched normally; every submit after it is rejected with
        :class:`SchedulerStopped`.  Nothing is silently dropped, and
        the windows in flight settle before the dispatcher returns.
        """
        if self._dispatcher is None:
            return
        self._stopping = True
        queue = self._queue
        await queue.put(None)
        await self._dispatcher
        self._dispatcher = None
        self._queue = None
        # Defensive: the atomicity argument above means nothing can
        # land behind the sentinel, but if it ever did, failing loudly
        # beats hanging the submitter forever.
        while True:
            try:
                job = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is not None:  # pragma: no cover - unreachable by design
                _fail_future(job.future, SchedulerStopped(
                    "scheduler stopped before the job was dispatched"))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    async def submit(self, request: JobRequest) -> JobResult:
        """Enqueue a job and await its result (or scheduling error).

        Raises :class:`SchedulerStopped` once :meth:`stop` has begun,
        :class:`CircuitOpen` while the tenant's breaker is shedding,
        and :class:`Overloaded` (with a retry-after hint) when the
        bounded queue is full.
        """
        if self._queue is None or self._stopping:
            raise SchedulerStopped(
                "scheduler is stopping" if self._stopping
                else "scheduler not started")
        breaker = self._breakers.get(request.tenant)
        if breaker is not None:
            allowed, retry_after = breaker.allow()
            if not allowed:
                self._m_jobs.inc(tenant=request.tenant, outcome="shed")
                raise CircuitOpen(request.tenant, retry_after)
        # no await since allow(): a half-open breaker gave this job the probe
        probe = breaker is not None and breaker.state == "half_open"
        config = self.config
        with self._stats_lock:
            backlog = self._backlog_jobs
            if backlog < config.max_queue_jobs:
                self._backlog_jobs += 1
        if backlog >= config.max_queue_jobs:
            if probe:  # a refused probe never ran: free the slot
                breaker.release_probe()
            self._m_jobs.inc(tenant=request.tenant, outcome="overloaded")
            # Wait for at least one queued job to finish; the floor
            # keeps the hint usable with an empty queue and no window.
            hint = max(config.batch_window_s, 0.05 * max(1, backlog))
            raise Overloaded(
                f"scheduler overloaded: {backlog} jobs queued",
                retry_after_s=max(hint / max(1, config.workers),
                                  _MIN_RETRY_AFTER_S))
        job = _Job(request=request, probe=probe,
                   future=asyncio.get_running_loop().create_future())
        job.submitted_at = time.perf_counter()
        job.span = self._root_span(
            f"{request.tenant}/{request.program.name}", cat="job",
            tenant=request.tenant, program=request.program.name)
        job.queue_span = job.span.child("queue_wait", cat="sched")
        self._journal("submitted", job)
        await self._queue.put(job)
        try:
            return await job.future
        except Exception as exc:
            job.span.annotate(error=type(exc).__name__)
            raise
        finally:
            with self._stats_lock:
                self._backlog_jobs -= 1
            job.span.end()

    def _root_span(self, name: str, **args) -> Span:
        """A root span, or NULL_SPAN (``self.tracer`` may change live)."""
        tracer = self.tracer
        return NULL_SPAN if tracer is None else tracer.span(name, **args)

    def _breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] \
                = CircuitBreaker(self.config.breaker)
        return breaker

    def _settle(self, job: _Job, kind: str,
                result: JobResult | Exception | None, **journal) -> None:
        """Record a job's terminal outcome, then settle its future.

        The one emission point for ``completed``, ``failed``,
        ``rejected`` and ``cancelled`` jobs: it counts the outcome in
        ``fhe_jobs_total`` (which :meth:`stats` and :meth:`health` read
        back), updates the tenant's breaker, and writes the terminal
        journal line.  ``result`` is the completed job's
        :class:`JobResult` or the exception failing it; a cancelled job
        (its submitter gave up while it queued) has no future left to
        settle and says nothing about the tenant's health — if it held
        the half-open probe, it frees the slot for the next submit.
        """
        tenant = job.request.tenant
        self._m_jobs.inc(tenant=tenant, outcome=kind)
        if kind == "completed":
            self._breaker(tenant).record_success()
            if result.headroom_bits is not None:
                self._m_headroom.observe(result.headroom_bits, tenant=tenant)
                journal["headroom_bits"] = round(result.headroom_bits, 3)
            if result.precision_at_risk is not None:
                self._m_at_risk.inc(tenant=tenant)
                journal["precision_at_risk"] = True
            self._journal("completed", job, outcome="ok",
                          attempts=result.attempts, **journal)
            _finish_future(job.future, result)
            return
        if kind != "cancelled":
            self._breaker(tenant).record_failure()
        elif job.probe:
            self._breaker(tenant).release_probe()
        self._journal("failed", job, **journal)
        if result is not None:  # thread-safe: rejections run on a worker
            job.future.get_loop().call_soon_threadsafe(
                _fail_future, job.future, result)

    def _journal(self, event: str, job: _Job, **fields) -> None:
        """Emit one job-lifecycle line to the opt-in journal.

        Like cross-job sharing and tracing, the journal is not a
        liveness dependency: a failing sink must never fail the job.
        """
        journal = self.events
        if journal is None:
            return
        try:
            journal.emit(event, job.request.tenant,
                         job.request.program.name, **fields)
        except Exception:  # noqa: S110 - forensics must not kill jobs
            pass

    # ----- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Start a window per free slot; drain them all at the sentinel."""
        loop = asyncio.get_running_loop()
        slots = asyncio.Semaphore(max(1, self.config.workers))
        windows: set[asyncio.Task] = set()
        while True:
            await slots.acquire()
            head = await self._queue.get()
            if head is None:
                await asyncio.gather(*windows)
                return
            batch = [head]
            deadline = loop.time() + self.config.batch_window_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                try:
                    if remaining > 0:
                        nxt = await asyncio.wait_for(self._queue.get(),
                                                     remaining)
                    else:
                        nxt = self._queue.get_nowait()
                except (asyncio.TimeoutError, asyncio.QueueEmpty):
                    break
                if nxt is None:
                    await self._queue.put(None)  # re-arm shutdown
                    break
                batch.append(nxt)
            window = loop.create_task(self._run_batch(batch))
            windows.add(window)
            window.add_done_callback(windows.discard)
            window.add_done_callback(lambda _: slots.release())

    async def _run_batch(self, batch: list[_Job]) -> None:
        loop = asyncio.get_running_loop()
        try:
            admitted = await loop.run_in_executor(
                self._pool, self._prepare_batch, batch)
        except Exception as exc:  # pragma: no cover - _prepare_batch
            # isolates per-job failures; reaching here means the batch
            # machinery itself broke.  Keep liveness: fail the waiters.
            for job in batch:
                _fail_future(job.future, exc)
            return
        await asyncio.gather(*(self._supervise_job(job)
                               for job in admitted))

    # ----- batch preparation (plan, admit, share) ----------------------------

    def _admit(self, job: _Job) -> None:
        """Plan the job and enforce the admission cost ceiling."""
        job.entry, job.cache_hit, job.cache_key = self.plan_cache.get(
            job.request.program, self.planner_config,
            self.ring.params.digest)
        plan = job.entry.plan
        self._m_plan_cache.inc(
            result="hit" if job.cache_hit else "miss")
        session = self.registry.session(job.request.tenant)
        missing = session.missing_amounts(plan.required_rotations())
        if missing:
            raise AdmissionError(
                f"tenant {job.request.tenant!r} has no rotation keys for "
                f"amounts {missing} (evicted or never registered — "
                "re-upload the galois bundle)")
        ops = {plan.nodes[nid].op for nid in plan.order}
        if OpCode.CONJ in ops and session.evaluator.conjugation_key is None:
            raise AdmissionError(
                f"tenant {job.request.tenant!r} has no conjugation key")
        if OpCode.HMULT in ops and session.evaluator.relin_key is None:
            raise AdmissionError(
                f"tenant {job.request.tenant!r} has no relinearization key")
        if self.config.max_job_seconds is not None:
            job.estimate = self.fault_plan.misprice(
                job.entry.derive("estimate", _ins2_seconds),
                job.request.tenant, job.request.program.name)
            if job.estimate > self.config.max_job_seconds:
                raise AdmissionError(
                    f"estimated accelerator time {job.estimate * 1e3:.2f} "
                    f"ms exceeds the admission ceiling "
                    f"{self.config.max_job_seconds * 1e3:.2f} ms")

    def _prepare_batch(self, batch: list[_Job]) -> list[_Job]:
        """Plan + admit every job, decode inputs, share work across jobs.

        Strictly per-job: a job that fails planning, admission, or blob
        decoding is rejected alone — jobs already prepared (and jobs
        later in the batch) proceed untouched.  A job whose submitter
        was cancelled while it queued is dropped unrun.
        """
        batch_span = self._root_span("batch_assembly", cat="sched",
                                     batch_size=len(batch))
        blob_cache: dict[str, Ciphertext] = {}
        admitted: list[_Job] = []
        for job in batch:
            job.queue_span.end()
            if job.future.done():  # submitter cancelled while queued
                self._settle(job, "cancelled", None, outcome="cancelled")
                continue
            self._m_queue_wait.observe(time.perf_counter() - job.submitted_at)
            try:
                with job.span.child("admit", cat="sched") as span:
                    self._admit(job)
                    span.annotate(plan_cache_hit=job.cache_hit,
                                  estimate_s=job.estimate)
                with job.span.child("decode_inputs", cat="sched"):
                    self._decode_inputs(job, blob_cache)
                admitted.append(job)
            except Exception as exc:  # reject: surface to the submitter
                self._settle(job, "rejected", exc, outcome="rejected",
                             error=type(exc).__name__)
        self._share(admitted, batch_span)
        batch_span.annotate(admitted=len(admitted))
        batch_span.end()
        return admitted

    def _decode_inputs(self, job: _Job,
                       blob_cache: dict[str, Ciphertext]) -> None:
        """Deserialize the job's input blobs (deduped by digest)."""
        for name, blob in job.request.inputs.items():
            blob = self.fault_plan.corrupt(
                blob, job.request.tenant, job.request.program.name)
            digest = hashlib.sha256(blob).hexdigest()
            ct = blob_cache.get(digest)
            if ct is None:
                ct = wire.deserialize_ciphertext(blob, self.ring)
                blob_cache[digest] = ct
            job.inputs[name] = ct
            job.digests[name] = digest

    def _share(self, jobs: list[_Job], batch_span: Span) -> None:
        """Run one merged window plan per tenant; seed every member.

        Jobs of one tenant (and slot count) that bind a blob another of
        them binds are merged by :func:`~repro.runtime.window.merge_window`;
        the window plan runs once
        (:func:`~repro.runtime.executor.execute_subgraph`) and each job
        is seeded at its frontier.  Tenants sharing no blob pay nothing.
        Sharing is an optimisation, never a liveness dependency: any
        failure (evicted key mid-batch, level drift, anything
        unexpected) leaves that tenant's jobs to run on their own —
        byte-identical either way.
        """
        groups: dict[tuple[str, int], list[_Job]] = {}
        for job in jobs:
            groups.setdefault((job.request.tenant,
                               job.request.program.n_slots), []).append(job)
        for (tenant, _), members in groups.items():
            bound = Counter(digest for job in members
                            for digest in set(job.digests.values()))
            members = [job for job in members
                       if any(bound[d] >= 2 for d in job.digests.values())]
            if not members:
                continue
            group_span = NULL_SPAN
            try:
                window = merge_window([
                    (job.entry.plan, job.entry.derive("keys", plan_keys),
                     job.digests) for job in members])
                if window is None:
                    continue
                group_span = batch_span.child(
                    "coalesce_group", cat="sched", tenant=tenant,
                    members=len(members), nodes=len(window.plan.order))
                tally_before = (_obs_kernel.snapshot()
                                if group_span and _obs_kernel._ENABLED
                                else None)
                inputs = {digest: job.inputs[name] for job in members
                          for name, digest in job.digests.items()}
                results = execute_subgraph(
                    window.plan, self.registry.session(tenant).evaluator,
                    inputs, window.targets)
                for job, seed, seeded, coalesced in zip(
                        members, window.seeds, window.cse_seeded,
                        window.coalesced):
                    job.seeded_nodes = {nid: results[vid]
                                        for nid, vid in seed.items()}
                    job.cse_seeded, job.coalesced = seeded, coalesced
                self._m_raises_saved.inc(window.raises_saved)
                self._m_cse.inc(max(0, sum(window.cse_seeded) - 1))
                if tally_before is not None:
                    group_span.annotate(
                        **{field: count for field, count
                           in _obs_kernel.delta(tally_before).items()
                           if count})
            except Exception as exc:  # the tenant's jobs run on their own
                group_span.annotate(error=type(exc).__name__)
            finally:
                group_span.end()

    # ----- execution ---------------------------------------------------------

    async def _supervise_job(self, job: _Job) -> None:
        """Run one admitted job under supervision; settle its future."""
        label = f"{job.request.tenant}/{job.request.program.name}"
        span = job.supervise_span = job.span.child("supervise", cat="sched")
        try:
            result, attempts = await self.supervisor.supervise(
                functools.partial(self._run_attempt, job),
                estimate_s=job.estimate, label=label, span=span)
        except Exception as exc:
            span.annotate(error=type(exc).__name__)
            span.end()
            self._settle(job, "failed", exc, outcome=type(exc).__name__,
                         attempts=job.attempt_no or None)
            return
        span.annotate(attempts=attempts)
        span.end()
        result.attempts = attempts
        self._settle(job, "completed", result)

    def _run_attempt(self, job: _Job, cancel: threading.Event
                     ) -> JobResult:
        """One worker-side attempt (runs on the pool; may be retried)."""
        # Per-attempt clock: t0 restarts on every retry, and the
        # calibration record below only fires on the attempt that
        # succeeds, so the recorded actual_s is pure execute wall —
        # supervisor retry backoff (which sleeps *between* attempts,
        # outside this function) can never inflate it.
        t0 = time.perf_counter()
        tenant = job.request.tenant
        with self._stats_lock:
            job.attempt_no += 1
            attempt_no = job.attempt_no
        self._journal("started" if attempt_no == 1 else "retried", job,
                      attempt=attempt_no)
        attempt_span = job.supervise_span.child(
            "execute_attempt", cat="exec", attempt=attempt_no)
        try:
            profile = job.entry.derive("noise", self.noise_tracker.profile)
            self.fault_plan.before_attempt(
                self.registry, tenant, job.request.program.name, cancel)
            session = self.registry.session(tenant)
            needed = job.entry.plan.required_rotations()
            missing = session.missing_amounts(needed)
            if missing:
                # The evicted-key race: admission saw these keys, an LRU
                # eviction beat the worker to them.  Transient — a racing
                # re-upload may restore them before the retry.
                raise KeyEvictedError(tenant, missing)
            session.touch(needed, self.registry)
            outputs = execute(job.entry.plan, session.evaluator, job.inputs,
                              seeded_nodes=job.seeded_nodes,
                              should_cancel=cancel.is_set,
                              span=attempt_span or None, noise=profile)
            blobs = {name: wire.serialize_ciphertext(ct, self.ring.params)
                     for name, ct in outputs.items()}
        except Exception as exc:
            attempt_span.annotate(error=type(exc).__name__)
            attempt_span.end()
            raise
        wall = time.perf_counter() - t0
        self._m_wall.observe(wall, tenant=tenant)
        worst = profile.worst_output()
        headroom = None if worst is None else worst.headroom_bits
        floor = self.config.min_headroom_bits
        risk = None
        if headroom is not None and floor is not None and headroom < floor:
            risk = PrecisionAtRisk(tenant, job.request.program.name,
                                   headroom, floor, worst_node=worst.node)
        if job.estimate is not None and job.estimate > 0:
            ratio = self.calibration.record(
                job.cache_key, job.estimate, wall, tenant=tenant,
                program=job.request.program.name)
            attempt_span.annotate(calibration_ratio=round(ratio, 4))
        if headroom is not None:
            attempt_span.annotate(headroom_bits=round(headroom, 2))
        attempt_span.end()
        with self._stats_lock:
            session.jobs_run += 1
        return JobResult(
            outputs=blobs,
            tenant=tenant,
            program_name=job.request.program.name,
            estimated_seconds=job.estimate,
            plan_cache_hit=job.cache_hit,
            coalesced=job.coalesced,
            wall_seconds=wall,
            cse_seeded=job.cse_seeded,
            headroom_bits=headroom,
            precision_at_risk=risk)

    # ----- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Job-outcome and sharing counters, read back from the registry."""
        outcomes = Counter()
        for (_, outcome), count in self._m_jobs.samples().items():
            outcomes[outcome] += int(count)
        return {
            **{f"jobs_{outcome}": outcomes[outcome] for outcome in (
                "completed", "rejected", "failed", "overloaded", "shed")},
            "coalesced_raises": int(self._m_raises_saved.total()),
            "cse_reuses": int(self._m_cse.total()),
            "precision_at_risk_jobs": int(self._m_at_risk.total()),
            "plan_cache": self.plan_cache.stats(),
        }

    def _backlog(self) -> tuple[int, int]:
        """``(queue_depth, backlog_jobs)``, read under the lock (the
        first two :class:`HealthSnapshot` fields)."""
        queue = self._queue
        with self._stats_lock:
            return (0 if queue is None else queue.qsize(),
                    self._backlog_jobs)

    def health(self) -> HealthSnapshot:
        """Degradation snapshot: queue, backlog, breakers, counters.

        Returns a typed :class:`HealthSnapshot`; endpoints that need the
        dict shape use :meth:`HealthSnapshot.as_dict`.
        """
        counters = self.stats()
        plan_cache = counters.pop("plan_cache")
        supervisor = self.supervisor.stats()
        counters.update({kind: supervisor[kind]
                         for kind in ("retries", "timeouts", "attempts")})
        jobs = self._m_jobs.samples()
        at_risk = self._m_at_risk.samples()
        tenant_min = {tenant: series["min"] for (tenant,), series
                      in self._m_headroom.series().items()}
        tenants = {}
        for tenant, breaker in sorted(list(self._breakers.items())):
            tenants[tenant] = TenantHealth(
                **breaker.snapshot(),
                shed=int(jobs.get((tenant, "shed"), 0)),
                jobs_completed=int(jobs.get((tenant, "completed"), 0)),
                jobs_failed=int(jobs.get((tenant, "failed"), 0)),
                jobs_rejected=int(jobs.get((tenant, "rejected"), 0)),
                precision_at_risk=int(at_risk.get((tenant,), 0)),
                min_headroom_bits=tenant_min.get(tenant))
        return HealthSnapshot(
            *self._backlog(),
            max_queue_jobs=self.config.max_queue_jobs,
            tenants=tenants,
            counters=counters,
            plan_cache=plan_cache,
            calibration=self.calibration.stats(),
            numeric_health={
                "floor_bits": self.config.min_headroom_bits,
                "jobs_at_risk": counters["precision_at_risk_jobs"],
                "min_headroom_bits": min(tenant_min.values(), default=None),
                "tenants": {tenant: round(value, 3)
                            for tenant, value in sorted(tenant_min.items())},
            },
        )

    def render_metrics(self) -> str:
        """Prometheus text: the scheduler's always-on registry (its live
        gauges read at collect time), the gated default registry
        (wire-codec instruments — headers only until
        :func:`repro.obs.enable`) and the calibration summary."""
        return "".join((self.metrics.render_text(),
                        _obs_metrics.default_registry().render_text(),
                        self.calibration.render_prometheus()))


def _ins2_seconds(plan: Plan) -> float:
    """BTS cycle estimate of a plan on the paper's INS-2 instance."""
    from repro.core.simulator import BtsSimulator
    from repro.runtime.lowering import lower_to_trace

    params = CkksParams.ins2()
    lowered = lower_to_trace(plan, params)
    return BtsSimulator(params).run(lowered.trace).total_seconds


def _finish_future(future: asyncio.Future, result: JobResult) -> None:
    if not future.done():
        future.set_result(result)


def _fail_future(future: asyncio.Future, exc: Exception) -> None:
    if not future.done():
        future.set_exception(exc)
