"""Fault-tolerance tier: injected faults, supervision, degradation.

The contracts under test, all deterministic under a fixed
:class:`~repro.service.faults.FaultPlan`:

* **Isolation** — a job that crashes, stalls past its deadline, loads a
  corrupted blob, or loses its keys to an eviction race fails *alone*:
  its batch-mates (including members of the same coalescing group)
  produce result blobs byte-identical to a fault-free run.
* **Supervision** — transient faults succeed within the backoff retry
  budget; stalls are cancelled at the priced deadline; terminal faults
  surface immediately with the taxonomy's classification.
* **Degradation** — sustained overload sheds submits with a structured
  ``Overloaded`` (retry-after hint) instead of growing the queue, a
  tenant whose jobs keep failing is shed by its circuit breaker without
  touching other tenants, and ``health()`` exposes all of it.
"""

from __future__ import annotations

import asyncio
import io
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.obs.events import JobJournal, read_journal, validate_journal
from repro.runtime import PlannerConfig, Program, plan_program
from repro.runtime.executor import ExecutionCancelled, execute
from repro.service import (
    AdmissionError,
    CircuitOpen,
    DeadlineExceeded,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedTransient,
    JobRequest,
    KeyEvictedError,
    Overloaded,
    SchedulerStopped,
    ServiceConfig,
    SupervisionConfig,
    TransientServiceError,
    WireError,
    is_transient,
)
from repro.service.supervisor import BreakerConfig, CircuitBreaker, \
    Supervisor


def stencil_program(amounts, name="stencil", n_slots=8):
    prog = Program(n_slots=n_slots, name=name)
    x = prog.input("x")
    acc = x * 0.5
    for amount in amounts:
        acc = acc + x.rotate(amount) * 0.25
    prog.output("out", acc)
    return prog


def stencil_reference(vec, amounts):
    acc = vec * 0.5
    for amount in amounts:
        acc = acc + np.roll(vec, -amount) * 0.25
    return acc


def quick_supervision(**overrides) -> SupervisionConfig:
    """Fast-deadline, fast-backoff policy so fault tests stay quick."""
    kwargs = dict(deadline_multiplier=0.0, deadline_floor_s=10.0,
                  max_retries=3, backoff_base_s=0.01,
                  backoff_cap_s=0.02, seed=7)
    kwargs.update(overrides)
    return SupervisionConfig(**kwargs)


def serve(server, requests, drain_s=0.0, return_exceptions=True):
    """serve() twin that can linger so stalled workers finish while the
    loop is still alive (keeps abandoned-attempt callbacks quiet)."""
    async def run():
        server.scheduler.start()
        try:
            results = await asyncio.gather(
                *(server.scheduler.submit(r) for r in requests),
                return_exceptions=return_exceptions)
            if drain_s:
                await asyncio.sleep(drain_s)
            return results
        finally:
            await server.scheduler.stop()

    return asyncio.run(run())


@pytest.fixture()
def faulted_setup(make_server, make_client):
    """Factory: a registered one-tenant server with a given config."""
    servers = []

    def build(config: ServiceConfig):
        server = make_server(config=config)
        client = make_client("alice", 11)
        server.open_session("alice", client.hello_blob())
        server.register_keys(
            "alice", relin=client.relin_blob(),
            galois=client.galois_blob(range(1, 8), conjugation=True))
        servers.append(server)
        return server, client

    yield build
    for server in servers:
        server.shutdown()


# ----- unit: the fault plan ---------------------------------------------------

class TestFaultPlan:
    def test_probe_matches_kind_tenant_program(self):
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, tenant="alice",
                                    program="j1")])
        assert plan.probe(FaultKind.STALL, "alice", "j1") is None
        assert plan.probe(FaultKind.CRASH, "bob", "j1") is None
        assert plan.probe(FaultKind.CRASH, "alice", "j2") is None
        assert plan.probe(FaultKind.CRASH, "alice", "j1") is not None
        assert plan.injected == [("crash", "alice", "j1")]

    def test_after_and_times_window(self):
        plan = FaultPlan([FaultSpec(FaultKind.TRANSIENT, after=1,
                                    times=2)])
        fired = [plan.probe(FaultKind.TRANSIENT, "t", "p") is not None
                 for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert plan.count(FaultKind.TRANSIENT) == 2

    def test_wildcards_match_any_identity(self):
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, times=2)])
        assert plan.probe(FaultKind.CRASH, "alice", "x") is not None
        assert plan.probe(FaultKind.CRASH, "bob", "y") is not None
        assert plan.probe(FaultKind.CRASH, "carol", "z") is None

    def test_corruption_is_seeded_and_deterministic(self):
        blob = bytes(range(64))
        spec = lambda: [FaultSpec(FaultKind.CORRUPT_BLOB)]
        one = FaultPlan(spec(), seed=11).corrupt(blob)
        two = FaultPlan(spec(), seed=11).corrupt(blob)
        other = FaultPlan(spec(), seed=12).corrupt(blob)
        assert one == two
        assert one != blob
        assert sum(a != b for a, b in zip(one, blob)) == 1
        assert other != one  # different seed, different byte/mask
        # no spec fired -> pass-through
        assert FaultPlan([], seed=11).corrupt(blob) == blob

    def test_probe_is_thread_safe_and_exact(self):
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, times=10)])
        hits = []
        def worker():
            for _ in range(100):
                if plan.probe(FaultKind.CRASH, "t", "p") is not None:
                    hits.append(1)
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 10


class _EvictionLog:
    """Registry stand-in recording the EVICT_KEYS hook's calls."""

    def __init__(self) -> None:
        self.evicted = []

    def evict_tenant_galois(self, tenant, amounts=None):
        self.evicted.append((tenant, amounts))


class TestFaultHooks:
    def test_before_attempt_probes_in_fixed_order(self):
        plan = FaultPlan([
            FaultSpec(FaultKind.TRANSIENT, times=9),
            FaultSpec(FaultKind.CRASH, times=1),
            FaultSpec(FaultKind.STALL, times=9),
            FaultSpec(FaultKind.EVICT_KEYS, times=9, amounts=(3,)),
        ])
        registry = _EvictionLog()
        with pytest.raises(InjectedCrash):  # TRANSIENT is not probed
            plan.before_attempt(registry, "t", "p", threading.Event())
        with pytest.raises(InjectedTransient):
            plan.before_attempt(registry, "t", "p", threading.Event())
        assert [kind for kind, _, _ in plan.injected] == [
            "evict_keys", "stall", "crash",
            "evict_keys", "stall", "transient"]
        assert registry.evicted == [("t", (3,)), ("t", (3,))]

    def test_cancel_during_stall_raises_execution_cancelled(self):
        plan = FaultPlan([FaultSpec(FaultKind.STALL, stall_s=0.01),
                          FaultSpec(FaultKind.CRASH)])
        cancel = threading.Event()
        cancel.set()  # the supervisor gave up while the worker slept
        with pytest.raises(ExecutionCancelled, match="stalled"):
            plan.before_attempt(_EvictionLog(), "t", "p", cancel)
        assert plan.count(FaultKind.CRASH) == 0  # aborted before CRASH

    def test_misprice_scales_only_when_a_spec_fires(self):
        plan = FaultPlan([FaultSpec(FaultKind.MISPRICE, program="p",
                                    factor=4.0)])
        assert plan.misprice(0.5, "t", "other") == 0.5
        assert plan.misprice(0.5, "t", "p") == 2.0
        assert plan.misprice(0.5, "t", "p") == 0.5  # times=1 spent

    def test_empty_plan_is_a_no_op(self):
        plan, registry = FaultPlan(), _EvictionLog()
        cancel = threading.Event()
        cancel.set()
        plan.before_attempt(registry, "t", "p", cancel)
        assert plan.misprice(0.25, "t", "p") == 0.25
        assert plan.corrupt(b"blob", "t", "p") == b"blob"
        assert registry.evicted == [] and plan.injected == []


# ----- unit: the supervisor ---------------------------------------------------

class TestSupervisor:
    @pytest.fixture()
    def pool(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            yield pool

    def test_deadline_priced_from_estimate(self, pool):
        sup = Supervisor(pool, SupervisionConfig(
            deadline_multiplier=100.0, deadline_floor_s=2.0))
        assert sup.deadline_for(None) == 2.0
        assert sup.deadline_for(0.05) == pytest.approx(7.0)

    def test_backoff_full_jitter_bounds_and_reproducibility(self, pool):
        config = SupervisionConfig(backoff_base_s=0.1, backoff_cap_s=0.4,
                                   seed=5)
        sup_a, sup_b = Supervisor(pool, config), Supervisor(pool, config)
        delays_a = [sup_a.backoff_delay(i) for i in range(6)]
        delays_b = [sup_b.backoff_delay(i) for i in range(6)]
        assert delays_a == delays_b  # seeded jitter is reproducible
        for attempt, delay in enumerate(delays_a):
            assert 0.0 <= delay <= min(0.4, 0.1 * 2 ** attempt)

    def test_success_first_attempt(self, pool):
        sup = Supervisor(pool, quick_supervision())
        result, attempts = asyncio.run(
            sup.supervise(lambda cancel: "ok"))
        assert (result, attempts) == ("ok", 1)
        assert sup.stats() == {"attempts": 1, "successes": 1,
                               "failures": 0, "retries": 0,
                               "timeouts": 0}

    def test_transient_failure_retries_then_succeeds(self, pool):
        sup = Supervisor(pool, quick_supervision(max_retries=3))
        calls = []
        def flaky(cancel):
            calls.append(1)
            if len(calls) < 3:
                raise InjectedTransient("flaky infra")
            return "recovered"
        result, attempts = asyncio.run(sup.supervise(flaky))
        assert (result, attempts) == ("recovered", 3)
        assert sup.stats()["retries"] == 2

    def test_transient_budget_exhaustion_surfaces_the_error(self, pool):
        sup = Supervisor(pool, quick_supervision(max_retries=2))
        def always(cancel):
            raise InjectedTransient("still down")
        with pytest.raises(InjectedTransient):
            asyncio.run(sup.supervise(always))
        stats = sup.stats()
        assert stats["attempts"] == 3  # 1 + 2 retries
        assert stats["failures"] == 1

    def test_terminal_failure_is_not_retried(self, pool):
        sup = Supervisor(pool, quick_supervision())
        def crash(cancel):
            raise InjectedCrash("boom")
        with pytest.raises(InjectedCrash):
            asyncio.run(sup.supervise(crash))
        assert sup.stats()["attempts"] == 1
        assert sup.stats()["retries"] == 0

    def test_timeout_cancels_and_raises_deadline_exceeded(self, pool):
        sup = Supervisor(pool, quick_supervision(
            deadline_floor_s=0.1, max_retries=0))
        events = []
        def stall(cancel):
            events.append(cancel)
            time.sleep(0.3)
            return "too late"
        with pytest.raises(DeadlineExceeded) as info:
            asyncio.run(sup.supervise(stall, label="stuck"))
        assert info.value.deadline_s == pytest.approx(0.1)
        assert "stuck" in str(info.value)
        assert sup.stats()["timeouts"] == 1
        time.sleep(0.3)  # let the abandoned attempt finish
        assert events[0].is_set()  # cancellation was requested

    def test_timeout_is_retryable(self, pool):
        sup = Supervisor(pool, quick_supervision(
            deadline_floor_s=0.1, max_retries=1))
        calls = []
        def stall_once(cancel):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(0.25)
            return "second wind"
        result, attempts = asyncio.run(sup.supervise(stall_once))
        assert (result, attempts) == ("second wind", 2)
        assert sup.stats()["timeouts"] == 1
        time.sleep(0.2)


# ----- unit: the circuit breaker ----------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(BreakerConfig(threshold=3,
                                               cooldown_s=10.0), clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow() == (True, 0.0)
        breaker.record_failure()
        allowed, retry_after = breaker.allow()
        assert not allowed and retry_after == pytest.approx(10.0)
        assert breaker.snapshot()["state"] == "open"

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=2), FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(BreakerConfig(threshold=1,
                                               cooldown_s=5.0), clock)
        breaker.record_failure()
        assert breaker.allow()[0] is False
        clock.now = 6.0
        assert breaker.allow() == (True, 0.0)     # the probe
        assert breaker.allow()[0] is False        # only one probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() == (True, 0.0)

    def test_half_open_failure_reopens_for_a_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(BreakerConfig(threshold=1,
                                               cooldown_s=5.0), clock)
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()[0] is True
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now = 10.0  # 4s into the fresh cooldown
        assert breaker.allow()[0] is False

    def test_released_probe_lets_the_next_job_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(BreakerConfig(threshold=1,
                                               cooldown_s=5.0), clock)
        breaker.record_failure()
        breaker.release_probe()  # no probe out: nothing to free
        assert breaker.allow()[0] is False
        clock.now = 6.0
        assert breaker.allow() == (True, 0.0)     # the probe ...
        breaker.release_probe()                   # ... never ran
        assert breaker.allow() == (True, 0.0)     # the next one probes
        assert breaker.allow()[0] is False
        assert breaker.state == "half_open"


# ----- unit: cooperative executor cancellation --------------------------------

class TestExecutorCancellation:
    def test_cancel_before_first_node(self, small_ring, small_keys,
                                      small_evaluator, small_encoder):
        plan = plan_program(stencil_program([1]),
                            PlannerConfig.from_ring(small_ring))
        pt = small_encoder.encode(np.zeros(8) + 0j, 2.0 ** 40)
        ct = small_keys.encrypt_symmetric(pt.poly, 2.0 ** 40, 8)
        with pytest.raises(ExecutionCancelled):
            execute(plan, small_evaluator, {"x": ct},
                    should_cancel=lambda: True)

    def test_no_cancel_runs_normally(self, small_ring, small_keys,
                                     small_evaluator, small_encoder):
        plan = plan_program(stencil_program([1]),
                            PlannerConfig.from_ring(small_ring))
        z = np.linspace(-0.2, 0.2, 8)
        pt = small_encoder.encode(z + 0j, 2.0 ** 40)
        ct = small_keys.encrypt_symmetric(pt.poly, 2.0 ** 40, 8)
        out = execute(plan, small_evaluator, {"x": ct},
                      should_cancel=lambda: False)
        got = small_evaluator.decrypt_to_message(out["out"],
                                                 small_keys.secret)
        assert np.max(np.abs(got - stencil_reference(z, [1]))) < 1e-6


# ----- taxonomy ---------------------------------------------------------------

class TestTaxonomy:
    def test_classification(self):
        from repro.service import RegistryError
        assert is_transient(InjectedTransient("x"))
        assert is_transient(DeadlineExceeded("x"))
        assert is_transient(KeyEvictedError("t", [1]))
        assert is_transient(Overloaded("x", 0.1))
        assert is_transient(RegistryError("race"))
        assert not is_transient(InjectedCrash("x"))
        assert not is_transient(AdmissionError("x"))
        assert not is_transient(WireError("x"))
        assert not is_transient(RuntimeError("x"))

    def test_structured_payloads(self):
        exc = Overloaded("queue full", retry_after_s=1.5)
        assert exc.retry_after_s == 1.5 and "retry after" in str(exc)
        exc = KeyEvictedError("alice", [5, 2])
        assert exc.amounts == [2, 5] and "re-upload" in str(exc)
        exc = CircuitOpen("bob", 3.0)
        assert exc.tenant == "bob" and "breaker" in str(exc)
        assert isinstance(exc, TransientServiceError) is False


# ----- isolation: each fault fails its own job only ---------------------------

class TestFaultIsolation:
    VEC = np.linspace(-0.4, 0.4, 8)
    AMOUNTS = [(1, 2), (3, 4), (5, 6)]

    def _requests(self, client, blob=None):
        blob = blob or client.encrypt_blob(self.VEC)
        return [JobRequest("alice", stencil_program(list(a), f"j{i}"),
                           {"x": blob})
                for i, a in enumerate(self.AMOUNTS)]

    def _clean_run(self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=2, supervision=quick_supervision()))
        blob = client.encrypt_blob(self.VEC)
        results = serve(server, self._requests(client, blob))
        return client, blob, [r.outputs["out"] for r in results]

    def _assert_survivors_identical(self, results, clean, dead: int):
        for i, (result, reference) in enumerate(zip(results, clean)):
            if i == dead:
                continue
            assert result.outputs["out"] == reference  # byte-identical

    def test_crash_fails_alone(self, faulted_setup):
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, program="j1")],
                         seed=5)
        server, _ = faulted_setup(ServiceConfig(
            workers=2, supervision=quick_supervision(),
            fault_plan=plan))
        results = serve(server, self._requests(client, blob))
        assert isinstance(results[1], InjectedCrash)
        self._assert_survivors_identical(results, clean, dead=1)
        assert plan.injected == [("crash", "alice", "j1")]
        stats = server.scheduler.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_completed"] == 2

    def test_persistent_stall_times_out_alone(self, faulted_setup):
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.STALL, program="j0",
                                    times=5, stall_s=0.4)], seed=5)
        server, _ = faulted_setup(ServiceConfig(
            workers=3, fault_plan=plan,
            supervision=quick_supervision(deadline_floor_s=0.1,
                                          max_retries=1)))
        results = serve(server, self._requests(client, blob),
                        drain_s=0.5)
        assert isinstance(results[0], DeadlineExceeded)
        self._assert_survivors_identical(results, clean, dead=0)
        assert server.scheduler.supervisor.stats()["timeouts"] == 2

    def test_stall_never_times_out_its_batch_mate(self, faulted_setup):
        """One worker: the fault-free job queued behind a stalled one
        gets its own full deadline, counted from its pick-up."""
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.STALL, program="j0",
                                    stall_s=0.5)], seed=5)
        server, _ = faulted_setup(ServiceConfig(
            workers=1, fault_plan=plan,
            supervision=quick_supervision(deadline_floor_s=0.3,
                                          max_retries=0)))
        results = serve(server, self._requests(client, blob)[:2],
                        drain_s=0.3)
        assert isinstance(results[0], DeadlineExceeded)
        assert results[1].outputs["out"] == clean[1]
        assert server.scheduler.supervisor.stats()["timeouts"] == 1

    def test_stall_once_recovers_by_retry(self, faulted_setup):
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.STALL, program="j2",
                                    times=1, stall_s=0.3)], seed=5)
        server, _ = faulted_setup(ServiceConfig(
            workers=3, fault_plan=plan,
            supervision=quick_supervision(deadline_floor_s=0.1,
                                          max_retries=2)))
        results = serve(server, self._requests(client, blob),
                        drain_s=0.4)
        assert results[2].attempts == 2  # timed out once, then ran
        assert results[2].outputs["out"] == clean[2]
        self._assert_survivors_identical(results, clean, dead=-1)
        assert server.scheduler.supervisor.stats()["retries"] >= 1

    def test_corrupt_blob_fails_alone_with_wire_error(self,
                                                      faulted_setup):
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.CORRUPT_BLOB,
                                    program="j1")], seed=9)
        server, _ = faulted_setup(ServiceConfig(
            workers=2, supervision=quick_supervision(),
            fault_plan=plan))
        results = serve(server, self._requests(client, blob))
        assert isinstance(results[1], WireError)
        # The corrupted copy never reaches the shared blob cache: the
        # batch-mates decode the pristine blob and stay byte-identical.
        self._assert_survivors_identical(results, clean, dead=1)
        assert server.scheduler.stats()["jobs_rejected"] == 1

    def test_evicted_key_race_fails_alone(self, faulted_setup):
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.EVICT_KEYS, program="j1",
                                    amounts=(3, 4))], seed=5)
        server, _ = faulted_setup(ServiceConfig(
            workers=2, fault_plan=plan,
            supervision=quick_supervision(max_retries=1)))
        results = serve(server, self._requests(client, blob))
        assert isinstance(results[1], KeyEvictedError)
        assert results[1].amounts == [3, 4]
        self._assert_survivors_identical(results, clean, dead=1)
        assert server.registry.stats()["evictions"] == 2

    def test_transient_fault_succeeds_within_retry_budget(
            self, faulted_setup):
        client, blob, clean = self._clean_run(faulted_setup)
        plan = FaultPlan([FaultSpec(FaultKind.TRANSIENT, program="j0",
                                    times=3)], seed=5)
        server, _ = faulted_setup(ServiceConfig(
            workers=2, fault_plan=plan,
            supervision=quick_supervision(max_retries=3)))
        results = serve(server, self._requests(client, blob))
        assert results[0].attempts == 4  # three injections, then clean
        for result, reference in zip(results, clean):
            assert result.outputs["out"] == reference
        assert server.scheduler.supervisor.stats()["retries"] == 3

    def test_chaos_composite_is_deterministic(self, faulted_setup):
        """1 crash + 1 stall(recovers) + 1 corrupt in one window."""
        client, blob, clean = self._clean_run(faulted_setup)

        def chaos_plan():
            return FaultPlan([
                FaultSpec(FaultKind.CRASH, program="j0"),
                FaultSpec(FaultKind.STALL, program="j1", times=1,
                          stall_s=0.3),
                FaultSpec(FaultKind.CORRUPT_BLOB, program="j2"),
            ], seed=42)

        outcomes = []
        for _ in range(2):
            plan = chaos_plan()
            server, _ = faulted_setup(ServiceConfig(
                workers=4, fault_plan=plan,
                supervision=quick_supervision(deadline_floor_s=0.1,
                                              max_retries=2)))
            results = serve(server, self._requests(client, blob),
                            drain_s=0.4)
            assert isinstance(results[0], InjectedCrash)
            assert results[1].outputs["out"] == clean[1]  # recovered
            assert isinstance(results[2], WireError)
            outcomes.append(sorted(plan.injected))
        assert outcomes[0] == outcomes[1]  # same seed, same chaos


class TestHeadOfLine:
    def test_stall_holds_one_worker_not_the_next_window(
            self, make_server, make_client):
        """``workers=2``: alice's job stalls 1 s (under its deadline) on
        one worker; bob's jobs, submitted 50 ms later, run on the other
        instead of waiting for alice's window to settle."""
        plan = FaultPlan([FaultSpec(FaultKind.STALL, tenant="alice",
                                    stall_s=1.0)], seed=5)
        server = make_server(config=ServiceConfig(
            workers=2, fault_plan=plan,
            supervision=quick_supervision(deadline_floor_s=5.0)))
        vec = np.linspace(-0.3, 0.3, 8)
        requests = {}
        for tenant, seed, names in (("alice", 11, ["stalled"]),
                                    ("bob", 22, ["b0", "b1"])):
            client = make_client(tenant, seed)
            server.open_session(tenant)
            server.register_keys(tenant, relin=client.relin_blob(),
                                 galois=client.galois_blob({1, 2}))
            requests[tenant] = [
                JobRequest(tenant, stencil_program([1, 2], name),
                           {"x": client.encrypt_blob(vec)})
                for name in names]

        async def run():
            scheduler = server.scheduler
            scheduler.start()
            stalled = asyncio.ensure_future(
                scheduler.submit(requests["alice"][0]))
            await asyncio.sleep(0.05)
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *(scheduler.submit(r) for r in requests["bob"]))
            bob_s = time.perf_counter() - t0
            await scheduler.stop()
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            return bob_s, results, stalled, pending

        try:
            bob_s, results, stalled, pending = asyncio.run(run())
        finally:
            server.shutdown()
        assert bob_s < 0.3, bob_s
        bob = make_client("bob", 22)
        for result in results:
            got = bob.decrypt_blob(result.outputs["out"])
            assert np.max(np.abs(got - stencil_reference(vec, [1, 2]))) \
                < 1e-6
        # stop() returned only after every window settled: alice's
        # future is done and no window (or submit) task is left.
        assert pending == set()
        assert stalled.result().outputs["out"]
        assert plan.injected == [("stall", "alice", "stalled")]


# ----- admission-estimate lies ------------------------------------------------

class TestCalibrationClock:
    def test_retry_backoff_excluded_from_calibration_wall(
            self, faulted_setup):
        """Regression: ``actual_s`` is the *winning attempt's* wall.

        Two injected TRANSIENT faults force two jittered backoff sleeps
        before the third attempt succeeds.  The calibration record must
        reflect only that attempt's execute wall — a clock started at
        the first attempt would fold both backoff sleeps into
        ``actual_s`` and poison the estimate-vs-actual ratios that the
        admission ceiling and slow-job detector learn from.
        """
        supervision = quick_supervision(max_retries=3, backoff_base_s=0.8,
                                        backoff_cap_s=0.8)
        plan = FaultPlan([FaultSpec(FaultKind.TRANSIENT, program="cal",
                                    times=2)], seed=5)
        server, client = faulted_setup(ServiceConfig(
            workers=1, max_job_seconds=10.0, fault_plan=plan,
            supervision=supervision))
        req = JobRequest("alice", stencil_program([1, 2], name="cal"),
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = serve(server, [req])
        assert result.attempts == 3
        assert server.scheduler.supervisor.stats()["retries"] == 2

        # replay the supervisor's deterministic full-jitter draws to
        # know exactly how much backoff the job actually slept through
        import random
        rng = random.Random(supervision.seed)
        slept = sum(
            rng.uniform(0.0, min(supervision.backoff_cap_s,
                                 supervision.backoff_base_s * 2.0 ** a))
            for a in (0, 1))
        assert slept > 0.3  # the sleeps dominate the ~ms execute wall

        [entry] = server.scheduler.calibration.summary().values()
        assert entry["count"] == 1
        assert entry["last_actual_s"] < slept / 2


class TestMisprice:
    def test_inflating_lie_trips_the_admission_ceiling(
            self, faulted_setup):
        plan = FaultPlan([FaultSpec(FaultKind.MISPRICE, factor=1e12)])
        server, client = faulted_setup(ServiceConfig(
            workers=1, max_job_seconds=10.0, fault_plan=plan,
            supervision=quick_supervision()))
        req = JobRequest("alice", stencil_program([1]),
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = serve(server, [req])
        assert isinstance(result, AdmissionError)
        assert "admission ceiling" in str(result)

    def test_deflating_lie_admits_an_over_budget_job(
            self, faulted_setup):
        plan = FaultPlan([FaultSpec(FaultKind.MISPRICE, factor=0.0)])
        server, client = faulted_setup(ServiceConfig(
            workers=1, max_job_seconds=1e-12, fault_plan=plan,
            supervision=quick_supervision()))
        req = JobRequest("alice", stencil_program([1]),
                         {"x": client.encrypt_blob(np.zeros(8))})
        [lied] = serve(server, [req])
        assert lied.estimated_seconds == 0.0  # the lie is visible
        [honest] = serve(server, [req])       # next probe passes through
        assert isinstance(honest, AdmissionError)


# ----- graceful degradation ---------------------------------------------------

class TestOverload:
    def test_queue_bound_sheds_with_retry_hint(self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=1, max_queue_jobs=2,
            supervision=quick_supervision()))
        blob = client.encrypt_blob(np.zeros(8))
        requests = [JobRequest("alice", stencil_program([1], f"o{i}"),
                               {"x": blob}) for i in range(6)]

        async def flood():
            server.scheduler.start()
            try:
                tasks = [asyncio.ensure_future(
                    server.scheduler.submit(r)) for r in requests]
                return await asyncio.gather(*tasks,
                                            return_exceptions=True)
            finally:
                await server.scheduler.stop()

        results = asyncio.run(flood())
        overloaded = [r for r in results if isinstance(r, Overloaded)]
        completed = [r for r in results if not isinstance(r, Exception)]
        assert len(overloaded) == 4  # submits 3..6 hit the bound
        assert len(completed) == 2   # admitted jobs still finish
        assert all(o.retry_after_s > 0 for o in overloaded)
        assert server.scheduler.stats()["jobs_overloaded"] == 4

    def test_retry_hint_usable_on_degenerate_job_axis(self, faulted_setup):
        # max_queue_jobs=0 rejects with an *empty* queue; with a zero
        # batch window every drain-time estimate is 0, so only the hint
        # floor keeps retry_after_s usable.
        server, client = faulted_setup(ServiceConfig(
            workers=4, max_queue_jobs=0, batch_window_s=0.0,
            supervision=quick_supervision()))
        req = JobRequest("alice", stencil_program([1]),
                         {"x": client.encrypt_blob(np.zeros(8))})

        async def one():
            server.scheduler.start()
            try:
                return await asyncio.gather(server.scheduler.submit(req),
                                            return_exceptions=True)
            finally:
                await server.scheduler.stop()

        [shed] = asyncio.run(one())
        assert isinstance(shed, Overloaded)
        assert shed.retry_after_s > 0


class TestCircuitBreakerServing:
    def _failing_request(self, client):
        # rotation amount 3's key is never registered -> AdmissionError
        return JobRequest("alice", stencil_program([3], "needs3"),
                          {"x": client.encrypt_blob(np.zeros(8))})

    def test_failing_tenant_is_shed_others_served(self, make_server,
                                                  make_client):
        server = make_server(config=ServiceConfig(
            workers=1, supervision=quick_supervision(),
            breaker=BreakerConfig(threshold=2, cooldown_s=60.0)))
        alice, bob = make_client("alice", 11), make_client("bob", 22)
        for client in (alice, bob):
            server.open_session(client.tenant_id)
            server.register_keys(client.tenant_id,
                                 relin=client.relin_blob(),
                                 galois=client.galois_blob({1, 2}))
        bad = self._failing_request(alice)
        for _ in range(2):
            [result] = serve(server, [bad])
            assert isinstance(result, AdmissionError)
        [shed] = serve(server, [bad])
        assert isinstance(shed, CircuitOpen)
        assert shed.retry_after_s > 0
        # bob is untouched by alice's breaker
        vec = np.linspace(0, 0.4, 8)
        good = JobRequest("bob", stencil_program([1, 2]),
                          {"x": bob.encrypt_blob(vec)})
        [ok] = serve(server, [good])
        got = bob.decrypt_blob(ok.outputs["out"])
        assert np.max(np.abs(got - stencil_reference(vec, [1, 2]))) < 1e-6
        health = server.health()
        assert health["tenants"]["alice"]["state"] == "open"
        assert health["tenants"]["alice"]["shed"] == 1  # one refused submit
        server.shutdown()

    def test_breaker_recovers_through_half_open_probe(
            self, make_server, make_client):
        server = make_server(config=ServiceConfig(
            workers=1, supervision=quick_supervision(),
            breaker=BreakerConfig(threshold=1, cooldown_s=0.05)))
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob({1, 2}))
        [bad] = serve(server, [self._failing_request(client)])
        assert isinstance(bad, AdmissionError)
        [shed] = serve(server, [self._failing_request(client)])
        assert isinstance(shed, CircuitOpen)
        time.sleep(0.1)  # cooldown elapses -> half-open probe admitted
        vec = np.full(8, 0.2)
        good = JobRequest("alice", stencil_program([1, 2]),
                          {"x": client.encrypt_blob(vec)})
        [probe] = serve(server, [good])
        got = client.decrypt_blob(probe.outputs["out"])
        assert np.max(np.abs(got - stencil_reference(vec, [1, 2]))) < 1e-6
        assert server.health()["tenants"]["alice"]["state"] == "closed"
        server.shutdown()

    def _half_open_server(self, make_server, make_client, **config):
        """alice's breaker tripped and cooled down: her next submit is
        handed the half-open probe slot."""
        server = make_server(config=ServiceConfig(
            supervision=quick_supervision(),
            breaker=BreakerConfig(threshold=1, cooldown_s=0.05), **config))
        alice = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=alice.relin_blob(),
                             galois=alice.galois_blob({1, 2}))
        [bad] = serve(server, [self._failing_request(alice)])
        assert isinstance(bad, AdmissionError)
        time.sleep(0.1)
        vec = np.full(8, 0.2)
        good = JobRequest("alice", stencil_program([1, 2], "good"),
                          {"x": alice.encrypt_blob(vec)})
        return server, alice, good, vec

    def _probe_recovers(self, server, client, good, vec):
        """The next submit probes, completes and closes the breaker."""
        [probe] = serve(server, [good])
        assert not isinstance(probe, Exception), probe
        got = client.decrypt_blob(probe.outputs["out"])
        assert np.max(np.abs(got - stencil_reference(vec, [1, 2]))) < 1e-6
        assert server.health()["tenants"]["alice"]["state"] == "closed"

    def test_refused_probe_frees_the_half_open_slot(self, make_server,
                                                     make_client):
        server, client, good, vec = self._half_open_server(
            make_server, make_client, workers=1)
        server.scheduler.config.max_queue_jobs = 0
        [refused] = serve(server, [good])  # took the probe slot, then shed
        assert isinstance(refused, Overloaded)
        assert server.health()["tenants"]["alice"]["state"] == "half_open"
        server.scheduler.config.max_queue_jobs = 256
        self._probe_recovers(server, client, good, vec)
        server.shutdown()

    def test_cancelled_probe_frees_the_half_open_slot(self, make_server,
                                                       make_client):
        # bob's stalled job holds the only worker while alice's probe
        # queues behind it; alice's submitter then gives up.
        plan = FaultPlan([FaultSpec(FaultKind.STALL, tenant="bob",
                                    stall_s=0.3)], seed=5)
        server, client, good, vec = self._half_open_server(
            make_server, make_client, workers=1, max_batch=1,
            fault_plan=plan)
        bob = make_client("bob", 22)
        server.open_session("bob")
        server.register_keys("bob", galois=bob.galois_blob({1}))
        slow = JobRequest("bob", stencil_program([1], "slow"),
                          {"x": bob.encrypt_blob(np.zeros(8))})

        async def run():
            server.scheduler.start()
            try:
                first = asyncio.ensure_future(server.scheduler.submit(slow))
                await asyncio.sleep(0.05)  # slow holds the worker
                probe = asyncio.ensure_future(server.scheduler.submit(good))
                await asyncio.sleep(0.05)
                probe.cancel()
                return await asyncio.gather(first, probe,
                                            return_exceptions=True)
            finally:
                await server.scheduler.stop()

        done, cancelled = asyncio.run(run())
        assert done.outputs["out"]
        assert isinstance(cancelled, asyncio.CancelledError)
        assert 'fhe_jobs_total{tenant="alice",outcome="cancelled"} 1' \
            in server.metrics_text()
        self._probe_recovers(server, client, good, vec)
        server.shutdown()


# ----- satellite: per-job isolation in _prepare_batch -------------------------

class TestPrepareBatchIsolation:
    def test_evicted_key_job_does_not_fail_batch_mates(
            self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=2, supervision=quick_supervision()))
        vec = np.linspace(-0.3, 0.3, 8)
        blob = client.encrypt_blob(vec)
        good = JobRequest("alice", stencil_program([1, 2], "good"),
                          {"x": blob})
        [solo] = serve(server, [good])  # fault-free reference bytes

        evicted = server.registry.evict_tenant_galois("alice",
                                                      amounts=[5])
        assert evicted == 1
        needs5 = JobRequest("alice", stencil_program([5, 6], "needs5"),
                            {"x": blob})
        results = serve(server, [needs5, good])
        assert isinstance(results[0], AdmissionError)
        assert "re-upload" in str(results[0])
        assert results[1].outputs["out"] == solo.outputs["out"]

    def test_reupload_after_eviction_restores_service(
            self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=1, supervision=quick_supervision()))
        server.registry.evict_tenant_galois("alice")
        vec = np.full(8, 0.1)
        request = JobRequest("alice", stencil_program([1, 2]),
                             {"x": client.encrypt_blob(vec)})
        [rejected] = serve(server, [request])
        assert isinstance(rejected, AdmissionError)
        server.register_keys("alice",
                             galois=client.galois_blob({1, 2}))
        [ok] = serve(server, [request])
        got = client.decrypt_blob(ok.outputs["out"])
        assert np.max(np.abs(got - stencil_reference(vec, [1, 2]))) < 1e-6


# ----- satellite: deterministic drain on stop ---------------------------------

class TestStopDrain:
    def test_stop_drains_every_admitted_job(self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=2, supervision=quick_supervision()))
        blob = client.encrypt_blob(np.linspace(-0.2, 0.2, 8))
        requests = [JobRequest("alice", stencil_program([1 + i % 4],
                                                        f"d{i}"),
                               {"x": blob}) for i in range(5)]

        async def submit_then_stop():
            server.scheduler.start()
            tasks = [asyncio.ensure_future(server.scheduler.submit(r))
                     for r in requests]
            await asyncio.sleep(0)  # every job is now enqueued
            await server.scheduler.stop()  # must drain, not drop
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(submit_then_stop())
        assert all(not isinstance(r, Exception) for r in results)
        assert server.scheduler.stats()["jobs_completed"] == 5

    def test_submit_after_stop_raises_scheduler_stopped(
            self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=1, supervision=quick_supervision()))
        request = JobRequest("alice", stencil_program([1]),
                             {"x": client.encrypt_blob(np.zeros(8))})

        async def stop_then_submit():
            server.scheduler.start()
            await server.scheduler.stop()
            await server.scheduler.submit(request)

        with pytest.raises(SchedulerStopped):
            asyncio.run(stop_then_submit())

    def test_submit_racing_stop_is_rejected_not_hung(self,
                                                     faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=1, supervision=quick_supervision()))
        request = JobRequest("alice", stencil_program([1]),
                             {"x": client.encrypt_blob(np.zeros(8))})

        async def race():
            server.scheduler.start()
            stopper = asyncio.ensure_future(server.scheduler.stop())
            late = asyncio.ensure_future(
                server.scheduler.submit(request))
            await stopper
            return await asyncio.gather(late, return_exceptions=True)

        [late] = asyncio.run(race())
        assert isinstance(late, SchedulerStopped)

    def test_scheduler_restarts_after_stop(self, faulted_setup):
        server, client = faulted_setup(ServiceConfig(
            workers=1, supervision=quick_supervision()))
        request = JobRequest("alice", stencil_program([1]),
                             {"x": client.encrypt_blob(np.zeros(8))})
        [first] = serve(server, [request])   # serve() stops at the end
        [second] = serve(server, [request])  # fresh start must work
        assert first.outputs["out"] == second.outputs["out"]


class TestCancelledSubmit:
    def test_job_cancelled_while_queued_is_dropped_unrun(
            self, faulted_setup):
        """A submitter cancelled while its job queues behind a stalled
        one: the job never starts, is counted once as ``cancelled``
        (with a terminal journal line), and leaves the breaker alone."""
        sink = io.StringIO()
        plan = FaultPlan([FaultSpec(FaultKind.STALL, program="slow",
                                    stall_s=0.5)], seed=5)
        server, client = faulted_setup(ServiceConfig(
            workers=1, max_batch=1, fault_plan=plan,
            events=JobJournal(sink), supervision=quick_supervision()))
        blob = client.encrypt_blob(np.zeros(8))
        slow = JobRequest("alice", stencil_program([1], "slow"),
                          {"x": blob})
        queued = JobRequest("alice", stencil_program([2], "queued"),
                            {"x": blob})

        async def run():
            server.scheduler.start()
            try:
                first = asyncio.ensure_future(server.scheduler.submit(slow))
                second = asyncio.ensure_future(
                    server.scheduler.submit(queued))
                await asyncio.sleep(0.1)  # slow runs, queued still waits
                second.cancel()
                return await asyncio.gather(first, second,
                                            return_exceptions=True)
            finally:
                await server.scheduler.stop()

        done, cancelled = asyncio.run(run())
        assert done.outputs["out"]
        assert isinstance(cancelled, asyncio.CancelledError)
        records = read_journal(io.StringIO(sink.getvalue()))
        assert validate_journal(records) == []
        events = [(r["event"], r.get("outcome")) for r in records
                  if r["program"] == "queued"]
        assert events == [("submitted", None), ("failed", "cancelled")]
        stats = server.scheduler.stats()
        assert stats["jobs_completed"] == 1
        assert stats["jobs_failed"] == stats["jobs_rejected"] == 0
        assert 'fhe_jobs_total{tenant="alice",outcome="cancelled"} 1' \
            in server.metrics_text()
        health = server.health()
        assert health["tenants"]["alice"]["consecutive_failures"] == 0
        assert health["backlog_jobs"] == 0


# ----- satellite: exact stats under concurrency -------------------------------

class TestStatsConcurrency:
    def test_counters_are_exact_for_a_32_job_run(self, make_server,
                                                 make_client):
        server = make_server(config=ServiceConfig(
            workers=4, max_batch=8, supervision=quick_supervision()))
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob(range(1, 8)))
        requests = [
            JobRequest("alice",
                       stencil_program([1 + i % 6, 2 + i % 6], f"s{i}"),
                       {"x": client.encrypt_blob(
                           np.full(8, 0.01 * (i + 1)))})
            for i in range(32)]
        results = serve(server, requests, return_exceptions=False)
        assert len(results) == 32
        stats = server.scheduler.stats()
        assert stats["jobs_completed"] == 32
        assert stats["jobs_rejected"] == 0
        assert stats["jobs_failed"] == 0
        supervisor = server.scheduler.supervisor.stats()
        assert supervisor["attempts"] == 32
        assert supervisor["successes"] == 32
        health = server.health()
        assert health["backlog_jobs"] == 0
        assert health["counters"]["jobs_completed"] == 32
        server.shutdown()


# ----- health snapshot --------------------------------------------------------

class TestHealth:
    def test_snapshot_shape_and_counters(self, faulted_setup):
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, program="j1")])
        server, client = faulted_setup(ServiceConfig(
            workers=2, fault_plan=plan,
            supervision=quick_supervision()))
        blob = client.encrypt_blob(np.zeros(8))
        requests = [JobRequest("alice", stencil_program([1], f"j{i}"),
                               {"x": blob}) for i in range(3)]
        # The crash settles first, so the clean jobs' reset of the
        # failure streak is what the snapshot shows.
        serve(server, requests[1:2])
        serve(server, requests[::2])
        health = server.health()
        for key in ("queue_depth", "backlog_jobs", "max_queue_jobs",
                    "tenants", "counters", "registry"):
            assert key in health, key
        counters = health["counters"]
        assert counters["jobs_completed"] == 2
        assert counters["jobs_failed"] == 1
        assert counters["attempts"] == 3
        assert health["tenants"]["alice"]["consecutive_failures"] == 0
        assert health["registry"]["tenants"] == 1
