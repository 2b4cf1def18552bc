"""End-to-end observability through the serving stack.

A traced two-tenant batched run must produce a parent/child-consistent
span tree covering scheduler -> supervisor -> executor -> kernel,
calibration entries for every executed plan, per-tenant counters in the
typed health snapshot — and, with everything disabled, byte-identical
output blobs to an untraced run.
"""

from __future__ import annotations

import asyncio
import io
import re
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.obs import kernel as obs_kernel
from repro.obs.trace import Tracer, validate_chrome_trace
from repro.runtime import Program
from repro.obs.events import JobJournal, read_journal, validate_journal
from repro.service import (
    AdmissionError,
    BreakerConfig,
    CircuitOpen,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HealthSnapshot,
    InjectedCrash,
    JobRequest,
    JobResult,
    Overloaded,
    PrecisionAtRisk,
    ServiceConfig,
    SupervisionConfig,
    TenantHealth,
)

AMOUNTS = (1, 2, 3)


def stencil_program(amounts, name, n_slots=8, own_tap=None):
    """``0.5 x + 0.25 sum_a rot(x, a)``; ``own_tap`` adds
    ``rot(x * own_tap, 1)``, a term no other job computes, so a job
    sharing the rest keeps input and rotation ops of its own."""
    prog = Program(n_slots=n_slots, name=name)
    x = prog.input("x")
    acc = x * 0.5
    for amount in amounts:
        acc = acc + x.rotate(amount) * 0.25
    if own_tap is not None:
        acc = acc + (x * own_tap).rotate(1)
    prog.output("out", acc)
    return prog


def serve(server, requests, return_exceptions=True):
    async def run():
        server.scheduler.start()
        try:
            return await asyncio.gather(
                *(server.scheduler.submit(r) for r in requests),
                return_exceptions=return_exceptions)
        finally:
            await server.scheduler.stop()

    return asyncio.run(run())


def onboard(server, client, amounts=AMOUNTS):
    server.open_session(client.tenant_id, client.hello_blob())
    server.register_keys(client.tenant_id, relin=client.relin_blob(),
                         galois=client.galois_blob(amounts))


def two_tenant_requests(make_client, server):
    requests = []
    for tenant, seed in (("alice", 7), ("bob", 13)):
        client = make_client(tenant, seed)
        onboard(server, client)
        blob = client.encrypt_blob(np.linspace(-0.3, 0.3, 8))
        requests += [
            JobRequest(tenant, stencil_program(AMOUNTS, f"{tenant}-s0",
                                               own_tap=0.0625),
                       {"x": blob}),
            JobRequest(tenant, stencil_program(AMOUNTS[:2],
                                               f"{tenant}-s1",
                                               own_tap=0.125),
                       {"x": blob}),
        ]
    return requests


class TestTracedServing:
    @pytest.fixture()
    def traced_run(self, make_server, make_client, obs_disabled):
        obs.enable()
        tracer = Tracer()
        server = make_server(ServiceConfig(
            workers=2, max_batch=8, batch_window_s=0.05,
            max_job_seconds=5.0, tracer=tracer))
        requests = two_tenant_requests(make_client, server)
        results = serve(server, requests, return_exceptions=False)
        obs.disable()
        yield server, tracer, requests, results
        server.shutdown()

    def test_span_tree_covers_every_pipeline_layer(self, traced_run):
        server, tracer, requests, results = traced_run
        assert all(result.attempts == 1 for result in results)
        job_roots = [span for span in tracer.roots
                     if span.cat == "job"]
        assert {span.name for span in job_roots} == {
            f"{r.tenant}/{r.program.name}" for r in requests}
        for root in job_roots:
            names = [child.name for child in root.children]
            assert names[:1] == ["queue_wait"]
            assert "admit" in names
            assert "decode_inputs" in names
            assert "supervise" in names
            [supervise] = [c for c in root.children
                           if c.name == "supervise"]
            [attempt] = supervise.children
            assert attempt.name == "execute_attempt"
            assert attempt.args["attempt"] == 1
            ops = [c for c in attempt.children if c.cat == "op"]
            assert ops, "executor emitted no op spans"
            op_names = {op.name for op in ops}
            assert "input" in op_names
            assert "hrot" in op_names
            # kernel layer: executor ops that did kernel work carry the
            # tally deltas (constant encode = one NTT pass per limb)
            assert any("ntt_forward" in op.args for op in ops)
            for op in ops:
                if op.name == "hrot":
                    assert "rotation" in op.args
            # every span is closed — no unfinished leftovers
            for span in [root, supervise, attempt, *ops]:
                assert span.t1 is not None
        batch_roots = [span for span in tracer.roots
                       if span.name == "batch_assembly"]
        assert batch_roots
        assert sum(span.args["admitted"] for span in batch_roots) \
            == len(requests)
        # both tenants rotate distinct blobs, so each tenant's two jobs
        # merge into one window plan — and the hoisted galois raise
        # done there carries the kernel deltas of the rotations the
        # seeded jobs consequently skip
        group_spans = [child for span in batch_roots
                       for child in span.children
                       if child.name == "coalesce_group"]
        assert {span.args["tenant"] for span in group_spans} \
            == {"alice", "bob"}
        for group in group_spans:
            assert group.args["members"] == 2
            assert group.args["ntt_forward"] > 0
            assert group.args["moddown"] > 0

    def test_every_op_span_scores_numeric_health(self, traced_run):
        """Each executed op span carries the analytic noise state, and
        each completed attempt the terminal headroom."""
        _, tracer, _, results = traced_run
        attempts = ops = 0
        for root in [s for s in tracer.roots if s.cat == "job"]:
            [supervise] = [c for c in root.children
                           if c.name == "supervise"]
            for attempt in supervise.children:
                assert attempt.args["headroom_bits"] > 0
                attempts += 1
                for op in [c for c in attempt.children
                           if c.cat == "op"]:
                    assert "noise_bits" in op.args
                    assert "headroom_bits" in op.args
                    ops += 1
        assert attempts == len(results) and ops > 0
        # the span tag agrees with the JobResult the tenant saw
        for result in results:
            assert result.headroom_bits is not None
            assert result.precision_at_risk is None

    def test_chrome_export_is_schema_valid(self, traced_run, tmp_path):
        _, tracer, _, _ = traced_run
        trace = tracer.chrome_trace()
        assert validate_chrome_trace(trace) == []
        path = tmp_path / "serving_trace.json"
        assert tracer.write(path) == len(trace["traceEvents"])

    def test_metrics_text_reports_every_plan_calibration(
            self, traced_run):
        server, _, requests, _ = traced_run
        summary = server.scheduler.calibration.summary()
        calibrated = {name for stats in summary.values()
                      for name in stats["programs"]}
        assert {r.program.name for r in requests} <= calibrated
        text = server.metrics_text()
        assert 'fhe_jobs_total{tenant="alice",outcome="completed"} 2' \
            in text
        assert 'fhe_jobs_total{tenant="bob",outcome="completed"} 2' \
            in text
        assert "fhe_plan_cache_total" in text
        assert "fhe_calibration_ratio" in text
        assert "fhe_job_queue_wait_seconds_count" in text
        # the gated wire-codec counters were live during the run
        assert 'fhe_wire_blobs_total{kind="CIPHERTEXT",' in text

    def test_health_is_typed_with_tenant_and_cache_counters(
            self, traced_run):
        server, _, _, _ = traced_run
        snapshot = server.scheduler.health()
        assert isinstance(snapshot, HealthSnapshot)
        assert isinstance(snapshot.tenants.get("alice"), TenantHealth)
        assert snapshot.tenants["alice"].jobs_completed == 2
        assert snapshot.tenants["bob"].jobs_completed == 2
        health = server.health()
        # original dict shape preserved (the PR-6 contract)...
        for key in ("queue_depth", "backlog_jobs", "max_queue_jobs",
                    "tenants", "counters", "registry"):
            assert key in health
        assert health["counters"]["jobs_completed"] == 4
        assert health["tenants"]["alice"]["consecutive_failures"] == 0
        # ...and the additive observability fields ride along
        assert health["tenants"]["alice"]["jobs_completed"] == 2
        # 4 structurally distinct programs -> 2 unique plans, reused
        # across tenants: hits + misses == lookups, misses == plans
        assert health["plan_cache"]["misses"] == 2
        assert health["plan_cache"]["hits"] == 2
        assert health["calibration"]["plans"] == 2
        assert health["calibration"]["records"] == 4


class TestCalibrationBound:
    def test_calibration_is_evicted_with_its_plan(self, make_server,
                                                 make_client):
        """Six programs through a 2-plan cache leave <= 2 entries."""
        server = make_server(ServiceConfig(max_job_seconds=5.0))
        server.scheduler.plan_cache.capacity = 2
        client = make_client("alice", 7)
        onboard(server, client)
        blob = client.encrypt_blob(np.linspace(-0.3, 0.3, 8))
        for index in range(6):
            prog = stencil_program(AMOUNTS, f"p{index}",
                                   own_tap=0.0625 * (index + 1))
            [result] = serve(server, [JobRequest("alice", prog,
                                                 {"x": blob})])
            assert isinstance(result, JobResult)
        calibration = server.scheduler.calibration
        assert server.scheduler.plan_cache.stats()["entries"] == 2
        assert calibration.stats()["records"] == 6
        assert 1 <= calibration.stats()["plans"] <= 2
        summary = calibration.summary()
        assert len(summary) <= 2
        assert "p5" in {name for stats in summary.values()
                        for name in stats["programs"]}
        series = [line for line in server.metrics_text().splitlines()
                  if line.startswith("fhe_calibration_ratio_count{")]
        assert 1 <= len(series) <= 2
        server.shutdown()


class TestRetrySpans:
    def test_backoff_is_recorded_with_attempt_and_delay(
            self, make_server, make_client):
        tracer = Tracer()
        plan = FaultPlan([FaultSpec(FaultKind.TRANSIENT, tenant="alice",
                                    program="flaky")], seed=11)
        server = make_server(ServiceConfig(
            workers=1, tracer=tracer, fault_plan=plan,
            supervision=SupervisionConfig(
                deadline_multiplier=0.0, deadline_floor_s=10.0,
                max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.02,
                seed=7)))
        client = make_client("alice", 7)
        onboard(server, client)
        request = JobRequest("alice", stencil_program((1,), "flaky"),
                             {"x": client.encrypt_blob(np.ones(8) * 0.1)})
        [result] = serve(server, [request], return_exceptions=False)
        server.shutdown()
        assert result.attempts == 2
        [root] = [s for s in tracer.roots if s.cat == "job"]
        [supervise] = [c for c in root.children if c.name == "supervise"]
        assert supervise.args["attempts"] == 2
        names = [c.name for c in supervise.children]
        assert names == ["execute_attempt", "retry_backoff",
                         "execute_attempt"]
        first, backoff, second = supervise.children
        assert first.args["error"] == "InjectedTransient"
        assert backoff.args["retry"] == 1
        assert backoff.args["error"] == "InjectedTransient"
        assert 0.0 <= backoff.args["delay_s"] <= 0.02
        assert backoff.duration_s >= backoff.args["delay_s"] * 0.5
        assert second.args["attempt"] == 2
        assert "error" not in second.args


class TestDisabledModeIdentity:
    def test_untraced_disabled_run_is_byte_identical(
            self, make_server, make_client, obs_disabled):
        """Tracing + gated instruments must never change a result bit."""
        client = make_client("alice", 7)
        blob = client.encrypt_blob(np.linspace(-0.2, 0.2, 8))
        request = JobRequest("alice", stencil_program(AMOUNTS, "ident"),
                             {"x": blob})

        def run_once(config):
            server = make_server(config)
            onboard(server, client)
            [result] = serve(server, [request], return_exceptions=False)
            server.shutdown()
            return result.outputs

        plain = run_once(ServiceConfig(workers=1, max_job_seconds=5.0))
        obs.enable()
        traced = run_once(ServiceConfig(workers=1, max_job_seconds=5.0,
                                        tracer=Tracer()))
        obs.disable()
        assert plain.keys() == traced.keys()
        for name in plain:
            assert plain[name] == traced[name]

    def test_kernel_tallies_are_inert_when_disabled(self, small_ring,
                                                    obs_disabled):
        obs_kernel.reset()
        prime = small_ring.q_primes[0]
        data = np.arange(small_ring.n, dtype=np.uint64) % prime.value
        prime.ntt.forward(data)
        prime.ntt.inverse(data)
        assert all(count == 0 for count in obs_kernel.snapshot().values())

    def test_kernel_tallies_count_when_enabled(self, small_ring,
                                               obs_disabled):
        obs.enable()
        obs_kernel.reset()
        prime = small_ring.q_primes[0]
        data = np.arange(small_ring.n, dtype=np.uint64) % prime.value
        before = obs_kernel.snapshot()
        prime.ntt.forward(data)
        prime.ntt.forward(data)
        prime.ntt.inverse(data)
        delta = obs_kernel.delta(before)
        assert delta["ntt_forward"] == 2
        assert delta["ntt_inverse"] == 1
        base = small_ring.base_qp(small_ring.max_level)
        matrix = np.stack([np.arange(small_ring.n, dtype=np.uint64)
                           % p.value for p in base])
        before = obs_kernel.snapshot()
        small_ring.batched_ntt(base).forward(matrix)
        assert obs_kernel.delta(before)["ntt_forward"] == len(base)
        obs.disable()


class TestNumericHealthServing:
    """The noise axis through the serving layer: headroom scoring,
    PrecisionAtRisk surfacing, journal lifecycle, memory gauges."""

    def run_jobs(self, make_server, make_client, config):
        server = make_server(config)
        client = make_client("alice", 7)
        onboard(server, client)
        blob = client.encrypt_blob(np.linspace(-0.3, 0.3, 8))
        requests = [JobRequest("alice",
                               stencil_program(AMOUNTS, f"job{i}"),
                               {"x": blob}) for i in range(2)]
        results = serve(server, requests, return_exceptions=False)
        return server, results

    def test_headroom_scored_without_tracing(self, make_server,
                                             make_client):
        """Numeric health is always on — no tracer required."""
        server, results = self.run_jobs(
            make_server, make_client,
            ServiceConfig(workers=1, max_job_seconds=5.0))
        for result in results:
            assert result.headroom_bits is not None
            assert result.headroom_bits > 0
            assert result.precision_at_risk is None
        health = server.health()
        numeric = health["numeric_health"]
        assert numeric["jobs_at_risk"] == 0
        assert numeric["min_headroom_bits"] == pytest.approx(
            min(r.headroom_bits for r in results), abs=1e-2)
        assert numeric["tenants"]["alice"] > 0
        assert health["tenants"]["alice"]["precision_at_risk"] == 0
        assert health["tenants"]["alice"]["min_headroom_bits"] > 0
        server.shutdown()

    def test_precision_at_risk_surfaces_everywhere(self, make_server,
                                                   make_client):
        """A floor above the achievable headroom trips the warning in
        the JobResult, health(), and the per-tenant counters — and the
        job still completes (non-fatal)."""
        server, results = self.run_jobs(
            make_server, make_client,
            ServiceConfig(workers=1, max_job_seconds=5.0,
                          min_headroom_bits=10_000.0))
        for result in results:
            risk = result.precision_at_risk
            assert isinstance(risk, PrecisionAtRisk)
            assert isinstance(risk, Warning)  # non-fatal by type
            assert risk.tenant == "alice"
            assert risk.floor_bits == 10_000.0
            assert risk.headroom_bits == pytest.approx(
                result.headroom_bits)
            payload = risk.as_dict()
            assert payload["worst_node"] is not None
            assert "below the" in str(risk)
            assert result.outputs  # the answer still shipped
        health = server.health()
        assert health["numeric_health"]["jobs_at_risk"] == len(results)
        assert health["counters"]["precision_at_risk_jobs"] \
            == len(results)
        assert health["tenants"]["alice"]["precision_at_risk"] \
            == len(results)
        server.shutdown()

    def test_floor_none_disables_the_check(self, make_server,
                                           make_client):
        server, results = self.run_jobs(
            make_server, make_client,
            ServiceConfig(workers=1, max_job_seconds=5.0,
                          min_headroom_bits=None))
        assert all(r.precision_at_risk is None for r in results)
        assert all(r.headroom_bits is not None for r in results)
        assert server.health()["numeric_health"]["floor_bits"] is None
        server.shutdown()

    def test_metrics_export_noise_and_memory_instruments(
            self, make_server, make_client):
        server, _ = self.run_jobs(
            make_server, make_client,
            ServiceConfig(workers=1, max_job_seconds=5.0))
        text = server.metrics_text()
        assert 'fhe_noise_headroom_bits_count{tenant="alice"} 2' in text
        assert 'fhe_noise_min_headroom_bits{tenant="alice"}' in text
        assert 'fhe_registry_bytes{tenant="alice"}' in text
        assert "fhe_plan_cache_entries 1" in text
        # the gauge agrees with the registry's own accounting
        expected = server.registry.bytes_by_tenant()["alice"]
        assert f'fhe_registry_bytes{{tenant="alice"}} {expected}' in text
        assert expected > 0
        assert server.registry.stats()["bytes_by_tenant"]["alice"] \
            == expected
        server.shutdown()

    def test_journal_records_full_lifecycle(self, make_server,
                                            make_client):
        import io

        from repro.obs.events import (JobJournal, read_journal,
                                      validate_journal)

        sink = io.StringIO()
        journal = JobJournal(sink)
        server, results = self.run_jobs(
            make_server, make_client,
            ServiceConfig(workers=1, max_job_seconds=5.0,
                          events=journal))
        records = read_journal(io.StringIO(sink.getvalue()))
        assert validate_journal(records) == []
        by_event = {}
        for rec in records:
            by_event.setdefault(rec["event"], []).append(rec)
        assert len(by_event["submitted"]) == len(results)
        assert len(by_event["started"]) == len(results)
        assert len(by_event["completed"]) == len(results)
        for rec in by_event["completed"]:
            assert rec["outcome"] == "ok"
            assert rec["headroom_bits"] > 0
            assert "precision_at_risk" not in rec  # None fields drop
        server.shutdown()

    def test_journal_records_failures(self, make_server, make_client):
        import io

        from repro.obs.events import JobJournal, read_journal

        sink = io.StringIO()
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, tenant="alice",
                                    program="doomed")], seed=3)
        server = make_server(ServiceConfig(
            workers=1, max_job_seconds=5.0, fault_plan=plan,
            events=JobJournal(sink),
            supervision=SupervisionConfig(max_retries=0,
                                          deadline_floor_s=10.0)))
        client = make_client("alice", 7)
        onboard(server, client)
        request = JobRequest("alice", stencil_program((1,), "doomed"),
                             {"x": client.encrypt_blob(np.ones(8) * 0.1)})
        [result] = serve(server, [request], return_exceptions=True)
        assert isinstance(result, Exception)
        records = read_journal(io.StringIO(sink.getvalue()))
        failed = [r for r in records if r["event"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["outcome"] == "InjectedCrash"
        server.shutdown()


class TestLedgersAgree:
    """stats(), health(), the ``fhe_jobs_total`` exposition and the
    journal are views of one ledger: they agree count for count."""

    OUTCOMES = {JobResult: "completed", InjectedCrash: "failed",
                AdmissionError: "rejected", Overloaded: "overloaded",
                CircuitOpen: "shed"}

    def test_every_surface_counts_the_same_outcomes(self, make_server,
                                                    make_client):
        sink = io.StringIO()
        plan = FaultPlan([FaultSpec(FaultKind.CRASH, tenant="bob",
                                    program="bob-crash")], seed=11)
        server = make_server(ServiceConfig(
            workers=1, max_queue_jobs=4,
            fault_plan=plan, events=JobJournal(sink),
            breaker=BreakerConfig(threshold=2, cooldown_s=60.0),
            supervision=SupervisionConfig(max_retries=0,
                                          deadline_floor_s=10.0)))
        blobs = {}
        for tenant, seed in (("alice", 7), ("bob", 13)):
            client = make_client(tenant, seed)
            onboard(server, client)
            blobs[tenant] = client.encrypt_blob(np.linspace(-0.3, 0.3, 8))

        def job(tenant, name, amounts=AMOUNTS):
            return JobRequest(tenant, stencil_program(amounts, name),
                              {"x": blobs[tenant]})

        # round 1: completed, crashed, rejected (no key for rotation 5);
        # bob's two terminal failures open his breaker ...
        results = serve(server, [
            job("alice", "a0"), job("alice", "a1"),
            job("bob", "bob-crash"), job("bob", "b-key", (5,))])
        # ... so round 2 sheds bob, and alice's 6 submits overflow the
        # 4-job queue bound by 2
        results += serve(server, [job("bob", "b-shed")]
                         + [job("alice", f"a{i}") for i in range(2, 8)])
        truth = Counter(self.OUTCOMES[type(result)] for result in results)
        assert truth == {"completed": 6, "failed": 1, "rejected": 1,
                         "overloaded": 2, "shed": 1}

        tenants = ("alice", "bob")
        stats = server.scheduler.stats()
        health = server.health()
        exposed = {(m["tenant"], m["outcome"]): int(m["value"])
                   for m in re.finditer(
                       r'^fhe_jobs_total\{tenant="(?P<tenant>\w+)",'
                       r'outcome="(?P<outcome>\w+)"\} (?P<value>\d+)$',
                       server.metrics_text(), re.MULTILINE)}
        records = read_journal(io.StringIO(sink.getvalue()))
        assert validate_journal(records) == []
        journaled = Counter()
        for rec in records:
            if rec["event"] == "completed":
                journaled[rec["tenant"], "completed"] += 1
            elif rec["event"] == "failed":
                kind = "rejected" if rec["outcome"] == "rejected" \
                    else "failed"
                journaled[rec["tenant"], kind] += 1
        for outcome, count in truth.items():
            assert stats[f"jobs_{outcome}"] == count, outcome
            assert health["counters"][f"jobs_{outcome}"] == count, outcome
            assert sum(exposed.get((tenant, outcome), 0)
                       for tenant in tenants) == count, outcome
        for tenant in tenants:
            row = health["tenants"][tenant]
            for outcome in ("completed", "failed", "rejected"):
                assert row[f"jobs_{outcome}"] \
                    == exposed.get((tenant, outcome), 0) \
                    == journaled[tenant, outcome], (tenant, outcome)
        assert sum(rec["event"] == "submitted" for rec in records) \
            == sum(journaled.values()) == 8
        assert health["tenants"]["bob"]["state"] == "open"
        server.shutdown()
