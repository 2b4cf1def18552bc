"""Multi-tenant FHE serving demo: two clients, one shared server.

The BTS deployment shape end to end, across a (simulated) process
boundary — everything between client and server is a wire blob:

1. the server publishes its parameter set; each tenant builds the
   identical ring, generates keys locally, and uploads relin + galois
   bundles (secret keys never leave the client);
2. both tenants submit HELR-style training jobs *concurrently* (one
   encrypted logistic-regression iteration: inner products with
   rotate-reduce, polynomial sigmoid, gradient, Nesterov update), plus
   repeated stencil queries that the scheduler coalesces into shared
   hoisted rotation batches;
3. every job is priced on the BTS cycle model before running (cost
   admission), compiled plans are cached by structural hash, and each
   tenant decrypts + verifies its own results against the NumPy
   reference.

With ``--chaos`` the same traffic runs under a fixed-seed
:class:`~repro.service.faults.FaultPlan` — one worker crash, one worker
stall (a latency spike the priced deadline absorbs), one corrupted
input blob, and one transient infrastructure fault that recovers
through a backoff retry.  The injected jobs must fail (or recover)
exactly as classified, and every non-injected job must still decrypt
correctly: per-job failure isolation, demonstrated end to end.

With ``--trace out.json`` the run is observed end to end: the gated
instruments are enabled (kernel tallies + wire-codec counters), a
:class:`~repro.obs.trace.Tracer` records per-job span trees across
scheduler -> supervisor -> executor -> kernel, and the demo writes a
Chrome trace-event JSON (``chrome://tracing`` loadable), validates it
against the schema, cross-checks that every completed program has a
calibration entry in ``metrics_text()``, and asserts that every
executor op span carries the analytic ``noise_bits`` /
``headroom_bits`` numeric-health attributes — including, when composed
with ``--chaos``, the op spans of *retried* attempts.

With ``--events out.jsonl`` the scheduler writes a JSON-lines job
journal (one line per lifecycle transition: submitted, started,
retried, completed, failed); the demo validates the stream with
:func:`repro.obs.events.validate_journal` after the run.

Usage:  PYTHONPATH=src python examples/fhe_server_demo.py
            [--chaos] [--trace out.json] [--events out.jsonl]
"""

from __future__ import annotations

import asyncio
import sys
import time

import numpy as np

from repro import obs
from repro.ckks.params import CkksParams
from repro.runtime import Program
from repro.service import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FheServer,
    InjectedCrash,
    JobRequest,
    ServiceConfig,
    SupervisionConfig,
    TenantClient,
    WireError,
)
from repro.workloads.helr import HelrConfig, build_helr_program, \
    helr_program_reference

N_SLOTS = 16
HELR = HelrConfig(iterations=1, batch=4, features=3, padded_features=4,
                  sigmoid_depth=1)


def stencil_program(amounts, name):
    """A small rotation-heavy query (coalesces across jobs)."""
    prog = Program(n_slots=N_SLOTS, name=name)
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


def tenant_workload(client: TenantClient, seed: int):
    """(requests, verifier) for one tenant: 1 HELR job + 3 stencils."""
    rng = np.random.default_rng(seed)
    helr_prog = build_helr_program(HELR, N_SLOTS)
    helr_inputs = {name: rng.normal(size=N_SLOTS) * 0.2
                   for name in helr_prog.inputs}
    requests = [JobRequest(client.tenant_id, helr_prog,
                           {name: client.encrypt_blob(vec)
                            for name, vec in helr_inputs.items()})]
    vec = rng.normal(size=N_SLOTS) * 0.3
    blob = client.encrypt_blob(vec)  # one upload, three queries
    stencils = [(f"{client.tenant_id}-stencil{i}", [1 + i, 2 + i])
                for i in range(3)]
    requests += [JobRequest(client.tenant_id,
                            stencil_program(amounts, name),
                            {"x": blob})
                 for name, amounts in stencils]

    def verify_one(index: int, result) -> float:
        """Max |error| of one job's outputs vs the NumPy reference."""
        worst = 0.0
        if index == 0:
            helr_ref = helr_program_reference(helr_inputs, HELR, N_SLOTS)
            for name in ("weights", "momentum"):
                got = client.decrypt_blob(result.outputs[name])
                worst = max(worst,
                            float(np.max(np.abs(got - helr_ref[name]))))
        else:
            _, amounts = stencils[index - 1]
            got = client.decrypt_blob(result.outputs["out"])
            ref = stencil_reference(vec, amounts)
            worst = float(np.max(np.abs(got - ref)))
        return worst

    def verify(results) -> float:
        return max(verify_one(i, r) for i, r in enumerate(results))

    return requests, verify, verify_one


async def run_demo(server: FheServer, workloads,
                   return_exceptions: bool = False) -> dict[str, list]:
    """Submit every tenant's jobs concurrently through the scheduler."""
    server.scheduler.start()
    try:
        tenants = list(workloads)
        gathered = await asyncio.gather(*(
            asyncio.gather(*(server.submit(req)
                             for req in workloads[tenant][0]),
                           return_exceptions=return_exceptions)
            for tenant in tenants))
        return dict(zip(tenants, gathered))
    finally:
        await server.scheduler.stop()


CHAOS_SEED = 2022

#: program name -> the exception class its injected fault must surface
CHAOS_FAILURES = {"alice-stencil0": InjectedCrash,   # worker crash
                  "alice-stencil2": WireError}       # corrupted blob
#: program name -> minimum supervised attempts (fault recovered)
CHAOS_RECOVERIES = {"bob-stencil1": 1,   # stall absorbed by the deadline
                    "bob-stencil2": 2}   # transient, healed by a retry


def chaos_plan() -> FaultPlan:
    """Fixed-seed chaos: crash + stall + corrupt blob + transient."""
    return FaultPlan([
        FaultSpec(FaultKind.CRASH, tenant="alice",
                  program="alice-stencil0"),
        FaultSpec(FaultKind.STALL, tenant="bob",
                  program="bob-stencil1", stall_s=0.6),
        FaultSpec(FaultKind.CORRUPT_BLOB, tenant="alice",
                  program="alice-stencil2"),
        FaultSpec(FaultKind.TRANSIENT, tenant="bob",
                  program="bob-stencil2"),
    ], seed=CHAOS_SEED)


def verify_chaos(workloads, results) -> None:
    """Injected jobs fail/recover as classified; the rest verify OK."""
    for tenant, (requests, _, verify_one) in workloads.items():
        for index, (request, result) in enumerate(zip(requests,
                                                      results[tenant])):
            name = request.program.name
            expected = CHAOS_FAILURES.get(name)
            if expected is not None:
                if not isinstance(result, expected):
                    raise SystemExit(
                        f"{name}: expected {expected.__name__}, "
                        f"got {result!r}")
                print(f"  {tenant:5s} {name:18s} failed alone with "
                      f"{type(result).__name__} (as injected)")
                continue
            if isinstance(result, BaseException):
                raise SystemExit(f"{name}: non-injected job failed: "
                                 f"{result!r}")
            err = verify_one(index, result)
            if err >= 1e-2:
                raise SystemExit(f"{name}: verification failed "
                                 f"(|error| {err:.2e})")
            floor = CHAOS_RECOVERIES.get(name, 1)
            if result.attempts < floor:
                raise SystemExit(f"{name}: expected >= {floor} attempts, "
                                 f"took {result.attempts}")
            note = (f"recovered on attempt {result.attempts}"
                    if result.attempts > 1 else "OK")
            print(f"  {tenant:5s} {name:18s} |error| {err:.2e}  {note}")


def report_observability(server: FheServer, tracer, trace_path: str,
                         results: dict[str, list],
                         chaos: bool = False) -> None:
    """Write + validate the trace; cross-check calibration coverage."""
    trace = tracer.chrome_trace()
    problems = obs.validate_chrome_trace(trace)
    if problems:
        raise SystemExit("invalid trace: " + "; ".join(problems[:5]))
    events = tracer.write(trace_path)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    cats = {e["cat"] for e in spans}
    required = {"queue_wait", "batch_assembly", "supervise",
                "execute_attempt"}
    missing = required - names
    if missing:
        raise SystemExit(f"trace missing pipeline spans: "
                         f"{sorted(missing)}")
    if "op" not in cats:
        raise SystemExit("trace has no executor op spans")
    kernel_tagged = sum(
        1 for e in spans if e["cat"] == "op"
        and any(key in e["args"] for key in
                ("ntt_forward", "ntt_inverse", "bconv_calls",
                 "bconv_planes", "moddown")))
    if kernel_tagged == 0:
        raise SystemExit("no op span carries kernel tallies")
    op_spans = [e for e in spans if e["cat"] == "op"]
    bare = [e["name"] for e in op_spans
            if "headroom_bits" not in e["args"]
            or "noise_bits" not in e["args"]]
    if bare:
        raise SystemExit(f"{len(bare)} op spans lack numeric-health "
                         f"attributes (e.g. {bare[:3]})")
    attempts = [e for e in spans if e["name"] == "execute_attempt"]
    retried = [e for e in attempts if e["args"].get("attempt", 1) > 1]
    if chaos:
        if not retried:
            raise SystemExit("chaos run traced no retried attempts")
        healthy_retries = [e for e in retried
                           if "headroom_bits" in e["args"]]
        if not healthy_retries:
            raise SystemExit("no retried attempt carries headroom_bits")
    executed = {result.program_name
                for tenant_results in results.values()
                for result in tenant_results
                if not isinstance(result, BaseException)}
    summary = server.scheduler.calibration.summary()
    calibrated = {name for stats in summary.values()
                  for name in stats["programs"]}
    uncovered = executed - calibrated
    if uncovered:
        raise SystemExit(f"completed programs missing calibration "
                         f"entries: {sorted(uncovered)}")
    metrics = server.metrics_text()
    if "fhe_calibration_ratio" not in metrics:
        raise SystemExit("metrics_text() lacks the calibration block")
    print(f"\n-- observability ({trace_path}) --")
    print(f"  {events} trace events, {len(spans)} spans "
          f"({kernel_tagged} op spans carry kernel tallies), "
          f"{len(summary)} plans calibrated")
    print(f"  numeric health: {len(op_spans)} op spans carry "
          f"noise_bits/headroom_bits; {len(attempts)} attempts traced "
          f"({len(retried)} retried)")
    for stats in sorted(summary.values(), key=lambda s: s["program"]):
        print(f"  {stats['program']:18s} actual/estimate p50 "
              f"{stats['ratio_p50']:10.1f}  over {stats['count']} runs")
    print(f"  metrics_text(): {len(metrics.splitlines())} "
          "exposition lines")


def report_events(events_path: str, journal, chaos: bool,
                  counters: dict) -> None:
    """Validate the job journal, check its terminal lines against the
    ``health()`` counters, and summarize the lifecycle stream."""
    journal.close()
    records = obs.read_journal(events_path)
    problems = obs.validate_journal(records)
    if problems:
        raise SystemExit("invalid journal: " + "; ".join(problems[:5]))
    by_event: dict[str, int] = {}
    for rec in records:
        by_event[rec["event"]] = by_event.get(rec["event"], 0) + 1
    if not by_event.get("submitted") or not by_event.get("completed"):
        raise SystemExit(f"journal missing lifecycle events: {by_event}")
    if chaos and not by_event.get("failed"):
        raise SystemExit("chaos journal records no failed jobs")
    completed, failed = by_event["completed"], by_event.get("failed", 0)
    if (completed, failed) != (counters["jobs_completed"],
                               counters["jobs_failed"]
                               + counters["jobs_rejected"]) \
            or by_event["submitted"] != completed + failed:
        raise SystemExit(f"journal {by_event} disagrees with health() "
                         f"counters {counters}")
    print(f"\n-- job journal ({events_path}) --")
    print(f"  {len(records)} records valid: "
          + ", ".join(f"{k}={v}" for k, v in sorted(by_event.items())))


def _flag_value(args: list[str], flag: str) -> str | None:
    if flag not in args:
        return None
    index = args.index(flag)
    if index + 1 >= len(args):
        raise SystemExit(f"{flag} requires an output file path")
    return args[index + 1]


def main() -> None:
    args = sys.argv[1:]
    chaos = "--chaos" in args
    trace_path = _flag_value(args, "--trace")
    events_path = _flag_value(args, "--events")
    tracer = None
    if trace_path is not None:
        obs.enable()   # kernel tallies + wire counters for the spans
        tracer = obs.Tracer()
    journal = obs.JobJournal(events_path) if events_path else None
    params = CkksParams.functional(n=1 << 10, l=10, dnum=2)
    print(f"server params: N=2^10, L={params.l}, dnum={params.dnum} "
          f"(digest {params.digest[:12]}…)")
    plan = chaos_plan() if chaos else None
    server = FheServer(params, ServiceConfig(
        workers=2, max_batch=8, max_job_seconds=0.05,
        fault_plan=plan, tracer=tracer, events=journal,
        supervision=SupervisionConfig(deadline_multiplier=1e4,
                                      deadline_floor_s=30.0,
                                      max_retries=2,
                                      backoff_base_s=0.05,
                                      backoff_cap_s=0.2,
                                      seed=CHAOS_SEED)))
    if chaos:
        print(f"chaos mode: fixed-seed fault plan ({len(plan.specs)} "
              "faults armed)")
    if trace_path is not None:
        print(f"trace mode: spans + kernel tallies -> {trace_path}")
    if events_path is not None:
        print(f"events mode: job journal -> {events_path}")

    print("\n-- tenant onboarding (keys travel as wire blobs) --")
    workloads = {}
    for tenant, seed in (("alice", 7), ("bob", 13)):
        t0 = time.perf_counter()
        client = TenantClient(tenant, server.params_blob(), seed=seed,
                              ring=server.ring)
        server.open_session(tenant, client.hello_blob())
        requests, verify, verify_one = tenant_workload(client, seed)
        amounts = set()
        for req in requests:
            amounts |= req.program.required_rotations()
        galois = client.galois_blob(amounts)
        stats = server.register_keys(tenant, relin=client.relin_blob(),
                                     galois=galois)
        workloads[tenant] = (requests, verify, verify_one)
        print(f"  {tenant}: {len(galois) / 1e6:.2f} MB galois bundle, "
              f"{stats['stored']} evks stored, "
              f"{len(requests)} jobs queued "
              f"({time.perf_counter() - t0:.2f}s)")

    print("\n-- concurrent service (both tenants in flight) --")
    t0 = time.perf_counter()
    results = asyncio.run(run_demo(server, workloads,
                                   return_exceptions=chaos))
    wall = time.perf_counter() - t0
    total_jobs = sum(len(reqs) for reqs, *_ in workloads.values())
    for tenant, tenant_results in results.items():
        for request, result in zip(workloads[tenant][0], tenant_results):
            if isinstance(result, BaseException):
                print(f"  {tenant:5s} {request.program.name:18s} "
                      f"FAILED: {type(result).__name__}")
                continue
            est = (f"{result.estimated_seconds * 1e6:7.1f} us BTS est."
                   if result.estimated_seconds is not None else "")
            print(f"  {tenant:5s} {result.program_name:18s} "
                  f"{result.wall_seconds * 1e3:7.1f} ms wall  {est}"
                  f"  cache_hit={result.plan_cache_hit}"
                  f"  coalesced={result.coalesced}"
                  f"  attempts={result.attempts}")
    print(f"  {total_jobs} jobs in {wall:.2f}s "
          f"({total_jobs / wall:.1f} jobs/s)")

    print("\n-- decrypt + verify (each tenant, own secret key) --")
    if chaos:
        verify_chaos(workloads, results)
        fired = sorted(plan.injected)
        expected = sorted((spec.kind.value, spec.tenant, spec.program)
                          for spec in plan.specs)
        if fired != expected:
            raise SystemExit(f"fault plan mismatch: armed {expected}, "
                             f"fired {fired}")
        health = server.health()
        print(f"\nchaos verdict: {len(fired)} faults fired as armed; "
              "every non-injected job decrypted correctly")
        print(f"health: {health['counters']['jobs_completed']} completed, "
              f"{health['counters']['jobs_failed']} failed, "
              f"{health['counters']['jobs_rejected']} rejected, "
              f"{health['counters']['retries']} retries; breakers "
              + str({t: b['state']
                     for t, b in health['tenants'].items()}))
    else:
        for tenant, (_, verify, _one) in workloads.items():
            err = verify(results[tenant])
            status = "OK" if err < 1e-2 else "FAIL"
            print(f"  {tenant}: max |error| vs NumPy reference = "
                  f"{err:.2e}  {status}")
            if err >= 1e-2:
                raise SystemExit(f"{tenant}: verification failed")

    stats = server.stats()
    print(f"\nserver stats: {stats['scheduler']['jobs_completed']} jobs, "
          f"plan cache {stats['scheduler']['plan_cache']['hits']} hits / "
          f"{stats['scheduler']['plan_cache']['misses']} misses, "
          f"{stats['scheduler']['coalesced_raises']} coalesced raises, "
          f"{stats['registry']['galois_bytes'] / 1e6:.1f} MB galois keys "
          f"for {stats['registry']['tenants']} tenants")
    numeric = server.health()["numeric_health"]
    print("numeric health: min headroom "
          + (f"{numeric['min_headroom_bits']:.1f} bits"
             if numeric["min_headroom_bits"] is not None else "n/a")
          + f" (floor {numeric['floor_bits']} bits, "
          f"{numeric['jobs_at_risk']} jobs at risk)")
    if trace_path is not None:
        report_observability(server, tracer, trace_path, results,
                             chaos=chaos)
        obs.disable()
    if journal is not None:
        report_events(events_path, journal, chaos,
                      server.health()["counters"])
    server.shutdown()


if __name__ == "__main__":
    main()
