"""Randomized serving tier: knobs x faults, five invariants per example.

Hypothesis draws the scheduler knobs (``optimize``, ``workers`` in
{1, 2, 3}, ``max_batch`` — 1, the no-sharing reference, half the
time — and admission on/off), a batch of
jobs — each with its own program name, its own rotation amount, a drawn
share of two common rotation amounts, an optional HMult, and one of two
input blobs — and a :class:`FaultPlan` of up to three faults aimed at
single jobs (CRASH, TRANSIENT, CORRUPT_BLOB, MISPRICE, EVICT_KEYS of
the job's own amount, and a STALL either well under or past the
deadline floor).
Every example then checks:

1. every future settles, with a :class:`JobResult` or an error the
   fault plan explains;
2. every job with no fault in ``plan.injected`` completes, and every
   completed job is byte-identical to a direct ``execute()`` of the
   same plan under the same planner config;
3. ``stats()`` outcome counts equal the settled futures;
4. no ``fhe-worker`` thread outlives ``shutdown()``;
5. the ledgers agree: the job journal has exactly one terminal line
   per job, whose outcome matches its future, and its ``started`` +
   ``retried`` lines equal the supervisor's ``attempts`` count.

A STALL past the floor times its own attempts out, and nothing else:
an attempt's deadline starts when a worker picks it up, and a
timed-out stall frees its pool slot at once, so a batch-mate queued
behind it keeps its full deadline (invariant 2 holds for it).  The
deterministic timeout tests are in ``test_faults.py``.

Keygen is session-scoped (``make_client``), reference outputs are
cached per (program, optimize), and each example builds a fresh server
on the shared ring.  A short smoke runs in every tier; the wider sweep
is ``slow``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import JobJournal, read_journal
from repro.runtime import PlannerConfig, Program, execute, plan_program
from repro.service import (
    AdmissionError,
    DeadlineExceeded,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedTransient,
    JobRequest,
    JobResult,
    KeyEvictedError,
    ServiceConfig,
    SupervisionConfig,
    WireError,
)
from repro.service import wire
from repro.service.server import FheServer

COMMON = ((), (1,), (2,), (1, 2))   #: rotation amounts jobs may share
MAX_JOBS = 5                        #: job i owns rotation amount 3 + i
FAULT_KINDS = (FaultKind.CRASH, FaultKind.TRANSIENT, FaultKind.CORRUPT_BLOB,
               FaultKind.MISPRICE, FaultKind.EVICT_KEYS, FaultKind.STALL)
#: what a failed future may hold — each one an injected fault's outcome
FAULT_ERRORS = (InjectedCrash, InjectedTransient, WireError,
                KeyEvictedError, AdmissionError, DeadlineExceeded)
DEADLINE_FLOOR_S = 0.5
#: a latency blip, or a hang that outlives the deadline floor
STALLS = (0.02, DEADLINE_FLOOR_S + 0.1)


@dataclasses.dataclass(frozen=True)
class JobShape:
    common: tuple[int, ...]
    square: bool
    blob: int                        #: which of the two input blobs


def job_program(index: int, shape: JobShape) -> Program:
    prog = Program(n_slots=8, name=f"j{index}")
    x = prog.input("x")
    acc = x * 0.5
    for amount in shape.common + (3 + index,):
        acc = acc + x.rotate(amount) * 0.25
    if shape.square:
        acc = acc * x
    prog.output("out", acc)
    return prog


@st.composite
def serving_cases(draw):
    n_jobs = draw(st.integers(2, MAX_JOBS))
    shapes = [JobShape(draw(st.sampled_from(COMMON)), draw(st.booleans()),
                       draw(st.integers(0, 1))) for _ in range(n_jobs)]
    specs = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        target = draw(st.integers(0, n_jobs - 1))
        specs.append(FaultSpec(
            kind, tenant="alice", program=f"j{target}",
            after=draw(st.integers(0, 1)), times=draw(st.integers(1, 3)),
            stall_s=draw(st.sampled_from(STALLS)),
            factor=draw(st.sampled_from([0.5, 1e12])),
            amounts=(3 + target,)))
    config = ServiceConfig(
        workers=draw(st.integers(1, 3)),
        max_batch=draw(st.one_of(st.just(1), st.integers(2, 6))),
        optimize=draw(st.booleans()),
        max_job_seconds=draw(st.sampled_from([None, 10.0])),
        supervision=SupervisionConfig(
            deadline_multiplier=0.0, deadline_floor_s=DEADLINE_FLOOR_S,
            max_retries=2,
            backoff_base_s=0.005, backoff_cap_s=0.01, seed=3))
    return config, shapes, FaultPlan(specs, seed=draw(st.integers(0, 99)))


@pytest.fixture(scope="session")
def fuzz_env(make_client, small_ring):
    """The tenant's key blobs, two input blobs, and a reference cache."""
    client = make_client("alice", 11)
    keys = dict(relin=client.relin_blob(),
                galois=client.galois_blob(range(1, 3 + MAX_JOBS)))
    blobs = [client.encrypt_blob(np.linspace(-0.4, 0.4, 8)),
             client.encrypt_blob(np.linspace(0.3, -0.2, 8))]
    return keys, blobs, {}


def reference_blob(server: FheServer, env, index: int, shape: JobShape,
                   optimize: bool) -> bytes:
    """Direct ``execute()`` of the job's plan, cached across examples."""
    _, blobs, cache = env
    key = (index, shape, optimize)
    if key not in cache:
        config = dataclasses.replace(PlannerConfig.from_ring(server.ring),
                                     fuse_rotate_reduce=optimize)
        plan = plan_program(job_program(index, shape), config)
        ct = wire.deserialize_ciphertext(blobs[shape.blob], server.ring)
        outputs = execute(plan, server.registry.session("alice").evaluator,
                          {"x": ct})
        cache[key] = wire.serialize_ciphertext(outputs["out"],
                                               server.ring.params)
    return cache[key]


def fhe_workers() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name.startswith("fhe-worker") and t.is_alive()}


def check_serving_invariants(case, env, small_params, small_ring) -> None:
    config, shapes, plan = case
    keys, blobs, _ = env
    before = fhe_workers()
    sink = io.StringIO()
    server = FheServer(small_params, config=dataclasses.replace(
        config, fault_plan=plan, events=JobJournal(sink)), ring=small_ring)
    server.open_session("alice")
    server.register_keys("alice", **keys)
    references = [reference_blob(server, env, i, shape, config.optimize)
                  for i, shape in enumerate(shapes)]
    requests = [JobRequest("alice", job_program(i, shape),
                           {"x": blobs[shape.blob]})
                for i, shape in enumerate(shapes)]

    async def run():
        server.scheduler.start()
        try:
            return await asyncio.wait_for(asyncio.gather(
                *(server.scheduler.submit(r) for r in requests),
                return_exceptions=True), timeout=60.0)
        finally:
            await server.scheduler.stop()

    try:
        settled = asyncio.run(run())
        stats = server.scheduler.stats()
    finally:
        server.shutdown()
    attempts = server.scheduler.supervisor.stats()["attempts"]

    faulted = {program for _, _, program in plan.injected}
    for i, outcome in enumerate(settled):                      # (1), (2)
        if isinstance(outcome, JobResult):
            assert outcome.outputs["out"] == references[i], f"j{i}"
        else:
            assert isinstance(outcome, FAULT_ERRORS), repr(outcome)
            assert f"j{i}" in faulted, (f"j{i}", outcome, plan.injected)
    completed = sum(isinstance(o, JobResult) for o in settled)  # (3)
    assert stats["jobs_completed"] == completed
    assert stats["jobs_failed"] + stats["jobs_rejected"] \
        == len(settled) - completed
    assert stats["jobs_overloaded"] == stats["jobs_shed"] == 0
    assert not fhe_workers() - before                           # (4)
    records = read_journal(io.StringIO(sink.getvalue()))        # (5)
    terminal = {}
    for record in records:
        if record["event"] in ("completed", "failed"):
            assert record["program"] not in terminal, record
            terminal[record["program"]] = record["event"]
    assert terminal == {
        f"j{i}": "completed" if isinstance(o, JobResult) else "failed"
        for i, o in enumerate(settled)}
    assert sum(r["event"] in ("started", "retried") for r in records) \
        == attempts


@settings(max_examples=8, deadline=None)
@given(case=serving_cases())
def test_serving_invariants_smoke(case, fuzz_env, small_params,
                                  small_ring):
    check_serving_invariants(case, fuzz_env, small_params, small_ring)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(case=serving_cases())
def test_serving_invariants_sweep(case, fuzz_env, small_params,
                                  small_ring):
    check_serving_invariants(case, fuzz_env, small_params, small_ring)
