"""Run one workload: set up, measure, check outputs, compute metrics.

Untraced runs produce the end-to-end metrics; traced runs produce the
per-layer metrics and never feed an end-to-end number.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.ckks import modmath
from repro.obs import kernel as obs_kernel
from repro.service import wire

from fhebench import benchstats, catalog, hostspeed, layers, loadgen, \
    workloads

#: Set-ups per run; the median is ``setup_s``.  All but one run in fresh
#: interpreters and the last in this process before it has set anything
#: up, so every sample pays cold process caches.
SETUP_SAMPLES = 3
#: Backlog drains per untraced served run; ``jobs_per_s`` is the jobs of
#: all drains over their summed drain time.
DRAINS = 5
#: Host-speed canary samples right after each bootstrap set-up.
SETUP_CANARY = 5
#: Closed-loop bootstrap rate measured on a 2-vCPU Xeon VM (native
#: backend).  It fixes the tail percentile for a given run length, so
#: the metric keeps its meaning when the code gets faster or slower.
BOOT_CALLS_PER_S = 1.75


class BenchmarkError(RuntimeError):
    """A check failed: the run must not print a result."""


# ----- host stamp and baseline guard -------------------------------------------

def host_stamp() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "modmath_backend": modmath.active_backend()}


def _json_lines(path: Path) -> list[dict]:
    out = []
    for line in path.read_text().splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            out.append(value)
    return out


def load_baseline(path: Path, host: dict) -> dict:
    """Metrics of a saved run, refusing one from another modmath backend."""
    lines = _json_lines(path)
    stamps = [line["host"] for line in lines if "host" in line]
    results = [line for line in lines if "metrics" in line]
    if not stamps or not results:
        raise BenchmarkError(f"{path}: not the output of a benchmark run")
    theirs = stamps[-1].get("modmath_backend")
    if theirs != host["modmath_backend"]:
        raise BenchmarkError(
            f"refusing to compare: {path} was recorded under the "
            f"{theirs!r} modmath backend, this run uses "
            f"{host['modmath_backend']!r}")
    return results[-1]["metrics"]


def compare(baseline: dict, metrics: dict) -> list[str]:
    lines = []
    for name, now in metrics.items():
        base = baseline.get(name, {}).get("value")
        if base:
            lines.append(f"{name}: {base:.6g} -> {now['value']:.6g} "
                         f"{now['unit']} ({now['value'] / base:.3f}x)")
    return lines


# ----- shared helpers ------------------------------------------------------------

def _setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--setup-only", "--workload",
         workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds one set-up of ``workload`` takes in this process (on the
    reference host for ``bootstrap``)."""
    if workload == "bootstrap":
        return _scaled_setup(workloads.setup_bootstrap(seed).setup_s)
    served = workloads.setup_served(workload, seed)
    served.server.shutdown()
    return served.setup_s


def _scaled_setup(seconds: float) -> float:
    """``seconds`` of set-up scaled by canary samples taken right after."""
    samples = [hostspeed.sample() for _ in range(SETUP_CANARY)]
    return seconds * hostspeed.factor(samples)


def _report_host(canary: list[float]) -> None:
    print(f"host speed: canary median "
          f"{statistics.median(canary) * 1e3:.3f} ms over {len(canary)} "
          f"samples, reference {hostspeed.REFERENCE_S * 1e3:.3f} ms; "
          f"compute times scaled by {hostspeed.factor(canary):.4f}",
          file=sys.stderr)


def _bits(errors: list[float]) -> float:
    worst = max(errors)
    return -math.log2(worst) if worst > 0 else 64.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(metrics: dict[str, float], units: dict[str, tuple[str, str]],
            attempted: int, failed: int, correct: bool) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]),
                               "unit": unit}
                        for name, (unit, _) in units.items()}}


def _write_trace(tracer, name: str) -> Path:
    trace = tracer.chrome_trace()
    problems = obs.validate_chrome_trace(trace)
    if problems:
        raise BenchmarkError("invalid Chrome trace: "
                             + "; ".join(problems[:5]))
    path = Path(os.environ["REPRO_NATIVE_CACHE"]) / f"trace-{name}.json"
    with open(path, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"), default=str)
    return path


def _check_identity(parts: dict[str, float]) -> None:
    """Self times plus the unattributed rest must add up to the wall."""
    total = sum(parts[f"{stem}_ms"] for stem in catalog.SELF_TIME_STEMS) \
        + parts["trace.unattributed_ms"]
    if not math.isclose(total, parts["trace.wall_ms"], rel_tol=1e-6,
                        abs_tol=1e-6):
        raise BenchmarkError(f"layer self times sum to {total} ms, "
                             f"traced wall is {parts['trace.wall_ms']} ms")


def _zero_layer_metrics() -> dict[str, float]:
    return {name: 0.0 for name in catalog.per_layer()}


# ----- bootstrap --------------------------------------------------------------------

def _closed_loop(boot: workloads.Boot, seconds: float, min_calls: int = 1,
                 canary: list[float] | None = None):
    """Bootstrap the inputs in turn, back to back, for ``seconds`` and at
    least ``min_calls`` calls: (latencies, gaps, outputs).  With
    ``canary``, a host-speed sample follows every call."""
    latencies, gaps, outputs = [], [], []
    end = time.perf_counter() + seconds
    previous = None
    while True:
        start = time.perf_counter()
        if previous is not None:
            gaps.append(start - previous)
        ct = boot.cts[len(outputs) % len(boot.cts)]
        outputs.append(boot.bootstrapper.bootstrap(ct))
        previous = time.perf_counter()
        latencies.append(previous - start)
        if canary is not None:
            canary.append(hostspeed.sample())
        if previous >= end and len(outputs) >= min_calls:
            return latencies, gaps, outputs


def _boot_errors(boot, outputs) -> list[float]:
    return [workloads.bootstrap_error(boot, call, out)
            for call, out in enumerate(outputs)]


def run_bootstrap(seed: int, seconds: float) -> dict:
    probes = [_setup_probe("bootstrap", seed)
              for _ in range(SETUP_SAMPLES - 1)]
    boot = workloads.setup_bootstrap(seed)
    setup_s = _scaled_setup(boot.setup_s)
    canary: list[float] = []
    latencies, _, outputs = _closed_loop(boot, seconds, canary=canary)
    _report_host(canary)
    # Each call is scaled by the canary sample taken right after it.
    scaled = [latency * hostspeed.factor([sample])
              for latency, sample in zip(latencies, canary)]
    errors = _boot_errors(boot, outputs)
    failed = sum(err > workloads.BOOT_TOLERANCE for err in errors)
    tail = benchstats.tail_percentile(int(seconds * BOOT_CALLS_PER_S))
    tail_ms = benchstats.percentile(scaled, tail) * 1e3
    metrics = {
        "latency_p50_ms": benchstats.percentile(scaled, 50) * 1e3,
        "latency_tail_ms": tail_ms,
        "light_latency_tail_ms": tail_ms,
        "jobs_per_s": len(scaled) / sum(scaled),
        "ok_share": 1.0 - failed / len(outputs),
        "precision_bits": _bits(errors),
        "setup_s": statistics.median(probes + [setup_s]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return _result(metrics, catalog.END_TO_END, len(outputs), failed,
                   failed == 0)


def _traced_boot_pass(boot: workloads.Boot, seconds: float):
    tracer = layers.LayerTracer()
    obs.enable()
    inst = layers.instrument(tracer)
    try:
        before = obs_kernel.snapshot()
        # Every input once, so both passes check the same outputs.
        latencies, gaps, outputs = _closed_loop(boot, seconds,
                                                len(boot.cts))
        tallies = obs_kernel.delta(before)
    finally:
        inst.restore()
        obs.disable()
    calls = len(latencies)
    counts = {f"kernel.{field}": tallies[field]
              for field in catalog.KERNEL_FIELDS}
    counts.update({f"{name}.calls": total
                   for name, total in layers.call_totals(tracer).items()})
    per_call = {}
    for name, total in counts.items():
        if total % calls:
            raise BenchmarkError(
                f"{name}: {total} over {calls} bootstraps is not the same "
                "count on every call")
        per_call[name] = total // calls
    per_call.update(layers.modmath_calls(boot.evaluator, boot.fresh))
    return tracer, latencies, gaps, outputs, per_call


def trace_bootstrap(seed: int, seconds: float) -> dict:
    boot = workloads.setup_bootstrap(seed)
    share = seconds / 3
    untraced, _, _ = _closed_loop(boot, share)
    passes = [_traced_boot_pass(boot, share) for _ in range(2)]
    errors = [_boot_errors(boot, outputs) for _, _, _, outputs, _ in passes]
    bits = [_bits(errs[:len(boot.cts)]) for errs in errors]
    (tracer, latencies, gaps, _, counts), second = passes
    if counts != second[4] or bits[0] != bits[1]:
        changed = sorted(name for name in counts
                         if counts[name] != second[4].get(name))
        raise BenchmarkError(
            "two traced runs of one seed disagree: "
            f"counts {changed}, precision {bits[0]} vs {bits[1]}")
    metrics = _zero_layer_metrics()
    parts = layers.breakdown(tracer, len(latencies))
    _check_identity(parts)
    metrics.update(parts)
    metrics.update({name: counts[name] for name in
                    ("modmath.calls_per_hmult", "modmath.calls_per_hrot")})
    metrics.update({f"kernel.{field}": counts[f"kernel.{field}"]
                    for field in catalog.KERNEL_FIELDS})
    lag_n = int(share * BOOT_CALLS_PER_S)
    metrics["loadgen.lag_tail_ms"] = benchstats.percentile(
        gaps, benchstats.tail_percentile(lag_n)) * 1e3 if gaps else 0.0
    metrics["trace.overhead_ratio"] = (statistics.mean(latencies)
                                       / statistics.mean(untraced))
    path = _write_trace(tracer, f"bootstrap-{seed}")
    print(f"chrome trace: {path}", file=sys.stderr)
    checked = errors[0] + errors[1]
    failed = sum(err > workloads.BOOT_TOLERANCE for err in checked)
    return _result(metrics, catalog.per_layer(), len(checked), failed,
                   failed == 0)


# ----- served workloads ---------------------------------------------------------------

def _verify(served: workloads.Served,
            outcomes: list[loadgen.Outcome]) -> tuple[int, list[float]]:
    """(failed count, per-job max errors) — decryption is untimed."""
    failed = 0
    errors = []
    for outcome in outcomes:
        if outcome.error is not None:
            failed += 1
            continue
        err = workloads.served_error(served, outcome.job, outcome.result)
        errors.append(err)
        if err > workloads.SERVE_TOLERANCE:
            failed += 1
    return failed, errors


def _repeat_failures(first: list[loadgen.Outcome],
                     again: list[loadgen.Outcome]) -> int:
    """Jobs of a repeated backlog whose output blobs differ from the
    first drain's (same inputs; serving is byte-deterministic)."""
    failed = 0
    for one, other in zip(first, again):
        if other.error is not None or one.error is not None \
                or other.result.outputs != one.result.outputs:
            failed += 1
    return failed


def _latency_ms(outcomes: list[loadgen.Outcome], planned: int) -> tuple:
    done = [o.latency_s for o in outcomes if o.error is None]
    tail = benchstats.tail_percentile(planned)
    return (benchstats.percentile(done, 50) * 1e3,
            benchstats.percentile(done, tail) * 1e3)


def run_served(name: str, seed: int, seconds: float) -> dict:
    probes = [_setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    served = workloads.setup_served(name, seed)
    try:
        jobs = workloads.traffic(name, served, seconds)
        backlog = workloads.backlog(name, served)
        outcomes = loadgen.run(served.server, jobs)
        drained = [loadgen.run(served.server, backlog)
                   for _ in range(DRAINS)]
    finally:
        served.server.shutdown()
    failed, errors = _verify(served, outcomes + drained[0])
    failed += sum(_repeat_failures(drained[0], again)
                  for again in drained[1:])
    attempted = len(outcomes) + DRAINS * len(backlog)
    p50, tail = _latency_ms(outcomes, len(jobs))
    light = [o for o in outcomes if o.job.light]
    _, light_tail = _latency_ms(light, sum(job.light for job in jobs))
    metrics = {
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "light_latency_tail_ms": light_tail,
        "jobs_per_s": DRAINS * len(backlog) / sum(
            loadgen.drain_seconds(outcomes) for outcomes in drained),
        "ok_share": 1.0 - failed / attempted,
        "precision_bits": _bits(errors),
        "setup_s": statistics.median(probes + [served.setup_s]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return _result(metrics, catalog.END_TO_END, attempted, failed,
                   failed == 0)


def _traced(served: workloads.Served, jobs: list) -> tuple:
    """Run ``jobs`` open-loop with every layer traced."""
    scheduler = served.server.scheduler
    tracer = layers.LayerTracer()
    scheduler.tracer = tracer
    obs.enable()
    inst = layers.instrument(tracer)
    try:
        outcomes = loadgen.run(served.server, jobs)
    finally:
        inst.restore()
        obs.disable()
        scheduler.tracer = None
    return tracer, outcomes


def _scheduler_counters(served: workloads.Served) -> dict[str, int]:
    stats = served.server.scheduler.stats()
    return {"coalesced": stats["coalesced_raises"],
            "cse": stats["cse_reuses"],
            "retries": served.server.scheduler.supervisor.stats()["retries"]}


def trace_served(name: str, seed: int, seconds: float) -> dict:
    served = workloads.setup_served(name, seed)
    try:
        jobs = workloads.traffic(name, served, seconds)
        backlog = workloads.backlog(name, served)
        untraced = [loadgen.drain_seconds(loadgen.run(served.server,
                                                      backlog))
                    for _ in range(2)]
        before = _scheduler_counters(served)
        tracer, outcomes = _traced(served, jobs)
        after = _scheduler_counters(served)
        traced = [loadgen.drain_seconds(_traced(served, backlog)[1])
                  for _ in range(2)]
        first = jobs[0]
        session = served.server.registry.session(first.request.tenant)
        probe_ct = wire.deserialize_ciphertext(
            next(iter(first.request.inputs.values())), served.server.ring)
        crossings = layers.modmath_calls(session.evaluator, probe_ct)
    finally:
        served.server.shutdown()
    units = len(outcomes)
    metrics = _zero_layer_metrics()
    parts = layers.breakdown(tracer, units)
    _check_identity(parts)
    metrics.update(parts)
    metrics.update(crossings)
    metrics.update({f"kernel.{field}": count / units for field, count
                    in layers.span_tallies(tracer).items()})
    spans = tracer.spans
    waits = [s.duration_s for s in spans if s.name == "queue_wait"
             and s.duration_s is not None]
    tail = benchstats.tail_percentile(len(jobs))
    metrics["scheduler.queue_wait_p50_ms"] = \
        benchstats.percentile(waits, 50) * 1e3
    metrics["scheduler.queue_wait_tail_ms"] = \
        benchstats.percentile(waits, tail) * 1e3
    sizes = [s.args["batch_size"] for s in spans
             if s.name == "batch_assembly"]
    metrics["scheduler.batch_size_mean"] = statistics.mean(sizes)
    hits = [bool(s.args.get("plan_cache_hit")) for s in spans
            if s.name == "admit"]
    metrics["scheduler.plan_cache_hit_ratio"] = sum(hits) / len(hits)
    metrics["scheduler.coalesced_raises_per_job"] = \
        (after["coalesced"] - before["coalesced"]) / units
    metrics["scheduler.cse_reuses_per_job"] = \
        (after["cse"] - before["cse"]) / units
    metrics["scheduler.retries_per_job"] = \
        (after["retries"] - before["retries"]) / units
    metrics["executor.ops_per_job"] = \
        sum(1 for s in spans if s.cat == "op") / units
    metrics["loadgen.lag_tail_ms"] = benchstats.percentile(
        benchstats.lags([o.due for o in outcomes],
                        [o.sent for o in outcomes]), tail) * 1e3
    metrics["trace.overhead_ratio"] = (statistics.mean(traced)
                                       / statistics.mean(untraced))
    path = _write_trace(tracer, f"{name}-{seed}")
    print(f"chrome trace: {path}", file=sys.stderr)
    failed, _ = _verify(served, outcomes)
    return _result(metrics, catalog.per_layer(), units, failed,
                   failed == 0)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "bootstrap":
        return (trace_bootstrap if trace else run_bootstrap)(seed, seconds)
    if trace:
        return trace_served(workload, seed, seconds)
    return run_served(workload, seed, seconds)
