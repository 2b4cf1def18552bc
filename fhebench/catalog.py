"""Every metric the benchmark prints: name, unit, and which way is better.

``BENCHMARK.json`` at the repository root lists the same names; a unit
test keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = ("bootstrap", "serve_bursts", "serve_mixed")

#: name -> (unit, better).  Printed by every untraced run.
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "light_latency_tail_ms": ("ms", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "ok_share": ("share", "higher"),
    "precision_bits": ("bits", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Layers whose self time is reported as ``<stem>_ms`` per job (served
#: workloads) or per bootstrap.  Together with ``trace.unattributed_ms``
#: they add up to ``trace.wall_ms``.
SELF_TIME_STEMS = (
    "scheduler.queue_wait",
    "scheduler.batch_wait",
    "scheduler.worker_wait",
    "scheduler.admit",
    "wire.decode",
    "wire.encode",
    "planner.plan",
    "executor.execute",
    "bootstrap.mod_raise",
    "bootstrap.sub_sum",
    "bootstrap.coeff_to_slot",
    "bootstrap.eval_mod",
    "bootstrap.slot_to_coeff",
    "evaluator.multiply",
    "evaluator.rescale",
    "evaluator.rotate",
    "evaluator.galois_hoisted",
    "evaluator.conjugate",
    "evaluator.multiply_plain",
    "evaluator.multiply_scalar",
    "evaluator.add_scalar",
    "encoder.encode",
    "encoder.encode_scalar",
    "keyswitch.raise",
    "keyswitch.evk_product",
    "keyswitch.moddown",
    "ntt.forward",
    "ntt.inverse",
    "rns.bconv",
)

#: Layers whose call count per job (or bootstrap) is ``<stem>.calls``.
CALL_STEMS = (
    "evaluator.multiply",
    "evaluator.rescale",
    "evaluator.rotate",
    "evaluator.galois_hoisted",
    "evaluator.conjugate",
    "evaluator.multiply_plain",
    "evaluator.multiply_scalar",
    "evaluator.add_scalar",
    "encoder.encode",
    "encoder.encode_scalar",
    "keyswitch.raise",
    "keyswitch.moddown",
    "ntt.forward",
    "ntt.inverse",
    "rns.bconv",
)

#: The existing ``repro.obs.kernel`` tallies, per job or bootstrap.
KERNEL_FIELDS = ("ntt_forward", "ntt_inverse", "bconv_planes", "moddown")

_OTHER_PER_LAYER = {
    "loadgen.lag_tail_ms": ("ms", "lower"),
    "scheduler.queue_wait_p50_ms": ("ms", "lower"),
    "scheduler.queue_wait_tail_ms": ("ms", "lower"),
    "scheduler.batch_size_mean": ("count", "higher"),
    "scheduler.plan_cache_hit_ratio": ("ratio", "higher"),
    "scheduler.coalesced_raises_per_job": ("count", "higher"),
    "scheduler.cse_reuses_per_job": ("count", "higher"),
    "scheduler.retries_per_job": ("count", "lower"),
    "executor.ops_per_job": ("count", "lower"),
    "modmath.calls_per_hmult": ("count", "lower"),
    "modmath.calls_per_hrot": ("count", "lower"),
    "trace.wall_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_share": ("share", "lower"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every metric a traced run prints."""
    out = {f"{stem}_ms": ("ms", "lower") for stem in SELF_TIME_STEMS}
    out.update({f"{stem}.calls": ("count", "lower")
                for stem in CALL_STEMS})
    out.update({f"kernel.{field}": ("count", "lower")
                for field in KERNEL_FIELDS})
    out.update(_OTHER_PER_LAYER)
    return out
