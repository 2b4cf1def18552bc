"""Machine-readable wall-clock benchmarks of the functional CKKS hot paths.

Times the kernel engine (NTT, HMult, HRot, CMult/CAdd, rescale,
hoisted rotation batches, small bootstrap) plus the serving layer
(wire round-trip, batched vs unbatched scheduler throughput) and writes
``BENCH_functional.json`` mapping kernel -> median seconds, so every
future PR has a perf trajectory to regress against::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke   # CI
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke --check

``--check`` compares the fresh measurements against the kernel medians
embedded in the checked-in ``BENCH_functional.json`` and exits non-zero
when any kernel regresses more than ``--tolerance`` (default 20%) — the
regression gate every perf-touching PR must pass.  The parameters mirror
``bench_functional_ckks.py``: HMult/HRot run at N=2^11, L=10, dnum=2;
the bootstrap runs the library's deepest path at N=2^9.  ``--smoke``
cuts repetitions and skips the timed bootstrap kernels so the run
finishes in seconds on CI runners (one untimed bootstrap still counts
native calls).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np


#: Seed (pre-limb-batching) medians, measured on the reference container
#: right before the batched kernel engine landed — the "before" half of
#: the perf trajectory.  Kernel -> median seconds.
SEED_BASELINE = {
    "ntt_forward_single_limb": 0.000639,
    "ntt_inverse_single_limb": 0.000654,
    "ntt_forward_batched": 0.010607,   # per-limb loop over the 17-limb base
    "ntt_inverse_batched": 0.011019,
    # The seed evaluator had no squaring shortcut, so one measurement
    # covers both the generic and the square HMult form.
    "hmult": 0.123646,
    "hmult_square": 0.123646,
    "rotate": 0.128291,
    "bootstrap_small": 3.879805,
}

#: PR-1 (limb-batched radix-2 engine) medians on the reference
#: container — the baseline the radix-4 Stockham engine is judged
#: against (>= 1.5x on the full-base forward was the acceptance bar).
PR1_BASELINE = {
    "ntt_forward_single_limb": 0.000609,
    "ntt_inverse_single_limb": 0.000657,
    "ntt_forward_batched": 0.004344,
    "ntt_inverse_batched": 0.004348,
    "hmult": 0.039347,
    "hmult_square": 0.039234,
    "rotate": 0.040891,
    "bootstrap_small": 0.759095,
}


def _median_seconds(fn, reps: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


#: BSGS-sized rotation set for the hoisting benchmark: the baby + giant
#: amounts of a 64-diagonal transform (what one CoeffToSlot level of a
#: 64-slot bootstrap streams through the key-switch path).
ROTATION_BATCH_AMOUNTS = tuple(sorted(
    {b for b in range(1, 8)} | {8 * g for g in range(1, 8)}))


def build_hmult_fixture():
    from repro.ckks.encoder import Encoder
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CkksParams, RingContext

    params = CkksParams.functional(n=1 << 11, l=10, dnum=2, scale_bits=40,
                                   q0_bits=50, p_bits=50, h=64)
    ring = RingContext(params)
    kg = KeyGenerator(ring, seed=1)
    ev = Evaluator(ring, relin_key=kg.gen_relinearization_key(),
                   rotation_keys={1: kg.gen_rotation_key(1)})
    kg.ensure_rotation_keys(ev, ROTATION_BATCH_AMOUNTS)
    enc = Encoder(ring)
    rng = np.random.default_rng(0)
    n_slots = params.slots_max
    z = rng.normal(size=n_slots) + 1j * rng.normal(size=n_slots)
    w = rng.normal(size=n_slots) + 1j * rng.normal(size=n_slots)
    ct = kg.encrypt_symmetric(enc.encode(z, 2.0 ** 40).poly, 2.0 ** 40,
                              n_slots)
    ct_other = kg.encrypt_symmetric(enc.encode(w, 2.0 ** 40).poly,
                                    2.0 ** 40, n_slots)
    return ring, kg, ev, ct, ct_other


def bench_ntt(ring, reps: int) -> dict[str, tuple[float, int]]:
    rng = np.random.default_rng(3)
    prime = ring.q_primes[0]
    single = rng.integers(0, prime.value, size=ring.n, dtype=np.uint64)
    full_base = ring.base_qp(ring.max_level)
    matrix = np.stack([rng.integers(0, p.value, size=ring.n, dtype=np.uint64)
                       for p in full_base])
    batched = ring.batched_ntt(full_base)
    return {
        "ntt_forward_single_limb":
            (_median_seconds(lambda: prime.ntt.forward(single), reps), reps),
        "ntt_inverse_single_limb":
            (_median_seconds(lambda: prime.ntt.inverse(single), reps), reps),
        "ntt_forward_batched":
            (_median_seconds(lambda: batched.forward(matrix), reps), reps),
        "ntt_inverse_batched":
            (_median_seconds(lambda: batched.inverse(matrix), reps), reps),
    }


def bench_hmult_rotate(ev, ct, ct_other,
                       reps: int) -> dict[str, tuple[float, int]]:
    # "hmult" multiplies two distinct ciphertexts — the generic path every
    # evaluator.multiply(ct0, ct1) user hits; the identity-based squaring
    # shortcut is tracked separately as "hmult_square".
    return {
        "hmult": (_median_seconds(lambda: ev.multiply(ct, ct_other), reps),
                  reps),
        "hmult_square": (_median_seconds(lambda: ev.multiply(ct, ct), reps),
                         reps),
        "rotate": (_median_seconds(lambda: ev.rotate(ct, 1), reps), reps),
    }


def bench_constants_rescale(ev, ct, ct_other,
                            reps: int) -> dict[str, tuple[float, int]]:
    """The EvalMod inner-loop ops on their own.

    ``cmult_cadd`` is one real-scalar CMult (no rescale) followed by
    one real-scalar CAdd — both per-limb residue-column passes.
    ``rescale`` drops the top prime of an unrescaled HMult product.
    """
    product = ev.multiply(ct, ct_other, rescale=False)
    return {
        "cmult_cadd": (_median_seconds(
            lambda: ev.add_scalar(ev.multiply_scalar(ct, 0.37), -1.25),
            reps), reps),
        "rescale": (_median_seconds(lambda: ev.rescale(product), reps),
                    reps),
    }


def bench_rotation_batch(ev, ct, reps: int) -> dict[str, tuple[float, int]]:
    """NTT-domain hoisted vs sequential vs fused rotation batches.

    ``rotation_batch_ntt_domain`` keeps one NTT-domain raised
    decomposition of ``ct.a`` alive for the whole batch — every
    rotation is an evaluation-point gather + evk product + ModDown
    (``Evaluator.galois_hoisted``, the production path).
    ``rotation_batch_sequential`` pays a full raise per rotation (each
    one NTT-domain internally).  Both produce bit-identical
    ciphertexts, so the ratios are pure scheduling wins — the kernels
    that gate the CoeffToSlot/SlotToCoeff baby-step path.
    ``rotation_batch_fused`` runs the same amounts as one
    ``rotate_reduce`` gather-accumulate: the whole sum pays a single
    ModDown pair, so its pairing against
    ``rotation_batch_ntt_domain`` — measured back to back in this
    process — is the optimizer's A/B evidence.
    """
    from repro.ckks.evaluator import ReduceTerm

    amounts = list(ROTATION_BATCH_AMOUNTS)
    terms = [ReduceTerm(amount=a) for a in amounts]

    def sequential():
        for amount in amounts:
            ev.rotate(ct, amount)

    return {
        "rotation_batch_ntt_domain":
            (_median_seconds(lambda: ev.galois_hoisted(ct, amounts), reps),
             reps),
        "rotation_batch_sequential":
            (_median_seconds(sequential, reps), reps),
        "rotation_batch_fused":
            (_median_seconds(lambda: ev.rotate_reduce(ct, terms), reps),
             reps),
    }


def rotation_fusion_tallies(ev, ct) -> dict:
    """Static kernel-tally A/B of the fused rotate-reduce path.

    Counts the batched-engine work (NTT passes, BConv planes, ModDowns)
    of summing all :data:`ROTATION_BATCH_AMOUNTS` rotations the unfused
    way (NTT-domain hoisted batch + adds) and as one fused
    ``rotate_reduce``.  Tallies are deterministic per code version —
    wall-clock noise cannot hide a pass-count regression — so they ship
    in the benchmark payload next to the paired medians.
    """
    from repro import obs
    from repro.ckks.evaluator import ReduceTerm
    from repro.obs import kernel as K

    amounts = list(ROTATION_BATCH_AMOUNTS)
    obs.enable()
    try:
        K.reset()
        rotations = ev.galois_hoisted(ct, amounts)
        acc = None
        for amount in amounts:
            acc = rotations[amount] if acc is None \
                else ev.add(acc, rotations[amount])
        unfused = K.snapshot()
        K.reset()
        ev.rotate_reduce(ct, [ReduceTerm(amount=a) for a in amounts])
        fused = K.snapshot()
    finally:
        obs.disable()
    return {"unfused_ntt_domain": unfused, "fused_single": fused}


#: Jobs per served window, and the worker-pool sizes the unbatched
#: window is timed at (the served-throughput worker-scaling curve).
SERVICE_WINDOW = 8
SERVICE_WORKERS = (1, 2, 4)


def bench_service(ring, reps: int
                  ) -> tuple[dict[str, tuple[float, int]], dict, dict]:
    """Serving-layer kernels: wire round-trip and scheduler throughput.

    ``service_roundtrip`` serializes + deserializes one full-level
    ciphertext (validation included: CRC, digest, residue ranges);
    ``service_roundtrip_metrics_on`` repeats it with the gated
    observability instruments enabled (:func:`repro.obs.enable`).
    After a shared warm-up the disabled and enabled reps alternate
    (which one goes first flips every pair), so warm-up and host drift
    land on both medians alike and their ratio is a paired reading of
    the instrumentation overhead (the ``--check`` gate holds it to 5%).
    ``service_throughput_batched`` / ``_unbatched`` measure one batch
    window of 8 concurrent small rotation programs submitted by one
    tenant — batched, against a *shared* input ciphertext, so the
    scheduler runs one hoisted raise for the union of all 8 jobs'
    rotation amounts; unbatched, each job against a fresh encryption of
    the same vector, so no two jobs share a value and every job pays
    its own raise (and its own blob decode).  The batched
    server runs with admission pricing on, and its calibration summary
    (actual/estimate ratios per plan) is returned alongside the kernels
    for the benchmark payload.  The unbatched window is timed at each
    pool size in :data:`SERVICE_WORKERS`; the third result maps workers
    to served jobs per second (the worker-scaling curve).  Only the
    one-worker time is a gated kernel: thread scheduling on shared
    runners is too noisy for the regression gate.
    """
    from repro import obs
    from repro.runtime import Program
    from repro.service import FheServer, JobRequest, ServiceConfig
    from repro.service.server import TenantClient
    from repro.service.wire import deserialize_ciphertext, \
        serialize_ciphertext, serialize_params

    params = ring.params
    client = TenantClient("bench", serialize_params(params), seed=3,
                          ring=ring)
    n_slots = params.slots_max
    vec = np.linspace(-0.4, 0.4, n_slots)
    blob = client.encrypt_blob(vec)
    ct = deserialize_ciphertext(blob, ring)

    def roundtrip():
        deserialize_ciphertext(serialize_ciphertext(ct, params), ring)

    def timed(enabled: bool) -> float:
        if enabled:
            obs.enable()
        try:
            t0 = time.perf_counter()
            roundtrip()
            return time.perf_counter() - t0
        finally:
            obs.disable()

    # The paired overhead reading needs tighter medians than the
    # throughput kernels — the roundtrip is sub-millisecond, so extra
    # reps are cheap and damp runner noise under the 5% gate.
    rt_reps = max(reps, 300)
    for enabled in (False, True):  # shared warm-up
        timed(enabled)
    samples = {False: [], True: []}
    for rep in range(rt_reps):
        for enabled in ((False, True) if rep % 2 == 0 else (True, False)):
            samples[enabled].append(timed(enabled))
    out = {"service_roundtrip":
           (statistics.median(samples[False]), rt_reps),
           "service_roundtrip_metrics_on":
           (statistics.median(samples[True]), rt_reps)}

    def make_program(index: int) -> Program:
        amounts = [ROTATION_BATCH_AMOUNTS[(3 * index + j) % 14]
                   for j in range(3)]
        prog = Program(n_slots=n_slots, name=f"svc{index}")
        x = prog.input("x")
        acc = x * 0.5
        for amount in amounts:
            acc = acc + x.rotate(amount) * 0.25
        prog.output("out", acc)
        return prog

    shared = [JobRequest("bench", make_program(i), {"x": blob})
              for i in range(SERVICE_WINDOW)]
    fresh = [JobRequest("bench", make_program(i),
                        {"x": client.encrypt_blob(vec)})
             for i in range(SERVICE_WINDOW)]
    calibration: dict = {}
    scaling: dict = {}
    configs = [("service_throughput_batched", shared, 1)] + [
        ("service_throughput_unbatched", fresh, w) for w in SERVICE_WORKERS]
    for label, requests, workers in configs:
        server = FheServer(params, ServiceConfig(
            workers=workers, max_batch=SERVICE_WINDOW,
            max_job_seconds=1.0), ring=ring)
        server.open_session("bench")
        server.register_keys("bench", relin=client.relin_blob(),
                             galois=client.galois_blob(
                                 ROTATION_BATCH_AMOUNTS))
        seconds = _median_seconds(lambda: server.serve(requests), reps)
        if workers == 1:
            out[label] = (seconds, reps)
        if requests is shared:
            calibration = server.scheduler.calibration.summary()
        else:
            scaling[str(workers)] = round(SERVICE_WINDOW / seconds, 2)
        server.shutdown()
    return out, calibration, scaling


def bench_native_crossing(reps: int) -> dict:
    """Median microseconds of a one-element ``mul_mod``, ungated.

    The arithmetic is one word, so this is the per-call cost of getting
    into and out of the modmath kernel: dispatch plus, on the native
    backend, the array-to-C crossing.
    """
    from repro.ckks.modmath import Modulus, mul_mod

    m = Modulus((1 << 59) + 55)
    a = np.array([7], dtype=np.uint64)
    median = _median_seconds(lambda: mul_mod(a, a, m), reps, warmup=100)
    return {"median_us": round(median * 1e6, 2), "reps": reps}


def count_native_calls_per_bootstrap() -> dict | None:
    """Native library calls made by one 32-slot bootstrap, ungated.

    The ring is fhebench's ``bootstrap`` ring (N=2^9, L=14, dnum=3).
    Every call into the library looks its kernel up on ``_Handle.lib``,
    so a proxy there counts each one; ``None`` under the NumPy backend.
    """
    from repro.ckks import modmath
    from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
    from repro.ckks.encoder import Encoder
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CkksParams, RingContext
    from repro.ckks.sine import SineConfig

    handle = modmath._active_native()
    if handle is None:
        return None
    ring = RingContext(CkksParams.functional(
        n=1 << 9, l=14, dnum=3, scale_bits=40, q0_bits=52, p_bits=52,
        h=32))
    kg = KeyGenerator(ring, seed=1)
    ev = Evaluator(ring)
    bs = Bootstrapper(ev, BootstrapConfig(
        n_slots=32, sine=SineConfig(k_range=12, degree=63,
                                    double_angles=2)))
    bs.generate_keys(kg)
    z = np.linspace(-0.4, 0.4, 32) + 0j
    ct = ev.drop_to_level(kg.encrypt_symmetric(
        Encoder(ring).encode(z, 2.0 ** 40).poly, 2.0 ** 40, 32), 0)
    bs.bootstrap(ct)  # first use builds the per-level tables
    counts: Counter = Counter()
    lib = handle.lib

    class Counting:
        def __getattr__(self, name):
            counts[name] += 1
            return getattr(lib, name)

    handle.lib = Counting()
    try:
        bs.bootstrap(ct)
    finally:
        handle.lib = lib
    return {"calls": sum(counts.values()), "kernels": dict(counts)}


def bench_precision_calibration(ring, kg, ev, smoke: bool) -> dict:
    """Decrypt-probe calibration: analytic estimate vs true slot error.

    Runs the reference workloads — one HELR training iteration and a
    fused rotate-reduce stencil through the full planner/executor path,
    plus (outside ``--smoke``) a small bootstrap at N=2^9 — and, with
    the secret key in hand, measures the real decrypted error next to
    the :class:`~repro.obs.noise.NoiseTracker` estimate for the same
    output node.  The soundness contract (estimated precision <=
    measured precision, i.e. estimated noise >= true error) is
    *enforced*: an unsound estimate fails the benchmark run, so the
    committed ``precision_calibration`` payload is a checked claim, not
    a log.
    """
    from repro.ckks.encoder import Encoder
    from repro.obs.noise import NoiseTracker, PrecisionProbe
    from repro.runtime import Program
    from repro.runtime.executor import execute
    from repro.runtime.planner import PlannerConfig, plan_program
    from repro.workloads.helr import HelrConfig, build_helr_program, \
        helr_program_reference

    enc = Encoder(ring)
    tracker = NoiseTracker.from_ring(ring)
    probe = PrecisionProbe(ev, kg.secret, tracker)
    rng = np.random.default_rng(17)
    scale = 2.0 ** ring.params.scale_bits
    n_slots = 16

    def run_and_probe(prefix: str, prog: Program, inputs: dict,
                      references: dict, fuse: bool = False) -> None:
        plan = plan_program(prog, dataclasses.replace(
            PlannerConfig.from_ring(ring), fuse_rotate_reduce=fuse))
        if fuse and not plan.fusions:
            raise AssertionError(f"{prefix}: the probe planned no fusion")
        kg.ensure_rotation_keys(ev, plan.required_rotations())
        cts = {name: kg.encrypt_symmetric(
                   enc.encode(np.asarray(vec, dtype=np.complex128),
                              scale).poly, scale, n_slots)
               for name, vec in inputs.items()}
        outputs = execute(plan, ev, cts)
        profile = tracker.profile(plan)
        for name, ct_out in outputs.items():
            probe.record(f"{prefix}_{name}", ct_out, references[name],
                         profile.outputs[name].estimate())

    helr_cfg = HelrConfig(iterations=1, batch=4, features=3,
                          padded_features=4, sigmoid_depth=1)
    helr_prog = build_helr_program(helr_cfg, n_slots)
    helr_inputs = {name: rng.normal(size=n_slots) * 0.2
                   for name in helr_prog.inputs}
    run_and_probe("helr", helr_prog, helr_inputs,
                  helr_program_reference(helr_inputs, helr_cfg, n_slots))

    # The stencil's rotation sum fuses into one rotate_reduce (single
    # shared ModDown); the tracker scores the *unfused* graph, so this
    # workload checks that the unfused walk upper-bounds the fused run.
    amounts = [1, 2, 4, 8]
    stencil = Program(n_slots=n_slots, name="rotate_reduce")
    x = stencil.input("x")
    acc = x * 0.5
    for amount in amounts:
        acc = acc + x.rotate(amount) * 0.25
    stencil.output("out", acc)
    vec = rng.normal(size=n_slots) * 0.3
    ref = vec * 0.5
    for amount in amounts:
        ref = ref + np.roll(vec, -amount) * 0.25
    run_and_probe("fused_rotate_reduce", stencil, {"x": vec},
                  {"out": ref}, fuse=True)

    if not smoke:
        from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.keys import KeyGenerator
        from repro.ckks.params import CkksParams, RingContext
        from repro.ckks.sine import SineConfig

        bparams = CkksParams.functional(n=1 << 9, l=14, dnum=3,
                                        scale_bits=40, q0_bits=52,
                                        p_bits=52, h=32)
        bring = RingContext(bparams)
        bkg = KeyGenerator(bring, seed=2)
        bev = Evaluator(bring)
        bs = Bootstrapper(bev, BootstrapConfig(
            n_slots=4, sine=SineConfig(k_range=12, degree=63,
                                       double_angles=2)))
        bs.generate_keys(bkg)
        btracker = NoiseTracker.from_ring(bring)
        bprobe = PrecisionProbe(bev, bkg.secret, btracker)
        benc = Encoder(bring)
        z = np.array([0.3, -0.2, 0.1, 0.4])
        ct0 = bev.drop_to_level(
            bkg.encrypt_symmetric(benc.encode(z + 0j, 2.0 ** 40).poly,
                                  2.0 ** 40, 4), 0)
        refreshed = bs.bootstrap(ct0)
        state = btracker.estimator.drop_to_level(
            btracker.estimator.fresh(2.0 ** 40), 0)
        bprobe.record(
            "bootstrap_small", refreshed, z,
            btracker.score(btracker.estimator.bootstrap(
                state, refreshed.level, refreshed.scale,
                approx_error_bits=btracker.bootstrap_error_bits)))
        probe._records.update(bprobe.records())

    if not probe.all_sound():
        unsound = [name for name, rec in probe.records().items()
                   if not rec.sound]
        raise AssertionError(
            f"noise estimate unsound (claims more precision than "
            f"measured) for: {unsound}")
    return probe.summary()


def bench_bootstrap_small(reps: int) -> dict[str, tuple[float, int]]:
    from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
    from repro.ckks.encoder import Encoder
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CkksParams, RingContext
    from repro.ckks.sine import SineConfig

    params = CkksParams.functional(n=1 << 9, l=14, dnum=3, scale_bits=40,
                                   q0_bits=52, p_bits=52, h=32)
    ring = RingContext(params)
    kg = KeyGenerator(ring, seed=2)
    ev = Evaluator(ring)
    bs = Bootstrapper(ev, BootstrapConfig(
        n_slots=4, sine=SineConfig(k_range=12, degree=63, double_angles=2)))
    bs.generate_keys(kg)
    enc = Encoder(ring)
    z = np.array([0.3, -0.2, 0.1, 0.4])
    ct = ev.drop_to_level(
        kg.encrypt_symmetric(enc.encode(z + 0j, 2.0 ** 40).poly,
                             2.0 ** 40, 4), 0)
    result = [None]

    def run():
        result[0] = bs.bootstrap(ct)

    # warmup=1 (like every other kernel): the steady-state pipeline is
    # what the trajectory tracks; the first run additionally builds the
    # per-level stacked-NTT twiddle planes, a one-time context cost.
    out = {"bootstrap_small": (_median_seconds(run, reps, warmup=1), reps)}
    got = ev.decrypt_to_message(result[0], kg.secret)
    err = float(np.max(np.abs(got - z)))
    if err > 5e-2:  # sanity: a fast-but-wrong bootstrap must not pass
        raise AssertionError(f"bootstrap error {err} out of tolerance")

    # CoeffToSlot at 32 slots: one BSGS matrix with a 7-rotation hoisted
    # baby-step group — the direct gate on the hoisted BSGS path (the
    # 4-slot bootstrap above has only 3 baby rotations).
    bs32 = Bootstrapper(ev, BootstrapConfig(
        n_slots=32, sine=SineConfig(k_range=12, degree=63,
                                    double_angles=2)))
    bs32.generate_keys(kg)
    z32 = np.linspace(-0.4, 0.4, 32) + 0j
    ct32 = kg.encrypt_symmetric(enc.encode(z32, 2.0 ** 40).poly,
                                2.0 ** 40, 32)
    out["coeff_to_slot_32"] = (
        _median_seconds(lambda: bs32.coeff_to_slot(ct32), reps), reps)
    # The next two stages at 32 slots, each fed the previous stage's
    # output: EvalMod runs its one packed sine over 64 slots, and StC is
    # the 64-diagonal matrix that unpacks it.
    slotted32 = bs32.coeff_to_slot(ct32)
    out["eval_mod_32"] = (
        _median_seconds(lambda: bs32.eval_mod(slotted32), reps), reps)
    reduced32 = bs32.eval_mod(slotted32)
    out["slot_to_coeff_32"] = (
        _median_seconds(lambda: bs32.slot_to_coeff(reduced32), reps), reps)
    return out


def check_regressions(kernels: dict[str, tuple[float, int]],
                      baseline: dict, label: str, tolerance: float,
                      normalize_kernel: str | None = None) -> int:
    """Compare measurements against the committed kernel medians.

    Returns the number of kernels whose fresh median exceeds the
    baseline median by more than ``tolerance`` (a fraction, 0.2 = 20%).
    Kernels missing from either side are skipped (e.g. the bootstrap in
    ``--smoke`` mode).  When ``normalize_kernel`` is given, every
    measurement is rescaled by that kernel's baseline/measured ratio —
    a machine-speed canary that lets a host of different absolute speed
    (CI runners) gate on the *code* rather than the hardware.  Pick a
    kernel the change under test does not touch (the per-limb scalar
    NTT is the default canary: it is the frozen bit-identity oracle).
    """
    scale = 1.0
    if normalize_kernel is not None:
        canary_base = baseline.get(normalize_kernel, {}).get("median_s")
        canary_now = kernels.get(normalize_kernel, (None,))[0]
        if not canary_base or not canary_now:
            # A silently skipped normalization would gate raw wall-clock
            # against a different machine's baseline — fail loudly.
            sys.exit(f"--normalize-kernel {normalize_kernel!r} not "
                     f"present in both baseline and measured kernels")
        scale = float(canary_base) / canary_now
        # The canary's own normalized ratio is 1.0 by construction, and
        # a regression in code the canary shares (e.g. modmath) is
        # cancelled out — print the raw ratio so it stays visible, and
        # treat the unnormalized 20% gate as authoritative locally.
        print(f"normalizing by {normalize_kernel}: host speed factor "
              f"{1 / scale:.2f}x of baseline (raw canary ratio; "
              "canary-shared regressions are masked by design)")
    regressions = 0
    print(f"regression check vs {label} (tolerance {tolerance:.0%}):")
    for name, (value, _reps) in sorted(kernels.items()):
        base = baseline.get(name, {}).get("median_s")
        if base is None:
            print(f"  {name:28s} {value * 1e3:10.3f} ms  (no baseline)")
            continue
        ratio = value * scale / float(base)
        flag = "REGRESSION" if ratio > 1 + tolerance else "ok"
        if flag == "REGRESSION":
            regressions += 1
        print(f"  {name:28s} {value * 1e3:10.3f} ms  "
              f"{ratio:5.2f}x of {float(base) * 1e3:.3f} ms  {flag}")
    return regressions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    repo_bench = Path(__file__).resolve().parent.parent \
        / "BENCH_functional.json"
    parser.add_argument("--output", type=Path, default=repo_bench)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: fewer reps, no bootstrap")
    parser.add_argument("--reps", type=int, default=None,
                        help="override repetition count")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a kernel regresses more "
                             "than --tolerance vs the committed baseline")
    parser.add_argument("--baseline", type=Path, default=repo_bench,
                        help="baseline JSON for --check")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional slowdown before --check "
                             "fails (default 0.20)")
    parser.add_argument("--normalize-kernel", default=None,
                        metavar="KERNEL",
                        help="rescale --check comparisons by this "
                             "kernel's baseline/measured ratio (machine-"
                             "speed canary for hosts that differ from "
                             "the one that recorded the baseline)")
    parser.add_argument("--backend", default=None,
                        choices=("auto", "native", "numpy"),
                        help="force the modmath backend for this run "
                             "(native fails loudly when the extension "
                             "is unbuilt; default: the REPRO_MODMATH_"
                             "BACKEND environment selection)")
    args = parser.parse_args()

    from repro.ckks.modmath import active_backend, set_backend
    if args.backend is not None:
        set_backend(None if args.backend == "auto" else args.backend)

    # Snapshot the baseline before anything writes --output: the default
    # output path IS the committed baseline file.
    baseline_kernels = None
    if args.check:
        baseline_payload = json.loads(args.baseline.read_text())
        baseline_kernels = baseline_payload["kernels"]
        baseline_backend = baseline_payload.get("host", {}).get(
            "modmath_backend")
        if baseline_backend and baseline_backend != active_backend():
            print(f"WARNING: baseline was recorded under the "
                  f"{baseline_backend!r} modmath backend but this run "
                  f"uses {active_backend()!r} — ratios compare backends, "
                  "not code changes")

    reps = args.reps if args.reps is not None else (3 if args.smoke else 7)
    reps = max(1, reps)
    kernels: dict[str, tuple[float, int]] = {}

    ring, kg, ev, ct, ct_other = build_hmult_fixture()
    # NTT medians gate the perf acceptance, and CMult/CAdd and rescale
    # are sub-millisecond, so they get a higher default rep floor to
    # damp single-core runner noise — unless the user explicitly asked
    # for a specific count.
    ntt_reps = reps if args.reps is not None else max(reps, 21)
    kernels.update(bench_ntt(ring, ntt_reps))
    kernels.update(bench_hmult_rotate(ev, ct, ct_other, reps))
    kernels.update(bench_constants_rescale(ev, ct, ct_other, ntt_reps))
    kernels.update(bench_rotation_batch(ev, ct,
                                        max(1, reps if args.smoke
                                            else reps // 2)))
    fusion_tallies = rotation_fusion_tallies(ev, ct)
    service_kernels, service_calibration, worker_scaling = bench_service(
        ring, max(1, reps if args.smoke else reps // 2))
    kernels.update(service_kernels)
    native_crossing = bench_native_crossing(500 if args.smoke else 2000)
    native_calls = count_native_calls_per_bootstrap()
    precision_calibration = bench_precision_calibration(
        ring, kg, ev, smoke=args.smoke)
    if not args.smoke:
        kernels.update(bench_bootstrap_small(max(1, reps // 3)))

    full_base = ring.base_qp(ring.max_level)
    payload = {
        "schema": "bench_functional/v2",
        "params": {"n": 1 << 11, "l": 10, "dnum": 2,
                   "bootstrap_n": None if args.smoke else 1 << 9},
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 # which modmath dispatch path produced these medians —
                 # a baseline recorded under one backend must only gate
                 # runs of the same backend
                 "modmath_backend": active_backend(),
                 # the batched-NTT engine those medians ran on: "native"
                 # (one C call per transform), "stockham" or "per-limb"
                 "ntt_route": ring.batched_ntt(full_base).route},
        "kernels": {name: {"median_s": round(value, 6), "reps": used}
                    for name, (value, used) in kernels.items()},
        # static per-stage NumPy-dispatch / matrix-pass tallies of the
        # NTT engine on the benchmark base, so pass-count regressions
        # show up in review even when wall-clock noise hides them.
        "ntt_pass_counts": ring.batched_ntt(full_base).plan.pass_counts,
        # deterministic fused-vs-unfused kernel tallies for the
        # rotate-reduce optimizer: the pass-count side of the
        # rotation_batch_fused / rotation_batch_ntt_domain pairing,
        # immune to runner wall-clock noise
        "rotation_fusion_tallies": fusion_tallies,
        # served jobs/s of one unbatched 8-job window at 1, 2 and 4 pool
        # workers (the GIL is released only inside native kernels)
        "worker_scaling": worker_scaling,
        # median microseconds of a one-element mul_mod: the fixed cost
        # of one modmath call (a native crossing under the native backend)
        "native_crossing": native_crossing,
        # native library calls per 32-slot bootstrap of the fhebench
        # ring, by kernel (None under numpy): deterministic, ungated here
        "native_calls_per_bootstrap": native_calls,
        # actual/estimate ratio stats per plan for the batched-throughput
        # server (admission pricing on): the simulator-to-host gap the
        # serving deadline multiplier must absorb, stamped per run.
        "service_calibration": service_calibration,
        # decrypt-probe soundness evidence: per-workload analytic
        # estimate vs true decrypted error (sound == estimate claims no
        # more precision than measured); an unsound estimate fails the
        # run before this payload is written.
        "precision_calibration": precision_calibration,
        "baselines": {"seed-v0": SEED_BASELINE,
                      "pr1-batched-radix2": PR1_BASELINE},
    }
    if args.check and args.output.resolve() == args.baseline.resolve():
        # Never let the gate overwrite the baseline it compares against:
        # a failing run would replace the committed medians with the
        # regressed ones, and a re-run would then pass vacuously.
        print(f"--check: not overwriting baseline {args.output} "
              "(pass --output elsewhere to keep the measurements)")
    else:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    for name, (value, _used) in sorted(kernels.items()):
        base = SEED_BASELINE.get(name)
        speedup = f"  ({base / value:5.2f}x vs seed)" if base else ""
        print(f"  {name:28s} {value * 1e3:10.3f} ms{speedup}")
    print("precision calibration (sound: estimate <= measured bits):")
    for name, rec in sorted(precision_calibration.items()):
        print(f"  {name:28s} est {rec['estimated_precision_bits']:7.2f} "
              f"bits  measured {rec['measured_precision_bits']:7.2f} "
              f"bits  gap {rec['gap_bits']:6.2f}")

    if args.check:
        regressions = check_regressions(kernels, baseline_kernels,
                                        str(args.baseline), args.tolerance,
                                        args.normalize_kernel)
        # Paired observability-overhead gate: both medians came from
        # interleaved reps of this run (same process, same host), so
        # the ratio is the cost of the enabled instruments alone — no
        # machine-speed canary needed, and the disabled-mode fast path
        # is what the regular service_roundtrip gate above tracks
        # against the baseline.
        base = kernels.get("service_roundtrip", (0.0,))[0]
        with_metrics = kernels.get("service_roundtrip_metrics_on",
                                   (0.0,))[0]
        if base and with_metrics:
            overhead = with_metrics / base - 1.0
            verdict = "ok" if overhead <= 0.05 else "REGRESSION"
            print(f"observability overhead (paired): "
                  f"{overhead:+.1%} metrics-on vs disabled  {verdict}")
            if overhead > 0.05:
                regressions += 1
        if regressions:
            print(f"FAIL: {regressions} kernel(s) regressed "
                  f">{args.tolerance:.0%}")
            sys.exit(1)
        print("regression check passed")


if __name__ == "__main__":
    main()
