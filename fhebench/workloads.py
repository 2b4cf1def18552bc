"""The benchmark's workloads: set-up, seeded traffic, and references.

Every input vector, every program choice and the whole arrival
schedule come from the workload seed, and everything is built before
the clock starts; the server only ever sees wire blobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParams, RingContext
from repro.ckks.sine import SineConfig
from repro.runtime import Program
from repro.service import FheServer, JobRequest, ServiceConfig, TenantClient
from repro.workloads.helr import HelrConfig, build_helr_program, \
    helr_program_reference

# ----- bootstrap ------------------------------------------------------------

#: The paper's headline op at a functional size: 32 slots make
#: CoeffToSlot/SlotToCoeff run a real hoisted BSGS.
BOOT_PARAMS = dict(n=1 << 9, l=14, dnum=3, scale_bits=40, q0_bits=52,
                   p_bits=52, h=32)
BOOT_SLOTS = 32
BOOT_SINE = SineConfig(k_range=12, degree=63, double_angles=2)
#: Max |error| of a refreshed slot.  At these toy parameters a correct
#: bootstrap keeps 4.3-5 bits (errors up to about 0.05).
BOOT_TOLERANCE = 0.1
BOOT_INPUTS = 8                #: distinct level-0 inputs, bootstrapped in turn

# ----- serving --------------------------------------------------------------

SERVE_PARAMS = dict(n=1 << 11, l=10, dnum=2)
N_SLOTS = 16
SERVE_TOLERANCE = 1e-3         #: max |error| of a served output slot
#: Rotation amounts of the stencil programs tenants draw queries from.
#: Fixed, so every seed serves the same program pool and seeds differ
#: only in data, query mix and arrival jitter.
POOL_AMOUNTS = ((1, 2, 3), (1, 4, 5), (2, 6, 7), (3, 8, 9), (4, 10, 11),
                (5, 12, 13))
HELR = HelrConfig(iterations=1, batch=4, features=3, padded_features=4,
                  sigmoid_depth=1)
JITTER = 0.02                  #: arrival jitter, share of a tenant's period

#: serve_bursts: one burst per tenant per period, tenants half a period
#: apart; a burst is BURST_DISTINCT programs once plus one program
#: BURST_REPEATS times, all over one freshly uploaded ciphertext.
BURST_PERIOD_S = 1.0
BURST_DISTINCT = 4
BURST_REPEATS = 4
#: serve_mixed: per-tenant arrival rates (jobs per second).  Light
#: queries arrive LIGHT_PHASE of their period after each HELR job, so
#: one in six lands behind it and one more behind that one: the light
#: tail sits among blocked queries and the median of all jobs among
#: unblocked ones, neither on the cliff between the two.
HEAVY_RATE = 1.0
LIGHT_RATE = 6.0
LIGHT_PHASE = 0.25


@dataclass
class Job:
    """One planned submission and the outputs it must produce."""

    due: float                       #: seconds after the clock starts
    request: JobRequest
    expected: dict[str, np.ndarray]  #: output name -> NumPy reference
    light: bool                      #: counts toward the light tail


@dataclass
class Served:
    """A set-up server with its tenants and their query programs."""

    server: FheServer
    clients: dict[str, TenantClient]
    pool: list[tuple[Program, tuple[int, ...]]]
    helr: Program
    rng: np.random.Generator
    setup_s: float


@dataclass
class Boot:
    """A bootstrapper with keys, its level-0 inputs and their slots."""

    bootstrapper: Bootstrapper
    evaluator: Evaluator
    keygen: KeyGenerator
    cts: list                        #: level-0 ciphertexts to refresh
    messages: list[np.ndarray]       #: the slots each one encrypts
    fresh: object                    #: the first message at the top level
    setup_s: float


def setup_bootstrap(seed: int) -> Boot:
    """Ring, keys, input and one warm-up bootstrap (the timed set-up)."""
    rng = np.random.default_rng(seed)
    messages = [rng.uniform(-0.4, 0.4, BOOT_SLOTS) + 0j
                for _ in range(BOOT_INPUTS)]
    t0 = time.perf_counter()
    ring = RingContext(CkksParams.functional(**BOOT_PARAMS))
    keygen = KeyGenerator(ring, seed=seed)
    evaluator = Evaluator(ring)
    bootstrapper = Bootstrapper(evaluator, BootstrapConfig(
        n_slots=BOOT_SLOTS, sine=BOOT_SINE))
    bootstrapper.generate_keys(keygen)
    scale = 2.0 ** BOOT_PARAMS["scale_bits"]
    encoder = Encoder(ring)
    fresh = [keygen.encrypt_symmetric(encoder.encode(message, scale).poly,
                                      scale, BOOT_SLOTS)
             for message in messages]
    cts = [evaluator.drop_to_level(ct, 0) for ct in fresh]
    bootstrapper.bootstrap(cts[0])
    return Boot(bootstrapper, evaluator, keygen, cts, messages, fresh[0],
                time.perf_counter() - t0)


def bootstrap_error(boot: Boot, call: int, refreshed) -> float:
    """Max |error| of the ``call``-th bootstrap (inputs taken in turn)."""
    got = boot.evaluator.decrypt_to_message(refreshed, boot.keygen.secret)
    expected = boot.messages[call % len(boot.messages)]
    return float(np.max(np.abs(got - expected)))


# ----- serving workloads ------------------------------------------------------

def stencil_program(amounts: tuple[int, ...], name: str) -> Program:
    """``0.5 x + 0.25 sum_a rot(x, a)``: HRot-heavy, no HMult."""
    prog = Program(n_slots=N_SLOTS, name=name)
    x = prog.input("x")
    acc = x * 0.5
    for amount in amounts:
        acc = acc + x.rotate(amount) * 0.25
    prog.output("out", acc)
    return prog


def stencil_reference(vec: np.ndarray, amounts: tuple[int, ...]
                      ) -> np.ndarray:
    acc = vec * 0.5
    for amount in amounts:
        acc = acc + np.roll(vec, -amount) * 0.25
    return acc


def _stencil_pool() -> list[tuple[Program, tuple[int, ...]]]:
    return [(stencil_program(amounts, f"stencil{index}"), amounts)
            for index, amounts in enumerate(POOL_AMOUNTS)]


def _vector(rng: np.random.Generator, amplitude: float) -> np.ndarray:
    return rng.uniform(-amplitude, amplitude, N_SLOTS)


def _tenants(name: str) -> dict[str, str]:
    """tenant -> traffic class ("stencil" or "helr")."""
    if name == "serve_bursts":
        return {"alice": "stencil", "bob": "stencil"}
    return {"heavy": "helr", "light": "stencil"}


def setup_served(name: str, seed: int) -> Served:
    """Server, both tenants' keys, and one warm-up job per program."""
    rng = np.random.default_rng(seed)
    pool = _stencil_pool()
    helr = build_helr_program(HELR, N_SLOTS)
    t0 = time.perf_counter()
    params = CkksParams.functional(**SERVE_PARAMS)
    server = FheServer(params, ServiceConfig(workers=2))
    clients: dict[str, TenantClient] = {}
    for index, (tenant, kind) in enumerate(_tenants(name).items()):
        client = TenantClient(tenant, server.params_blob(),
                              seed=seed * 16 + index, ring=server.ring)
        server.open_session(tenant, client.hello_blob())
        programs = [helr] if kind == "helr" else [p for p, _ in pool]
        amounts = sorted(set().union(*(p.required_rotations()
                                       for p in programs)))
        server.register_keys(tenant, relin=client.relin_blob(),
                             galois=client.galois_blob(amounts))
        clients[tenant] = client
    served = Served(server, clients, pool, helr, rng, 0.0)
    warm: list[Job] = []
    for tenant, kind in _tenants(name).items():
        if kind == "helr":
            warm.append(_helr_job(served, tenant, 0.0))
        else:
            upload = _blob_for(served, tenant)
            warm += [_stencil_job(served, tenant, 0.0, program, amounts,
                                  upload, light=True)
                     for program, amounts in pool]
    server.serve([job.request for job in warm])
    served.setup_s = time.perf_counter() - t0
    return served


def _blob_for(served: Served, tenant: str) -> tuple[bytes, np.ndarray]:
    vec = _vector(served.rng, 0.5)
    return served.clients[tenant].encrypt_blob(vec), vec


def _stencil_job(served: Served, tenant: str, due: float, program: Program,
                 amounts: tuple[int, ...], upload: tuple[bytes, np.ndarray],
                 light: bool) -> Job:
    blob, vec = upload
    return Job(due, JobRequest(tenant, program, {"x": blob}),
               {"out": stencil_reference(vec, amounts)}, light)


def _helr_job(served: Served, tenant: str, due: float) -> Job:
    client = served.clients[tenant]
    vecs = {name: _vector(served.rng, 0.2) for name in served.helr.inputs}
    blobs = {name: client.encrypt_blob(vec) for name, vec in vecs.items()}
    return Job(due, JobRequest(tenant, served.helr, blobs),
               helr_program_reference(vecs, HELR, N_SLOTS), light=False)


def _jitter(served: Served, period: float) -> float:
    return float(served.rng.uniform(0.0, JITTER * period))


def _burst(served: Served, tenant: str, due: float,
           picks: list[int] | None = None) -> list[Job]:
    """Distinct programs plus repeats of one, over one fresh upload;
    the programs are drawn from the seed unless ``picks`` names them."""
    upload = _blob_for(served, tenant)
    if picks is None:
        chosen = served.rng.choice(len(served.pool), BURST_DISTINCT + 1,
                                   replace=False)
        picks = [int(chosen[0])] * BURST_REPEATS \
            + [int(c) for c in chosen[1:]]
        served.rng.shuffle(picks)
    return [_stencil_job(served, tenant, due, *served.pool[i], upload,
                         light=True) for i in picks]


def _fixed_picks(index: int) -> list[int]:
    """The ``index``-th backlog burst's programs, the same for every
    seed: which programs share rotations decides how much CSE and
    coalescing save, so a seeded mix would move capacity by seed."""
    n = len(POOL_AMOUNTS)
    repeated = index % n
    return [repeated] * BURST_REPEATS \
        + [(repeated + 1 + j) % n for j in range(BURST_DISTINCT)]


def _light_query(served: Served, tenant: str, due: float) -> Job:
    program, amounts = served.pool[int(served.rng.integers(len(
        served.pool)))]
    return _stencil_job(served, tenant, due, program, amounts,
                        _blob_for(served, tenant), light=True)


def traffic(name: str, served: Served, seconds: float) -> list[Job]:
    """The open-loop schedule for ``seconds``, sorted by due time."""
    jobs: list[Job] = []
    if name == "serve_bursts":
        for index, tenant in enumerate(served.clients):
            start = index * BURST_PERIOD_S / 2
            for k in range(int(round(seconds / BURST_PERIOD_S))):
                due = start + k * BURST_PERIOD_S \
                    + _jitter(served, BURST_PERIOD_S)
                jobs += _burst(served, tenant, due)
    else:
        for rate, make, offset in (
                (HEAVY_RATE, lambda d: _helr_job(served, "heavy", d), 0.0),
                (LIGHT_RATE, lambda d: _light_query(served, "light", d),
                 LIGHT_PHASE)):
            period = 1.0 / rate
            for k in range(int(round(seconds * rate))):
                jobs.append(make((k + offset) * period
                                 + _jitter(served, period)))
    jobs.sort(key=lambda job: job.due)
    return jobs


def backlog(name: str, served: Served) -> list[Job]:
    """A fixed backlog of the workload's own traffic, all due at once;
    only its input data comes from the seed."""
    if name == "serve_bursts":
        jobs = [job for k in range(4)
                for t, tenant in enumerate(served.clients)
                for job in _burst(served, tenant, 0.0,
                                  _fixed_picks(len(served.clients) * k + t))]
    else:
        jobs = []
        for _ in range(4):
            jobs.append(_helr_job(served, "heavy", 0.0))
            jobs += [_light_query(served, "light", 0.0)
                     for _ in range(int(LIGHT_RATE / HEAVY_RATE))]
    return jobs


def served_error(served: Served, job: Job, result) -> float:
    """Max |decrypted - reference| over the job's outputs."""
    client = served.clients[job.request.tenant]
    worst = 0.0
    for name, expected in job.expected.items():
        got = client.decrypt_blob(result.outputs[name])
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst
