"""FheServer: the serving facade, plus the client-side TenantClient SDK.

``FheServer`` owns one ring, a :class:`~repro.service.registry.KeyRegistry`
and a :class:`~repro.service.scheduler.RequestScheduler`; everything that
crosses its API boundary is a wire blob, so the whole tenant lifecycle —
handshake, key upload, job submission, result download — exercises the
same serialization path a networked deployment would:

    server = FheServer(params)
    client = TenantClient("alice", server.params_blob(), seed=7)
    server.open_session("alice", client.hello_blob())
    server.register_keys("alice", relin=client.relin_blob(),
                         galois=client.galois_blob(prog.required_rotations()))
    [result] = server.serve([JobRequest("alice", prog,
                                        {"x": client.encrypt_blob(vec)})])
    got = client.decrypt_blob(result.outputs["out"])

``TenantClient`` is the data owner's half: it holds the secret key
(which never crosses the boundary), generates upload bundles through
:class:`~repro.ckks.keys.KeyGenerator`'s dedup cache, and
encrypts/decrypts blobs.  Both sides derive the identical ring from the
parameter set (prime search is deterministic), which the params digest
in every blob enforces; in-process the client can share the server's
:class:`~repro.ckks.params.RingContext` to skip rebuilding the tables.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParams, RingContext
from repro.service import wire
from repro.service.registry import KeyRegistry, TenantSession
from repro.service.scheduler import (
    JobRequest,
    JobResult,
    RequestScheduler,
    ServiceConfig,
)


class FheServer:
    """One ring, many tenants: registry + scheduler behind a blob API."""

    def __init__(self, params: CkksParams,
                 config: ServiceConfig | None = None,
                 byte_budget: int | None = None,
                 ring: RingContext | None = None) -> None:
        if ring is not None and ring.params.digest != params.digest:
            raise ValueError("provided ring was built for different params")
        self.params = params
        self.ring = ring or RingContext(params)
        self.registry = KeyRegistry(self.ring, byte_budget=byte_budget)
        self.scheduler = RequestScheduler(self.registry, config)

    # ----- tenant lifecycle --------------------------------------------------

    def params_blob(self) -> bytes:
        """The PARAMS blob clients key-generate against (the handshake)."""
        return wire.serialize_params(self.params)

    def open_session(self, tenant_id: str,
                     params_blob: bytes | None = None) -> TenantSession:
        return self.registry.open_session(tenant_id, params_blob)

    def register_keys(self, tenant_id: str, relin: bytes | None = None,
                      galois: bytes | None = None) -> dict[str, int]:
        """Register uploaded key blobs; returns galois storage stats."""
        if relin is not None:
            self.registry.register_relin_key(tenant_id, relin)
        stats = {"stored": 0, "aliased": 0, "evicted": 0}
        if galois is not None:
            stats = self.registry.register_galois_keys(tenant_id, galois)
        return stats

    def close_session(self, tenant_id: str) -> None:
        self.registry.close_session(tenant_id)

    # ----- job submission ----------------------------------------------------

    async def submit(self, request: JobRequest) -> JobResult:
        """Async submission (scheduler must be started: ``serve`` or
        :meth:`RequestScheduler.start` inside a running loop)."""
        return await self.scheduler.submit(request)

    def serve(self, requests: list[JobRequest],
              return_exceptions: bool = False) -> list:
        """Run a batch of requests to completion (sync driver).

        Spins up the scheduler on a private event loop, submits every
        request concurrently (so batching windows can coalesce them),
        and returns results in request order.  With
        ``return_exceptions=True``, failed jobs return their exception
        instead of raising — mixed accept/reject batches stay usable.
        """
        async def run() -> list:
            self.scheduler.start()
            try:
                return await asyncio.gather(
                    *(self.scheduler.submit(r) for r in requests),
                    return_exceptions=return_exceptions)
            finally:
                await self.scheduler.stop()

        return asyncio.run(run())

    def stats(self) -> dict:
        return {"registry": self.registry.stats(),
                "scheduler": self.scheduler.stats()}

    def health(self) -> dict:
        """Degradation snapshot (see ``service/README.md``, Failure
        model): queue depth, queued + in-flight jobs against the
        ``max_queue_jobs`` bound, per-tenant circuit breaker states
        plus job counters, plan-cache and calibration stats, and
        retry/timeout/shed counters — everything an operator
        needs to see *how* the server is degrading before it stops
        serving.  The ``numeric_health`` section (see
        ``service/README.md``, Numeric health) carries the noise axis:
        the headroom floor, per-tenant worst terminal headroom, and how
        many completed jobs finished below the floor; ``registry``
        includes per-tenant resident key bytes.  The scheduler side is
        a typed :class:`~repro.service.scheduler.HealthSnapshot`; this
        endpoint flattens it to the wire-friendly dict shape."""
        health = self.scheduler.health().as_dict()
        health["registry"] = self.registry.stats()
        return health

    def metrics_text(self) -> str:
        """Prometheus text exposition: scheduler counters/histograms,
        live queue/backlog/breaker gauges, wire-codec instruments (once
        :func:`repro.obs.enable` is on), and per-plan calibration
        ratios."""
        return self.scheduler.render_metrics()

    def shutdown(self) -> None:
        self.scheduler.shutdown()


class TenantClient:
    """Client-side key custody, encryption, and blob (de)serialization."""

    def __init__(self, tenant_id: str, params_blob: bytes,
                 seed: int | None = None,
                 ring: RingContext | None = None) -> None:
        self.tenant_id = tenant_id
        self.params = wire.deserialize_params(params_blob)
        if ring is not None and ring.params.digest != self.params.digest:
            raise ValueError("shared ring does not match the handshake "
                             "params")
        self.ring = ring or RingContext(self.params)
        self.keygen = KeyGenerator(self.ring, seed=seed)
        self.encoder = Encoder(self.ring)
        self._evaluator = Evaluator(self.ring)  # decrypt-only, no keys

    # ----- key upload bundles ------------------------------------------------

    def hello_blob(self) -> bytes:
        """PARAMS blob proving which parameter set the keys target."""
        return wire.serialize_params(self.params)

    def relin_blob(self) -> bytes:
        return wire.serialize_evaluation_key(
            self.keygen.gen_relinearization_key(), self.params)

    def galois_blob(self, amounts, conjugation: bool = False) -> bytes:
        """Rotation-key bundle for a program union (deduped, cached)."""
        conj = self.keygen.gen_conjugation_key() if conjugation else None
        return wire.serialize_galois_keys(
            self.keygen.rotation_keys_for(amounts), self.params,
            conjugation_key=conj)

    # ----- data --------------------------------------------------------------

    def encrypt_blob(self, message: np.ndarray,
                     scale: float | None = None) -> bytes:
        """Encode + encrypt a slot vector and pack it for the wire."""
        message = np.asarray(message, dtype=np.complex128)
        scale = scale or 2.0 ** self.params.scale_bits
        pt = self.encoder.encode(message, scale)
        ct = self.keygen.encrypt_symmetric(pt.poly, scale, len(message))
        return wire.serialize_ciphertext(ct, self.params)

    def decrypt_blob(self, blob: bytes) -> np.ndarray:
        """Unpack a result blob and decrypt it with the secret key."""
        ct = wire.deserialize_ciphertext(blob, self.ring)
        return self._evaluator.decrypt_to_message(ct, self.keygen.secret)
