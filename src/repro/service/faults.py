"""Deterministic fault injection for the serving layer.

A :class:`FaultPlan` is a seeded, explicit schedule of failures the
scheduler/worker pipeline consults at fixed hook sites — pure code
paths compiled into the normal pipeline (no monkeypatching), so the
same plan drives unit tests, the chaos step in CI
(``examples/fhe_server_demo.py --chaos``), and ad-hoc soak runs.  The
hooks are the plan's own methods; an empty ``FaultPlan()`` is a no-op.

Fault catalogue (:class:`FaultKind`) and where each hook lives:

========================  ====================================================
``CRASH``                 worker raises :class:`InjectedCrash` (terminal)
``TRANSIENT``             worker raises :class:`InjectedTransient` (retryable)
``STALL``                 worker hangs up to ``stall_s`` — a latency spike
                          the supervisor's deadline must catch; a timed-out
                          attempt wakes at once and frees its pool slot
``CORRUPT_BLOB``          one input blob byte is flipped on load (the wire
                          layer's CRC rejects it — a terminal job failure)
``EVICT_KEYS``            the tenant's galois keys (or just ``amounts``) are
                          dropped between admission and execution — the
                          evicted-key race
``MISPRICE``              the admission estimate is multiplied by ``factor``
                          (an estimate lie: cost model drift / adversarial
                          under-pricing)
========================  ====================================================

Determinism: a spec fires on the ``after``-th .. ``after+times``-th
probe that matches its ``(kind, tenant, program)`` filter, counted in
probe order, and the corruption byte/mask come from the plan's seeded
RNG — the same plan against the same traffic injects byte-identical
faults every run, so the probe order (:meth:`FaultPlan.before_attempt`)
is part of the contract.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from enum import Enum

from repro.runtime.executor import ExecutionCancelled
from repro.service.errors import TransientServiceError


class FaultKind(str, Enum):
    """Which hook site a :class:`FaultSpec` targets."""

    CRASH = "crash"
    TRANSIENT = "transient"
    STALL = "stall"
    CORRUPT_BLOB = "corrupt_blob"
    EVICT_KEYS = "evict_keys"
    MISPRICE = "misprice"


class InjectedCrash(RuntimeError):
    """Deterministic worker crash (terminal under the taxonomy)."""


class InjectedTransient(TransientServiceError):
    """Deterministic transient infrastructure failure (retryable)."""


@dataclass
class FaultSpec:
    """One scheduled fault: where it fires, how often, and its payload.

    ``tenant``/``program`` of ``None`` match anything.  The spec fires
    on matching probes ``after < seen <= after + times`` — so
    ``times=1`` injects exactly once (a retry of the same job probes
    again and passes), and ``times`` larger than the retry budget makes
    the fault persistent.
    """

    kind: FaultKind
    tenant: str | None = None
    program: str | None = None
    after: int = 0            #: skip this many matching probes first
    times: int = 1            #: then fire on this many
    stall_s: float = 0.0      #: STALL: how long the worker hangs
    factor: float = 1.0       #: MISPRICE: admission-estimate multiplier
    amounts: tuple = ()       #: EVICT_KEYS: amounts to evict (empty: all)
    seen: int = field(default=0, repr=False)

    def matches(self, tenant: str, program: str) -> bool:
        return (self.tenant is None or self.tenant == tenant) \
            and (self.program is None or self.program == program)


class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` probes (thread-safe).

    Hook sites call :meth:`probe` with their kind and job identity;
    the plan returns the spec to apply (or ``None``) and records every
    injection in :attr:`injected` so tests and the chaos job can assert
    exactly which faults actually fired.
    """

    def __init__(self, specs=(), seed: int = 0) -> None:
        self.specs: list[FaultSpec] = list(specs)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: every injection as ``(kind value, tenant, program)`` in order
        self.injected: list[tuple[str, str, str]] = []

    def probe(self, kind: FaultKind, tenant: str = "",
              program: str = "") -> FaultSpec | None:
        """Consult the plan at a hook site; returns the spec to apply."""
        with self._lock:
            for spec in self.specs:
                if spec.kind is not kind \
                        or not spec.matches(tenant, program):
                    continue
                spec.seen += 1
                if spec.after < spec.seen <= spec.after + spec.times:
                    self.injected.append((kind.value, tenant, program))
                    return spec
            return None

    def before_attempt(self, registry, tenant: str, program: str,
                       cancel: threading.Event) -> None:
        """Worker hooks of one attempt: EVICT_KEYS, STALL (raising
        ``ExecutionCancelled`` if ``cancel`` was set meanwhile), CRASH,
        TRANSIENT — probed in that order."""
        spec = self.probe(FaultKind.EVICT_KEYS, tenant, program)
        if spec is not None:
            registry.evict_tenant_galois(tenant,
                                         amounts=spec.amounts or None)
        spec = self.probe(FaultKind.STALL, tenant, program)
        if spec is not None and cancel.wait(spec.stall_s):
            # The supervisor gave up during the stall.
            raise ExecutionCancelled(
                f"{tenant}/{program}: stalled past its deadline")
        if self.probe(FaultKind.CRASH, tenant, program) is not None:
            raise InjectedCrash(
                f"injected worker crash for {tenant}/{program}")
        if self.probe(FaultKind.TRANSIENT, tenant, program) is not None:
            raise InjectedTransient(
                f"injected transient fault for {tenant}/{program}")

    def misprice(self, estimate: float, tenant: str = "",
                 program: str = "") -> float:
        """MISPRICE hook: the admission estimate, times the spec's
        ``factor`` when one fires."""
        spec = self.probe(FaultKind.MISPRICE, tenant, program)
        return estimate if spec is None else estimate * spec.factor

    def corrupt(self, blob: bytes, tenant: str = "",
                program: str = "") -> bytes:
        """CORRUPT_BLOB hook: flip one seeded-RNG-chosen byte, or pass
        the blob through untouched when no spec fires."""
        if self.probe(FaultKind.CORRUPT_BLOB, tenant, program) is None \
                or not blob:
            return blob
        with self._lock:
            index = self._rng.randrange(len(blob))
            mask = self._rng.randrange(1, 256)
        return blob[:index] + bytes([blob[index] ^ mask]) \
            + blob[index + 1:]

    def count(self, kind: FaultKind) -> int:
        """How many faults of ``kind`` have fired so far."""
        with self._lock:
            return sum(1 for k, _, _ in self.injected if k == kind.value)
