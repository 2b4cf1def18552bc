"""FHE serving layer: wire format, key registry, batching scheduler.

The deployment shape BTS is built for (Section 1): clients hold secret
keys and ship ciphertexts + evaluation keys to a shared server that
amortizes cost across tenants and requests.  Five pieces:

* :mod:`repro.service.wire` — versioned deterministic binary encoding
  for ciphertexts, plaintexts, keys and parameter sets, with digest /
  CRC / domain validation at the boundary.
* :mod:`repro.service.registry` — multi-tenant session store holding
  each tenant's evaluation keys exactly once (galois-element dedup)
  under an LRU byte budget.
* :mod:`repro.service.scheduler` / :mod:`repro.service.server` — an
  async batching scheduler (plan cache, BTS-cycle cost admission,
  cross-job hoisted rotation coalescing, a submit queue bounded in
  jobs) behind the :class:`~repro.service.server.FheServer` facade,
  plus the client-side :class:`~repro.service.server.TenantClient` SDK.
* :mod:`repro.service.errors` / :mod:`repro.service.supervisor` — the
  failure taxonomy (transient vs terminal, job- vs tenant-scoped) and
  the supervision machinery: priced deadlines, cooperative worker
  cancellation, backoff retries, per-tenant circuit breakers.
* :mod:`repro.service.faults` — deterministic seeded fault injection
  (worker crashes/stalls, blob corruption, evicted-key races,
  admission-estimate lies) whose hooks the scheduler calls on every
  job, for tests and the chaos CI job.
"""

from repro.service.errors import (
    AdmissionError,
    CircuitOpen,
    DeadlineExceeded,
    JobError,
    KeyEvictedError,
    Overloaded,
    PrecisionAtRisk,
    SchedulerStopped,
    ServiceError,
    TenantError,
    TransientServiceError,
    is_transient,
)
from repro.service.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedTransient,
)
from repro.service.registry import KeyRegistry, RegistryError, TenantSession
from repro.service.scheduler import (
    HealthSnapshot,
    JobRequest,
    JobResult,
    RequestScheduler,
    ServiceConfig,
    TenantHealth,
)
from repro.service.server import FheServer, TenantClient
from repro.service.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    SupervisionConfig,
    Supervisor,
)
from repro.service.wire import ObjectKind, WireError

__all__ = [
    "AdmissionError",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FheServer",
    "HealthSnapshot",
    "InjectedCrash",
    "InjectedTransient",
    "JobError",
    "JobRequest",
    "JobResult",
    "KeyEvictedError",
    "KeyRegistry",
    "ObjectKind",
    "Overloaded",
    "PrecisionAtRisk",
    "RegistryError",
    "RequestScheduler",
    "SchedulerStopped",
    "ServiceConfig",
    "ServiceError",
    "SupervisionConfig",
    "Supervisor",
    "TenantClient",
    "TenantError",
    "TenantHealth",
    "TenantSession",
    "TransientServiceError",
    "WireError",
    "is_transient",
]
