"""Service-tier fixtures: one shared server ring, client key material."""

from __future__ import annotations

import pytest

from repro.service.server import FheServer, TenantClient


@pytest.fixture()
def make_server(small_params, small_ring):
    """Factory for servers sharing the session ring (cheap per-test)."""

    def build(config=None, byte_budget=None) -> FheServer:
        return FheServer(small_params, config=config,
                         byte_budget=byte_budget, ring=small_ring)

    return build


@pytest.fixture(scope="session")
def make_client(small_ring):
    """Clients keyed by (tenant, seed), built once per session — keygen
    is the expensive part, and hypothesis examples reuse them."""

    from repro.service.wire import serialize_params

    params_blob = serialize_params(small_ring.params)
    clients: dict[tuple[str, int], TenantClient] = {}

    def build(tenant_id: str, seed: int) -> TenantClient:
        key = (tenant_id, seed)
        if key not in clients:
            clients[key] = TenantClient(tenant_id, params_blob, seed=seed,
                                        ring=small_ring)
        return clients[key]

    return build
