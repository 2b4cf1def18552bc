"""Key-registry tests: sessions, galois-element dedup, LRU byte budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import wire
from repro.service.registry import (
    KeyRegistry,
    RegistryError,
    evk_stored_bytes,
)
from tests.conftest import evk_resident_bytes


def _galois_blob(client, amounts, conjugation=False):
    return client.galois_blob(amounts, conjugation=conjugation)


class TestSessions:
    def test_open_is_idempotent(self, make_server, make_client):
        server = make_server()
        client = make_client("a", 1)
        s0 = server.open_session("a", client.hello_blob())
        s1 = server.open_session("a")
        assert s0 is s1

    def test_params_digest_checked_at_handshake(self, make_server):
        from repro.ckks.params import CkksParams

        server = make_server()
        other = CkksParams.functional(n=1 << 8, l=6, dnum=2,
                                      scale_bits=41, q0_bits=50,
                                      p_bits=50, h=16)
        with pytest.raises(RegistryError, match="digest"):
            server.open_session("a", wire.serialize_params(other))

    def test_unknown_tenant_rejected(self, make_server):
        server = make_server()
        with pytest.raises(RegistryError, match="no session"):
            server.registry.session("ghost")

    def test_close_releases_bytes(self, make_server, make_client):
        server = make_server()
        client = make_client("a", 1)
        server.open_session("a")
        server.register_keys("a", relin=client.relin_blob(),
                             galois=_galois_blob(client, {1, 2}))
        assert server.registry.galois_bytes > 0
        assert server.registry.pinned_bytes > 0
        server.close_session("a")
        assert server.registry.galois_bytes == 0
        assert server.registry.pinned_bytes == 0
        assert server.registry.stats()["tenants"] == 0


class TestDedup:
    def test_amounts_sharing_an_element_store_once(self, make_server,
                                                   make_client, small_ring):
        server = make_server()
        client = make_client("a", 1)
        session = server.open_session("a")
        half = small_ring.n // 2
        # 1 and 1 + N/2 realize the same automorphism
        keys = {1: client.keygen.gen_rotation_key(1),
                1 + half: client.keygen.gen_rotation_key(1)}
        blob = wire.serialize_galois_keys(keys, small_ring.params)
        stats = server.registry.register_galois_keys("a", blob)
        assert stats["stored"] == 1 and stats["aliased"] == 1
        assert len(session.by_element) == 1

    def test_reupload_aliases_instead_of_storing(self, make_server,
                                                 make_client):
        server = make_server()
        client = make_client("a", 1)
        session = server.open_session("a")
        server.register_keys("a", galois=_galois_blob(client, {1, 2}))
        before = server.registry.galois_bytes
        stats = server.register_keys(
            "a", galois=_galois_blob(client, {1, 2, 3}))
        assert stats["stored"] == 1 and stats["aliased"] == 2
        assert session.dedup_hits == 2
        # only amount 3's bytes were added
        assert server.registry.galois_bytes \
            == before + evk_stored_bytes(session.rotation_keys[3])

    def test_tenants_do_not_share_keys(self, make_server, make_client):
        server = make_server()
        a, b = make_client("a", 1), make_client("b", 2)
        server.open_session("a")
        server.open_session("b")
        server.register_keys("a", galois=_galois_blob(a, {1}))
        server.register_keys("b", galois=_galois_blob(b, {1}))
        sa = server.registry.session("a")
        sb = server.registry.session("b")
        assert not np.array_equal(
            sa.rotation_keys[1].slices[0][0].residues,
            sb.rotation_keys[1].slices[0][0].residues)


class TestLruEviction:
    def _bundle_bytes(self, client, amount):
        return evk_stored_bytes(client.keygen.gen_rotation_key(amount))

    def test_eviction_by_byte_budget_in_lru_order(self, make_server,
                                                  make_client):
        client = make_client("a", 1)
        per_key = self._bundle_bytes(client, 1)
        server = make_server(byte_budget=3 * per_key)
        session = server.open_session("a")
        server.register_keys("a", galois=_galois_blob(client, {1, 2, 3}))
        assert server.registry.evictions == 0
        # touch 1 so amount 2 is now the least recently used
        session.touch({1}, server.registry)
        server.register_keys("a", galois=_galois_blob(client, {4}))
        assert server.registry.evictions == 1
        assert set(session.rotation_keys) == {1, 3, 4}
        assert server.registry.galois_bytes <= 3 * per_key

    def test_fresh_upload_is_protected_from_its_own_eviction(
            self, make_server, make_client):
        client = make_client("a", 1)
        per_key = self._bundle_bytes(client, 1)
        server = make_server(byte_budget=2 * per_key)
        session = server.open_session("a")
        # a single over-budget upload is admitted whole
        server.register_keys("a", galois=_galois_blob(client, {1, 2, 3}))
        assert set(session.rotation_keys) == {1, 2, 3}
        # the next registration evicts down to the budget
        server.register_keys("a", galois=_galois_blob(client, {4}))
        assert 4 in session.rotation_keys
        assert server.registry.galois_bytes <= 2 * per_key

    def test_eviction_drops_all_aliases(self, make_server, make_client,
                                        small_ring):
        client = make_client("a", 1)
        per_key = self._bundle_bytes(client, 1)
        server = make_server(byte_budget=per_key)
        session = server.open_session("a")
        half = small_ring.n // 2
        keys = {1: client.keygen.gen_rotation_key(1),
                1 + half: client.keygen.gen_rotation_key(1)}
        server.registry.register_galois_keys(
            "a", wire.serialize_galois_keys(keys, small_ring.params))
        assert set(session.rotation_keys) == {1}  # canonicalized alias
        server.register_keys("a", galois=_galois_blob(client, {2}))
        assert set(session.rotation_keys) == {2}
        assert session.by_element.keys() == {
            session.galois_element(2)}

    def test_evicted_key_job_fails_loudly(self, make_server, make_client):
        from repro.runtime import Program
        from repro.service import AdmissionError, JobRequest

        client = make_client("a", 1)
        per_key = self._bundle_bytes(client, 1)
        server = make_server(byte_budget=per_key)
        server.open_session("a")
        server.register_keys("a", relin=client.relin_blob(),
                             galois=_galois_blob(client, {1}))
        server.register_keys("a", galois=_galois_blob(client, {2}))
        prog = Program(n_slots=8, name="rot1")
        x = prog.input("x")
        prog.output("y", x.rotate(1))
        req = JobRequest("a", prog,
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = server.serve([req], return_exceptions=True)
        assert isinstance(result, AdmissionError)
        assert "amounts [1]" in str(result)
        server.shutdown()


class TestRegistryValidation:
    def test_budget_must_be_positive(self, small_ring):
        with pytest.raises(ValueError):
            KeyRegistry(small_ring, byte_budget=0)

    def test_register_needs_session(self, make_server, make_client):
        server = make_server()
        client = make_client("a", 1)
        with pytest.raises(RegistryError):
            server.register_keys("a", relin=client.relin_blob())


class TestResidentBytes:
    def test_served_keys_hold_only_accounted_bytes(self, make_server,
                                                   make_client):
        """Resident key memory equals the registry's accounted bytes."""
        from repro.runtime import Program
        from repro.service import JobRequest

        client = make_client("a", 1)
        server = make_server()
        server.open_session("a")
        server.register_keys("a", relin=client.relin_blob(),
                             galois=_galois_blob(client, {1, 2},
                                                 conjugation=True))
        prog = Program(n_slots=8, name="mixed")
        x = prog.input("x")
        prog.output("y", (x * x).rotate(1) + x.rotate(2))
        vec = np.linspace(-0.4, 0.4, 8)
        [result] = server.serve(
            [JobRequest("a", prog, {"x": client.encrypt_blob(vec)})])
        want = np.roll(vec * vec, -1) + np.roll(vec, -2)
        assert np.max(np.abs(client.decrypt_blob(result.outputs["y"])
                             - want)) < 1e-4
        session = server.registry.session("a")
        ev = session.evaluator
        keys = {id(k): k for k in (ev.relin_key, ev.conjugation_key,
                                   *session.by_element.values())}
        resident = sum(evk_resident_bytes(k) for k in keys.values())
        assert resident == sum(evk_stored_bytes(k) for k in keys.values())
        assert resident == (server.registry.galois_bytes
                            + server.registry.pinned_bytes)
        server.shutdown()
