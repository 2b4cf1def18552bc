"""Cross-job value reuse and the optimizer behind the serving boundary.

A tenant's jobs in one batch window that bind a common input blob are
merged into one window plan: every value two of them compute runs once,
and every member is seeded with the same ciphertext objects, so sharing
is byte-identical by construction.  The tests pin that equivalence
against running every job alone (``max_batch=1``: a window of one job
shares nothing), and exercise the opt-in
rotate-reduce fusion end to end through the server in both ModDown
modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import JobRequest, ServiceConfig

from tests.service.test_server import stencil_program, stencil_reference

VEC = np.linspace(-0.4, 0.4, 8)


@pytest.fixture()
def cse_server(make_server, make_client):
    def build(config=None):
        server = make_server(config=config)
        client = make_client("alice", 11)
        server.open_session("alice", client.hello_blob())
        server.register_keys(
            "alice", relin=client.relin_blob(),
            galois=client.galois_blob(range(1, 8), conjugation=True))
        return server, client

    return build


def submit_identical(server, client, count=3, amounts=(1, 2), blob=None):
    if blob is None:
        blob = client.encrypt_blob(VEC)
    prog = stencil_program(list(amounts))
    return server.serve([JobRequest("alice", prog, {"x": blob})
                         for _ in range(count)])


class TestCrossJobCse:
    def test_identical_jobs_are_seeded_once(self, cse_server):
        server, client = cse_server()
        results = submit_identical(server, client, count=3)
        assert all(r.cse_seeded for r in results)
        assert server.scheduler.stats()["cse_reuses"] == 2
        # all three share the literal shared-subgraph output
        blobs = {r.outputs["out"] for r in results}
        assert len(blobs) == 1
        got = client.decrypt_blob(results[0].outputs["out"])
        assert np.max(np.abs(got - stencil_reference(VEC, [1, 2]))) < 1e-6
        server.shutdown()

    def test_seeded_results_byte_identical_to_independent(
            self, cse_server, make_client):
        # one encryption for both runs: fresh encryptions draw fresh
        # randomness, so byte-comparison needs a shared input blob
        blob = make_client("alice", 11).encrypt_blob(VEC)
        outputs = {}
        for max_batch in (8, 1):
            server, client = cse_server(
                config=ServiceConfig(max_batch=max_batch))
            results = submit_identical(server, client, count=3,
                                       blob=blob)
            assert all(r.cse_seeded == (max_batch > 1) for r in results)
            outputs[max_batch] = [r.outputs["out"] for r in results]
            server.shutdown()
        assert outputs[8] == outputs[1]

    def test_distinct_inputs_are_not_seeded(self, cse_server):
        server, client = cse_server()
        prog = stencil_program([1, 2])
        reqs = [JobRequest("alice", prog,
                           {"x": client.encrypt_blob(VEC * (i + 1))})
                for i in range(3)]
        results = server.serve(reqs)
        assert not any(r.cse_seeded for r in results)
        assert server.scheduler.stats()["cse_reuses"] == 0
        for i, r in enumerate(results):
            got = client.decrypt_blob(r.outputs["out"])
            ref = stencil_reference(VEC * (i + 1), [1, 2])
            assert np.max(np.abs(got - ref)) < 1e-6
        server.shutdown()

    def test_distinct_programs_share_common_values(self, cse_server,
                                                   make_client):
        """Distinct stencils over one blob share ``x * 0.5``: each still
        decrypts to its own reference, byte-identical to no sharing."""
        blob = make_client("alice", 11).encrypt_blob(VEC)
        amounts = [(a, a + 1) for a in (1, 3, 5)]
        outputs = {}
        for max_batch in (8, 1):
            server, client = cse_server(
                config=ServiceConfig(max_batch=max_batch))
            results = server.serve([
                JobRequest("alice", stencil_program(list(a), name=f"j{i}"),
                           {"x": blob}) for i, a in enumerate(amounts)])
            assert all(r.cse_seeded == (max_batch > 1) for r in results)
            for result, amts in zip(results, amounts):
                got = client.decrypt_blob(result.outputs["out"])
                ref = stencil_reference(VEC, list(amts))
                assert np.max(np.abs(got - ref)) < 1e-6
            outputs[max_batch] = [r.outputs["out"] for r in results]
            server.shutdown()
        assert outputs[8] == outputs[1]

    def test_tenants_never_share_a_cse_group(self, make_server,
                                             make_client):
        server = make_server(config=ServiceConfig(max_batch=8))
        alice, bob = make_client("alice", 11), make_client("bob", 22)
        for client in (alice, bob):
            server.open_session(client.tenant_id, client.hello_blob())
            server.register_keys(client.tenant_id,
                                 relin=client.relin_blob(),
                                 galois=client.galois_blob({1, 2}))
        prog = stencil_program([1, 2])
        results = server.serve([
            JobRequest("alice", prog, {"x": alice.encrypt_blob(VEC)}),
            JobRequest("bob", prog, {"x": bob.encrypt_blob(VEC)}),
        ])
        # one job per tenant: no group ever reaches size two
        assert not any(r.cse_seeded for r in results)
        ref = stencil_reference(VEC, [1, 2])
        assert np.max(np.abs(alice.decrypt_blob(
            results[0].outputs["out"]) - ref)) < 1e-6
        assert np.max(np.abs(bob.decrypt_blob(
            results[1].outputs["out"]) - ref)) < 1e-6
        server.shutdown()


class TestServedFusion:
    def test_fused_outputs_byte_identical_across_coalescing(
            self, cse_server, make_client):
        """Under ``optimize=True``, window sharing never moves a bit."""
        blob = make_client("alice", 11).encrypt_blob(VEC)  # one blob
        amounts = [(1, 2)] * 2 + [(2, 3), (1, 3)]
        outputs = {}
        for max_batch in (8, 1):
            server, client = cse_server(config=ServiceConfig(
                optimize=True, max_batch=max_batch, batch_window_s=0.05))
            results = server.serve([
                JobRequest("alice", stencil_program(list(a), name=f"j{i}"),
                           {"x": blob}) for i, a in enumerate(amounts)])
            if max_batch > 1:
                assert any(r.cse_seeded for r in results)
            for result, amts in zip(results, amounts):
                got = client.decrypt_blob(result.outputs["out"])
                ref = stencil_reference(VEC, list(amts))
                assert np.max(np.abs(got - ref)) < 1e-6
            outputs[max_batch] = [r.outputs["out"] for r in results]
            server.shutdown()
        assert outputs[8] == outputs[1]

    def test_single_moddown_fusion_decrypts_correctly(self, cse_server):
        server, client = cse_server(config=ServiceConfig(
            optimize=True, max_batch=8))
        amounts = [1, 2, 3]
        [result] = server.serve([JobRequest(
            "alice", stencil_program(amounts),
            {"x": client.encrypt_blob(VEC)})])
        got = client.decrypt_blob(result.outputs["out"])
        assert np.max(np.abs(got - stencil_reference(VEC, amounts))) \
            < 1e-6
        server.shutdown()

    def test_fusion_composes_with_cse(self, cse_server):
        server, client = cse_server(config=ServiceConfig(
            optimize=True, max_batch=8))
        results = submit_identical(server, client, count=3)
        assert all(r.cse_seeded for r in results)
        assert server.scheduler.stats()["cse_reuses"] == 2
        got = client.decrypt_blob(results[0].outputs["out"])
        assert np.max(np.abs(got - stencil_reference(VEC, [1, 2]))) < 1e-6
        server.shutdown()


class TestWindowPlan:
    def test_one_raise_per_shared_blob(self, cse_server, make_client,
                                       monkeypatch):
        """4 copies of one stencil + 3 distinct ones over one blob pay a
        single raise, byte-identical to running every job alone."""
        import repro.ckks.evaluator as evaluator
        import repro.ckks.keyswitch as keyswitch

        raises = []
        real = keyswitch.raise_decomposition

        def counting(poly, level, ring):
            raises.append(level)
            return real(poly, level, ring)

        for module in (keyswitch, evaluator):
            monkeypatch.setattr(module, "raise_decomposition", counting)
        blob = make_client("alice", 11).encrypt_blob(VEC)
        amounts = [(1, 2)] * 4 + [(2, 3), (4, 5), (1, 6)]
        outputs = {}
        for max_batch in (8, 1):
            server, client = cse_server(config=ServiceConfig(
                max_batch=max_batch, batch_window_s=0.05))
            raises.clear()
            results = server.serve([
                JobRequest("alice", stencil_program(list(a), name=f"j{i}"),
                           {"x": blob}) for i, a in enumerate(amounts)])
            if max_batch > 1:
                assert len(raises) == 1
                assert all(r.coalesced and r.cse_seeded for r in results)
                stats = server.scheduler.stats()
                assert stats["coalesced_raises"] == len(amounts) - 1
                assert stats["cse_reuses"] == len(amounts) - 1
                assert server.health()["counters"]["coalesced_raises"] \
                    == len(amounts) - 1
            for result, amts in zip(results, amounts):
                got = client.decrypt_blob(result.outputs["out"])
                ref = stencil_reference(VEC, list(amts))
                assert np.max(np.abs(got - ref)) < 1e-6
            outputs[max_batch] = [r.outputs["out"] for r in results]
            server.shutdown()
        assert outputs[8] == outputs[1]
