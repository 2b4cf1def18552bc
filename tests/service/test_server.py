"""Serving-pipeline tests: plan cache, admission, batching, correctness.

The load-bearing invariant: because hoisted galois is bit-identical to
sequential galois, the scheduler's cross-job sharing must produce
*byte-identical* result blobs to running every job alone
(``max_batch=1``) — sharing is a pure scheduling win, never a numerics
change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import OpCode, PlanCache, PlannerConfig, PlanningError, \
    Program, plan_cache_key, plan_program, structural_hash
from repro.service import AdmissionError, JobRequest, ServiceConfig


def stencil_program(amounts, taps=None, name="stencil", n_slots=8):
    """sum_i tap_i * rot_{a_i}(x) — one hoistable batch on the input."""
    taps = taps or [0.25] * len(amounts)
    prog = Program(n_slots=n_slots, name=name)
    x = prog.input("x")
    acc = x * 0.5
    for amount, tap in zip(amounts, taps):
        acc = acc + x.rotate(amount) * tap
    prog.output("out", acc)
    return prog


def stencil_reference(vec, amounts, taps=None):
    taps = taps or [0.25] * len(amounts)
    acc = vec * 0.5
    for amount, tap in zip(amounts, taps):
        acc = acc + np.roll(vec, -amount) * tap
    return acc


@pytest.fixture()
def ready_server(make_server, make_client):
    """A server with one registered tenant and its client."""
    server = make_server()
    client = make_client("alice", 11)
    server.open_session("alice", client.hello_blob())
    server.register_keys(
        "alice", relin=client.relin_blob(),
        galois=client.galois_blob(range(1, 8), conjugation=True))
    yield server, client
    server.shutdown()


class TestStructuralHash:
    def test_identical_programs_collide(self):
        assert structural_hash(stencil_program([1, 2])) \
            == structural_hash(stencil_program([1, 2]))

    def test_rotation_amounts_differ(self):
        assert structural_hash(stencil_program([1, 2])) \
            != structural_hash(stencil_program([1, 3]))

    def test_payload_bits_differ(self):
        assert structural_hash(stencil_program([1], taps=[0.25])) \
            != structural_hash(stencil_program([1], taps=[0.250001]))

    def test_output_name_differs(self):
        p0, p1 = stencil_program([1]), Program(n_slots=8, name="stencil")
        x = p1.input("x")
        acc = x * 0.5
        acc = acc + x.rotate(1) * 0.25
        p1.output("renamed", acc)
        assert structural_hash(p0) != structural_hash(p1)


class TestPlanCache:
    def test_cache_hit_and_lru(self, small_ring):
        from repro.runtime import PlanCache

        cache = PlanCache(capacity=2)
        config = PlannerConfig.from_ring(small_ring)
        digest = small_ring.params.digest
        p0, p1, p2 = (stencil_program(a) for a in ([1], [2], [3]))
        _, hit, key0 = cache.get(p0, config, digest)
        assert not hit
        _, hit, key_again = cache.get(p0, config, digest)
        assert hit and key_again == key0
        cache.get(p1, config, digest)
        cache.get(p2, config, digest)  # evicts p0 (capacity 2)
        _, hit, _ = cache.get(p0, config, digest)
        assert not hit
        assert cache.stats()["hits"] == 1

    def test_params_digest_partitions_the_cache(self, small_ring):
        from repro.runtime import plan_cache_key

        prog = stencil_program([1])
        config = PlannerConfig.from_ring(small_ring)
        assert plan_cache_key(prog, config, "digest-a") \
            != plan_cache_key(prog, config, "digest-b")

    def test_server_reuses_plans_across_jobs(self, ready_server):
        server, client = ready_server
        prog = stencil_program([1, 2])
        blob = client.encrypt_blob(np.linspace(0, 1, 8))
        reqs = [JobRequest("alice", prog, {"x": blob}) for _ in range(3)]
        results = server.serve(reqs)
        assert [r.plan_cache_hit for r in results].count(True) >= 2
        assert server.scheduler.plan_cache.stats()["misses"] == 1

    def test_plan_evicted_right_after_lookup_still_runs(self, ready_server):
        """Windows are prepared on several workers at once: another
        worker's lookup may evict a plan the moment ``get`` returned it.
        The job keeps the entry it was handed and runs to completion."""
        server, client = ready_server
        other = stencil_program([3], name="other")

        class EvictingCache(PlanCache):
            def get(self, program, config, params_digest=""):
                found = super().get(program, config, params_digest)
                if program is not other:  # the other worker's lookup
                    super().get(other, config, params_digest)
                return found

        server.scheduler.plan_cache = EvictingCache(capacity=1)
        vec = np.linspace(-0.4, 0.4, 8)
        [result] = server.serve([JobRequest(
            "alice", stencil_program([1, 2]),
            {"x": client.encrypt_blob(vec)})])
        got = client.decrypt_blob(result.outputs["out"])
        want = stencil_reference(vec, [1, 2])
        assert np.max(np.abs(got.real[:8] - want)) < 1e-4


class TestDerivedPlanState:
    """Plan-derived values (admission estimate, noise profile, window
    keys) live on the plan's cache entry and are evicted with it."""

    def test_derived_state_is_bounded_by_the_plan_cache(
            self, make_server, make_client):
        server = make_server(config=ServiceConfig(max_job_seconds=10.0))
        client = make_client("alice", 11)
        server.open_session("alice", client.hello_blob())
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob(range(1, 8)))
        scheduler = server.scheduler
        scheduler.plan_cache = cache = PlanCache(capacity=2)
        blob = client.encrypt_blob(np.linspace(-0.4, 0.4, 8))
        programs = [stencil_program([a, a + 1], name=f"p{a}")
                    for a in range(1, 6)]
        first = {}
        for prog in programs:  # two jobs per window: they share the blob
            first[prog.name] = server.serve(
                [JobRequest("alice", prog, {"x": blob})
                 for _ in range(2)])[0]
        keys = [plan_cache_key(prog, scheduler.planner_config,
                               server.ring.params.digest)
                for prog in programs]
        derived = {name: cache.derived_view(name)
                   for name in ("estimate", "noise", "keys")}
        for view in derived.values():
            assert [key for key, _ in view.items()] == keys[-2:]
        for name, value in vars(scheduler).items():
            if isinstance(value, dict):  # no sidecar keyed by plan
                assert not set(value) & set(keys), name

        # The evicted program is re-planned, re-estimated and
        # re-profiled on admission.
        again = server.serve([JobRequest("alice", programs[0],
                                         {"x": blob})])[0]
        assert not again.plan_cache_hit
        assert derived["noise"].get(keys[0]) is not None
        assert again.estimated_seconds == derived["estimate"].get(keys[0]) \
            == first["p1"].estimated_seconds
        assert again.headroom_bits == first["p1"].headroom_bits
        assert again.outputs == first["p1"].outputs
        server.shutdown()


class TestAdmission:
    def test_cost_ceiling_rejects_heavy_jobs(self, make_server,
                                             make_client):
        server = make_server(
            config=ServiceConfig(max_job_seconds=1e-9))
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob({1}))
        req = JobRequest("alice", stencil_program([1]),
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = server.serve([req], return_exceptions=True)
        assert isinstance(result, AdmissionError)
        assert "admission ceiling" in str(result)
        server.shutdown()

    def test_estimates_are_recorded(self, make_server, make_client):
        server = make_server(config=ServiceConfig(max_job_seconds=10.0))
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob({1}))
        req = JobRequest("alice", stencil_program([1]),
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = server.serve([req])
        assert result.estimated_seconds is not None
        assert 0 < result.estimated_seconds < 10.0
        server.shutdown()

    def test_missing_relin_key_rejected(self, make_server, make_client):
        server = make_server()
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", galois=client.galois_blob({1}))
        prog = Program(n_slots=8, name="square")
        x = prog.input("x")
        prog.output("out", x * x)
        req = JobRequest("alice", prog,
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = server.serve([req], return_exceptions=True)
        assert isinstance(result, AdmissionError)
        assert "relinearization" in str(result)
        server.shutdown()

    def test_missing_conjugation_key_rejected(self, make_server,
                                              make_client):
        server = make_server()
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob({1}))
        prog = Program(n_slots=8, name="conj")
        x = prog.input("x")
        prog.output("out", x.conjugate())
        req = JobRequest("alice", prog,
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = server.serve([req], return_exceptions=True)
        assert isinstance(result, AdmissionError)
        assert "conjugation" in str(result)
        server.shutdown()

    @pytest.mark.parametrize("shape", ["bootstrap", "too_deep"])
    def test_unplannable_program_rejected_before_any_attempt(
            self, shape, make_server, make_client):
        """The ring's planner config has no bootstrap level: a served
        ``.bootstrap()`` and a program deeper than the ring both fail
        planning, and are rejected without a supervised attempt."""
        server = make_server()
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob())
        prog = Program(n_slots=8, name=shape)
        y = x = prog.input("x")
        if shape == "bootstrap":
            y = x.bootstrap()
        else:
            for _ in range(server.ring.params.l + 2):
                y = y * y
        prog.output("out", y)
        req = JobRequest("alice", prog,
                         {"x": client.encrypt_blob(np.zeros(8))})
        [result] = server.serve([req], return_exceptions=True)
        assert isinstance(result, PlanningError)
        assert server.scheduler.stats()["jobs_rejected"] == 1
        assert server.health()["tenants"]["alice"]["jobs_rejected"] == 1
        assert server.scheduler.supervisor.stats()["attempts"] == 0
        server.shutdown()


class TestBatching:
    def _submit_window(self, server, client, programs, vec):
        blob = client.encrypt_blob(vec)
        reqs = [JobRequest("alice", prog, {"x": blob})
                for prog in programs]
        return server.serve(reqs)

    def test_coalesced_results_are_byte_identical_to_unbatched(
            self, make_server, make_client):
        vec = np.linspace(-0.4, 0.4, 8)
        programs = [stencil_program([a, a + 1], name=f"job{a}")
                    for a in (1, 3, 5)]
        client = make_client("alice", 11)
        blob = client.encrypt_blob(vec)  # one blob for both runs
        outputs = {}
        for max_batch in (8, 1):  # a window of one job shares nothing
            server = make_server(
                config=ServiceConfig(max_batch=max_batch))
            server.open_session("alice")
            server.register_keys("alice", relin=client.relin_blob(),
                                 galois=client.galois_blob(range(1, 8)))
            results = server.serve([JobRequest("alice", prog, {"x": blob})
                                    for prog in programs])
            assert all(r.coalesced == (max_batch > 1) for r in results)
            outputs[max_batch] = [r.outputs["out"] for r in results]
            server.shutdown()
        assert outputs[8] == outputs[1]  # byte-for-byte equal

    def test_coalesced_batch_decrypts_correctly(self, ready_server):
        server, client = ready_server
        vec = np.linspace(-0.4, 0.4, 8)
        amounts = [(1, 2), (2, 3), (4, 5), (1, 6)]
        programs = [stencil_program(list(a), name=f"j{i}")
                    for i, a in enumerate(amounts)]
        results = self._submit_window(server, client, programs, vec)
        assert server.scheduler.stats()["coalesced_raises"] >= 3
        for result, amts in zip(results, amounts):
            got = client.decrypt_blob(result.outputs["out"])
            ref = stencil_reference(vec, list(amts))
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_negative_amounts_coalesce_and_decrypt(self, ready_server):
        """Regression: programs written with negative rotation amounts.

        ``rotate(-1)`` canonicalizes to ``n_slots - 1`` at IR emit, so
        the coalescer's amount union and the follower seeding path see
        the same key a leader's hoisted batch was built with.  Before
        canonicalization a follower looked up the raw ``-1`` in the
        seeded rotation dict, silently missed, and re-raised.
        """
        server, client = ready_server
        vec = np.linspace(-0.4, 0.4, 8)
        amounts = [(-1, 2), (2, 3), (-3, 4)]
        programs = [stencil_program(list(a), name=f"neg{i}")
                    for i, a in enumerate(amounts)]
        results = self._submit_window(server, client, programs, vec)
        assert server.scheduler.stats()["coalesced_raises"] >= 2
        for result, amts in zip(results, amounts):
            got = client.decrypt_blob(result.outputs["out"])
            ref = stencil_reference(vec, list(amts))
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_distinct_inputs_are_not_coalesced(self, ready_server):
        server, client = ready_server
        progs = [stencil_program([1, 2], name="a"),
                 stencil_program([2, 3], name="b")]
        reqs = [JobRequest("alice", p,
                           {"x": client.encrypt_blob(
                               np.full(8, 0.1 * (i + 1)))})
                for i, p in enumerate(progs)]
        results = server.serve(reqs)
        assert all(not r.coalesced for r in results)

    def test_two_tenants_are_isolated(self, make_server, make_client):
        server = make_server(config=ServiceConfig(max_batch=8))
        alice, bob = make_client("alice", 11), make_client("bob", 22)
        for client in (alice, bob):
            server.open_session(client.tenant_id, client.hello_blob())
            server.register_keys(client.tenant_id,
                                 relin=client.relin_blob(),
                                 galois=client.galois_blob({1, 2}))
        vec_a, vec_b = np.full(8, 0.2), np.linspace(0, 0.4, 8)
        prog = stencil_program([1, 2])
        results = server.serve([
            JobRequest("alice", prog, {"x": alice.encrypt_blob(vec_a)}),
            JobRequest("bob", prog, {"x": bob.encrypt_blob(vec_b)}),
        ])
        got_a = alice.decrypt_blob(results[0].outputs["out"])
        got_b = bob.decrypt_blob(results[1].outputs["out"])
        assert np.max(np.abs(got_a - stencil_reference(vec_a, [1, 2]))) \
            < 1e-6
        assert np.max(np.abs(got_b - stencil_reference(vec_b, [1, 2]))) \
            < 1e-6
        server.shutdown()


class TestConcurrentExecution:
    """Worker-pool parallelism must never corrupt kernel scratch.

    Regression test for the thread-local workspace: with shared scratch
    buffers, two jobs executing concurrently corrupted each other's
    residue matrices (caught as out-of-range residues at serialization).
    Distinct inputs defeat coalescing, so every job really executes in
    its own worker thread.
    """

    def test_parallel_jobs_all_decrypt_correctly(self, make_server,
                                                 make_client):
        server = make_server(
            config=ServiceConfig(workers=4, max_batch=8))
        client = make_client("alice", 11)
        server.open_session("alice")
        server.register_keys("alice", relin=client.relin_blob(),
                             galois=client.galois_blob(range(1, 8)))
        vecs = [np.linspace(-0.4, 0.4, 8) * (0.5 + 0.1 * i)
                for i in range(8)]
        amounts = [(1 + i % 6, 2 + i % 6) for i in range(8)]
        reqs = [JobRequest("alice",
                           stencil_program(list(a), name=f"par{i}"),
                           {"x": client.encrypt_blob(v)})
                for i, (v, a) in enumerate(zip(vecs, amounts))]
        results = server.serve(reqs)
        for result, vec, amts in zip(results, vecs, amounts):
            got = client.decrypt_blob(result.outputs["out"])
            ref = stencil_reference(vec, list(amts))
            assert np.max(np.abs(got - ref)) < 1e-6
        server.shutdown()


class TestSeededExecutor:
    """execute(seeded_nodes=...) is bit-identical to the normal path."""

    @staticmethod
    def _encrypt(small_keys, small_encoder, z):
        pt = small_encoder.encode(z + 0j, 2.0 ** 40)
        return small_keys.encrypt_symmetric(pt.poly, 2.0 ** 40, 8)

    def test_seeded_execution_matches_unseeded(self, small_ring,
                                               small_keys,
                                               small_evaluator,
                                               small_encoder):
        prog = stencil_program([1, 2, 3])
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        ct = self._encrypt(small_keys, small_encoder,
                           np.linspace(-0.3, 0.3, 8))
        from repro.runtime import execute

        plain = execute(plan, small_evaluator, {"x": ct})
        rotations = small_evaluator.galois_hoisted(ct, [1, 2, 3])
        seeds = {nid: rotations[plan.nodes[nid].rotation]
                 for nid in plan.order
                 if plan.nodes[nid].op is OpCode.HROT}
        seeded = execute(plan, small_evaluator, {"x": ct},
                         seeded_nodes=seeds)
        assert np.array_equal(plain["out"].b.residues,
                              seeded["out"].b.residues)
        assert np.array_equal(plain["out"].a.residues,
                              seeded["out"].a.residues)

    def test_negative_amount_program_accepts_canonical_seed(
            self, small_ring, small_keys, small_evaluator, small_encoder):
        """A ``rotate(-6)`` program consumes a seed made for amount ``2``.

        Window plans key rotations by canonical amount, so the ``-6``
        rotation hash-conses with another job's ``rotate(2)`` and the
        negative-amount program is seeded instead of paying a silent
        re-raise.
        """
        config = PlannerConfig.from_ring(small_ring)
        plans = [plan_program(stencil_program(amounts), config)
                 for amounts in ([-6, 3], [2, 4])]
        ct = self._encrypt(small_keys, small_encoder,
                           np.linspace(-0.3, 0.3, 8))
        from repro.runtime import execute, execute_subgraph
        from repro.runtime.window import merge_window, plan_keys

        import repro.obs as obs
        from repro.obs import kernel as K

        window = merge_window([(plan, plan_keys(plan), {"x": "blob"})
                               for plan in plans])
        results = execute_subgraph(window.plan, small_evaluator,
                                   {"blob": ct}, window.targets)
        seeds = {nid: results[vid]
                 for nid, vid in window.seeds[0].items()}
        assert seeds
        obs.enable()
        try:
            K.reset()
            plain = execute(plans[0], small_evaluator, {"x": ct})
            plain_tally = K.snapshot()
            K.reset()
            seeded = execute(plans[0], small_evaluator, {"x": ct},
                             seeded_nodes=seeds)
            seeded_tally = K.snapshot()
        finally:
            obs.disable()
        assert np.array_equal(plain["out"].b.residues,
                              seeded["out"].b.residues)
        assert np.array_equal(plain["out"].a.residues,
                              seeded["out"].a.residues)
        # the seed must actually be consumed: a missed lookup would
        # fall back to a (bit-identical) re-raise and cost the same
        assert seeded_tally["bconv_calls"] < plain_tally["bconv_calls"]

    def test_partial_seed_falls_back(self, small_ring, small_keys,
                                     small_evaluator, small_encoder):
        prog = stencil_program([1, 2])
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        z = np.zeros(8) + 0.25
        ct = self._encrypt(small_keys, small_encoder, z)
        from repro.runtime import execute

        rotations = small_evaluator.galois_hoisted(ct, [1])  # 2 missing
        seeds = {nid: rotations[1] for nid in plan.order
                 if plan.nodes[nid].op is OpCode.HROT
                 and plan.nodes[nid].rotation == 1}
        out = execute(plan, small_evaluator, {"x": ct}, seeded_nodes=seeds)
        assert np.array_equal(
            out["out"].b.residues,
            execute(plan, small_evaluator, {"x": ct})["out"].b.residues)
        got = small_evaluator.decrypt_to_message(out["out"],
                                                 small_keys.secret)
        assert np.max(np.abs(got - stencil_reference(z, [1, 2]))) < 1e-6
