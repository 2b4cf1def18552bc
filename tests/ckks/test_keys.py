"""Tests for key generation (secret, public, evaluation keys)."""

import numpy as np
import pytest

from repro.ckks.keys import KeyGenerator
from repro.ckks.rns import crt_reconstruct


class TestSecretKey:
    def test_hamming_weight(self, small_ring, small_params):
        kg = KeyGenerator(small_ring, seed=42)
        coeffs = kg._secret_coeffs
        assert np.count_nonzero(coeffs) == small_params.h
        assert set(np.unique(coeffs)) <= {-1, 0, 1}

    def test_secret_over_full_base(self, small_keys, small_ring,
                                   small_params):
        base = small_ring.base_qp(small_params.l)
        assert small_keys.secret.poly.base == base

    def test_restricted_consistency(self, small_keys, small_ring):
        full = small_keys.secret.poly
        restricted = small_keys.secret.restricted(small_ring.base_q(2))
        assert np.array_equal(restricted.residues, full.residues[:3])

    def test_deterministic_with_seed(self, small_ring):
        a = KeyGenerator(small_ring, seed=7)._secret_coeffs
        b = KeyGenerator(small_ring, seed=7)._secret_coeffs
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, small_ring):
        a = KeyGenerator(small_ring, seed=7)._secret_coeffs
        b = KeyGenerator(small_ring, seed=8)._secret_coeffs
        assert not np.array_equal(a, b)


class TestPublicKey:
    def test_pk_relation(self, small_ring, small_params):
        """b - a*s must be a small error polynomial."""
        kg = KeyGenerator(small_ring, seed=5)
        pk = kg.gen_public_key()
        s = kg.secret.restricted(pk.b.base)
        err = pk.b.sub(pk.a.mul(s)).from_ntt()
        coeffs = crt_reconstruct(err).astype(np.float64)
        assert np.max(np.abs(coeffs)) < 64 * small_params.sigma


class TestEvaluationKeys:
    def test_slice_count(self, small_keys, small_params):
        evk = small_keys.gen_relinearization_key()
        assert evk.dnum == small_params.dnum

    def test_slices_over_full_base(self, small_keys, small_ring,
                                   small_params):
        evk = small_keys.gen_relinearization_key()
        full = small_ring.base_qp(small_params.l)
        for b, a in evk.slices:
            assert b.base == full
            assert a.base == full
            assert b.is_ntt and a.is_ntt

    def test_slices_are_views_of_one_stacked_pair(self, small_keys,
                                                  small_ring, small_params):
        evk = small_keys.gen_relinearization_key()
        rows = len(small_ring.base_qp(small_params.l))
        assert len(evk.stacked) == evk.dnum
        for (b, a), pair in zip(evk.slices, evk.stacked):
            assert pair.shape == (2, rows, small_params.n)
            assert b.residues.base is pair and a.residues.base is pair
            assert np.array_equal(pair[0], b.residues)
            assert np.array_equal(pair[1], a.residues)

    def test_gadget_scalars_structure(self, small_keys, small_ring,
                                      small_params):
        """P*Q_tilde_j: P mod q_i inside block j, 0 elsewhere."""
        blocks = small_ring.decomposition_blocks(small_params.l)
        p_prod = small_ring.p_product
        for start, stop in blocks:
            scalars = small_keys._gadget_scalars((start, stop))
            for i, prime in enumerate(small_ring.base_q(small_params.l)):
                expected = p_prod % prime.value if start <= i < stop else 0
                assert scalars[prime.value] == expected
            for prime in small_ring.base_p:
                assert scalars[prime.value] == 0

    def test_switching_key_requires_full_base(self, small_keys,
                                              small_ring):
        short = small_keys.secret.restricted(small_ring.base_q(2))
        with pytest.raises(ValueError):
            small_keys.gen_switching_key(short)

    def test_rotation_key_galois_element(self, small_keys, small_ring):
        """Rotation key for amount r targets s(X^(5^r))."""
        evk = small_keys.gen_rotation_key(1)
        # decrypt gadget slice 0 on the first block primes: b - a*s should
        # contain P * s(X^5); verify it differs from the identity key.
        relin = small_keys.gen_relinearization_key()
        assert not np.array_equal(evk.slices[0][0].residues,
                                  relin.slices[0][0].residues)

    def test_conjugation_key_distinct(self, small_keys):
        conj = small_keys.gen_conjugation_key()
        rot = small_keys.gen_rotation_key(1)
        assert not np.array_equal(conj.slices[0][0].residues,
                                  rot.slices[0][0].residues)


class TestSymmetricEncryption:
    def test_level_selection(self, small_keys, small_encoder, rng):
        z = rng.normal(size=4)
        pt = small_encoder.encode(z, 2.0 ** 40, level=2)
        ct = small_keys.encrypt_symmetric(pt.poly, pt.scale, 4)
        assert ct.level == 2

    def test_slots_recorded(self, small_keys, small_encoder, rng):
        z = rng.normal(size=8)
        pt = small_encoder.encode(z, 2.0 ** 40)
        ct = small_keys.encrypt_symmetric(pt.poly, pt.scale, 8)
        assert ct.n_slots == 8


class TestEvkDedupe:
    """Identical evks are generated once and shared (PR-3 satellite)."""

    def test_rotation_key_cached_by_amount(self, small_ring):
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        assert kg.gen_rotation_key(2) is kg.gen_rotation_key(2)

    def test_relinearization_key_cached(self, small_ring):
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        assert kg.gen_relinearization_key() is kg.gen_relinearization_key()

    def test_conjugation_and_rotation_share_galois_cache(self, small_ring):
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        conj = kg.gen_conjugation_key()
        assert kg.gen_galois_key(2 * small_ring.n - 1) is conj

    def test_ensure_rotation_keys_unions_and_skips_existing(
            self, small_ring):
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        ev = Evaluator(small_ring)
        first = kg.ensure_rotation_keys(ev, [1, 2, 0, 2])
        assert set(first) == {1, 2}  # amount 0 skipped, dupes folded
        existing = ev.rotation_keys[1]
        kg.ensure_rotation_keys(ev, {1, 3})
        assert ev.rotation_keys[1] is existing
        assert set(ev.rotation_keys) == {1, 2, 3}

    def test_interleaved_program_unions_never_regenerate(self, small_ring):
        """Serving sessions run many programs; unions must reuse evks.

        Two programs' rotation unions arrive interleaved, on *different*
        evaluators of the same session keygen, with overlapping amounts
        and aliases (negative amounts, amounts shifted by N/2 — the
        order of the slot generator 5).  ``switching_keys_generated``
        must count exactly one generation per distinct galois element.
        """
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        half = small_ring.n // 2
        ev_a, ev_b = Evaluator(small_ring), Evaluator(small_ring)
        kg.ensure_rotation_keys(ev_a, [1, 2])          # program A
        kg.ensure_rotation_keys(ev_b, [2, 3])          # program B
        kg.ensure_rotation_keys(ev_a, [3, 1 + half])   # A again (alias)
        kg.ensure_rotation_keys(ev_b, [1, -1])         # B: -1 == half - 1
        assert kg.switching_keys_generated == 4  # elements 1, 2, 3, -1
        assert set(ev_a.rotation_keys) == {1, 2, 3}
        assert set(ev_b.rotation_keys) == {1, 2, 3, half - 1}
        for amount in (1, 2, 3):
            assert ev_a.rotation_keys[amount] is ev_b.rotation_keys[amount]

    def test_negative_amounts_are_canonicalized(self, small_ring):
        """A raw -1 keys the entry a fully-packed rotate looks up.

        Before canonicalization ensure_rotation_keys stored it under
        ``-1`` — an entry no ``amount % n_slots`` lookup can ever hit.
        (Sparse-packing callers must slot-reduce first; the runtime IR
        always does — see ``canonical_rotation``'s docstring.)
        """
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        ev = Evaluator(small_ring)
        kg.ensure_rotation_keys(ev, [-1])
        half = small_ring.n // 2
        assert set(ev.rotation_keys) == {half - 1}
        assert kg.canonical_rotation(-1) == half - 1

    def test_rotation_keys_for_bundles_cached_objects(self, small_ring):
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        first = kg.rotation_keys_for([1, 2, 0])
        assert set(first) == {1, 2}  # 0 skipped
        again = kg.rotation_keys_for([2, 1])
        assert again[1] is first[1] and again[2] is first[2]

    def test_concurrent_generation_is_single_flight(self, small_ring):
        """The scheduler's worker pool must not double-generate an evk."""
        import threading
        from repro.ckks.keys import KeyGenerator
        kg = KeyGenerator(small_ring, seed=99)
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(kg.gen_rotation_key(5))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(evk is results[0] for evk in results)
        assert kg.switching_keys_generated == 1

    def test_bootstrap_generate_keys_accepts_extra_rotations(
            self, small_ring):
        from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.keys import KeyGenerator
        from repro.ckks.sine import SineConfig
        kg = KeyGenerator(small_ring, seed=99)
        ev = Evaluator(small_ring)
        bs = Bootstrapper(ev, BootstrapConfig(
            n_slots=4, sine=SineConfig(k_range=12, degree=1,
                                       double_angles=0)))
        bs.generate_keys(kg, extra_rotations={5, 1})
        required = bs.required_rotations(small_ring.n, 4)
        assert required | {5, 1} <= set(ev.rotation_keys)
        # shared amounts were keyed once: the evaluator holds the
        # keygen's cached object for every amount
        for amount, evk in ev.rotation_keys.items():
            assert kg.gen_rotation_key(amount) is evk
