"""Tests for homomorphic BSGS linear transforms."""

import numpy as np
import pytest

from repro.ckks.linear_transform import (
    LinearTransform,
    bsgs_rotations,
    bsgs_split,
    matrix_diagonals,
)
from tests.conftest import encrypt_message

SCALE = 2.0 ** 40


class TestDiagonals:
    def test_identity_matrix(self):
        diags = matrix_diagonals(np.eye(8, dtype=complex))
        assert set(diags) == {0}
        assert np.allclose(diags[0], np.ones(8))

    def test_shift_matrix(self):
        """A cyclic shift matrix is a single off-diagonal."""
        n = 8
        mat = np.zeros((n, n), dtype=complex)
        for j in range(n):
            mat[j, (j + 3) % n] = 1.0
        diags = matrix_diagonals(mat)
        assert set(diags) == {3}

    def test_dense_matrix_has_all_diagonals(self, rng):
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert len(matrix_diagonals(mat)) == 8

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((4, 8)))

    def test_reconstruction(self, rng):
        """M z == sum_d diag_d * roll(z, -d) (the BSGS identity)."""
        n = 16
        mat = rng.normal(size=(n, n))
        z = rng.normal(size=n)
        diags = matrix_diagonals(mat)
        via_diags = sum(diags[d] * np.roll(z, -d) for d in diags)
        assert np.allclose(via_diags, mat @ z)


class TestBsgsPlanning:
    def test_split_is_power_of_two(self):
        for n in (16, 64, 100, 256):
            g = bsgs_split(n)
            assert g & (g - 1) == 0
            assert g >= int(np.sqrt(n))

    def test_rotation_amounts_cover(self):
        n = 16
        amounts = bsgs_rotations(n, n)
        g = bsgs_split(n)
        for d in range(1, n):
            baby = d % g
            giant = (d - baby) % n
            assert baby in amounts | {0}
            assert giant in amounts | {0}

    def test_zero_rotation_excluded(self):
        assert 0 not in bsgs_rotations(16, 16)


class TestHomomorphicApply:
    @pytest.fixture()
    def lt_evaluator(self, small_ring, small_keys):
        from repro.ckks.evaluator import Evaluator
        n_slots = 16
        amounts = bsgs_rotations(n_slots, n_slots)
        return Evaluator(
            small_ring,
            relin_key=small_keys.gen_relinearization_key(),
            rotation_keys={r: small_keys.gen_rotation_key(r)
                           for r in amounts},
            conjugation_key=small_keys.gen_conjugation_key())

    def test_identity_transform(self, lt_evaluator, small_keys,
                                small_encoder, rng):
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        lt = LinearTransform.from_matrix(np.eye(16, dtype=complex))
        out = lt.apply(lt_evaluator, ct)
        got = lt_evaluator.decrypt_to_message(out, small_keys.secret)
        assert np.max(np.abs(got - z)) < 1e-5
        assert out.level == ct.level - 1

    def test_dense_matrix(self, lt_evaluator, small_keys, small_encoder,
                          rng):
        n = 16
        mat = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        lt = LinearTransform.from_matrix(mat)
        out = lt.apply(lt_evaluator, ct)
        got = lt_evaluator.decrypt_to_message(out, small_keys.secret)
        assert np.max(np.abs(got - mat @ z)) < 1e-4

    def test_sparse_diagonal_matrix(self, lt_evaluator, small_keys,
                                    small_encoder, rng):
        n = 16
        mat = np.diag(rng.normal(size=n)).astype(complex)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        out = LinearTransform.from_matrix(mat).apply(lt_evaluator, ct)
        got = lt_evaluator.decrypt_to_message(out, small_keys.secret)
        assert np.max(np.abs(got - mat @ z)) < 1e-5

    def test_slot_count_mismatch(self, lt_evaluator, small_keys,
                                 small_encoder, rng):
        z = rng.normal(size=8)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        lt = LinearTransform.from_matrix(np.eye(16, dtype=complex))
        with pytest.raises(ValueError):
            lt.apply(lt_evaluator, ct)

    def test_required_rotations_subset(self):
        lt = LinearTransform.from_matrix(np.eye(16, dtype=complex))
        assert lt.required_rotations() == set()


class TestDoubleHoisting:
    """Lazy giant-step accumulation vs the eager reference path.

    The double-hoisted path is the evaluator's lazy key-switch
    accumulator with one group per giant step, the same accumulator
    ``rotate_reduce`` runs as one group (pinned byte for byte below).

    Double-hoisting reorders where the ModDown BConv approximation
    enters (once per giant group instead of once per baby step), so the
    two routes are not bit-identical — they must agree at the message
    level to far below the noise floor, at every level, including rings
    where level truncation leaves a ragged decomposition tail.
    """

    def test_matches_eager_reference_dense(self, small_ring, small_keys,
                                           small_encoder, rng):
        from repro.ckks.evaluator import Evaluator

        n = 16
        amounts = bsgs_rotations(n, n)
        ev = Evaluator(
            small_ring,
            relin_key=small_keys.gen_relinearization_key(),
            rotation_keys={r: small_keys.gen_rotation_key(r)
                           for r in amounts})
        mat = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        lt = LinearTransform.from_matrix(mat)
        for level in (small_ring.max_level, small_ring.max_level - 1, 3):
            ct = ev.drop_to_level(
                encrypt_message(small_keys, small_encoder, z, SCALE),
                level)
            lazy = lt.apply(ev, ct, double_hoist=True)
            eager = lt.apply(ev, ct, double_hoist=False)
            assert lazy.level == eager.level
            assert lazy.scale == eager.scale
            got = ev.decrypt_to_message(lazy, small_keys.secret)
            want = ev.decrypt_to_message(eager, small_keys.secret)
            assert np.max(np.abs(got - want)) < 1e-7, level
            assert np.max(np.abs(got - mat @ z)) < 1e-4, level

    @pytest.mark.parametrize("giant", [0, 4])
    def test_one_giant_group_equals_rotate_reduce(self, small_evaluator,
                                                  small_keys, small_encoder,
                                                  rng, monkeypatch, giant):
        """The double-hoisted BSGS and ``rotate_reduce`` share one
        accumulator: a one-group transform is the fused sum over its
        pre-rotated diagonals, rotated by the giant step and rescaled."""
        from repro.ckks.evaluator import ReduceTerm

        n = 16
        g = bsgs_split(n)
        ev = small_evaluator
        diagonals = {giant + b: rng.normal(size=n) + 1j * rng.normal(size=n)
                     for b in range(g)}
        lt = LinearTransform(diagonals, n)
        ct = encrypt_message(small_keys, small_encoder,
                             rng.normal(size=n) + 0j, SCALE)
        pmult_scale = float(ev.ring.q_primes[ct.level].value)
        fused = ev.rotate_reduce(ct, [
            ReduceTerm(d % g, 1, np.roll(diag, giant), pmult_scale)
            for d, diag in diagonals.items()])
        if giant:
            fused = ev.rotate(fused, giant)
        pairs = [(lt.apply(ev, ct), ev.rescale(fused))]
        # The rescale's rounding would hide a shift of a few units, so
        # compare the sums before it too.
        monkeypatch.setattr(ev, "rescale", lambda x: x)
        pairs.append((lt.apply(ev, ct), fused))
        for got, want in pairs:
            assert got.scale == want.scale and got.level == want.level
            assert np.array_equal(got.b.residues, want.b.residues)
            assert np.array_equal(got.a.residues, want.a.residues)

    def test_moddown_tally_per_group_and_giant_rotation(
            self, small_ring, small_keys, small_encoder, rng):
        """Two ModDowns per giant group, two per nonzero giant HRot."""
        from repro import obs
        from repro.ckks.evaluator import Evaluator
        from repro.obs import kernel as K

        n = 16
        ev = Evaluator(small_ring, rotation_keys={
            r: small_keys.gen_rotation_key(r)
            for r in bsgs_rotations(n, n)})
        mat = rng.normal(size=(n, n)) + 0j
        lt = LinearTransform.from_matrix(mat)
        giants = {d - d % bsgs_split(n) for d in lt.diagonals}
        ct = encrypt_message(small_keys, small_encoder,
                             rng.normal(size=n) + 0j, SCALE)
        obs.enable()
        try:
            K.reset()
            lt.apply(ev, ct)
            tally = K.snapshot()
        finally:
            obs.disable()
        assert len(giants) == 4
        assert tally["moddown"] == 2 * len(giants) + 2 * (len(giants) - 1)

    def test_p_scaled_extension_roundtrip(self, small_ring, rng):
        """mod_down(P * poly) == poly exactly (the baby-0 identity)."""
        from repro.ckks.keyswitch import mod_down, p_scaled_extension
        from repro.ckks.rns import RnsPolynomial

        level = 4
        base = small_ring.base_q(level)
        poly = RnsPolynomial(base, np.stack([
            rng.integers(0, p.value, size=small_ring.n, dtype=np.uint64)
            for p in base]), is_ntt=True)
        extended = p_scaled_extension(poly, level, small_ring)
        assert np.all(extended.residues[level + 1:] == 0)
        back = mod_down(extended, level, small_ring)
        assert np.array_equal(back.residues, poly.residues)

    def test_p_scaled_extension_requires_ntt(self, small_ring, rng):
        from repro.ckks.keyswitch import p_scaled_extension
        from repro.ckks.rns import RnsPolynomial

        base = small_ring.base_q(2)
        poly = RnsPolynomial(base, np.stack([
            rng.integers(0, p.value, size=small_ring.n, dtype=np.uint64)
            for p in base]), is_ntt=False)
        with pytest.raises(ValueError):
            p_scaled_extension(poly, 2, small_ring)

    def test_accumulate_then_moddown_equals_key_switch_raised(
            self, small_ring, small_keys, rng):
        """key_switch_raised == mod_down_pair(key_switch_accumulate)."""
        from repro.ckks.keyswitch import (
            key_switch_accumulate,
            key_switch_raised,
            mod_down_pair,
            raise_decomposition,
        )
        from repro.ckks.rns import RnsPolynomial

        level = 4
        evk = small_keys.gen_relinearization_key()
        base = small_ring.base_q(level)
        poly = RnsPolynomial(base, np.stack([
            rng.integers(0, p.value, size=small_ring.n, dtype=np.uint64)
            for p in base]), is_ntt=True)
        raised = raise_decomposition(poly, level, small_ring)
        b1, a1 = key_switch_raised(raised, evk, level, small_ring)
        acc_b, acc_a = key_switch_accumulate(raised, evk, level,
                                             small_ring)
        b2, a2 = mod_down_pair(acc_b, acc_a, level, small_ring)
        assert np.array_equal(b1.residues, b2.residues)
        assert np.array_equal(a1.residues, a2.residues)
