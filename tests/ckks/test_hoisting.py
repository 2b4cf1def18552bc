"""Tests for hoisted rotations (shared-ModUp key-switching)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.keyswitch import (
    key_switch,
    key_switch_raised,
    raise_decomposition,
)
from repro.ckks.rns import RnsPolynomial
from tests.conftest import encrypt_message

SCALE = 2.0 ** 40


def _uniform(ring, base, seed):
    rng = np.random.default_rng(seed)
    residues = np.stack([
        rng.integers(0, p.value, size=ring.n, dtype=np.uint64)
        for p in base])
    return RnsPolynomial(base, residues, is_ntt=True)


class TestRaiseDecomposition:
    def test_slice_count_matches_beta(self, small_ring, small_params):
        level = small_params.l
        poly = _uniform(small_ring, small_ring.base_q(level), 1)
        raised = raise_decomposition(poly, level, small_ring)
        assert len(raised) == len(
            small_ring.decomposition_blocks(level))

    def test_slices_on_working_base(self, small_ring):
        poly = _uniform(small_ring, small_ring.base_q(3), 2)
        for piece in raise_decomposition(poly, 3, small_ring):
            assert piece.base == small_ring.base_qp(3)
            assert piece.is_ntt

    def test_requires_ntt(self, small_ring):
        poly = _uniform(small_ring, small_ring.base_q(2), 3).from_ntt()
        with pytest.raises(ValueError):
            raise_decomposition(poly, 2, small_ring)


class TestSplitKeySwitchEquivalence:
    def test_two_phase_equals_monolithic(self, small_ring, small_keys):
        """raise + key_switch_raised == key_switch exactly."""
        level = 4
        evk = small_keys.gen_relinearization_key()
        poly = _uniform(small_ring, small_ring.base_q(level), 4)
        b1, a1 = key_switch(poly, evk, level, small_ring)
        raised = raise_decomposition(poly, level, small_ring)
        b2, a2 = key_switch_raised(raised, evk, level, small_ring)
        assert np.array_equal(b1.residues, b2.residues)
        assert np.array_equal(a1.residues, a2.residues)

    def test_too_few_evk_slices_rejected(self, small_ring, small_keys):
        from repro.ckks.keys import EvaluationKey
        evk = small_keys.gen_relinearization_key()
        truncated = EvaluationKey(slices=evk.slices[:1])
        level = small_ring.max_level  # needs dnum slices
        poly = _uniform(small_ring, small_ring.base_q(level), 5)
        raised = raise_decomposition(poly, level, small_ring)
        if len(raised) > 1:
            with pytest.raises(ValueError):
                key_switch_raised(raised, truncated, level, small_ring)


class TestHoistedRotation:
    def test_matches_individual_rotations(self, small_evaluator,
                                          small_keys, small_encoder, rng,
                                          small_params):
        z = rng.normal(size=small_params.slots_max) \
            + 1j * rng.normal(size=small_params.slots_max)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        amounts = [1, 2, 4]
        hoisted = small_evaluator.galois_hoisted(ct, amounts)
        for amount in amounts:
            want = small_evaluator.decrypt_to_message(
                small_evaluator.rotate(ct, amount), small_keys.secret)
            got = small_evaluator.decrypt_to_message(
                hoisted[amount], small_keys.secret)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_correct_against_plaintext(self, small_evaluator, small_keys,
                                       small_encoder, rng, small_params):
        z = rng.normal(size=small_params.slots_max) \
            + 1j * rng.normal(size=small_params.slots_max)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        hoisted = small_evaluator.galois_hoisted(ct, [2, 3])
        for amount in (2, 3):
            got = small_evaluator.decrypt_to_message(hoisted[amount],
                                                     small_keys.secret)
            assert np.max(np.abs(got - np.roll(z, -amount))) < 1e-6

    def test_zero_amount_identity(self, small_evaluator, small_keys,
                                  small_encoder, rng, small_params):
        z = rng.normal(size=small_params.slots_max) + 0j
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        hoisted = small_evaluator.galois_hoisted(ct, [0, 1])
        got = small_evaluator.decrypt_to_message(hoisted[0],
                                                 small_keys.secret)
        assert np.max(np.abs(got - z)) < 1e-6

    def test_duplicate_amounts_deduplicated(self, small_evaluator,
                                            small_keys, small_encoder,
                                            rng, small_params):
        z = rng.normal(size=small_params.slots_max) + 0j
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        hoisted = small_evaluator.galois_hoisted(ct, [1, 1, 1])
        assert set(hoisted) == {1}

    def test_missing_key_rejected(self, small_evaluator, small_keys,
                                  small_encoder, rng, small_params):
        z = rng.normal(size=small_params.slots_max) + 0j
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        with pytest.raises(ValueError):
            small_evaluator.galois_hoisted(ct, [7])

    def test_works_at_lower_level(self, small_evaluator, small_keys,
                                  small_encoder, rng, small_params):
        z = rng.normal(size=small_params.slots_max) + 0j
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        low = small_evaluator.drop_to_level(ct, 2)
        hoisted = small_evaluator.galois_hoisted(low, [1])
        got = small_evaluator.decrypt_to_message(hoisted[1],
                                                 small_keys.secret)
        assert np.max(np.abs(got - np.roll(z, -1))) < 1e-6


@pytest.mark.slow
class TestHoistedBitIdentity:
    """Invariant: galois_hoisted(ct, rots) == {r: rotate(ct, r)} bitwise.

    Both paths funnel through ``Evaluator._galois_from_raised``; the
    only difference is whether the decompose/ModUp half is shared, and
    that half is a deterministic function of ``ct.a``.  Any residue
    mismatch means the shared half leaked rotation-dependent state.
    """

    @given(amounts=st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]),
                            min_size=1, max_size=5),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           level_drop=st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_to_sequential(self, amounts, seed, level_drop,
                                         small_evaluator, small_keys,
                                         small_encoder, small_params):
        gen = np.random.default_rng(seed)
        z = gen.normal(size=small_params.slots_max) \
            + 1j * gen.normal(size=small_params.slots_max)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        if level_drop:
            ct = small_evaluator.drop_to_level(ct, ct.level - level_drop)
        hoisted = small_evaluator.galois_hoisted(ct, amounts)
        for amount in set(amounts):
            want = small_evaluator.rotate(ct, amount)
            got = hoisted[amount]
            assert got.level == want.level
            assert got.scale == want.scale
            assert np.array_equal(got.b.residues, want.b.residues)
            assert np.array_equal(got.a.residues, want.a.residues)
