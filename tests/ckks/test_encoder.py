"""Tests for the canonical-embedding encoder."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ckks.encoder import Encoder, embed_to_slots, slots_to_coeffs
from tests.conftest import constant_plaintext_oracle, real_scalars


class TestEmbeddingMaps:
    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_float_roundtrip(self, n, rng):
        z = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        back = embed_to_slots(slots_to_coeffs(z, n))
        assert np.max(np.abs(back - z)) < 1e-9

    def test_coeffs_are_real(self, rng):
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        coeffs = slots_to_coeffs(z, 32)
        assert coeffs.dtype == np.float64

    def test_constant_message(self):
        """A constant message encodes as a constant polynomial."""
        coeffs = slots_to_coeffs(np.full(8, 2.5 + 0j), 16)
        assert coeffs[0] == pytest.approx(2.5)
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_embedding_is_linear(self, rng):
        c1 = rng.normal(size=64)
        c2 = rng.normal(size=64)
        lhs = embed_to_slots(c1 + 2.0 * c2)
        rhs = embed_to_slots(c1) + 2.0 * embed_to_slots(c2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_x_pow_half_n_is_i(self):
        """X^(N/2) evaluates to +i in every slot (used by EvalMod)."""
        n = 64
        coeffs = np.zeros(n)
        coeffs[n // 2] = 1.0
        slots = embed_to_slots(coeffs)
        assert np.max(np.abs(slots - 1j)) < 1e-9


class TestEncoderRoundtrip:
    def test_full_packing(self, small_encoder, rng, small_params):
        n_slots = small_params.slots_max
        z = rng.normal(size=n_slots) + 1j * rng.normal(size=n_slots)
        pt = small_encoder.encode(z, 2.0 ** 40)
        got = small_encoder.decode(pt, n_slots)
        assert np.max(np.abs(got - z)) < 1e-8

    @pytest.mark.parametrize("n_slots", [1, 4, 32])
    def test_sparse_packing(self, small_encoder, rng, n_slots):
        z = rng.normal(size=n_slots) + 1j * rng.normal(size=n_slots)
        pt = small_encoder.encode(z, 2.0 ** 40)
        got = small_encoder.decode(pt, n_slots)
        assert np.max(np.abs(got - z)) < 1e-8

    def test_sparse_replicates(self, small_encoder, rng, small_params):
        """Sparse packing replicates the message across all slots."""
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        pt = small_encoder.encode(z, 2.0 ** 40)
        full = small_encoder.decode(pt, small_params.slots_max)
        replicas = small_params.slots_max // 4
        expected = np.tile(z, replicas)
        assert np.max(np.abs(full - expected)) < 1e-8

    def test_rejects_bad_slot_count(self, small_encoder):
        with pytest.raises(ValueError):
            small_encoder.encode(np.zeros(3), 2.0 ** 40)

    def test_rejects_oversized(self, small_encoder, small_params):
        with pytest.raises(ValueError):
            small_encoder.encode(np.zeros(small_params.n), 2.0 ** 40)

    def test_level_selects_base(self, small_encoder):
        pt = small_encoder.encode(np.ones(4), 2.0 ** 40, level=2)
        assert pt.level == 2

    def test_precision_scales_with_delta(self, small_encoder, rng):
        z = rng.normal(size=8)
        coarse = small_encoder.decode(small_encoder.encode(z, 2.0 ** 20), 8)
        fine = small_encoder.decode(small_encoder.encode(z, 2.0 ** 40), 8)
        assert np.max(np.abs(fine - z)) < np.max(np.abs(coarse - z))


class TestScalarEncoding:
    def test_real_scalar(self, small_encoder, small_ring, small_params):
        pt = small_encoder.encode_scalar(3.25, 2.0 ** 40,
                                         small_ring.base_q(2))
        got = small_encoder.decode(pt, small_params.slots_max)
        assert np.max(np.abs(got - 3.25)) < 1e-9

    def test_complex_scalar(self, small_encoder, small_ring,
                            small_params):
        pt = small_encoder.encode_scalar(1.0 + 2.0j, 2.0 ** 40,
                                         small_ring.base_q(2))
        got = small_encoder.decode(pt, small_params.slots_max)
        assert np.max(np.abs(got - (1.0 + 2.0j))) < 1e-8

    def test_negative_scalar(self, small_encoder, small_ring):
        pt = small_encoder.encode_scalar(-7.5, 2.0 ** 40,
                                         small_ring.base_q(1))
        got = small_encoder.decode(pt, 4)
        assert np.max(np.abs(got + 7.5)) < 1e-9


class TestScalarColumnOracle:
    """Real scalars encode as residue columns, never through an NTT.

    The oracle is the constant polynomial ``round(value*scale)`` spread
    over the base and forward-transformed; the column route must equal
    it byte for byte over ``C_level`` and ``C_level + B``.
    """

    @given(value=real_scalars, level=st.integers(0, 6),
           extended=st.booleans(),
           scale_bits=st.sampled_from([30, 40, 52]))
    @example(value=2.0 ** 22, level=6, extended=True, scale_bits=40)
    @example(value=-(2.0 ** 23) - 0.5, level=0, extended=False,
             scale_bits=40)
    @settings(max_examples=60, deadline=None)
    def test_encode_scalar_matches_constant_oracle(
            self, small_encoder, small_ring, value, level, extended,
            scale_bits):
        base = (small_ring.base_qp(level) if extended
                else small_ring.base_q(level))
        scale = 2.0 ** scale_bits
        got = small_encoder.encode_scalar(value, scale, base)
        want = constant_plaintext_oracle(small_ring, value, scale, base)
        assert got.poly.base == want.poly.base
        assert got.poly.is_ntt and want.poly.is_ntt
        assert got.poly.residues.dtype == want.poly.residues.dtype
        assert np.array_equal(got.poly.residues, want.poly.residues)
        assert got.scale == want.scale
        cols, _ = small_encoder.scalar_columns(value, scale, base)
        assert np.array_equal(cols[:, 0], want.poly.residues[:, 0])

    def test_complex_scalar_has_no_column(self, small_encoder, small_ring):
        base = small_ring.base_q(3)
        assert small_encoder.scalar_columns(1.0 + 2.0j, 2.0 ** 40,
                                            base) is None
        assert small_encoder.scalar_columns(3.0 + 0j, 2.0 ** 40,
                                            base) is not None

    def test_complex_scalar_takes_generic_encode(self, small_encoder,
                                                 small_ring, small_params):
        base = small_ring.base_q(3)
        got = small_encoder.encode_scalar(0.5 - 1.5j, 2.0 ** 40, base)
        want = small_encoder.encode(
            np.full(small_params.slots_max, 0.5 - 1.5j), 2.0 ** 40,
            base=base)
        assert np.array_equal(got.poly.residues, want.poly.residues)


@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False, allow_infinity=False),
                min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(values):
    """encode/decode stays within quantization error for any message."""
    n = 32
    z = np.array(values[:n // 2] + [0.0] * max(0, n // 2 - len(values)))
    back = embed_to_slots(slots_to_coeffs(z.astype(complex), n))
    assert np.max(np.abs(back - z)) < 1e-8
