"""Wire-format round-trip bit-identity and rejection tests.

The contract under test: ``deserialize(serialize(x))`` reproduces every
residue bit, scale bit and metadata field of ``x``; any truncation,
corruption, or params mismatch raises :class:`WireError` instead of
decoding garbage.  A hypothesis sweep covers random levels/domains and
every key type; unmarked smoke variants keep the fast CI tier on the
same code paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.params import CkksParams, RingContext
from repro.service import wire
from repro.service.wire import WireError


def _random_poly(ring, level, *, with_p=False, is_ntt=True, seed=0):
    from repro.ckks.rns import RnsPolynomial

    base = ring.base_qp(level) if with_p else ring.base_q(level)
    rng = np.random.default_rng(seed)
    residues = np.stack([rng.integers(0, p.value, size=ring.n,
                                      dtype=np.uint64) for p in base])
    return RnsPolynomial(base, residues, is_ntt)


def _random_ct(ring, level, *, is_ntt=True, seed=0, n_slots=8,
               scale=2.0 ** 40):
    return Ciphertext(b=_random_poly(ring, level, is_ntt=is_ntt, seed=seed),
                      a=_random_poly(ring, level, is_ntt=is_ntt,
                                     seed=seed + 1),
                      scale=scale, n_slots=n_slots)


def _assert_poly_identical(p0, p1):
    assert p0.base == p1.base
    assert p0.is_ntt == p1.is_ntt
    assert np.array_equal(p0.residues, p1.residues)


class TestCiphertextRoundTrip:
    def test_full_level_ntt(self, small_ring):
        ct = _random_ct(small_ring, small_ring.max_level)
        blob = wire.serialize_ciphertext(ct, small_ring.params)
        back = wire.deserialize_ciphertext(blob, small_ring)
        _assert_poly_identical(ct.b, back.b)
        _assert_poly_identical(ct.a, back.a)
        assert back.scale == ct.scale and back.n_slots == ct.n_slots

    def test_serialization_is_deterministic(self, small_ring):
        ct = _random_ct(small_ring, 2, seed=9)
        params = small_ring.params
        assert wire.serialize_ciphertext(ct, params) \
            == wire.serialize_ciphertext(ct, params)

    def test_reserialize_is_identity(self, small_ring):
        ct = _random_ct(small_ring, 3, is_ntt=False, seed=4)
        blob = wire.serialize_ciphertext(ct, small_ring.params)
        back = wire.deserialize_ciphertext(blob, small_ring)
        assert wire.serialize_ciphertext(back, small_ring.params) == blob

    def test_real_ciphertext_decrypts_after_round_trip(
            self, small_ring, small_keys, small_encoder, small_evaluator):
        z = np.linspace(-0.3, 0.3, 8) + 0j
        pt = small_encoder.encode(z, 2.0 ** 40)
        ct = small_keys.encrypt_symmetric(pt.poly, 2.0 ** 40, 8)
        blob = wire.serialize_ciphertext(ct, small_ring.params)
        back = wire.deserialize_ciphertext(blob, small_ring)
        got = small_evaluator.decrypt_to_message(back, small_keys.secret)
        assert np.max(np.abs(got - z)) < 1e-6

    @pytest.mark.slow
    @settings(deadline=None, max_examples=40)
    @given(level=st.integers(0, 6), is_ntt=st.booleans(),
           seed=st.integers(0, 2 ** 16),
           n_slots=st.sampled_from([1, 4, 8, 64]),
           scale=st.floats(2.0 ** 20, 2.0 ** 60, allow_nan=False))
    def test_round_trip_bit_identity_sweep(self, small_ring, level,
                                           is_ntt, seed, n_slots, scale):
        ct = _random_ct(small_ring, level, is_ntt=is_ntt, seed=seed,
                        n_slots=n_slots, scale=scale)
        blob = wire.serialize_ciphertext(ct, small_ring.params)
        back = wire.deserialize_ciphertext(blob, small_ring)
        _assert_poly_identical(ct.b, back.b)
        _assert_poly_identical(ct.a, back.a)
        # scale must survive by exact float bit pattern
        assert np.float64(back.scale).tobytes() \
            == np.float64(ct.scale).tobytes()
        assert back.n_slots == ct.n_slots


class TestOtherObjectRoundTrips:
    def test_plaintext(self, small_ring, small_encoder):
        pt = small_encoder.encode(np.linspace(0, 1, 8) + 0j, 2.0 ** 40,
                                  level=3)
        blob = wire.serialize_plaintext(pt, small_ring.params)
        back = wire.deserialize_plaintext(blob, small_ring)
        _assert_poly_identical(pt.poly, back.poly)
        assert back.scale == pt.scale

    def test_params_self_describing(self, small_params):
        blob = wire.serialize_params(small_params)
        back = wire.deserialize_params(blob)
        assert back == small_params
        assert back.digest == small_params.digest

    def test_public_key(self, small_ring, small_keys):
        pk = small_keys.gen_public_key()
        blob = wire.serialize_public_key(pk, small_ring.params)
        back = wire.deserialize_public_key(blob, small_ring)
        _assert_poly_identical(pk.b, back.b)
        _assert_poly_identical(pk.a, back.a)

    def test_relinearization_key(self, small_ring, small_keys):
        evk = small_keys.gen_relinearization_key()
        blob = wire.serialize_evaluation_key(evk, small_ring.params)
        back = wire.deserialize_evaluation_key(blob, small_ring)
        assert back.dnum == evk.dnum
        for (b0, a0), (b1, a1) in zip(evk.slices, back.slices):
            _assert_poly_identical(b0, b1)
            _assert_poly_identical(a0, a1)

    def test_galois_bundle(self, small_ring, small_keys):
        keys = small_keys.rotation_keys_for({1, 2, 4})
        conj = small_keys.gen_conjugation_key()
        blob = wire.serialize_galois_keys(keys, small_ring.params,
                                          conjugation_key=conj)
        back, back_conj = wire.deserialize_galois_keys(blob, small_ring)
        assert set(back) == {1, 2, 4}
        for amount in back:
            for (b0, a0), (b1, a1) in zip(keys[amount].slices,
                                          back[amount].slices):
                _assert_poly_identical(b0, b1)
                _assert_poly_identical(a0, a1)
        for (b0, a0), (b1, a1) in zip(conj.slices, back_conj.slices):
            _assert_poly_identical(b0, b1)
            _assert_poly_identical(a0, a1)

    def test_generic_dispatch_all_kinds(self, small_ring, small_keys,
                                        small_encoder):
        from repro.ckks.keys import EvaluationKey, PublicKey

        pt = small_encoder.encode(np.zeros(4) + 0j, 2.0 ** 40)
        ct = small_keys.encrypt_symmetric(pt.poly, 2.0 ** 40, 4)
        objects = [
            (small_ring.params, type(small_ring.params),
             wire.ObjectKind.PARAMS),
            (pt, Plaintext, wire.ObjectKind.PLAINTEXT),
            (ct, Ciphertext, wire.ObjectKind.CIPHERTEXT),
            (small_keys.gen_public_key(), PublicKey,
             wire.ObjectKind.PUBLIC_KEY),
            (small_keys.gen_relinearization_key(), EvaluationKey,
             wire.ObjectKind.EVALUATION_KEY),
        ]
        for obj, cls, kind in objects:
            blob = wire.serialize(obj, small_ring.params)
            assert wire.peek_kind(blob) is kind
            assert isinstance(wire.deserialize(blob, small_ring), cls)
        galois_blob = wire.serialize_galois_keys(
            small_keys.rotation_keys_for({1}), small_ring.params)
        keys, conj = wire.deserialize(galois_blob, small_ring)
        assert set(keys) == {1} and conj is None

    def test_generic_serialize_rejects_unknown_types(self, small_ring):
        with pytest.raises(TypeError, match="no wire encoding"):
            wire.serialize(object(), small_ring.params)

    def test_peek_kind_rejects_short_or_foreign_blobs(self):
        with pytest.raises(WireError, match="truncated"):
            wire.peek_kind(b"BTSW")
        with pytest.raises(WireError, match="magic"):
            wire.peek_kind(b"\x00" * 64)


class TestRejection:
    """Every malformed or incompatible blob must raise WireError."""

    @pytest.fixture()
    def blob(self, small_ring):
        return wire.serialize_ciphertext(
            _random_ct(small_ring, 2, seed=3), small_ring.params)

    def test_truncation_rejected_everywhere(self, small_ring, blob):
        cuts = sorted({0, 1, 4, 8, 16, 31, 32, 33, len(blob) // 2,
                       len(blob) - 5, len(blob) - 1})
        for cut in cuts:
            with pytest.raises(WireError):
                wire.deserialize_ciphertext(blob[:cut], small_ring)

    def test_trailing_garbage_rejected(self, small_ring, blob):
        with pytest.raises(WireError, match="length mismatch"):
            wire.deserialize_ciphertext(blob + b"\x00", small_ring)

    def test_header_corruption_rejected(self, small_ring, blob):
        for offset in range(32):
            bad = bytearray(blob)
            bad[offset] ^= 0xFF
            with pytest.raises(WireError):
                wire.deserialize_ciphertext(bytes(bad), small_ring)

    @pytest.mark.slow
    def test_single_bit_body_corruption_rejected(self, small_ring, blob):
        rng = np.random.default_rng(0)
        for offset in rng.integers(32, len(blob) - 4, size=32):
            bad = bytearray(blob)
            bad[offset] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(WireError):
                wire.deserialize_ciphertext(bytes(bad), small_ring)

    def test_wrong_kind_rejected(self, small_ring, small_encoder, blob):
        pt_blob = wire.serialize_plaintext(
            small_encoder.encode(np.zeros(4) + 0j, 2.0 ** 40),
            small_ring.params)
        with pytest.raises(WireError, match="expected a CIPHERTEXT"):
            wire.deserialize_ciphertext(pt_blob, small_ring)

    @pytest.mark.parametrize("field", ["scale_bits", "q0_bits", "p_bits"])
    def test_params_wider_than_a_word_rejected(self, field):
        # forge a self-consistent blob the constructor would refuse
        wide = CkksParams(n=256, l=3, dnum=1)
        object.__setattr__(wide, field, 62)
        with pytest.raises(WireError, match="invalid parameter set"):
            wire.deserialize_params(wire.serialize_params(wide))

    def test_params_digest_mismatch_rejected(self, small_ring, blob):
        other = CkksParams.functional(n=1 << 8, l=6, dnum=2,
                                      scale_bits=41, q0_bits=50,
                                      p_bits=50, h=16)
        other_ring = RingContext(other)
        with pytest.raises(WireError, match="digest mismatch"):
            wire.deserialize_ciphertext(blob, other_ring)

    def test_nonfinite_scale_rejected(self, small_ring):
        import struct
        import zlib
        for bad_scale in (float("nan"), float("inf"), 0.0, -1.0):
            ct = _random_ct(small_ring, 1, seed=6, scale=2.0 ** 40)
            blob = bytearray(wire.serialize_ciphertext(
                ct, small_ring.params))
            blob[32:40] = struct.pack("<d", bad_scale)
            blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
            with pytest.raises(WireError, match="invalid scale"):
                wire.deserialize_ciphertext(bytes(blob), small_ring)

    def test_residue_out_of_range_rejected(self, small_ring):
        ct = _random_ct(small_ring, 1, seed=6)
        ct.b.residues[0, 0] = np.uint64(small_ring.q_primes[0].value)
        blob = wire.serialize_ciphertext(ct, small_ring.params)
        with pytest.raises(WireError, match="out of range"):
            wire.deserialize_ciphertext(blob, small_ring)

    def test_coeff_domain_evk_rejected(self, small_ring, small_keys):
        evk = small_keys.gen_relinearization_key()
        blob = wire.serialize_evaluation_key(evk, small_ring.params)
        # flip the first slice's b-poly domain flag, refresh the CRC
        import struct
        import zlib
        bad = bytearray(blob)
        bad[32 + 2] = 0  # after <H num_slices>: poly head's is_ntt byte
        bad[-4:] = struct.pack("<I", zlib.crc32(bytes(bad[:-4])))
        with pytest.raises(WireError, match="NTT domain"):
            wire.deserialize_evaluation_key(bytes(bad), small_ring)

    def test_version_gate(self, small_ring, blob):
        import struct
        import zlib
        bad = bytearray(blob)
        bad[4:6] = struct.pack("<H", 99)
        bad[-4:] = struct.pack("<I", zlib.crc32(bytes(bad[:-4])))
        with pytest.raises(WireError, match="version"):
            wire.deserialize_ciphertext(bytes(bad), small_ring)


class TestEmptyAndWrongKindBlobs:
    """Zero-length and kind-mismatched blobs raise WireError naming the
    expected (and, on mismatch, the actual) kind — never an IndexError
    or struct.error leaking from the framing code."""

    _blob_cache: dict = {}

    def _blob_of(self, kind: str, small_ring, small_encoder, small_keys):
        cache = self._blob_cache
        if not cache:
            params = small_ring.params
            cache["PARAMS"] = wire.serialize_params(params)
            cache["PLAINTEXT"] = wire.serialize_plaintext(
                small_encoder.encode(np.zeros(4) + 0j, 2.0 ** 40), params)
            cache["CIPHERTEXT"] = wire.serialize_ciphertext(
                _random_ct(small_ring, 1, seed=17), params)
            cache["EVALUATION_KEY"] = wire.serialize_evaluation_key(
                small_keys.gen_relinearization_key(), params)
            cache["GALOIS_KEYS"] = wire.serialize_galois_keys(
                {1: small_keys.gen_rotation_key(1)}, params)
        return cache[kind]

    def _decoders(self, small_ring):
        return {
            "PARAMS": lambda b: wire.deserialize_params(b),
            "PLAINTEXT": lambda b: wire.deserialize_plaintext(b, small_ring),
            "CIPHERTEXT": lambda b: wire.deserialize_ciphertext(b,
                                                                small_ring),
            "EVALUATION_KEY": lambda b: wire.deserialize_evaluation_key(
                b, small_ring),
            "GALOIS_KEYS": lambda b: wire.deserialize_galois_keys(
                b, small_ring),
        }

    def test_empty_blob_names_the_expected_kind(self, small_ring):
        for expect, decode in self._decoders(small_ring).items():
            with pytest.raises(WireError, match=f"empty blob.*{expect}"):
                decode(b"")
        with pytest.raises(WireError, match="empty blob"):
            wire.deserialize(b"", small_ring)
        with pytest.raises(WireError, match="empty blob"):
            wire.peek_kind(b"")

    def test_every_mismatched_pair_names_expected_vs_got(
            self, small_ring, small_encoder, small_keys):
        decoders = self._decoders(small_ring)
        for expect, decode in decoders.items():
            for got in decoders:
                if got == expect:
                    continue
                blob = self._blob_of(got, small_ring, small_encoder,
                                     small_keys)
                with pytest.raises(
                        WireError,
                        match=f"expected a {expect} blob, got {got}"):
                    decode(blob)

    @settings(deadline=None, max_examples=20)
    @given(got=st.sampled_from(["PARAMS", "PLAINTEXT", "EVALUATION_KEY",
                                "GALOIS_KEYS"]))
    def test_wrong_kind_sweep_against_ciphertext_decoder(
            self, small_ring, small_encoder, small_keys, got):
        blob = self._blob_of(got, small_ring, small_encoder, small_keys)
        with pytest.raises(WireError,
                           match=f"expected a CIPHERTEXT blob, got {got}"):
            wire.deserialize_ciphertext(blob, small_ring)

    @settings(deadline=None, max_examples=60)
    @given(junk=st.binary(max_size=72))
    def test_junk_blobs_raise_wire_error_never_crash(self, small_ring,
                                                     junk):
        # covers the zero-length case (hypothesis shrinks to b"") and
        # every truncated/garbage prefix shape up to two header widths
        for decode in (wire.peek_kind,
                       lambda b: wire.deserialize(b, small_ring),
                       lambda b: wire.deserialize_ciphertext(b,
                                                             small_ring)):
            with pytest.raises(WireError):
                decode(junk)

    def test_client_decrypt_blob_rejects_empty_and_wrong_kind(
            self, make_client):
        client = make_client("wireguard", 31)
        with pytest.raises(WireError, match="empty blob.*CIPHERTEXT"):
            client.decrypt_blob(b"")
        with pytest.raises(WireError,
                           match="expected a CIPHERTEXT blob, got PARAMS"):
            client.decrypt_blob(client.hello_blob())
