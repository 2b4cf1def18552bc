"""End-to-end tests for every primitive HE op (Section 2.3)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ckks.cipher import Ciphertext
from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import ReduceTerm
from repro.ckks.modmath import inv_mod
from repro.ckks.ntt import BatchedNttContext, NttContext
from repro.ckks.rns import RnsPolynomial, exact_residue_transfer
from repro.obs import kernel as K
from tests.conftest import (
    constant_plaintext_oracle,
    encrypt_message,
    real_scalars,
)

SCALE = 2.0 ** 40


@pytest.fixture()
def pair(small_keys, small_encoder, rng, small_params):
    n = small_params.slots_max
    z0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    z1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    ct0 = encrypt_message(small_keys, small_encoder, z0, SCALE)
    ct1 = encrypt_message(small_keys, small_encoder, z1, SCALE)
    return z0, z1, ct0, ct1


@pytest.fixture(scope="module")
def fresh_ct(small_keys, small_encoder, small_params):
    rng = np.random.default_rng(7)
    n = small_params.slots_max
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return encrypt_message(small_keys, small_encoder, z, SCALE)


def _decrypted(ev, keys, ct):
    return ev.decrypt_to_message(ct, keys.secret)


def _assert_same(got: Ciphertext, want: Ciphertext) -> None:
    """Byte-identical residues (both halves), scale and slot count."""
    for g, w in ((got.b, want.b), (got.a, want.a)):
        assert g.base == w.base and g.is_ntt == w.is_ntt
        assert np.array_equal(g.residues, w.residues)
    assert got.scale == want.scale
    assert got.n_slots == want.n_slots


def _with_tally(fn):
    """``(fn(), kernel tally of this thread while fn ran)``."""
    obs.enable()
    try:
        K.reset()
        out = fn()
        return out, K.snapshot()
    finally:
        obs.disable()


class TestEncryptDecrypt:
    def test_roundtrip(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys, ct0)
        assert np.max(np.abs(got - z0)) < 1e-7

    def test_fresh_ct_level(self, pair, small_params):
        _, _, ct0, _ = pair
        assert ct0.level == small_params.l

    def test_noise_is_small_but_nonzero(self, small_evaluator, small_keys,
                                        pair):
        z0, _, ct0, _ = pair
        err = np.abs(_decrypted(small_evaluator, small_keys, ct0) - z0)
        assert 0 < np.max(err) < 1e-7


class TestAdditive:
    def test_add(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.add(ct0, ct1))
        assert np.max(np.abs(got - (z0 + z1))) < 1e-7

    def test_sub(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.sub(ct0, ct1))
        assert np.max(np.abs(got - (z0 - z1))) < 1e-7

    def test_negate(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.negate(ct0))
        assert np.max(np.abs(got + z0)) < 1e-7

    def test_add_is_commutative(self, small_evaluator, small_keys, pair):
        _, _, ct0, ct1 = pair
        a = _decrypted(small_evaluator, small_keys,
                       small_evaluator.add(ct0, ct1))
        b = _decrypted(small_evaluator, small_keys,
                       small_evaluator.add(ct1, ct0))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_add_plain(self, small_evaluator, small_keys, small_encoder,
                       pair):
        z0, z1, ct0, _ = pair
        pt = small_encoder.encode(z1, SCALE)
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.add_plain(ct0, pt))
        assert np.max(np.abs(got - (z0 + z1))) < 1e-7

    def test_add_scalar(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.add_scalar(ct0, 2.5))
        assert np.max(np.abs(got - (z0 + 2.5))) < 1e-7

    def test_scale_mismatch_rejected(self, small_evaluator, pair):
        _, _, ct0, ct1 = pair
        bad = ct1.clone()
        bad.scale = ct1.scale * 2
        with pytest.raises(ValueError):
            small_evaluator.add(ct0, bad)


class TestMultiplicative:
    def test_hmult(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        prod = small_evaluator.multiply(ct0, ct1)
        got = _decrypted(small_evaluator, small_keys, prod)
        assert np.max(np.abs(got - z0 * z1)) < 1e-6
        assert prod.level == ct0.level - 1

    def test_square(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.square(ct0))
        assert np.max(np.abs(got - z0 ** 2)) < 1e-6

    def test_mult_without_rescale(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        prod = small_evaluator.multiply(ct0, ct1, rescale=False)
        assert prod.level == ct0.level
        assert prod.scale == pytest.approx(SCALE * SCALE)
        got = _decrypted(small_evaluator, small_keys, prod)
        assert np.max(np.abs(got - z0 * z1)) < 1e-6

    def test_multiply_plain(self, small_evaluator, small_keys,
                            small_encoder, pair):
        z0, z1, ct0, _ = pair
        pt = small_encoder.encode(z1, SCALE)
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.multiply_plain(ct0, pt,
                                                        rescale=True))
        assert np.max(np.abs(got - z0 * z1)) < 1e-6

    def test_multiply_scalar_real(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.multiply_scalar(ct0, 0.125,
                                                         rescale=True))
        assert np.max(np.abs(got - 0.125 * z0)) < 1e-6

    def test_multiply_scalar_complex(self, small_evaluator, small_keys,
                                     pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.multiply_scalar(ct0, 1j,
                                                         rescale=True))
        assert np.max(np.abs(got - 1j * z0)) < 1e-6

    def test_multiply_scalar_target_scale(self, small_evaluator,
                                          small_keys, pair):
        """target_scale snaps the output scale exactly (the EvalMod
        renormalization trick) while keeping values correct."""
        z0, _, ct0, _ = pair
        drifted = ct0.clone()
        drifted.scale = ct0.scale * 1.0003  # simulate accumulated drift
        out = small_evaluator.multiply_scalar(
            drifted, 0.5, rescale=True, target_scale=2.0 ** 40)
        assert out.scale == 2.0 ** 40

    def test_target_scale_requires_rescale(self, small_evaluator, pair):
        _, _, ct0, _ = pair
        with pytest.raises(ValueError):
            small_evaluator.multiply_scalar(ct0, 0.5, rescale=False,
                                            target_scale=2.0 ** 40)

    def test_multiply_integer(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        tripled = small_evaluator.multiply_integer(ct0, 3)
        got = _decrypted(small_evaluator, small_keys, tripled)
        assert np.max(np.abs(got - 3 * z0)) < 1e-6
        assert tripled.level == ct0.level

    def test_depth_chain(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        ct = ct0
        want = z0.copy()
        for _ in range(4):
            ct = small_evaluator.multiply(ct, ct1)
            want = want * z1
        got = _decrypted(small_evaluator, small_keys, ct)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_missing_relin_key(self, small_ring, pair):
        from repro.ckks.evaluator import Evaluator
        bare = Evaluator(small_ring)
        _, _, ct0, ct1 = pair
        with pytest.raises(ValueError):
            bare.multiply(ct0, ct1)


class TestRescaleAndLevels:
    def test_rescale_divides_scale(self, small_evaluator, pair,
                                   small_ring):
        _, _, ct0, ct1 = pair
        prod = small_evaluator.multiply(ct0, ct1, rescale=False)
        scaled = small_evaluator.rescale(prod)
        dropped = small_ring.q_primes[prod.level].value
        assert scaled.scale == pytest.approx(prod.scale / dropped)

    def test_rescale_at_level_zero_fails(self, small_evaluator, pair):
        _, _, ct0, _ = pair
        low = small_evaluator.drop_to_level(ct0, 0)
        with pytest.raises(ValueError):
            small_evaluator.rescale(low)

    def test_drop_to_level_preserves_message(self, small_evaluator,
                                             small_keys, pair):
        z0, _, ct0, _ = pair
        low = small_evaluator.drop_to_level(ct0, 1)
        got = _decrypted(small_evaluator, small_keys, low)
        assert np.max(np.abs(got - z0)) < 1e-7

    def test_drop_cannot_raise(self, small_evaluator, pair):
        _, _, ct0, _ = pair
        low = small_evaluator.drop_to_level(ct0, 1)
        with pytest.raises(ValueError):
            small_evaluator.drop_to_level(low, 3)

    def test_align_pair(self, small_evaluator, pair):
        _, _, ct0, ct1 = pair
        low = small_evaluator.drop_to_level(ct1, 2)
        a, b = small_evaluator.align_pair(ct0, low)
        assert a.level == b.level == 2

    def test_ops_across_levels(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        low = small_evaluator.drop_to_level(ct1, 2)
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.add(ct0, low))
        assert np.max(np.abs(got - (z0 + z1))) < 1e-7


class TestRotation:
    @pytest.mark.parametrize("amount", [1, 2, 3, 4, 8, 16])
    def test_rotate(self, small_evaluator, small_keys, pair, amount):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.rotate(ct0, amount))
        assert np.max(np.abs(got - np.roll(z0, -amount))) < 1e-6

    def test_rotate_zero_is_identity(self, small_evaluator, small_keys,
                                     pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.rotate(ct0, 0))
        assert np.max(np.abs(got - z0)) < 1e-7

    def test_rotate_full_cycle(self, small_evaluator, small_keys, pair,
                               small_params):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.rotate(ct0,
                                                small_params.slots_max))
        assert np.max(np.abs(got - z0)) < 1e-7

    def test_missing_key(self, small_evaluator, pair):
        _, _, ct0, _ = pair
        with pytest.raises(ValueError):
            small_evaluator.rotate(ct0, 7)

    def test_rotate_composes(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        double = small_evaluator.rotate(
            small_evaluator.rotate(ct0, 1), 2)
        got = _decrypted(small_evaluator, small_keys, double)
        assert np.max(np.abs(got - np.roll(z0, -3))) < 1e-6

    def test_conjugate(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        got = _decrypted(small_evaluator, small_keys,
                         small_evaluator.conjugate(ct0))
        assert np.max(np.abs(got - np.conj(z0))) < 1e-6

    def test_conjugate_involution(self, small_evaluator, small_keys, pair):
        z0, _, ct0, _ = pair
        twice = small_evaluator.conjugate(small_evaluator.conjugate(ct0))
        got = _decrypted(small_evaluator, small_keys, twice)
        assert np.max(np.abs(got - z0)) < 1e-6


class TestHomomorphismProperties:
    """Algebraic identities that must hold on ciphertexts."""

    def test_distributivity(self, small_evaluator, small_keys, pair):
        z0, z1, ct0, ct1 = pair
        lhs = small_evaluator.multiply(small_evaluator.add(ct0, ct1), ct0)
        rhs = small_evaluator.add(small_evaluator.multiply(ct0, ct0),
                                  small_evaluator.multiply(ct1, ct0))
        a = _decrypted(small_evaluator, small_keys, lhs)
        b = _decrypted(small_evaluator, small_keys, rhs)
        assert np.max(np.abs(a - b)) < 1e-5
        assert np.max(np.abs(a - (z0 + z1) * z0)) < 1e-5

    def test_rotation_is_homomorphic_over_mult(self, small_evaluator,
                                               small_keys, pair):
        z0, z1, ct0, ct1 = pair
        rot_prod = small_evaluator.rotate(
            small_evaluator.multiply(ct0, ct1), 2)
        prod_rot = small_evaluator.multiply(
            small_evaluator.rotate(ct0, 2), small_evaluator.rotate(ct1, 2))
        a = _decrypted(small_evaluator, small_keys, rot_prod)
        b = _decrypted(small_evaluator, small_keys, prod_rot)
        assert np.max(np.abs(a - b)) < 1e-5


#: hypothesis examples share one backend-selected fixture run; nothing in
#: the fixture is mutated per example.
_SHARED_FIXTURE = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestScalarColumnOracle:
    """Real CMult/CAdd equal PMult/PAdd of the constant-polynomial oracle
    byte for byte, on both modmath backends, with no NTT pass."""

    @given(value=real_scalars, level=st.integers(0, 6),
           scale_bits=st.sampled_from([30, 40, 52]))
    @example(value=2.0 ** 22, level=6, scale_bits=40)
    @example(value=-(2.0 ** 25), level=1, scale_bits=40)
    @example(value=0.0, level=0, scale_bits=40)
    @settings(_SHARED_FIXTURE, max_examples=30)
    def test_cmult_matches_pmult_oracle(self, each_backend, small_evaluator,
                                        small_ring, fresh_ct, value, level,
                                        scale_bits):
        ev = small_evaluator
        ct = ev.drop_to_level(fresh_ct, level)
        scale = 2.0 ** scale_bits
        pt = constant_plaintext_oracle(small_ring, value, scale,
                                       small_ring.base_q(level))
        got, tally = _with_tally(
            lambda: ev.multiply_scalar(ct, value, scale=scale))
        _assert_same(got, ev.multiply_plain(ct, pt))
        assert tally["ntt_forward"] == 0 and tally["ntt_inverse"] == 0
        if level > 0:
            _assert_same(ev.multiply_scalar(ct, value, scale=scale,
                                            rescale=True),
                         ev.multiply_plain(ct, pt, rescale=True))

    @given(value=real_scalars, level=st.integers(0, 6))
    @example(value=2.0 ** 22, level=6)
    @example(value=-(2.0 ** 24) - 0.5, level=0)
    @settings(_SHARED_FIXTURE, max_examples=30)
    def test_cadd_matches_padd_oracle(self, each_backend, small_evaluator,
                                      small_ring, fresh_ct, value, level):
        ev = small_evaluator
        ct = ev.drop_to_level(fresh_ct, level)
        pt = constant_plaintext_oracle(small_ring, value, ct.scale,
                                       small_ring.base_q(level))
        got, tally = _with_tally(lambda: ev.add_scalar(ct, value))
        _assert_same(got, ev.add_plain(ct, pt))
        assert tally["ntt_forward"] == 0 and tally["ntt_inverse"] == 0

    def test_target_scale_cmult_matches_oracle(self, small_evaluator,
                                               small_ring, fresh_ct):
        ev = small_evaluator
        drifted = fresh_ct.clone()
        drifted.scale = fresh_ct.scale * 1.0003
        got = ev.multiply_scalar(drifted, 0.5, rescale=True,
                                 target_scale=2.0 ** 40)
        level = drifted.level
        enc_scale = 2.0 ** 40 * float(
            small_ring.q_primes[level].value) / drifted.scale
        want = ev.multiply_plain(
            drifted, constant_plaintext_oracle(small_ring, 0.5, enc_scale,
                                               small_ring.base_q(level)),
            rescale=True)
        want.scale = 2.0 ** 40
        _assert_same(got, want)

    @pytest.mark.parametrize("mode", ["single", "stacked"])
    def test_rotate_reduce_scalar_weights_match_oracle(
            self, small_evaluator, small_ring, fresh_ct, monkeypatch,
            mode):
        # "single": one rotate_reduce group; "stacked": two groups sharing
        # one raise and one mod_down_many call, as the BSGS giant steps do.
        terms = [ReduceTerm(0, 1, 0.75), ReduceTerm(1, -1, -2.5),
                 ReduceTerm(None, 1, 1e-3), ReduceTerm(4, 1, 3.0 + 0j)]
        got = _reduce_groups(small_evaluator, fresh_ct, terms, mode)
        # Force every real weight back through the oracle encoding.
        monkeypatch.setattr(Encoder, "scalar_columns",
                            lambda self, value, scale, base: None)
        monkeypatch.setattr(
            Encoder, "encode_scalar",
            lambda self, value, scale, base: constant_plaintext_oracle(
                small_ring, complex(value).real, scale, base))
        want = _reduce_groups(small_evaluator, fresh_ct, terms, mode)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)


def _reduce_groups(ev, ct, terms, mode) -> list[Ciphertext]:
    """``terms`` reduced as one group, or split in two stacked groups."""
    if mode == "single":
        return [ev.rotate_reduce(ct, terms)]
    base_qp = ev.ring.base_qp(ct.level)
    scale = float(ev.ring.q_primes[ct.level].value)
    groups = [[(t.amount, t.sign, ev._weight_multiplier(t.weight, scale,
                                                         base_qp))
               for t in half] for half in (terms[:2], terms[2:])]
    pairs = ev.lazy_galois(ct, [t.amount for t in terms])
    return ev.lazy_sums(ct, pairs, groups, ct.scale * scale)


class TestLazyAccumulator:
    """``rotate_reduce`` as one group of the lazy key-switch accumulator."""

    @pytest.mark.parametrize("amounts", [[0], [1], [0, 1, 2, None],
                                         [1, 2, 3, 4, 8, 16]])
    def test_rotate_reduce_pays_one_moddown_pair(self, small_evaluator,
                                                 fresh_ct, amounts):
        terms = [ReduceTerm(a, 1 if i % 2 else -1, 0.25 * (i + 1))
                 for i, a in enumerate(amounts)]
        _, tally = _with_tally(
            lambda: small_evaluator.rotate_reduce(fresh_ct, terms))
        assert tally["moddown"] == 2

    @pytest.mark.parametrize("weight", [0.75, -2.5, 0.5 + 0.25j])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_identity_only_matches_multiply_scalar(
            self, small_evaluator, fresh_ct, weight, sign):
        """P-scaled identity terms come back from ModDown exactly."""
        ev = small_evaluator
        got = ev.rotate_reduce(fresh_ct, [ReduceTerm(0, sign, weight)])
        want = ev.multiply_scalar(fresh_ct, weight)
        _assert_same(got, want if sign > 0 else ev.negate(want))

    def test_mismatched_term_scales_rejected(self, small_evaluator,
                                             fresh_ct):
        with pytest.raises(ValueError, match="scales diverge"):
            small_evaluator.rotate_reduce(
                fresh_ct, [ReduceTerm(1), ReduceTerm(2, 1, 0.5)])

    def test_bad_terms_rejected(self, small_evaluator, fresh_ct):
        with pytest.raises(ValueError, match="no rotation key"):
            small_evaluator.rotate_reduce(fresh_ct, [ReduceTerm(5)])
        with pytest.raises(ValueError, match="at least one term"):
            small_evaluator.rotate_reduce(fresh_ct, [])


def _rescale_oracle(ring, ct: Ciphertext) -> tuple[RnsPolynomial,
                                                   RnsPolynomial]:
    """Per-half HRescale: iNTT -> transfer -> NTT -> sub -> scale."""
    last = ct.b.base[-1]
    new_base = ring.base_q(ct.level - 1)
    inverse = {p.value: inv_mod(last.value, p.value) for p in new_base}

    def down(poly: RnsPolynomial) -> RnsPolynomial:
        limb = poly.restrict((last,)).from_ntt().residues[0]
        transfer = exact_residue_transfer(limb, last, new_base).to_ntt()
        return poly.restrict(new_base).sub(transfer).mul_scalar(inverse)

    return down(ct.b), down(ct.a)


def _random_ciphertext(ring, level: int, seed: int) -> Ciphertext:
    rng = np.random.default_rng(seed)
    base = ring.base_q(level)

    def poly():
        rows = [rng.integers(0, p.value, size=ring.n, dtype=np.uint64)
                for p in base]
        return RnsPolynomial(base, np.stack(rows), True)

    return Ciphertext(poly(), poly(), SCALE * 2.0 ** 40,
                      ring.params.slots_max)


class TestStackedRescale:
    @pytest.mark.parametrize("level", range(1, 7))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(_SHARED_FIXTURE, max_examples=8)
    def test_matches_per_half_oracle(self, each_backend, small_evaluator,
                                     small_ring, level, seed):
        ct = _random_ciphertext(small_ring, level, seed)
        got = small_evaluator.rescale(ct)
        want_b, want_a = _rescale_oracle(small_ring, ct)
        for g, w in ((got.b, want_b), (got.a, want_a)):
            assert g.base == w.base and g.is_ntt
            assert np.array_equal(g.residues, w.residues)
        assert got.scale == ct.scale / float(ct.b.base[-1].value)

    def test_one_transform_call_each_way(self, small_evaluator,
                                         small_ring, monkeypatch):
        calls = {"forward": 0, "inverse": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, a):
                calls[name] += 1
                return original(self, a)

            monkeypatch.setattr(cls, name, wrapper)

        for cls in (BatchedNttContext, NttContext):
            for name in ("forward", "inverse"):
                counting(cls, name)
        for level in range(1, 7):
            calls.update(forward=0, inverse=0)
            small_evaluator.rescale(_random_ciphertext(small_ring, level, 3))
            assert calls == {"forward": 1, "inverse": 1}, level
