"""End-to-end bootstrapping tests (the scheme's headline capability)."""

import numpy as np
import pytest

from repro.ckks.bootstrap import Bootstrapper, BootstrapConfig
from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParams, RingContext
from repro.ckks.sine import SineConfig, SineEvaluator
from repro.service.registry import evk_stored_bytes
from tests.conftest import evk_resident_bytes

BOOT_SINE = SineConfig(k_range=12, degree=63, double_angles=2)


@pytest.fixture(scope="module")
def boot_setup():
    """N=512 bootstrappable ring (sparse packing, 4 slots)."""
    params = CkksParams.functional(n=1 << 9, l=14, dnum=3, scale_bits=40,
                                   q0_bits=52, p_bits=52, h=32)
    ring = RingContext(params)
    kg = KeyGenerator(ring, seed=11)
    ev = Evaluator(ring)
    cfg = BootstrapConfig(n_slots=4, sine=BOOT_SINE)
    bs = Bootstrapper(ev, cfg)
    bs.generate_keys(kg)
    return params, ring, kg, ev, bs


@pytest.fixture(scope="module")
def tiny_boot_ring():
    """N=128 ring for the slot-count edge cases.

    The toy parameters' refreshed error grows with the slot count: at
    N=512 a 128-slot bootstrap lands near 0.1 on either EvalMod route.
    At N=128, N/4 and N/2 slots stay well inside the 5e-2 bound.
    """
    params = CkksParams.functional(n=1 << 7, l=14, dnum=3, scale_bits=40,
                                   q0_bits=52, p_bits=52, h=32)
    ring = RingContext(params)
    return ring, KeyGenerator(ring, seed=11)


def _count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` so every call bumps the returned counter."""
    calls = [0]
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _encrypt(ring, kg, z, scale=2.0 ** 40):
    pt = Encoder(ring).encode(z, scale)
    return kg.encrypt_symmetric(pt.poly, scale, len(z))


class TestConfig:
    def test_levels_consumed(self, boot_setup):
        _, _, _, _, bs = boot_setup
        assert bs.config.levels_consumed() == 12

    def test_rejects_insufficient_levels(self):
        params = CkksParams.functional(n=1 << 9, l=6, dnum=2)
        ring = RingContext(params)
        ev = Evaluator(ring)
        with pytest.raises(ValueError):
            Bootstrapper(ev, BootstrapConfig(n_slots=4))

    def test_rejects_bad_slot_count(self, boot_setup):
        _, ring, _, ev, _ = boot_setup
        with pytest.raises(ValueError):
            Bootstrapper(ev, BootstrapConfig(n_slots=3))

    def test_required_rotations_cover_subsum(self):
        amounts = Bootstrapper.required_rotations(512, 4)
        # SubSum needs 4, 8, ..., 128
        assert {4, 8, 16, 32, 64, 128} <= amounts

    @pytest.mark.parametrize("n_slots", [4, 32, 128, 256])
    def test_required_rotations_cover_transforms(self, boot_setup,
                                                 n_slots):
        """The static key list matches the transforms actually built."""
        _, ring, _, _, _ = boot_setup
        bs = Bootstrapper(Evaluator(ring), BootstrapConfig(
            n_slots=n_slots, sine=BOOT_SINE))
        cts, stc = bs._transforms
        sub_sum = {n_slots << k for k in
                   range(((ring.n // 2) // n_slots).bit_length() - 1)}
        needed = cts.required_rotations() | stc.required_rotations() \
            | sub_sum
        assert needed <= Bootstrapper.required_rotations(ring.n, n_slots)
        assert bs.packed == (2 * n_slots <= ring.n // 2)


class TestStages:
    def test_mod_raise_restores_full_level(self, boot_setup, rng):
        params, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=4) * 0.3
        ct = ev.drop_to_level(_encrypt(ring, kg, z), 0)
        raised = bs.mod_raise(ct)
        assert raised.level == params.l

    def test_mod_raise_preserves_message_mod_q0(self, boot_setup, rng):
        """Decrypting the raised ct mod q0 still yields the message."""
        params, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=4) * 0.3
        ct = ev.drop_to_level(_encrypt(ring, kg, z), 0)
        raised = bs.mod_raise(ct)
        low_again = ev.drop_to_level(raised, 0)
        got = ev.decrypt_to_message(low_again, kg.secret)
        assert np.max(np.abs(got - z)) < 1e-6

    def test_coeff_to_slot_then_back(self, boot_setup, rng):
        """StC(CtS(ct)) ~ identity up to the two folded constants.

        CtS carries 1/replicas (compensating SubSum, skipped here) and
        StC carries the q0/(2*pi*Delta) sine amplitude; divide both out.
        """
        params, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=4) * 0.3 + 1j * rng.normal(size=4) * 0.3
        ct = _encrypt(ring, kg, z)
        slotted = bs.coeff_to_slot(ct)
        back = bs.slot_to_coeff(slotted)
        q0 = float(ring.q_primes[0].value)
        amplitude = q0 / (2.0 * np.pi * 2.0 ** params.scale_bits)
        replicas = (params.n // 2) // bs.config.n_slots
        got = ev.decrypt_to_message(back, kg.secret) \
            * replicas / amplitude
        assert np.max(np.abs(got - z)) < 1e-3

    def test_mul_by_i(self, boot_setup, rng):
        _, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        ct = _encrypt(ring, kg, z)
        got = ev.decrypt_to_message(bs._mul_by_i(ct), kg.secret)
        assert np.max(np.abs(got - 1j * z)) < 1e-6


class TestFullPipeline:
    def test_bootstrap_refreshes_level(self, boot_setup, rng):
        params, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=4) * 0.5 + 1j * rng.normal(size=4) * 0.5
        ct = ev.drop_to_level(_encrypt(ring, kg, z), 0)
        out = bs.bootstrap(ct)
        assert out.level >= 2
        got = ev.decrypt_to_message(out, kg.secret)
        assert np.max(np.abs(got - z)) < 5e-2

    def test_can_multiply_after_bootstrap(self, boot_setup, rng):
        params, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=4) * 0.5
        ct = ev.drop_to_level(_encrypt(ring, kg, z + 0j), 0)
        out = bs.bootstrap(ct)
        squared = ev.multiply(out, out)
        got = ev.decrypt_to_message(squared, kg.secret)
        assert np.max(np.abs(got - z ** 2)) < 1e-1

    def test_resident_key_memory_is_the_stored_slices(self, boot_setup, rng,
                                                      monkeypatch):
        """Key-switches at many levels leave no per-level key copies."""
        from repro.ckks import evaluator as evaluator_module
        from repro.ckks import keyswitch

        _, ring, kg, ev, bs = boot_setup
        levels = set()
        accumulate = keyswitch.key_switch_accumulate

        def recorded(raised, evk, level, ring):
            levels.add(level)
            return accumulate(raised, evk, level, ring)

        for module in (keyswitch, evaluator_module):
            monkeypatch.setattr(module, "key_switch_accumulate", recorded)
        z = rng.normal(size=4) * 0.5
        bs.bootstrap(ev.drop_to_level(_encrypt(ring, kg, z + 0j), 0))
        assert len(levels) >= 2
        keys = {id(k): k for k in (ev.relin_key, ev.conjugation_key,
                                   *ev.rotation_keys.values())
                if k is not None}
        for evk in keys.values():
            assert evk_resident_bytes(evk) == evk_stored_bytes(evk)

    def test_sparse_bootstrap_runs_one_eval_mod(self, boot_setup, rng,
                                                monkeypatch):
        """Packed EvalMod: one sine (degree 63, r = 2) = 16 HMults."""
        _, ring, kg, ev, bs = boot_setup
        sines = _count_calls(monkeypatch, SineEvaluator, "evaluate")
        hmults = _count_calls(monkeypatch, Evaluator, "multiply")
        z = rng.normal(size=4) * 0.5
        bs.bootstrap(ev.drop_to_level(_encrypt(ring, kg, z + 0j), 0))
        assert sines[0] == 1
        assert hmults[0] == 16

    @pytest.mark.parametrize("divisor, sines", [(4, 1), (2, 2)])
    def test_bootstrap_edge_slot_counts(self, tiny_boot_ring, rng,
                                        monkeypatch, divisor, sines):
        """N/4 slots pack 2n = N/2 (one sine); N/2 has no free slots (two)."""
        ring, kg = tiny_boot_ring
        n_slots = ring.n // divisor
        ev = Evaluator(ring)
        bs = Bootstrapper(ev, BootstrapConfig(n_slots=n_slots,
                                              sine=BOOT_SINE))
        bs.generate_keys(kg)
        calls = _count_calls(monkeypatch, SineEvaluator, "evaluate")
        z = rng.normal(size=n_slots) * 0.5 \
            + 1j * rng.normal(size=n_slots) * 0.5
        out = bs.bootstrap(ev.drop_to_level(_encrypt(ring, kg, z), 0))
        assert calls[0] == sines
        assert out.n_slots == n_slots
        got = ev.decrypt_to_message(out, kg.secret)
        assert np.max(np.abs(got - z)) < 5e-2

    def test_rejects_wrong_slot_count(self, boot_setup, rng):
        _, ring, kg, ev, bs = boot_setup
        z = rng.normal(size=8)
        ct = ev.drop_to_level(_encrypt(ring, kg, z + 0j), 0)
        with pytest.raises(ValueError):
            bs.bootstrap(ct)


@pytest.mark.slow
class TestLargerRing:
    def test_bootstrap_n1024_16slots(self):
        """Bootstrap at N=2^10 with 16 slots; checks error and level."""
        params = CkksParams.functional(n=1 << 10, l=14, dnum=3,
                                       scale_bits=40, q0_bits=52,
                                       p_bits=52, h=64)
        ring = RingContext(params)
        kg = KeyGenerator(ring, seed=3)
        ev = Evaluator(ring)
        bs = Bootstrapper(ev, BootstrapConfig(
            n_slots=16, sine=SineConfig(k_range=12, degree=63,
                                        double_angles=2)))
        bs.generate_keys(kg)
        rng = np.random.default_rng(5)
        z = rng.normal(size=16) * 0.5 + 1j * rng.normal(size=16) * 0.5
        ct = ev.drop_to_level(_encrypt(ring, kg, z), 0)
        out = bs.bootstrap(ct)
        got = ev.decrypt_to_message(out, kg.secret)
        assert out.level >= 2
        # toy parameters (Delta=2^40, q0=2^52, degree-63 sine) refresh
        # with ~3-4 bits of precision; production presets use Delta=2^45+
        # and higher degrees for 15-20 bits
        assert np.max(np.abs(got - z)) < 0.15
