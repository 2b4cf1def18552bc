"""Tests for CkksParams (symbolic) and RingContext (functional)."""

import math

import pytest

from repro.ckks.params import CkksParams, RingContext


class TestCkksParamsValidation:
    def test_rejects_non_power_of_two_n(self):
        with pytest.raises(ValueError):
            CkksParams(n=100, l=4, dnum=1)

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            CkksParams(n=256, l=0, dnum=1)

    def test_rejects_dnum_above_levels(self):
        with pytest.raises(ValueError):
            CkksParams(n=256, l=4, dnum=6)

    def test_rejects_bad_hamming_weight(self):
        with pytest.raises(ValueError):
            CkksParams(n=256, l=4, dnum=2, h=512)

    @pytest.mark.parametrize("field", ["scale_bits", "q0_bits", "p_bits"])
    @pytest.mark.parametrize("bits", [62, 63])
    def test_rejects_prime_widths_past_the_word_limit(self, field, bits):
        # prime search alternates around 2**bits, so 62+ can overshoot
        # the 2**62 modulus limit and crash ring construction later
        with pytest.raises(ValueError, match=field):
            CkksParams(n=256, l=3, dnum=1, **{field: bits})

    def test_61_bit_primes_build_a_ring(self):
        params = CkksParams(n=256, l=2, dnum=1, scale_bits=61, q0_bits=61,
                            p_bits=61)
        assert all(p.value < 1 << 62 for p in RingContext(params).base_qp(2))


class TestDerivedQuantities:
    def test_k_is_ceil(self):
        params = CkksParams(n=256, l=6, dnum=4)  # (6+1)/4 -> 2
        assert params.k == 2

    def test_beta_at_levels(self):
        params = CkksParams(n=256, l=7, dnum=2)  # alpha = 4
        assert params.beta(7) == 2
        assert params.beta(3) == 1
        assert params.beta(4) == 2

    def test_slots_max(self):
        assert CkksParams(n=1 << 10, l=3, dnum=1).slots_max == 512

    def test_log_pq_composition(self):
        params = CkksParams(n=256, l=5, dnum=1, scale_bits=40,
                            q0_bits=50, p_bits=50)
        assert params.log_q == 50 + 5 * 40
        assert params.log_p == 6 * 50
        assert params.log_pq == params.log_q + params.log_p


class TestPaperInstances:
    """Table 4's three instances must reproduce exactly."""

    def test_ins1(self):
        p = CkksParams.ins1()
        assert (p.n, p.l, p.dnum, p.k) == (1 << 17, 27, 1, 28)
        assert p.log_pq == 3090

    def test_ins2(self):
        p = CkksParams.ins2()
        assert (p.l, p.dnum, p.k) == (39, 2, 20)
        assert p.log_pq == 3210

    def test_ins3(self):
        p = CkksParams.ins3()
        assert (p.l, p.dnum, p.k) == (44, 3, 15)
        assert p.log_pq == 3160

    def test_ct_size_56mib(self):
        """Section 3.4: a max-level INS-1 ct is 56MB."""
        assert CkksParams.ins1().ct_mib == pytest.approx(56.0)

    def test_evk_size_112mib(self):
        """Section 3.4: an INS-1 evk is 112MB."""
        assert CkksParams.ins1().evk_mib == pytest.approx(112.0)

    def test_evk_level_dependence(self):
        p = CkksParams.ins1()
        assert p.evk_bytes(10) < p.evk_bytes(27)
        # Eq. 10 denominator shape: 2 * dnum * (k+l+1) * N * 8
        assert p.evk_bytes(10) == 2 * 1 * (28 + 11) * p.n * 8


class TestRingContext:
    def test_prime_counts(self, small_ring, small_params):
        assert len(small_ring.q_primes) == small_params.l + 1
        assert len(small_ring.p_primes) == small_params.k

    def test_primes_distinct(self, small_ring):
        values = [p.value for p in small_ring.q_primes
                  + small_ring.p_primes]
        assert len(set(values)) == len(values)

    def test_base_q_levels(self, small_ring):
        assert len(small_ring.base_q(0)) == 1
        assert len(small_ring.base_q(3)) == 4
        with pytest.raises(ValueError):
            small_ring.base_q(99)

    def test_base_qp_order(self, small_ring, small_params):
        base = small_ring.base_qp(2)
        assert len(base) == 3 + small_params.k
        assert [p.kind for p in base[:3]] == ["q"] * 3
        assert all(p.kind == "p" for p in base[3:])

    def test_products(self, small_ring):
        assert small_ring.p_product == math.prod(
            p.value for p in small_ring.p_primes)
        assert small_ring.q_product(2) == math.prod(
            p.value for p in small_ring.base_q(2))

    def test_decomposition_blocks_cover(self, small_ring, small_params):
        for level in range(small_params.l + 1):
            blocks = small_ring.decomposition_blocks(level)
            covered = [i for start, stop in blocks
                       for i in range(start, stop)]
            assert covered == list(range(level + 1))
            assert all(stop - start <= small_params.alpha
                       for start, stop in blocks)

    def test_prime_sizes(self, small_ring, small_params):
        q0 = small_ring.q_primes[0].value
        assert abs(math.log2(q0) - small_params.q0_bits) < 0.1
        for p in small_ring.q_primes[1:]:
            assert abs(math.log2(p.value) - small_params.scale_bits) < 0.1


class TestParamsDigest:
    """Content digest: the wire-format / plan-cache compatibility check."""

    def test_digest_is_stable_across_instances(self):
        a = CkksParams(n=256, l=6, dnum=2)
        b = CkksParams(n=256, l=6, dnum=2)
        assert a.digest == b.digest
        assert a.digest_bytes == b.digest_bytes
        assert len(a.digest_bytes) == 16 and len(a.digest) == 32

    def test_name_is_cosmetic(self):
        a = CkksParams(n=256, l=6, dnum=2, name="prod")
        b = CkksParams(n=256, l=6, dnum=2, name="staging")
        assert a.digest == b.digest

    def test_every_computation_field_changes_the_digest(self):
        base = dict(n=256, l=6, dnum=2, scale_bits=40, q0_bits=50,
                    p_bits=50, h=16, sigma=3.2)
        reference = CkksParams(**base).digest
        for field, bumped in [("n", 512), ("l", 7), ("dnum", 3),
                              ("scale_bits", 41), ("q0_bits", 51),
                              ("p_bits", 51), ("h", 17), ("sigma", 3.3)]:
            changed = CkksParams(**{**base, field: bumped})
            assert changed.digest != reference, field

    def test_equal_digests_mean_identical_prime_chains(self):
        a = CkksParams.functional(n=1 << 8, l=4, dnum=2)
        b = CkksParams.functional(n=1 << 8, l=4, dnum=2, name="other")
        assert a.digest == b.digest
        chain_a = [p.value for p in RingContext(a).base_qp(4)]
        chain_b = [p.value for p in RingContext(b).base_qp(4)]
        assert chain_a == chain_b
