"""Hypothesis property tests on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.slow  # full hypothesis sweep runs nightly

from repro.analysis.bounds import min_nttu
from repro.analysis.complexity import hmult_complexity
from repro.analysis.parameters import log_pq_of
from repro.analysis.security import security_level
from repro.ckks.params import CkksParams
from repro.core.config import BtsConfig
from repro.core.scheduler import Resource
from repro.core.scratchpad import CiphertextCache


# ---- parameter-space invariants ------------------------------------------------

@st.composite
def instances(draw):
    n = 1 << draw(st.integers(min_value=14, max_value=18))
    l = draw(st.integers(min_value=2, max_value=60))
    dnum = draw(st.integers(min_value=1, max_value=min(8, l + 1)))
    return CkksParams(n=n, l=l, dnum=dnum)


class TestParameterInvariants:
    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_k_covers_decomposition(self, params):
        """k special primes must cover the largest decomposition block."""
        assert params.k * params.dnum >= params.l + 1
        assert params.k >= 1

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_evk_grows_with_level(self, params):
        sizes = [params.evk_bytes(lv) for lv in range(params.l + 1)]
        assert sizes == sorted(sizes)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_ct_smaller_than_evk(self, params):
        """An evk (dnum pairs over the wider base) dominates a ct."""
        assert params.evk_bytes(params.l) > params.ct_bytes(params.l)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_log_pq_consistent(self, params):
        assert params.log_pq == log_pq_of(
            params.l, params.dnum, params.scale_bits, params.q0_bits,
            params.p_bits)

    @given(instances())
    @settings(max_examples=50, deadline=None)
    def test_security_positive_and_monotone(self, params):
        lam = security_level(params.n, params.log_pq)
        assert lam > 0
        assert security_level(params.n * 2, params.log_pq) > lam


class TestComplexityInvariants:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_shares_normalized(self, params):
        shares = hmult_complexity(params).shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in shares.values())

    @given(instances(), st.integers(min_value=0, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_level(self, params, lo):
        lo = min(lo, params.l - 1)
        assert hmult_complexity(params, lo).total <= \
            hmult_complexity(params, params.l).total

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_min_nttu_positive(self, params):
        assert min_nttu(params) > 0


# ---- scheduler invariants ---------------------------------------------------------

class TestResourceInvariants:
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=10),    # duration
        st.floats(min_value=0, max_value=50)),   # earliest
        min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_no_overlap_and_fifo(self, jobs):
        r = Resource("x", log_events=True)
        for duration, earliest in jobs:
            r.reserve(duration + 1e-9, earliest=earliest)
        events = sorted(r.events, key=lambda e: e.start)
        for a, b in zip(events, events[1:]):
            assert b.start >= a.end - 1e-12

    @given(st.lists(st.floats(min_value=0.001, max_value=5),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_busy_time_is_sum(self, durations):
        r = Resource("x")
        for d in durations:
            r.reserve(d)
        assert r.busy_time == pytest.approx(sum(durations))


class TestCacheInvariants:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                              st.integers(min_value=1, max_value=40)),
                    min_size=1, max_size=200),
           st.integers(min_value=10, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded(self, accesses, capacity):
        cache = CiphertextCache(float(capacity))
        for ct_id, size in accesses:
            cache.access(ct_id, float(size), "x")
            assert cache.used_bytes <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_repeat_access_hits_when_fits(self, ids):
        """With capacity for everything, only compulsory misses occur."""
        cache = CiphertextCache(1e9)
        for ct_id in ids:
            cache.access(ct_id, 10.0, "x")
        assert cache.stats.misses == len(set(ids))


# ---- functional-plane invariants ----------------------------------------------------

class TestCiphertextInvariants:
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_add_then_sub_identity(self, seed, level):
        from tests.property._shared import shared_setup
        ring, kg, ev, enc = shared_setup()
        level = min(level, ring.max_level)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=4)
        pt = enc.encode(z, 2.0 ** 40, level=level)
        ct = kg.encrypt_symmetric(pt.poly, pt.scale, 4)
        other = kg.encrypt_symmetric(pt.poly, pt.scale, 4)
        roundtrip = ev.sub(ev.add(ct, other), other)
        got = ev.decrypt_to_message(roundtrip, kg.secret)
        assert np.max(np.abs(got - z)) < 1e-6

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_mult_commutative(self, seed):
        from tests.property._shared import shared_setup
        ring, kg, ev, enc = shared_setup()
        rng = np.random.default_rng(seed)
        z0, z1 = rng.normal(size=(2, 4))
        ct0 = kg.encrypt_symmetric(enc.encode(z0, 2.0 ** 40).poly,
                                   2.0 ** 40, 4)
        ct1 = kg.encrypt_symmetric(enc.encode(z1, 2.0 ** 40).poly,
                                   2.0 ** 40, 4)
        ab = ev.decrypt_to_message(ev.multiply(ct0, ct1), kg.secret)
        ba = ev.decrypt_to_message(ev.multiply(ct1, ct0), kg.secret)
        assert np.max(np.abs(ab - ba)) < 1e-6


# ---- stacked-transform / base-conversion invariants -------------------------------


def _random_poly(ring, base, rng, is_ntt=False):
    from repro.ckks.rns import RnsPolynomial
    residues = np.stack([rng.integers(0, p.value, size=ring.n,
                                      dtype=np.uint64) for p in base])
    return RnsPolynomial(base, residues, is_ntt)


class TestStackedTransformInvariants:
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_stack_forward_split_equals_per_poly(self, seed, count):
        """stack -> forward -> split must be bit-identical per polynomial."""
        from repro.ckks.rns import StackedTransform
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(seed)
        bases = [ring.base_q(2 + (i % (ring.max_level - 1)))
                 for i in range(count)]
        polys = [_random_poly(ring, b, rng) for b in bases]
        stacked = StackedTransform.forward(polys)
        for poly, got in zip(polys, stacked):
            solo = poly.to_ntt()
            assert got.base == solo.base
            assert got.is_ntt
            assert np.array_equal(got.residues, solo.residues)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_stack_inverse_roundtrip(self, seed):
        from repro.ckks.rns import StackedTransform
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(seed)
        polys = [_random_poly(ring, ring.base_qp(3), rng) for _ in range(3)]
        back = StackedTransform.inverse(StackedTransform.forward(polys))
        for poly, got in zip(polys, back):
            assert not got.is_ntt
            assert np.array_equal(got.residues, poly.residues)

    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=2, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_same_base_stack_equals_per_poly(self, seed, count):
        """One shared base stacks along a leading axis on its own
        context: bit-identical per polynomial, no wider tables built."""
        from repro.ckks import ntt
        from repro.ckks.rns import StackedTransform
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(seed)
        base = ring.base_q(int(rng.integers(0, ring.max_level + 1)))
        polys = [_random_poly(ring, base, rng) for _ in range(count)]
        polys[0].to_ntt()  # the base's own context, cached
        cached = len(ntt._BATCHED_CACHE)
        stacked = StackedTransform.forward(polys)
        back = StackedTransform.inverse(stacked)
        assert len(ntt._BATCHED_CACHE) == cached
        for poly, got, again in zip(polys, stacked, back):
            assert got.base == base and got.is_ntt
            assert np.array_equal(got.residues, poly.to_ntt().residues)
            assert np.array_equal(again.residues, poly.residues)

    def test_mixed_domains_rejected(self):
        from repro.ckks.rns import StackedTransform
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(0)
        a = _random_poly(ring, ring.base_q(2), rng, is_ntt=False)
        b = _random_poly(ring, ring.base_q(2), rng, is_ntt=True)
        with pytest.raises(ValueError):
            StackedTransform.forward([a, b])
        with pytest.raises(ValueError):
            StackedTransform.forward([])


class TestModUpModDownInvariants:
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_mod_up_represents_x_plus_u_qblock(self, seed):
        """ModUp output is X + u * Q_block with the HPS-bounded |u|."""
        import math
        from repro.ckks.keyswitch import mod_up
        from repro.ckks.rns import RnsPolynomial, crt_reconstruct
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(seed)
        level = int(rng.integers(1, ring.max_level + 1))
        slice_base, _, _, _ = ring.mod_up_plan(level)[0]
        coeffs = rng.integers(-(1 << 20), 1 << 20, size=ring.n)
        x = RnsPolynomial.from_signed_coeffs(coeffs, slice_base)
        raised = mod_up(x.to_ntt(), level, ring)
        assert raised.base == ring.base_qp(level)
        recon = crt_reconstruct(raised.from_ntt())
        q_block = math.prod(p.value for p in slice_base)
        for got, c in zip(recon, coeffs):
            residue = int(c) % q_block
            diff = int(got) - residue
            assert diff % q_block == 0
            assert abs(diff // q_block) <= len(slice_base)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_mod_down_inverts_multiply_by_p_at_every_level(self, seed):
        """mod_down(X * P) == X exactly, for every level."""
        from repro.ckks.keyswitch import mod_down
        from repro.ckks.rns import RnsPolynomial
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-(1 << 30), 1 << 30, size=ring.n)
        for level in range(ring.max_level + 1):
            x_qp = RnsPolynomial.from_signed_coeffs(
                coeffs, ring.base_qp(level))
            y = x_qp.mul_int(ring.p_product).to_ntt()
            got = mod_down(y, level, ring).from_ntt()
            want = RnsPolynomial.from_signed_coeffs(
                coeffs, ring.base_q(level))
            assert got.base == want.base
            assert np.array_equal(got.residues, want.residues)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_mod_down_pair_bit_identical_to_singles(self, seed):
        """Both stacked ModDown entries equal the per-polynomial oracle."""
        from repro.ckks.keyswitch import mod_down, mod_down_many, \
            mod_down_pair
        from tests.property._shared import shared_setup
        ring, _, _, _ = shared_setup()
        rng = np.random.default_rng(seed)
        for level in (0, 2, ring.max_level):
            base = ring.base_qp(level)
            pb = _random_poly(ring, base, rng, is_ntt=True)
            pa = _random_poly(ring, base, rng, is_ntt=True)
            want_b = mod_down(pb, level, ring)
            want_a = mod_down(pa, level, ring)
            for got_b, got_a in (mod_down_pair(pb, pa, level, ring),
                                 mod_down_many([pb, pa], level, ring)):
                assert np.array_equal(got_b.residues, want_b.residues)
                assert np.array_equal(got_a.residues, want_a.residues)
