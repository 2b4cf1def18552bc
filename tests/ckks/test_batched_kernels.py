"""Bit-identity cross-checks: limb-batched kernels vs scalar references.

The limb-batched engine (``ModulusVector`` modmath, ``BatchedNttContext``,
broadcasted BConv) must produce exactly the same ``uint64`` residues as
the retained per-limb reference paths — not merely congruent values.
These tests drive both paths on randomized inputs and assert
``np.array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.modmath import (
    Modulus,
    ModulusVector,
    add_mod,
    barrett_reduce128,
    mul128,
    mul_mod,
    mul_mod_shoup,
    neg_mod,
    scalar_columns,
    shoup_precompute,
    sub_mod,
    sum128,
)
from repro.ckks.ntt import NttContext, batched_ntt_context
from repro.ckks.params import CkksParams, RingContext
from repro.ckks.primes import ntt_friendly_primes
from repro.ckks.rns import (
    RnsPolynomial,
    _base_convert_reference,
    base_convert,
    base_modulus_vector,
)
from repro.obs import kernel as obs_kernel

#: Deliberately mixed-width moduli (one per row) to exercise broadcasting.
MIXED_MODULI = [17, 257, (1 << 30) + 3, (1 << 45) + 59, (1 << 59) + 55,
                (1 << 61) + 15]


@pytest.fixture(scope="module")
def mixed_mv():
    return ModulusVector([Modulus(q) for q in MIXED_MODULI])


def _rows(rng, n=173):
    """Random canonical residue matrix over MIXED_MODULI."""
    return np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                     for q in MIXED_MODULI])


class TestModulusVector:
    def test_column_shapes(self, mixed_mv):
        L = len(MIXED_MODULI)
        assert mixed_mv.u64.shape == (L, 1)
        assert mixed_mv.mu_hi.shape == (L, 1)
        assert mixed_mv.mu_lo.shape == (L, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModulusVector([])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ops_match_per_row_scalar_path(self, mixed_mv, seed):
        rng = np.random.default_rng(seed)
        a = _rows(rng)
        b = _rows(rng)
        batched = {
            "add": add_mod(a, b, mixed_mv),
            "sub": sub_mod(a, b, mixed_mv),
            "neg": neg_mod(a, mixed_mv),
            "mul": mul_mod(a, b, mixed_mv),
        }
        for i, q in enumerate(MIXED_MODULI):
            m = Modulus(q)
            assert np.array_equal(batched["add"][i], add_mod(a[i], b[i], m))
            assert np.array_equal(batched["sub"][i], sub_mod(a[i], b[i], m))
            assert np.array_equal(batched["neg"][i], neg_mod(a[i], m))
            assert np.array_equal(batched["mul"][i], mul_mod(a[i], b[i], m))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ops_match_bigint_ground_truth(self, mixed_mv, seed):
        rng = np.random.default_rng(seed)
        a = _rows(rng, n=29)
        b = _rows(rng, n=29)
        got_mul = mul_mod(a, b, mixed_mv)
        got_sub = sub_mod(a, b, mixed_mv)
        for i, q in enumerate(MIXED_MODULI):
            for j in range(a.shape[1]):
                assert int(got_mul[i, j]) == (int(a[i, j]) * int(b[i, j])) % q
                assert int(got_sub[i, j]) == (int(a[i, j]) - int(b[i, j])) % q

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shoup_matches_bigint(self, mixed_mv, seed):
        rng = np.random.default_rng(seed)
        a = _rows(rng, n=31)
        w = np.stack([rng.integers(0, q, size=31, dtype=np.uint64)
                      for q in MIXED_MODULI])
        w_shoup = shoup_precompute(w, mixed_mv)
        got = mul_mod_shoup(a, w, w_shoup, mixed_mv)
        for i, q in enumerate(MIXED_MODULI):
            for j in range(a.shape[1]):
                assert int(got[i, j]) == (int(a[i, j]) * int(w[i, j])) % q

    def test_out_buffers_are_returned(self, mixed_mv):
        rng = np.random.default_rng(7)
        a = _rows(rng)
        b = _rows(rng)
        out = np.empty_like(a)
        got = add_mod(a, b, mixed_mv, out=out)
        assert got is out
        assert np.array_equal(out, add_mod(a, b, mixed_mv))


class TestLazyAccumulation:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum128_exact(self, seed):
        rng = np.random.default_rng(seed)
        hi = rng.integers(0, 1 << 58, size=(5, 9, 13), dtype=np.uint64)
        lo = rng.integers(0, 1 << 64, size=(5, 9, 13), dtype=np.uint64)
        hi_sum, lo_sum = sum128(hi, lo, axis=1)
        for i in range(5):
            for k in range(13):
                total = sum((int(hi[i, j, k]) << 64) | int(lo[i, j, k])
                            for j in range(9))
                assert total < 1 << 128
                assert ((int(hi_sum[i, k]) << 64) | int(lo_sum[i, k])) == total

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_barrett_reduces_lazy_sums(self, mixed_mv, seed):
        """Barrett must stay exact for inputs far above m**2."""
        rng = np.random.default_rng(seed)
        shape = (len(MIXED_MODULI), 17)
        hi = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        lo = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        got = barrett_reduce128(hi, lo, mixed_mv)
        for i, q in enumerate(MIXED_MODULI):
            for j in range(shape[1]):
                x = (int(hi[i, j]) << 64) | int(lo[i, j])
                assert int(got[i, j]) == x % q


class TestBatchedNtt:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_bit_identical_to_per_limb(self, n):
        primes = (ntt_friendly_primes(40, 3, n) +
                  ntt_friendly_primes(50, 2, n) +
                  ntt_friendly_primes(58, 2, n))
        ctxs = tuple(NttContext.create(q, n) for q in primes)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(n)
        a = np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                      for q in primes])
        fwd = batched.forward(a)
        assert np.array_equal(
            fwd, np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)]))
        inv = batched.inverse(fwd)
        assert np.array_equal(
            inv, np.stack([c.inverse(fwd[i]) for i, c in enumerate(ctxs)]))
        assert np.array_equal(inv, a)

    @pytest.mark.parametrize("n", [16, 256])
    def test_leading_axes_reuse_the_base_tables(self, n, each_backend,
                                                monkeypatch):
        """A ``(reps, limbs, n)`` stack runs on the base's own context:
        bit-identical per slice, one pass per limb row, no new tables."""
        from repro.ckks import ntt

        primes = ntt_friendly_primes(40, 2, n) + ntt_friendly_primes(50, 1, n)
        ctxs = tuple(NttContext.create(q, n) for q in primes)
        batched = batched_ntt_context(ctxs)
        cached = len(ntt._BATCHED_CACHE)
        rng = np.random.default_rng(n)
        a = np.stack([np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                                for q in primes]) for _ in range(3)])
        monkeypatch.setattr(obs_kernel, "_ENABLED", True)
        before = obs_kernel.snapshot()
        fwd = batched.forward(a)
        inv = batched.inverse(fwd)
        delta = obs_kernel.delta(before)
        for rows, got_f, got_i in zip(a, fwd, inv):
            assert np.array_equal(got_f, batched.forward(rows))
            assert np.array_equal(got_i, rows)
        assert delta["ntt_forward"] == delta["ntt_inverse"] == 3 * len(ctxs)
        assert len(ntt._BATCHED_CACHE) == cached

    def test_cache_shared_across_equal_bases(self):
        n = 64
        primes = ntt_friendly_primes(45, 2, n)
        ctxs = tuple(NttContext.create(q, n) for q in primes)
        assert batched_ntt_context(ctxs) is batched_ntt_context(tuple(ctxs))

    def test_input_not_mutated(self):
        n = 64
        q = ntt_friendly_primes(45, 1, n)[0]
        ctx = NttContext.create(q, n)
        batched = batched_ntt_context((ctx,))
        rng = np.random.default_rng(1)
        a = rng.integers(0, q, size=(1, n), dtype=np.uint64)
        before = a.copy()
        batched.forward(a)
        batched.inverse(a)
        assert np.array_equal(a, before)

    def test_shape_validation(self):
        n = 64
        q = ntt_friendly_primes(45, 1, n)[0]
        batched = batched_ntt_context((NttContext.create(q, n),))
        with pytest.raises(ValueError):
            batched.forward(np.zeros((2, n), dtype=np.uint64))


class TestWideBaseOracleRoute:
    """Bases outside the 4m Stockham gate: per-prime oracle under NumPy,
    the one-call kernel under native."""

    N = 256

    @pytest.fixture()
    def wide(self):
        primes = ntt_friendly_primes(60, 2, self.N)
        return batched_ntt_context(
            tuple(NttContext.create(q, self.N) for q in primes))

    def test_no_plan(self, wide):
        assert wide.plan is None

    def test_bit_identical_to_per_limb_and_roundtrips(self, wide,
                                                      each_backend):
        rng = np.random.default_rng(60)
        a = np.stack([rng.integers(0, c.modulus.value, size=self.N,
                                   dtype=np.uint64) for c in wide.contexts])
        fwd = wide.forward(a)
        assert np.array_equal(fwd, np.stack(
            [c.forward(row) for c, row in zip(wide.contexts, a)]))
        inv = wide.inverse(fwd)
        assert np.array_equal(inv, np.stack(
            [c.inverse(row) for c, row in zip(wide.contexts, fwd)]))
        assert np.array_equal(inv, a)

    def test_leading_axes_match_per_slice(self, wide):
        rng = np.random.default_rng(61)
        a = np.stack([np.stack([rng.integers(0, c.modulus.value, size=self.N,
                                             dtype=np.uint64)
                                for c in wide.contexts]) for _ in range(2)])
        fwd = wide.forward(a)
        assert fwd.shape == a.shape
        for rows, got in zip(a, fwd):
            assert np.array_equal(got, wide.forward(rows))
        assert np.array_equal(wide.inverse(fwd), a)

    def test_forward_tallies_one_pass_per_limb(self, wide, each_backend,
                                               monkeypatch):
        monkeypatch.setattr(obs_kernel, "_ENABLED", True)
        before = obs_kernel.snapshot()
        wide.forward(np.zeros((wide.num_limbs, self.N), dtype=np.uint64))
        delta = obs_kernel.delta(before)
        assert delta["ntt_forward"] == wide.num_limbs
        assert delta["ntt_inverse"] == 0


@pytest.mark.parametrize("params", [
    CkksParams.functional(),
    CkksParams.functional(n=1 << 9, l=14, dnum=3, q0_bits=52, p_bits=52),
    CkksParams.functional(n=1 << 11, l=10, dnum=2, q0_bits=52, p_bits=52),
], ids=["functional-default", "bootstrap", "serving"])
def test_shipped_bases_get_a_stockham_plan(params):
    """No shipped configuration takes the per-limb oracle route."""
    ring = RingContext(params)
    assert ring.batched_ntt(ring.base_qp(params.l)).plan is not None


@pytest.fixture(scope="module")
def bconv_ring():
    return RingContext(CkksParams.functional(
        n=1 << 8, l=6, dnum=2, scale_bits=40, q0_bits=50, p_bits=50, h=16))


class TestBatchedBConv:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_reference(self, bconv_ring, seed):
        ring = bconv_ring
        rng = np.random.default_rng(seed)
        src = ring.base_q(3)
        dst = ring.base_q(6)[4:] + ring.base_p
        residues = np.stack([rng.integers(0, p.value, size=ring.n,
                                          dtype=np.uint64) for p in src])
        poly = RnsPolynomial(src, residues, is_ntt=False)
        got = base_convert(poly, dst)
        ref = _base_convert_reference(poly, dst)
        assert got.base == ref.base
        assert np.array_equal(got.residues, ref.residues)

    def test_single_source_limb(self, bconv_ring):
        ring = bconv_ring
        rng = np.random.default_rng(3)
        src = ring.base_q(0)
        dst = ring.base_p
        residues = rng.integers(0, src[0].value, size=(1, ring.n),
                                dtype=np.uint64)
        poly = RnsPolynomial(src, residues, is_ntt=False)
        assert np.array_equal(
            base_convert(poly, dst).residues,
            _base_convert_reference(poly, dst).residues)


class TestBatchedPolynomialOps:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mul_scalar_columns_matches_dict_path(self, bconv_ring, seed):
        ring = bconv_ring
        rng = np.random.default_rng(seed)
        base = ring.base_q(4)
        residues = np.stack([rng.integers(0, p.value, size=ring.n,
                                          dtype=np.uint64) for p in base])
        poly = RnsPolynomial(base, residues, is_ntt=True)
        value = int(rng.integers(1, 1 << 40))
        scalars = {p.value: value % p.value for p in base}
        cols, cols_shoup = scalar_columns(
            tuple(scalars[p.value] for p in base),
            tuple(p.value for p in base))
        assert np.array_equal(poly.mul_scalar(scalars).residues,
                              poly.mul_scalar_columns(cols,
                                                      cols_shoup).residues)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_galois_matches_per_limb_reference(self, bconv_ring, seed):
        ring = bconv_ring
        rng = np.random.default_rng(seed)
        base = ring.base_q(3)
        residues = np.stack([rng.integers(0, p.value, size=ring.n,
                                          dtype=np.uint64) for p in base])
        poly = RnsPolynomial(base, residues, is_ntt=False)
        g = 5
        got = poly.galois(g)
        n = ring.n
        for i, prime in enumerate(base):
            row = np.zeros(n, dtype=np.uint64)
            for j in range(n):
                dest = (j * g) % (2 * n)
                val = int(residues[i, j])
                if dest >= n:
                    dest -= n
                    val = (prime.value - val) % prime.value
                row[dest] = val
            assert np.array_equal(got.residues[i], row)

    def test_moduli_property_is_cached(self, bconv_ring):
        base = bconv_ring.base_q(2)
        p1 = RnsPolynomial.zeros(base, bconv_ring.n)
        p2 = RnsPolynomial.zeros(base, bconv_ring.n)
        assert p1.moduli is p2.moduli
        assert base_modulus_vector(base).values == tuple(
            p.value for p in base)
