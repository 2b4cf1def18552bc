"""Differential tier: the native modmath backend vs the NumPy oracle.

Every public modmath primitive is *exactly* defined (canonical residues,
or an exact lazy representative), so the compiled backend must agree
with the pure-NumPy path bit for bit — on contiguous planes, strided
views, broadcasts, scalar and vector moduli, and through every layer
that inherits the dispatch (NTT, BConv, key-switching, full HMult).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.modmath import (
    Modulus,
    ModulusVector,
    active_backend,
    available_backends,
    barrett_reduce128,
    mul128,
    mul_mod,
    mul_mod_add,
    mul_mod_shoup,
    mul_mod_shoup_lazy,
    mulhi64,
    set_backend,
    shoup_precompute,
)
from tests.conftest import encrypt_message

needs_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native modmath extension unavailable")

SCALE = 2.0 ** 40

#: Mixed widths on purpose: the 7-bit limb stresses the correction
#: logic, the 59/61-bit limbs stress the quotient-estimate headroom.
_WIDTHS = [(1 << 59) + 55, (1 << 61) + 15, (1 << 40) + 195,
           (1 << 61) + 249, 113]


@contextmanager
def forced(name):
    set_backend(name)
    try:
        yield
    finally:
        set_backend(None)


def _under_both(fn):
    """Run ``fn()`` under each backend, returning (numpy, native)."""
    with forced("numpy"):
        ref = fn()
    with forced("native"):
        got = fn()
    return ref, got


def _assert_identical(ref, got):
    if isinstance(ref, tuple):
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r, g)
    else:
        np.testing.assert_array_equal(ref, got)


@needs_native
class TestPrimitiveBitIdentity:
    #: (3, L, 64) operands broadcast against the (L, 1) modulus columns,
    #: so the native N-d stride walker sees a leading batch axis.
    SHAPE = (3, len(_WIDTHS), 64)

    @pytest.fixture()
    def mv(self):
        return ModulusVector([Modulus(q) for q in _WIDTHS])

    @pytest.fixture()
    def planes(self, rng, mv):
        q = mv.u64
        a = rng.integers(0, 1 << 63, size=self.SHAPE).astype(np.uint64) % q
        b = rng.integers(0, 1 << 63, size=self.SHAPE).astype(np.uint64) % q
        return a, b

    def test_mulhi64_and_mul128(self, rng):
        a = rng.integers(0, 1 << 63, size=(5, 31), dtype=np.uint64)
        b = rng.integers(0, 1 << 63, size=(5, 31), dtype=np.uint64)
        _assert_identical(*_under_both(lambda: mulhi64(a, b)))
        _assert_identical(*_under_both(lambda: mul128(a, b)))

    def test_mul_mod_vector_moduli(self, mv, planes):
        a, b = planes
        _assert_identical(*_under_both(lambda: mul_mod(a, b, mv)))

    def test_barrett_reduce128_full_words(self, rng, mv):
        hi = rng.integers(0, 1 << 63, size=self.SHAPE, dtype=np.uint64)
        lo = rng.integers(0, 1 << 63, size=self.SHAPE, dtype=np.uint64)
        _assert_identical(
            *_under_both(lambda: barrett_reduce128(hi, lo, mv)))

    def test_shoup_canonical_and_lazy(self, mv, planes):
        a, b = planes
        w = b[0]                       # Shoup constants on an (L, 64) plane
        ws = shoup_precompute(w, mv)
        _assert_identical(
            *_under_both(lambda: mul_mod_shoup(a, w, ws, mv)))
        _assert_identical(
            *_under_both(lambda: mul_mod_shoup_lazy(a, w, ws, mv)))

    def test_mul_mod_add_with_aliasing(self, mv, planes):
        a, b = planes

        def run():
            acc = a.copy()
            return mul_mod_add(acc, a, b, mv, out=acc)

        _assert_identical(*_under_both(run))

    def test_strided_views(self, rng):
        m = Modulus((1 << 59) + 55)
        base = rng.integers(0, m.value, size=(64, 64), dtype=np.uint64)
        views = [base.T, base[::2, ::3], base[:, 7]]
        for view in views:
            _assert_identical(
                *_under_both(lambda v=view: mul_mod(v, v, m)))

    def test_scalar_broadcast(self, rng):
        m = Modulus((1 << 61) + 15)
        a = rng.integers(0, m.value, size=(4, 8), dtype=np.uint64)
        s = np.uint64(1 << 60)
        _assert_identical(
            *_under_both(lambda: mul_mod(a, np.broadcast_to(s, a.shape),
                                         m)))

    @given(st.integers(min_value=1 << 58, max_value=(1 << 62) - 1),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_differential_wide_moduli(self, q, data):
        if q % 2 == 0:
            q -= 1
        m = Modulus(q)
        a = data.draw(st.integers(min_value=0, max_value=q - 1))
        b = data.draw(st.integers(min_value=0, max_value=q - 1))
        arr_a = np.array([a], dtype=np.uint64)
        arr_b = np.array([b], dtype=np.uint64)
        ws = shoup_precompute(arr_b, m)
        for fn in (lambda: mul_mod(arr_a, arr_b, m),
                   lambda: mul_mod_shoup(arr_a, arr_b, ws, m),
                   lambda: mul_mod_shoup_lazy(arr_a, arr_b, ws, m)):
            ref, got = _under_both(fn)
            _assert_identical(ref, got)

    def test_native_selftest(self):
        from repro.ckks import _native

        handle = _native.load(build_if_missing=False)
        assert handle is not None
        assert handle.lib.nm_selftest() == 0


@needs_native
class TestInheritedLayersBitIdentity:
    """NTT / BConv / key-switching inherit the dispatch untouched."""

    def _encrypted(self, small_keys, small_encoder, small_params, rng):
        n = small_params.slots_max
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        return encrypt_message(small_keys, small_encoder, z, SCALE)

    def test_hmult_bit_identical(self, small_evaluator, small_keys,
                                 small_encoder, small_params, rng):
        ct0 = self._encrypted(small_keys, small_encoder, small_params, rng)
        ct1 = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.multiply(ct0, ct1)
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))

    def test_rotate_bit_identical(self, small_evaluator, small_keys,
                                  small_encoder, small_params, rng):
        ct = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.rotate(ct, 3)
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))

    def test_rescale_bit_identical(self, small_evaluator, small_keys,
                                   small_encoder, small_params, rng):
        ct0 = self._encrypted(small_keys, small_encoder, small_params, rng)
        ct1 = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.rescale(small_evaluator.multiply(
                ct0, ct1, rescale=False))
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))


class TestBackendFixture:
    """The parametrized fixture drives real work under each backend."""

    def test_active_backend_matches_fixture(self, each_backend):
        assert active_backend() == each_backend

    def test_mul_mod_oracle_under_each_backend(self, each_backend, rng):
        q = (1 << 61) + 15
        m = Modulus(q)
        a = rng.integers(0, q, size=257, dtype=np.uint64)
        b = rng.integers(0, q, size=257, dtype=np.uint64)
        got = mul_mod(a, b, m)
        assert [int(v) for v in got] == [(int(x) * int(y)) % q
                                        for x, y in zip(a, b)]

    def test_encrypt_decrypt_under_each_backend(
            self, each_backend, small_evaluator, small_keys,
            small_encoder, small_params, rng):
        n = small_params.slots_max
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        got = small_evaluator.decrypt_to_message(ct, small_keys.secret)
        assert np.max(np.abs(got - z)) < 1e-7
