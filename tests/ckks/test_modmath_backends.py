"""Differential tier: the native modmath backend vs the NumPy oracle.

Every modmath primitive with a native entry (``mul_mod``,
``mul_mod_shoup``, ``mul_mod_add``) returns canonical residues, so the
compiled backend must agree with the pure-NumPy path bit for bit — on
contiguous planes, strided views, broadcasts, scalar and vector moduli,
and through every layer that inherits the dispatch (NTT, BConv,
key-switching, full HMult).  The NumPy-only primitives (``mulhi64``,
``mul128``, ``barrett_reduce128``, ``mul_mod_shoup_lazy``) are checked
against big-int math in ``test_modmath.py``.
The one-call native batched NTT is held to the per-limb ``NttContext``
oracle and to the NumPy Stockham plan the same way.
"""

from __future__ import annotations

import sys
import threading
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
    mul_mod,
    mul_mod_add,
    mul_mod_shoup,
    mul_mod_shoup_lazy,
    set_backend,
    shoup_precompute,
)
from repro.ckks.ntt import batched_ntt_context
from tests.conftest import encrypt_message, ntt_limbs, ntt_oracle, \
    ntt_residues

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

    def test_mul_mod_vector_moduli(self, mv, planes):
        a, b = planes
        _assert_identical(*_under_both(lambda: mul_mod(a, b, mv)))

    def test_shoup_canonical_and_lazy(self, mv, planes):
        a, b = planes
        w = b[0]                       # Shoup constants on an (L, 64) plane
        ws = shoup_precompute(w, mv)
        ref, got = _under_both(lambda: mul_mod_shoup(a, w, ws, mv))
        _assert_identical(ref, got)
        # The NumPy-only lazy form is the native canonical result + 0 or m.
        lazy = mul_mod_shoup_lazy(a, w, ws, mv)
        assert np.all(lazy < 2 * mv.u64)
        np.testing.assert_array_equal(lazy % mv.u64, got)

    def test_mul_mod_add_with_aliasing(self, mv, planes):
        a, b = planes

        def run():
            acc = a.copy()
            return mul_mod_add(acc, a, b, mv, out=acc)

        _assert_identical(*_under_both(run))

    def test_strided_views(self, rng):
        m = Modulus((1 << 59) + 55)
        base = rng.integers(0, m.value, size=(64, 64), dtype=np.uint64)
        views = [base.T, base[::2, ::3], base[:, 7], base[::-1, ::-2]]
        for view in views:
            _assert_identical(
                *_under_both(lambda v=view: mul_mod(v, v, m)))
        # a size-1 middle axis repeats against a full one (stride 0)
        cube = base[:48].reshape(3, 4, 4, 64)[:, :, 0]
        _assert_identical(
            *_under_both(lambda: mul_mod(cube[:, :1], cube, m)))
        # a strided out= is filled in place and returned
        spread = np.zeros((64, 128), dtype=np.uint64)

        def into_strided():
            got = mul_mod(base, base.T, m, out=spread[:, ::2])
            assert np.shares_memory(got, spread)
            return got.copy()

        ref, got = _under_both(into_strided)
        _assert_identical(ref, got)
        assert not spread[:, 1::2].any()

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
        # one-element and 0-d operands: both backends return an array
        for x, y, w in ((arr_a, arr_b, ws), (arr_a[0], arr_b[0], ws[0])):
            for fn in (lambda: mul_mod(x, y, m),
                       lambda: mul_mod_shoup(x, y, w, m),
                       lambda: mul_mod_add(x, x, y, m)):
                ref, got = _under_both(fn)
                _assert_identical(ref, got)
                assert got.shape == np.shape(x)

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

    def test_key_switch_accumulate_below_top_level(
            self, small_evaluator, small_keys, small_encoder, small_params,
            small_ring, rng):
        """The in-place evk read where ``B`` is not adjacent to ``C_level``."""
        from repro.ckks.keyswitch import (
            key_switch_accumulate,
            raise_decomposition,
        )

        level = small_params.l - 2
        ct = small_evaluator.drop_to_level(
            self._encrypted(small_keys, small_encoder, small_params, rng),
            level)
        evk = small_keys.gen_relinearization_key()
        raised = raise_decomposition(ct.a, level, small_ring)

        def run():
            b, a = key_switch_accumulate(raised, evk, level, small_ring)
            return b.residues, a.residues

        ref, got = _under_both(run)
        _assert_identical(ref, got)
        assert ref[0].shape == (level + 1 + len(small_ring.base_p),
                                small_params.n)

    def test_rescale_bit_identical(self, small_evaluator, small_keys,
                                   small_encoder, small_params, rng):
        ct0 = self._encrypted(small_keys, small_encoder, small_params, rng)
        ct1 = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.rescale(small_evaluator.multiply(
                ct0, ct1, rescale=False))
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))


@needs_native
def test_backend_is_chosen_once(monkeypatch):
    """The env var is read by ``set_backend(None)``, not per call."""
    try:
        monkeypatch.setenv("REPRO_MODMATH_BACKEND", "native")
        assert set_backend(None) == "native"
        monkeypatch.setenv("REPRO_MODMATH_BACKEND", "numpy")
        assert active_backend() == "native"
        assert set_backend(None) == "numpy"
        monkeypatch.setenv("REPRO_MODMATH_BACKEND", "no-such-backend")
        assert active_backend() == "numpy"
        assert set_backend(None) == "native"  # unknown means auto
    finally:
        monkeypatch.undo()
        set_backend(None)


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


@needs_native
class TestNativeBatchedNtt:
    """One native call per transform, bit-identical to both oracles."""

    @pytest.mark.parametrize("exp", [4, 5, 9, 12])
    @pytest.mark.parametrize("wide", [False, True], ids=["gated", "wide"])
    def test_matches_oracle_and_numpy_route(self, exp, wide):
        ctxs = ntt_limbs(1 << exp, wide)
        batched = batched_ntt_context(ctxs)
        assert (batched.plan is None) == wide
        a = ntt_residues(ctxs, np.random.default_rng(exp))
        ref_f, got_f = _under_both(lambda: batched.forward(a))
        assert np.array_equal(got_f, ntt_oracle(ctxs, a, "forward"))
        assert np.array_equal(got_f, ref_f)
        ref_i, got_i = _under_both(lambda: batched.inverse(got_f))
        assert np.array_equal(got_i, ntt_oracle(ctxs, got_f, "inverse"))
        assert np.array_equal(got_i, ref_i)
        assert np.array_equal(got_i, a)

    def test_route_follows_the_backend(self):
        batched = batched_ntt_context(ntt_limbs(16, wide=True))
        with forced("native"):
            assert batched.route == "native"
        with forced("numpy"):
            assert batched.route == "per-limb"
            assert batched_ntt_context(ntt_limbs(16, False)).route \
                == "stockham"

    def test_stacked_strided_and_non_uint64_inputs(self, rng):
        ctxs = ntt_limbs(64, wide=True)
        batched = batched_ntt_context(ctxs)
        stack = ntt_residues(ctxs, rng, lead=(3,))
        small = ntt_limbs(64, wide=False)
        ints = ntt_residues(small, rng).astype(np.int64)
        big = np.concatenate([stack, stack], axis=-1)  # (3, L, 2n)
        with forced("native"):
            cases = [
                (batched, stack),
                (batched, np.swapaxes(np.swapaxes(stack, 0, 1).copy(),
                                      0, 1)),             # transposed view
                (batched, big[..., ::2]),                 # strided slice
                (batched, stack[::-1]),                   # negative stride
                (batched_ntt_context(small), ints),       # int64 input
            ]
            for ctx, x in cases:
                got = ctx.forward(x)
                assert got.dtype == np.uint64 and got.shape == x.shape
                want = ntt_oracle(ctx.contexts, np.asarray(x, np.uint64),
                              "forward")
                assert np.array_equal(got, want)
                assert np.array_equal(ctx.inverse(got), x)

    def test_input_untouched_and_output_fresh(self, rng):
        ctxs = ntt_limbs(128, wide=False)
        batched = batched_ntt_context(ctxs)
        a = ntt_residues(ctxs, rng)
        saved = a.copy()
        with forced("native"):
            fwd = batched.forward(a)
            inv = batched.inverse(fwd)
            again = batched.forward(a)
        assert np.array_equal(a, saved)
        for out in (fwd, inv, again):
            assert out.flags.owndata and out.flags.c_contiguous
            assert not np.shares_memory(out, a)
        assert not np.shares_memory(fwd, again)
        assert np.array_equal(inv, a)

    def test_concurrent_threads_match_serial(self, rng):
        """The GIL is released inside the kernel: no shared scratch.

        More threads than cores and a short switch interval, so calls
        on different inputs interleave; each must equal its serial run.
        """
        ctxs = ntt_limbs(1 << 10, wide=True)
        batched = batched_ntt_context(ctxs)
        inputs = [ntt_residues(ctxs, rng, lead=(k + 1,)) for k in range(4)]
        results: dict[int, list] = {k: [] for k in range(4)}
        start = threading.Barrier(4, timeout=30)

        def work(k):
            start.wait()
            for _ in range(25):
                f = batched.forward(inputs[k])
                results[k].append((f, batched.inverse(f)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with forced("native"):
                serial = [batched.forward(x) for x in inputs]
                threads = [threading.Thread(target=work, args=(k,))
                           for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(4):
            assert len(results[k]) == 25
            for f, i in results[k]:
                assert np.array_equal(f, serial[k])
                assert np.array_equal(i, inputs[k])
