"""Differential tier: the native modmath backend vs the NumPy oracle.

Every modmath primitive with a native entry (``mul_mod``,
``mul_mod_shoup``, ``dot_mod``) returns canonical residues, so the
compiled backend must agree with the pure-NumPy path bit for bit — on
contiguous planes, strided views, broadcasts, scalar and vector moduli,
and through every layer that inherits the dispatch (NTT, BConv,
key-switching, full HMult).  The NumPy-only primitives (``mulhi64``,
``mul128``, ``barrett_reduce128``, ``mul_mod_shoup_lazy``) are checked
against big-int math in ``test_modmath.py``.
The one-call native batched NTT is held to the per-limb ``NttContext``
oracle and to the NumPy Stockham plan the same way, and the one-call
native ``dot_mod`` to its term-by-term NumPy route and to big ints.
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
    _dot_fold,
    active_backend,
    available_backends,
    dot_mod,
    mul_mod,
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
                       lambda: mul_mod_shoup(x, y, w, m)):
                ref, got = _under_both(fn)
                _assert_identical(ref, got)
                assert got.shape == np.shape(x)
        # one (1, 1) element per term, the second term negated
        col_a, col_b = arr_a.reshape(1, 1), arr_b.reshape(1, 1)
        ref, got = _under_both(lambda: dot_mod(
            [col_a, col_b], [col_b, col_b], m, negate=[False, True]))
        _assert_identical(ref, got)
        assert int(got[0, 0]) == (a * b - b * b) % q

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


#: 59-62-bit row moduli (any odd value below 2^62 is a valid Barrett
#: modulus); the largest sets the fold bound: 16 terms per 128-bit sum.
_DOT_MODULI = [(1 << 59) + 55, (1 << 61) + 15, (1 << 62) - 57,
               (1 << 61) + 249]
_DOT_FOLD = _dot_fold(max(_DOT_MODULI))


def _dot_bigint(xs, ws, negate, moduli):
    """Exact ``sum +-x*w mod q`` with Python ints (object arrays)."""
    total = 0
    for x, w, neg in zip(xs, ws, negate):
        term = np.asarray(x).astype(object) * np.asarray(w).astype(object)
        total = total - term if neg else total + term
    return total % np.array(moduli, dtype=object).reshape(-1, 1)


@needs_native
class TestNativeDotMod:
    """One native call per dot product, bit-identical to the oracles."""

    @pytest.fixture()
    def mv(self):
        return ModulusVector([Modulus(q) for q in _DOT_MODULI])

    def _residues(self, rng, shape):
        q = np.array(_DOT_MODULI, dtype=np.uint64).reshape(-1, 1)
        return rng.integers(0, 1 << 63, size=shape).astype(np.uint64) % q

    def test_fold_bound_is_sixteen(self):
        assert _DOT_FOLD == 16

    @pytest.mark.parametrize("terms", [1, _DOT_FOLD, _DOT_FOLD + 1, 40])
    @pytest.mark.parametrize("signs", ["positive", "negative", "mixed"])
    def test_extreme_sums_match_big_ints(self, mv, terms, signs):
        """Every operand q - 1: unfolded sums past the bound overflow."""
        top = (mv.u64 - np.uint64(1)) * np.ones((1, 33), dtype=np.uint64)
        negate = {"positive": [False] * terms, "negative": [True] * terms,
                  "mixed": [t % 3 == 1 for t in range(terms)]}[signs]
        xs = [top] * terms
        ws = [(top, top)] * terms   # both halves
        ref, got = _under_both(lambda: dot_mod(xs, ws, mv, negate=negate))
        _assert_identical(ref, got)
        want = _dot_bigint(xs, [top] * terms, negate, _DOT_MODULI)
        assert got.shape == (2, len(_DOT_MODULI), 33)
        for half in got:
            assert np.array_equal(half.astype(object), want)

    @pytest.mark.parametrize("terms", [1, _DOT_FOLD, _DOT_FOLD + 1, 40])
    def test_random_planes_match_big_ints(self, mv, rng, terms):
        xs = [self._residues(rng, (2, 4, 200)) for _ in range(terms)]
        ws = [self._residues(rng, (4, 200)) for _ in range(terms)]
        negate = list(rng.integers(0, 2, size=terms).astype(bool))
        ref, got = _under_both(lambda: dot_mod(xs, ws, mv, negate=negate))
        _assert_identical(ref, got)
        for h in range(2):
            want = _dot_bigint([x[h] for x in xs], ws, negate, _DOT_MODULI)
            assert np.array_equal(got[h].astype(object), want)

    def test_column_weights_and_missing_weights(self, mv, rng):
        """A ``(rows, 1)`` weight repeats along the coefficient axis."""
        xs = [self._residues(rng, (4, 100)) for _ in range(5)]
        ws = [self._residues(rng, (4, 1)), self._residues(rng, (4, 100)),
              np.ones((4, 1), dtype=np.uint64),
              self._residues(rng, (4, 1)), self._residues(rng, (4, 100))]
        negate = [True, False, True, False, False]
        ref, got = _under_both(lambda: dot_mod(xs, ws, mv, negate=negate))
        _assert_identical(ref, got)
        assert np.array_equal(got.astype(object),
                              _dot_bigint(xs, ws, negate, _DOT_MODULI))

    def test_bconv_layout(self, rng):
        """Stacked groups: ``(T, n)`` rows repeat per output row (row
        stride 0) against a ``(T, dst, 1)`` view of a contiguous
        ``(dst, T)`` cross matrix; under ``bound`` the terms need not be
        reduced by the output moduli."""
        src = [(1 << 61) + 15, (1 << 62) - 57, (1 << 60) + 33]
        dst = [(1 << 59) + 55, (1 << 40) + 195, (1 << 61) + 249,
               (1 << 52) + 21]
        dst_mv = ModulusVector([Modulus(q) for q in dst])
        terms = np.stack([rng.integers(0, q, size=128, dtype=np.uint64)
                          for q in src])
        cross = np.array([[rng.integers(0, p) for _ in src] for p in dst],
                         dtype=np.uint64)[:, :, None]
        cross_terms = cross.transpose(1, 0, 2)
        assert cross_terms.base is not None   # a view, not a copy
        bound = max(*src, *dst)
        ref, got = _under_both(lambda: dot_mod(terms, cross_terms, dst_mv,
                                               bound=bound))
        _assert_identical(ref, got)
        want = _dot_bigint(list(terms), list(cross_terms), [False] * 3, dst)
        assert np.array_equal(got.astype(object), want)

    def test_key_switch_row_map(self, rng):
        """``w_rows`` reads a full-base evk slice in place: the leading
        ``level+1`` rows, then the trailing special-prime rows."""
        full = [(1 << 59) + 55 + 2 * i for i in range(6)] \
            + [(1 << 61) + 15, (1 << 61) + 249]
        rows = [0, 1, 2, 6, 7]               # level 2 of a 6-prime chain
        mv = ModulusVector([Modulus(full[r]) for r in rows])
        q_full = np.array(full, dtype=np.uint64).reshape(-1, 1)
        slices = [rng.integers(0, 1 << 62, size=(2, len(full), 64)
                               ).astype(np.uint64) % q_full
                  for _ in range(3)]
        digits = [rng.integers(0, 1 << 62, size=(len(rows), 64)
                               ).astype(np.uint64) % mv.u64
                  for _ in range(3)]
        w_rows = np.array(rows)
        ref, got = _under_both(lambda: dot_mod(digits, slices, mv,
                                               w_rows=w_rows))
        _assert_identical(ref, got)
        for h in range(2):
            want = _dot_bigint(digits, [s[h][rows] for s in slices],
                               [False] * 3, [full[r] for r in rows])
            assert np.array_equal(got[h].astype(object), want)

    def test_strided_views(self, mv, rng):
        big = self._residues(rng, (2, 4, 256))
        plane = self._residues(rng, (4, 64))
        wide = np.concatenate([plane, plane], axis=1)   # (4, 128)
        xs = [big[..., ::4],                     # strided halves
              (big[1, :, 64:128], big[0, :, :64]),  # per-half tuple
              big[::-1, :, 128:192],             # negative half stride
              np.ascontiguousarray(big[0, :, :64].T).T]  # transposed
        ws = [wide[:, ::2], plane[:, ::-1], plane, wide[:, 64:]]
        negate = [False, True, True, False]
        ref, got = _under_both(lambda: dot_mod(xs, ws, mv, negate=negate))
        _assert_identical(ref, got)
        for h in range(2):
            want = _dot_bigint([x if np.ndim(x) == 2 else x[h] for x in xs],
                               ws, negate, _DOT_MODULI)
            assert np.array_equal(got[h].astype(object), want)

    def test_rejects_mismatched_operands(self, mv, rng):
        x = self._residues(rng, (4, 64))
        for backend in ("numpy", "native"):
            with forced(backend):
                with pytest.raises(ValueError):
                    dot_mod([x], [x[:, :32]], mv)        # columns differ
                with pytest.raises(ValueError):
                    dot_mod([x, x], [x], mv)             # term counts
                with pytest.raises(ValueError):
                    dot_mod([x], [x], mv, negate=[True, False])
                with pytest.raises(ValueError):
                    dot_mod([x[0]], [x[0]], Modulus(_DOT_MODULI[0]))
                with pytest.raises(TypeError):
                    dot_mod([x.astype(np.int64)], [x], mv)
                with pytest.raises(ValueError):           # halves' layouts
                    dot_mod([(x, x[:, ::-1])], [x], mv)

    def test_concurrent_threads_match_serial(self, mv, rng):
        """The GIL is released inside the kernel: no shared scratch."""
        inputs = [([self._residues(rng, (2, 4, 512)) for _ in range(k + 2)],
                   [self._residues(rng, (4, 512)) for _ in range(k + 2)])
                  for k in range(4)]
        results: dict[int, list] = {k: [] for k in range(4)}
        start = threading.Barrier(4, timeout=30)

        def work(k):
            start.wait()
            xs, ws = inputs[k]
            for _ in range(25):
                results[k].append(dot_mod(xs, ws, mv,
                                          negate=[True] * len(xs)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with forced("native"):
                serial = [dot_mod(xs, ws, mv, negate=[True] * len(xs))
                          for xs, ws in inputs]
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
            for got in results[k]:
                assert np.array_equal(got, serial[k])
