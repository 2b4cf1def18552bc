"""Differential suite for the batched NTT engines.

The NumPy route's radix-4 Stockham plan and the native one-call kernel
each rewrite the numerical core of every transform, so both are locked
down three ways (every differential runs once per available backend):

* hypothesis-driven bit-identity against the scalar ``NttContext``
  oracle across random ring degrees (odd and even ``log2(N)``), limb
  counts, modulus widths (up to 62 bits for the native kernel) and
  stacked leading axes;
* convolution correctness against the O(N^2) schoolbook reference;
* structural checks: the ``4m`` :func:`stockham_gate` flipping exactly
  at its integer threshold (bases past it get no plan and run the
  per-limb oracle under NumPy, the one-call kernel under native),
  ping-pong buffers never mutating the input, and the static pass-count
  report the benchmarks record.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.slow  # hypothesis differential sweep runs nightly

from repro.ckks.modmath import available_backends, mul_mod, set_backend
from repro.ckks.ntt import (
    BatchedNttContext,
    NttContext,
    batched_ntt_context,
    negacyclic_convolution_reference,
    stockham_gate,
)
from repro.ckks.primes import is_prime, ntt_friendly_primes
from tests.conftest import ntt_limbs, ntt_oracle, ntt_residues

#: (n, bits) -> tuple[NttContext, ...]; hypothesis re-draws the same
#: configurations many times and context creation is O(n) per prime.
_CTX_CACHE: dict = {}


def _contexts(n: int, bits: int, limbs: int) -> tuple[NttContext, ...]:
    key = (n, bits)
    cached = _CTX_CACHE.get(key)
    if cached is None:
        primes = ntt_friendly_primes(bits, 4, n)
        cached = tuple(NttContext.create(q, n) for q in primes)
        _CTX_CACHE[key] = cached
    return cached[:limbs]


@pytest.fixture(autouse=True, scope="module")
def _restore_backend():
    """An assertion failing inside an ``_each_backend`` loop must not
    leak the forced backend into later modules."""
    yield
    set_backend(None)


def _each_backend():
    """Force each available modmath backend in turn, then restore."""
    for name in available_backends():
        set_backend(name)
        yield name
    set_backend(None)


def _random_matrix(ctxs, rng) -> np.ndarray:
    n = ctxs[0].n
    return np.stack([rng.integers(0, c.modulus.value, size=n,
                                  dtype=np.uint64) for c in ctxs])


class TestDifferentialVsScalarOracle:
    """The batched engine must match the per-limb oracle bit for bit."""

    @given(exp=st.integers(min_value=4, max_value=12),
           bits=st.sampled_from([30, 42, 50, 58]),
           limbs=st.integers(min_value=1, max_value=4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_forward_bit_identical(self, exp, bits, limbs, seed):
        ctxs = _contexts(1 << exp, bits, limbs)
        batched = batched_ntt_context(ctxs)
        a = _random_matrix(ctxs, np.random.default_rng(seed))
        ref = np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)])
        for _ in _each_backend():
            assert np.array_equal(batched.forward(a), ref)

    @given(exp=st.integers(min_value=4, max_value=12),
           bits=st.sampled_from([30, 42, 50, 58]),
           limbs=st.integers(min_value=1, max_value=4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_inverse_bit_identical_and_roundtrip(self, exp, bits, limbs,
                                                 seed):
        ctxs = _contexts(1 << exp, bits, limbs)
        batched = batched_ntt_context(ctxs)
        a = _random_matrix(ctxs, np.random.default_rng(seed))
        fwd = np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)])
        ref = np.stack([c.inverse(fwd[i]) for i, c in enumerate(ctxs)])
        assert np.array_equal(ref, a)
        for _ in _each_backend():
            assert np.array_equal(batched.inverse(fwd), ref)

    @pytest.mark.parametrize("exp", [4, 5, 6, 7, 10, 11])
    def test_odd_and_even_log2_n(self, exp):
        """The lone radix-2 fix-up stage (odd log2) matches the oracle."""
        ctxs = _contexts(1 << exp, 50, 3)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(exp)
        a = _random_matrix(ctxs, rng)
        for _ in _each_backend():
            fwd = batched.forward(a)
            assert np.array_equal(
                fwd, np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)]))
            assert np.array_equal(batched.inverse(fwd), a)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_wide_base_falls_back_to_oracle(self, seed):
        """60-bit moduli exceed the 4m bounds: under NumPy they run the
        per-limb oracle, under native the one-call kernel."""
        n = 256
        primes = ntt_friendly_primes(60, 2, n)
        ctxs = tuple(NttContext.create(q, n) for q in primes)
        batched = batched_ntt_context(ctxs)
        assert batched.plan is None
        a = _random_matrix(ctxs, np.random.default_rng(seed))
        for _ in _each_backend():
            fwd = batched.forward(a)
            assert np.array_equal(
                fwd, np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)]))
            assert np.array_equal(batched.inverse(fwd), a)

    @pytest.mark.skipif("native" not in available_backends(),
                        reason="native modmath extension unavailable")
    @given(exp=st.integers(min_value=1, max_value=12),
           wide=st.booleans(),
           lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_native_matches_oracle_and_numpy_route(self, exp, wide, lead,
                                                   seed):
        """The one-call kernel vs both NumPy routes, stacked inputs too."""
        ctxs = ntt_limbs(1 << exp, wide)
        batched = batched_ntt_context(ctxs)
        a = ntt_residues(ctxs, np.random.default_rng(seed), lead)
        want = ntt_oracle(ctxs, a, "forward")
        got = {}
        for name in _each_backend():
            got[name] = (batched.forward(a), batched.inverse(want))
        for fwd, inv in got.values():
            assert np.array_equal(fwd, want)
            assert np.array_equal(inv, a)


class TestConvolution:
    @given(exp=st.integers(min_value=4, max_value=6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_schoolbook_reference(self, exp, seed):
        n = 1 << exp
        ctxs = _contexts(n, 42, 2)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(seed)
        a = _random_matrix(ctxs, rng)
        b = _random_matrix(ctxs, rng)
        prod = batched.inverse(mul_mod(batched.forward(a),
                                       batched.forward(b),
                                       batched.moduli))
        for i, c in enumerate(ctxs):
            ref = negacyclic_convolution_reference(a[i], b[i],
                                                   c.modulus.value)
            assert np.array_equal(prod[i], ref)


class TestEngineStructure:
    def test_gate_selects_engine(self):
        assert stockham_gate(2048, (1 << 50) - 27)
        assert stockham_gate(2048, (1 << 58) - 1)
        assert not stockham_gate(2048, 1 << 60)
        # the forward growth bound tightens with the stage count
        assert stockham_gate(16, (1 << 59) - 1)
        assert not stockham_gate(1 << 12, 1 << 59)

    def test_input_not_mutated_by_ping_pong(self):
        ctxs = _contexts(128, 50, 2)
        batched = batched_ntt_context(ctxs)
        assert batched.plan is not None
        rng = np.random.default_rng(7)
        a = _random_matrix(ctxs, rng)
        saved = a.copy()
        for _ in _each_backend():
            fwd = batched.forward(a)
            assert np.array_equal(a, saved)
            batched.inverse(fwd)
            assert np.array_equal(a, saved)

    def test_outputs_are_fresh_arrays(self):
        """Results must not alias the reusable ping-pong workspace."""
        ctxs = _contexts(64, 50, 2)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(8)
        for _ in _each_backend():
            a = _random_matrix(ctxs, rng)
            first = batched.forward(a)
            snapshot = first.copy()
            batched.forward(_random_matrix(ctxs, rng))  # would clobber a view
            assert np.array_equal(first, snapshot)
            inv_first = batched.inverse(first)
            inv_snapshot = inv_first.copy()
            batched.inverse(snapshot)
            assert np.array_equal(inv_first, inv_snapshot)

    def test_pass_counts_report(self):
        ctxs = _contexts(1 << 11, 50, 2)
        report = batched_ntt_context(ctxs).plan.pass_counts
        assert report["engine"] == "stockham-r4"
        for direction in ("forward", "inverse"):
            assert report[direction]["dispatches"] > 0
            assert report[direction]["matrix_passes"] > 0
            assert report[direction]["per_stage"]

    def test_empty_context_tuple_rejected(self):
        with pytest.raises(ValueError):
            BatchedNttContext.from_contexts(())


def _edge_prime_pair(n: int, threshold: int) -> tuple[int, int]:
    """The NTT-friendly primes hugging ``threshold`` from each side.

    Returns ``(below, above)`` with ``below <= threshold < above``, both
    ``= 1 (mod 2n)`` and prime — the largest admissible and smallest
    inadmissible moduli for a gate whose cutoff is ``threshold``.
    """
    step = 2 * n
    below = threshold - ((threshold - 1) % step)   # = 1 mod 2n, <= threshold
    while not is_prime(below):
        below -= step
    above = below + step
    while above <= threshold or not is_prime(above):
        above += step
    return below, above


class TestStockhamGateBoundary:
    """Regression pin: the gate must flip exactly at the lazy-bound edge.

    The bounds are strict (``< 2**64``) and the cutoffs land at 59-62
    bit moduli; these tests hold the gate to the exact integer
    threshold and prove, differentially against the scalar oracle, that
    the switch to the per-limb route at the edge never changes a single
    output bit, under either backend (the native kernel ignores the
    gate).  ``mult`` is the lazy-bound multiple of ``m`` the thresholds
    are derived for (the ``4m`` gate).
    """

    @pytest.mark.parametrize("n", [4, 64, 1 << 11, 1 << 12])
    @pytest.mark.parametrize("mult", [4])
    def test_gate_flips_exactly_at_threshold(self, n, mult):
        k = n.bit_length() - 1
        limit = (1 << 64) - 1
        # Largest m satisfying both strict bounds; +1 must be rejected.
        threshold = min(limit // (mult * k + 1), limit // (2 * mult))
        assert 59 <= threshold.bit_length() <= 62
        assert stockham_gate(n, threshold)
        assert not stockham_gate(n, threshold + 1)

    @pytest.mark.parametrize("mult", [4])
    def test_real_primes_straddle_the_gate(self, mult):
        n = 1 << 11
        k = n.bit_length() - 1
        limit = (1 << 64) - 1
        threshold = min(limit // (mult * k + 1), limit // (2 * mult))
        admissible, inadmissible = _edge_prime_pair(n, threshold)
        assert stockham_gate(n, admissible)
        assert not stockham_gate(n, inadmissible)

    def _roundtrip_vs_oracle(self, ctxs, rng):
        """Batched forward+inverse must match the per-limb scalar oracle."""
        batched = batched_ntt_context(ctxs)
        a = _random_matrix(ctxs, rng)
        fwd = batched.forward(a)
        ref_fwd = np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)])
        assert np.array_equal(fwd, ref_fwd)
        inv = batched.inverse(fwd)
        ref_inv = np.stack([c.inverse(ref_fwd[i])
                            for i, c in enumerate(ctxs)])
        assert np.array_equal(inv, ref_inv)
        assert np.array_equal(inv, a)
        return batched

    def test_engine_selection_and_bit_identity_at_both_edges(self):
        """The largest admissible / smallest inadmissible widths, live.

        Two bases pinned at the real prime edge of the 4m gate (~2^58.5
        at n=2^11): under NumPy the one inside gets a Stockham plan and
        the one past it runs the per-limb oracle; under native both run
        the one-call kernel.  Every route reproduces the scalar oracle
        bit for bit.
        """
        n = 1 << 11
        k = n.bit_length() - 1
        adm, inadm = _edge_prime_pair(n, ((1 << 64) - 1) // (4 * k + 1))
        routes = {"numpy": ("stockham", "per-limb"),
                  "native": ("native", "native")}
        for name in _each_backend():
            rng = np.random.default_rng(0xB75)
            inside = self._roundtrip_vs_oracle(
                (NttContext.create(adm, n),), rng)
            past = self._roundtrip_vs_oracle(
                (NttContext.create(inadm, n),), rng)
            assert (inside.route, past.route) == routes[name]
            assert inside.plan is not None and past.plan is None
