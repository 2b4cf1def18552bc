"""Unit + property tests for the 128-bit modular arithmetic backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.modmath import (
    MODULUS_LIMIT,
    Modulus,
    add_mod,
    barrett_reduce128,
    inv_mod,
    mul128,
    mul_mod,
    mul_mod_shoup,
    mul_mod_shoup_lazy,
    mulhi64,
    neg_mod,
    pow_mod,
    shoup_precompute,
    sub_mod,
)

MODULI = [17, 257, (1 << 30) + 3, (1 << 45) + 59, (1 << 59) + 55,
          (1 << 61) + 15]


def _arrays(rng, q, size=257):
    a = rng.integers(0, q, size=size, dtype=np.uint64)
    b = rng.integers(0, q, size=size, dtype=np.uint64)
    return a, b


class TestModulus:
    def test_rejects_too_large(self):
        with pytest.raises(ValueError):
            Modulus(MODULUS_LIMIT)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Modulus(2)

    def test_mu_matches_python(self):
        m = Modulus((1 << 50) + 5)
        mu = (int(m.mu_hi) << 64) | int(m.mu_lo)
        assert mu == (1 << 128) // m.value

    def test_int_conversion(self):
        assert int(Modulus(97)) == 97


class TestMul128:
    def test_known_product(self):
        hi, lo = mul128(np.array([1 << 40], dtype=np.uint64),
                        np.array([1 << 40], dtype=np.uint64))
        assert int(hi[0]) == 1 << 16
        assert int(lo[0]) == 0

    def test_against_python(self, rng):
        a = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
        b = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
        hi, lo = mul128(a, b)
        for x, y, h, l in zip(a, b, hi, lo):
            full = int(x) * int(y)
            assert int(h) == full >> 64
            assert int(l) == full & ((1 << 64) - 1)

    def test_mulhi64(self, rng):
        a = rng.integers(0, 1 << 62, size=100, dtype=np.uint64)
        b = rng.integers(0, 1 << 62, size=100, dtype=np.uint64)
        hi = mulhi64(a, b)
        for x, y, h in zip(a, b, hi):
            assert int(h) == (int(x) * int(y)) >> 64


class TestMulMod:
    @pytest.mark.parametrize("q", MODULI)
    def test_matches_python(self, q, rng):
        m = Modulus(q)
        a, b = _arrays(rng, q)
        got = mul_mod(a, b, m)
        want = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert [int(v) for v in got] == want

    @pytest.mark.parametrize("q", MODULI)
    def test_shoup_matches_barrett(self, q, rng):
        m = Modulus(q)
        a, b = _arrays(rng, q)
        ws = shoup_precompute(b, m)
        assert np.array_equal(mul_mod(a, b, m), mul_mod_shoup(a, b, ws, m))

    def test_edge_values(self):
        q = (1 << 59) + 55
        m = Modulus(q)
        edge = np.array([0, 1, q - 1, q // 2, q // 2 + 1], dtype=np.uint64)
        got = mul_mod(edge, edge, m)
        want = [(int(x) ** 2) % q for x in edge]
        assert [int(v) for v in got] == want

    def test_broadcasting(self, rng):
        q = (1 << 45) + 59
        m = Modulus(q)
        a = rng.integers(0, q, size=(4, 8), dtype=np.uint64)
        s = np.uint64(12345)
        got = mul_mod(a, np.broadcast_to(s, a.shape), m)
        assert got.shape == (4, 8)
        assert int(got[0, 0]) == (int(a[0, 0]) * 12345) % q


class TestAddSubNeg:
    @pytest.mark.parametrize("q", MODULI)
    def test_add(self, q, rng):
        m = Modulus(q)
        a, b = _arrays(rng, q)
        got = add_mod(a, b, m)
        assert [int(v) for v in got] == [(int(x) + int(y)) % q
                                         for x, y in zip(a, b)]

    @pytest.mark.parametrize("q", MODULI)
    def test_sub(self, q, rng):
        m = Modulus(q)
        a, b = _arrays(rng, q)
        got = sub_mod(a, b, m)
        assert [int(v) for v in got] == [(int(x) - int(y)) % q
                                         for x, y in zip(a, b)]

    def test_neg_roundtrip(self, rng):
        q = (1 << 50) + 5
        m = Modulus(q)
        a, _ = _arrays(rng, q)
        assert np.array_equal(neg_mod(neg_mod(a, m), m), a)

    def test_neg_of_zero(self):
        m = Modulus(97)
        assert int(neg_mod(np.array([0], dtype=np.uint64), m)[0]) == 0


class TestScalarHelpers:
    def test_pow_mod(self):
        assert pow_mod(3, 20, 97) == pow(3, 20, 97)

    def test_inv_mod(self):
        q = (1 << 45) + 59
        for a in (2, 3, 12345, q - 1):
            assert (inv_mod(a, q) * a) % q == 1

    def test_inv_mod_non_invertible(self):
        with pytest.raises(ValueError):
            inv_mod(5, 25)


@st.composite
def modulus_and_operands(draw):
    q = draw(st.integers(min_value=3, max_value=MODULUS_LIMIT - 1))
    if q % 2 == 0:
        q += 1
    a = draw(st.integers(min_value=0, max_value=q - 1))
    b = draw(st.integers(min_value=0, max_value=q - 1))
    return q, a, b


class TestHypothesis:
    @given(modulus_and_operands())
    @settings(max_examples=300, deadline=None)
    def test_mul_mod_property(self, qab):
        q, a, b = qab
        m = Modulus(q)
        got = mul_mod(np.array([a], dtype=np.uint64),
                      np.array([b], dtype=np.uint64), m)
        assert int(got[0]) == (a * b) % q

    @given(modulus_and_operands())
    @settings(max_examples=200, deadline=None)
    def test_shoup_property(self, qab):
        q, a, b = qab
        m = Modulus(q)
        w = np.array([b], dtype=np.uint64)
        got = mul_mod_shoup(np.array([a], dtype=np.uint64), w,
                            shoup_precompute(w, m), m)
        assert int(got[0]) == (a * b) % q

    @given(modulus_and_operands())
    @settings(max_examples=200, deadline=None)
    def test_barrett_reduce_full_square(self, qab):
        q, a, _ = qab
        m = Modulus(q)
        arr = np.array([a], dtype=np.uint64)
        hi, lo = mul128(arr, arr)
        assert int(barrett_reduce128(hi, lo, m)[0]) == (a * a) % q

    @given(modulus_and_operands())
    @settings(max_examples=200, deadline=None)
    def test_add_sub_inverse(self, qab):
        q, a, b = qab
        m = Modulus(q)
        arr_a = np.array([a], dtype=np.uint64)
        arr_b = np.array([b], dtype=np.uint64)
        assert np.array_equal(sub_mod(add_mod(arr_a, arr_b, m), arr_b, m),
                              arr_a)


# --- wide-modulus sweep -----------------------------------------------------
#
# The Barrett and Shoup quotient estimates are tightest when the modulus
# approaches the 2**62 limit: the estimate can fall up to 2 below the true
# quotient, and the number of conditional corrections actually *taken*
# peaks for 59..62-bit moduli with operands hugging m - 1.  The uniform
# strategy above almost never lands there, so this sweep pins the modulus
# to the top widths and biases operands toward the correction-heavy edges.

_WIDE_EDGE_MODULI = [
    MODULUS_LIMIT - 1,            # 62-bit, largest admissible (odd)
    MODULUS_LIMIT - 3,
    (1 << 61) + 1, (1 << 61) - 1,  # straddle 2**61
    (1 << 60) + 1, (1 << 60) - 1,
    (1 << 59) + 1, (1 << 59) - 1,
    (1 << 59) + 55, (1 << 61) + 15,  # NTT-friendly widths used elsewhere
]


@st.composite
def wide_modulus(draw):
    """An odd modulus with bit length in 59..62 (limit is 2**62)."""
    edge = draw(st.booleans())
    if edge:
        q = draw(st.sampled_from(_WIDE_EDGE_MODULI))
    else:
        bits = draw(st.integers(min_value=59, max_value=62))
        hi = min(1 << bits, MODULUS_LIMIT) - 1
        q = draw(st.integers(min_value=1 << (bits - 1), max_value=hi))
    if q % 2 == 0:
        q -= 1
    return q


def _residue(draw, q):
    """Residue < q biased toward the correction-heavy edges."""
    return draw(st.one_of(
        st.sampled_from([0, 1, q - 1, q - 2, q // 2, q // 2 + 1]),
        st.integers(min_value=0, max_value=q - 1)))


@st.composite
def wide_modulus_and_residues(draw):
    q = draw(wide_modulus())
    return q, _residue(draw, q), _residue(draw, q)


@st.composite
def wide_modulus_and_u128(draw):
    """A wide modulus plus an arbitrary 128-bit (hi, lo) input."""
    q = draw(wide_modulus())
    word = st.one_of(
        st.sampled_from([0, 1, (1 << 64) - 1, (1 << 64) - 2, q, q - 1]),
        st.integers(min_value=0, max_value=(1 << 64) - 1))
    return q, draw(word), draw(word)


class TestWideModulusSweep:
    @given(wide_modulus_and_residues())
    @settings(max_examples=400, deadline=None)
    def test_mul_mod_at_wide_moduli(self, qab):
        q, a, b = qab
        m = Modulus(q)
        got = mul_mod(np.array([a], dtype=np.uint64),
                      np.array([b], dtype=np.uint64), m)
        assert int(got[0]) == (a * b) % q

    @given(wide_modulus_and_u128())
    @settings(max_examples=400, deadline=None)
    def test_barrett_reduce128_full_range(self, qhl):
        # barrett_reduce128 is documented correct for *any* x < 2**128,
        # not just products of residues — exercise that full contract.
        q, hi, lo = qhl
        m = Modulus(q)
        got = barrett_reduce128(np.array([hi], dtype=np.uint64),
                                np.array([lo], dtype=np.uint64), m)
        assert int(got[0]) == ((hi << 64) | lo) % q

    @given(wide_modulus_and_residues())
    @settings(max_examples=400, deadline=None)
    def test_shoup_precompute_exact(self, qab):
        q, w, _ = qab
        m = Modulus(q)
        ws = shoup_precompute(np.array([w], dtype=np.uint64), m)
        assert int(ws[0]) == (w << 64) // q

    @given(wide_modulus_and_residues())
    @settings(max_examples=400, deadline=None)
    def test_shoup_multiply_at_wide_moduli(self, qab):
        q, a, w = qab
        m = Modulus(q)
        w_arr = np.array([w], dtype=np.uint64)
        ws = shoup_precompute(w_arr, m)
        got = mul_mod_shoup(np.array([a], dtype=np.uint64), w_arr, ws, m)
        assert int(got[0]) == (a * w) % q

    @given(wide_modulus_and_u128())
    @settings(max_examples=400, deadline=None)
    def test_shoup_lazy_bound_for_any_word(self, qhl):
        # The lazy variant admits any a < 2**64 (not just residues) and
        # promises a representative below 2m congruent to a*w.
        q, a, _ = qhl
        m = Modulus(q)
        w = a % q
        w_arr = np.array([w], dtype=np.uint64)
        ws = shoup_precompute(w_arr, m)
        r = int(mul_mod_shoup_lazy(np.array([a], dtype=np.uint64),
                                   w_arr, ws, m)[0])
        assert r < 2 * q
        assert r % q == (a * w) % q
