"""Permutation-oracle tier: NTT-domain galois vs the coefficient oracle.

The NTT-domain automorphism (:func:`ntt_galois_permutation` + the
:meth:`RnsPolynomial.galois` gather) must be *bit-for-bit* identical to
the coefficient-domain oracle (permute coefficients with negacyclic
signs, then transform).  This tier sweeps ring degrees 2^4..2^11, every
galois element a BSGS plan or conjugation can produce, and the three
rotation routes (sequential / coefficient-hoisted / NTT-domain), so any
index-juggling mistake in the hoisting or permutation code shows up as
a residue mismatch, not as noise.

Unlike the golden vectors, nothing here is frozen: the coefficient
oracle is recomputed on the fly, so this tier never needs regeneration —
NTT-domain changes must stay bit-identical to it, always.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.linear_transform import bsgs_rotations
from repro.ckks.ntt import (
    NttContext,
    bit_reverse_indices,
    ntt_galois_permutation,
)
from repro.ckks.primes import ntt_friendly_primes
from repro.ckks.rns import RnsPolynomial
from tests.conftest import encrypt_message

SCALE = 2.0 ** 40


@pytest.fixture(scope="module")
def contexts_by_logn():
    """One scalar NttContext per ring degree 2^4..2^11 (50-bit primes)."""
    out = {}
    for logn in range(4, 12):
        n = 1 << logn
        q = ntt_friendly_primes(50, 1, n)[0]
        out[logn] = NttContext.create(q, n)
    return out


def _bsgs_and_conj_elements(n: int) -> list[int]:
    """Every galois element a BSGS plan over n/2 slots (or HConj) uses."""
    n_slots = n // 2
    amounts = bsgs_rotations(n_slots, n_slots)
    elements = [pow(5, amount, 2 * n) for amount in sorted(amounts)]
    elements.append(2 * n - 1)  # conjugation
    return elements


class TestPermutationTable:
    @pytest.mark.parametrize("logn", range(4, 12))
    def test_is_permutation(self, logn):
        n = 1 << logn
        for g in _bsgs_and_conj_elements(n)[:8]:
            perm = ntt_galois_permutation(n, g)
            assert sorted(perm.tolist()) == list(range(n))

    def test_identity_element(self):
        assert np.array_equal(ntt_galois_permutation(64, 1), np.arange(64))

    def test_rejects_even_element(self):
        with pytest.raises(ValueError):
            ntt_galois_permutation(64, 6)

    @pytest.mark.parametrize("logn", [4, 6, 9])
    def test_composition(self, logn):
        """perm(g1*g2) gathers like perm(g1) after perm(g2)."""
        n = 1 << logn
        g1, g2 = 5, pow(5, 3, 2 * n)
        p1 = ntt_galois_permutation(n, g1)
        p2 = ntt_galois_permutation(n, g2)
        p12 = ntt_galois_permutation(n, (g1 * g2) % (2 * n))
        # x[p2][p1] applies g2 then g1: sigma_{g1}(sigma_{g2}(x)).
        assert np.array_equal(p2[p1], p12)

    def test_exponent_bookkeeping(self):
        """Slot t holds psi^(2*brv(t)+1); the gather relabels exponents."""
        n = 32
        g = 5
        rev = bit_reverse_indices(n)
        exps = 2 * rev + 1
        perm = ntt_galois_permutation(n, g)
        assert np.array_equal(exps[perm], (exps * g) % (2 * n))


class TestGatherEqualsOracle:
    """NTT(phi_g(a)) == NTT(a)[perm] bit for bit, all sizes/elements."""

    @pytest.mark.parametrize("logn", range(4, 12))
    def test_all_bsgs_and_conj_elements(self, contexts_by_logn, logn):
        ctx = contexts_by_logn[logn]
        n = ctx.n
        base = _single_prime_base(ctx)
        rng = np.random.default_rng(logn)
        poly = RnsPolynomial(
            base,
            rng.integers(0, ctx.modulus.value, size=(1, n),
                         dtype=np.uint64),
            is_ntt=False)
        ntt_vals = poly.to_ntt()
        for g in _bsgs_and_conj_elements(n):
            want = poly.galois(g).to_ntt()          # coefficient oracle
            got = ntt_vals.galois(g)                # NTT-domain gather
            assert np.array_equal(got.residues, want.residues), \
                f"N=2^{logn}, g={g}"

    @pytest.mark.slow
    @given(logn=st.integers(min_value=4, max_value=11),
           exponent=st.integers(min_value=0, max_value=200),
           conj=st.booleans(),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_random_elements_hypothesis(self, contexts_by_logn, logn,
                                        exponent, conj, seed):
        ctx = contexts_by_logn[logn]
        n = ctx.n
        g = pow(5, exponent, 2 * n)
        if conj:
            g = (g * (2 * n - 1)) % (2 * n)
        base = _single_prime_base(ctx)
        rng = np.random.default_rng(seed)
        poly = RnsPolynomial(
            base,
            rng.integers(0, ctx.modulus.value, size=(1, n),
                         dtype=np.uint64),
            is_ntt=False)
        want = poly.galois(g).to_ntt()
        got = poly.to_ntt().galois(g)
        assert np.array_equal(got.residues, want.residues)

    def test_galois_coeff_matches_gather_multi_limb(self, small_ring, rng):
        """Multi-limb: the forced coefficient route equals the gather."""
        base = small_ring.base_qp(small_ring.max_level)
        residues = np.stack([
            rng.integers(0, p.value, size=small_ring.n, dtype=np.uint64)
            for p in base])
        poly = RnsPolynomial(base, residues, is_ntt=True)
        for g in (5, pow(5, 7, 2 * small_ring.n), 2 * small_ring.n - 1):
            assert np.array_equal(poly.galois(g).residues,
                                  poly.galois_coeff(g).residues)


def _single_prime_base(ctx: NttContext):
    """A minimal PrimeContext tuple wrapping one scalar context."""
    from repro.ckks.params import PrimeContext

    return (PrimeContext(value=ctx.modulus.value, modulus=ctx.modulus,
                         ntt=ctx, kind="q", index=0),)


@pytest.mark.slow
class TestTripleRouteEquivalence:
    """sequential == NTT-domain hoisted, bit for bit.

    Both rotation routes must produce identical ciphertext residues:
    `rotate` (NTT-domain, per-op raise) and `galois_hoisted` (one
    shared raise).  The gather itself is pinned to the
    coefficient-domain `galois_coeff` oracle above.
    """

    @given(amounts=st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]),
                            min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           level_drop=st.integers(min_value=0, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_triple_equivalence(self, amounts, seed, level_drop,
                                small_evaluator, small_keys,
                                small_encoder, small_params):
        gen = np.random.default_rng(seed)
        z = gen.normal(size=small_params.slots_max) \
            + 1j * gen.normal(size=small_params.slots_max)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        if level_drop:
            ct = small_evaluator.drop_to_level(ct, ct.level - level_drop)
        ntt_batch = small_evaluator.galois_hoisted(ct, amounts)
        for amount in set(amounts):
            sequential = small_evaluator.rotate(ct, amount)
            got = ntt_batch[amount]
            assert got.level == sequential.level
            assert got.scale == sequential.scale
            assert np.array_equal(got.b.residues, sequential.b.residues)
            assert np.array_equal(got.a.residues, sequential.a.residues)

    def test_conjugation_in_batch_matches_standalone(
            self, small_evaluator, small_keys, small_encoder, rng,
            small_params):
        z = rng.normal(size=small_params.slots_max) \
            + 1j * rng.normal(size=small_params.slots_max)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        batch = small_evaluator.galois_hoisted(ct, [1, None, 0, 1])
        assert set(batch) == {1, None, 0}
        wants = {1: small_evaluator.rotate(ct, 1),
                 None: small_evaluator.conjugate(ct),
                 0: ct.clone()}
        for amount, want in wants.items():
            got = batch[amount]
            assert got.level == want.level
            assert got.scale == want.scale
            assert np.array_equal(got.b.residues, want.b.residues)
            assert np.array_equal(got.a.residues, want.a.residues)


class TestMonomialShift:
    """The NTT-domain mul-by-i plane equals the negacyclic roll oracle."""

    def test_i_monomial_columns_match_roll(self, small_ring, rng):
        from repro.ckks.modmath import mul_mod_shoup, neg_mod

        n = small_ring.n
        half = n // 2
        base = small_ring.base_q(3)
        residues = np.stack([
            rng.integers(0, p.value, size=n, dtype=np.uint64)
            for p in base])
        poly = RnsPolynomial(base, residues, is_ntt=False)

        # Oracle: negacyclic roll by N/2 in the coefficient domain.
        rolled = np.roll(poly.residues, half, axis=1)
        head = rolled[:, :half].copy()
        neg_mod(head, poly.moduli, out=head)
        rolled[:, :half] = head
        want = RnsPolynomial(base, rolled, is_ntt=False).to_ntt()

        ntt_vals = poly.to_ntt()
        r_cols, r_shoup, nr_cols, nr_shoup = \
            small_ring.i_monomial_columns(base)
        got = np.empty_like(ntt_vals.residues)
        mul_mod_shoup(ntt_vals.residues[:, :half], r_cols, r_shoup,
                      ntt_vals.moduli, out=got[:, :half])
        mul_mod_shoup(ntt_vals.residues[:, half:], nr_cols, nr_shoup,
                      ntt_vals.moduli, out=got[:, half:])
        assert np.array_equal(got, want.residues)
