"""Key generation: secret, public, and generalized-dnum evaluation keys.

The evaluation key for a target key ``t`` (``s^2`` for HMult, ``s(X^5^r)``
for HRot) follows the generalized key-switching of [Han-Ki, CT-RSA'20]
summarized in Section 2.5: the ciphertext modulus Q factors into ``dnum``
modulus factors Q_j (Eq. 7), and slice ``j`` of the evk encrypts
``P * Q_hat_j * [Q_hat_j^{-1}]_{Q_j} * t`` under the enlarged modulus PQ.
In RNS this gadget factor is simply ``P mod q_i`` on the primes inside
block j and zero elsewhere - which is how :func:`_gadget_scalars` builds
it without any big-integer polynomial arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.params import PrimeContext, RingContext
from repro.ckks.random_sampler import Sampler
from repro.ckks.rns import RnsPolynomial


def canonical_rotation(n: int, amount: int) -> int:
    """Reduce a rotation amount to its canonical range [0, N/2).

    The slot generator 5 has multiplicative order N/2 modulo 2N, so
    amounts congruent mod N/2 (including negative ones) realize the
    *same* automorphism ``X -> X^(5^amount)`` and share one evk.  This
    is the single definition every layer (keygen, key registry, wire
    uploads) normalizes through.

    Note the reduction is automorphism-preserving, not slot-semantic:
    rotating a *sparsely packed* ciphertext (n_slots < N/2) by a raw
    amount ``a`` uses the key for ``a % n_slots``, which only the
    caller's slot count can determine — the runtime IR reduces program
    rotations mod ``n_slots`` at construction, so every amount reaching
    the planner/scheduler is already in slot-canonical form.
    """
    return int(amount) % (n // 2)


@dataclass
class SecretKey:
    """Ternary secret over the full base (q primes then p primes), NTT."""

    poly: RnsPolynomial  # over base_q(L) + base_p

    def restricted(self, base: tuple[PrimeContext, ...]) -> RnsPolynomial:
        return self.poly.restrict(base)


@dataclass
class PublicKey:
    """Encryption key: (b, a) with b = a*s + e over C_L."""

    b: RnsPolynomial
    a: RnsPolynomial


@dataclass
class EvaluationKey:
    """dnum slices of (b_j, a_j) over the full base C_L + B (NTT domain).

    Slice ``j`` is stored once, as the ``(2, L+1+k, N)`` residue array
    ``stacked[j]``: ``[0]`` holds b_j and ``[1]`` holds a_j, rows in
    full-base order (the ``L+1`` q primes, then the ``k`` special
    primes).  ``slices`` are row views of those arrays, so keygen, the
    wire codec and every reader of ``slices`` see the same polynomials,
    and the stacked arrays are all the memory the key holds.  The
    key-switch of :func:`~repro.ckks.keyswitch.key_switch_accumulate`
    reads a working base ``C_level + B`` in place: ``C_level`` is the
    leading ``level+1`` rows and ``B`` the trailing ``k`` rows.
    """

    slices: tuple[tuple[RnsPolynomial, RnsPolynomial], ...]
    stacked: tuple[np.ndarray, ...] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        self.stacked = tuple(np.stack([b.residues, a.residues])
                             for b, a in self.slices)
        self.slices = tuple(
            (RnsPolynomial(b.base, pair[0], b.is_ntt),
             RnsPolynomial(a.base, pair[1], a.is_ntt))
            for (b, a), pair in zip(self.slices, self.stacked))

    @property
    def dnum(self) -> int:
        return len(self.slices)


class KeyGenerator:
    """Generates all key material for one :class:`RingContext`."""

    def __init__(self, ring: RingContext, seed: int | None = None) -> None:
        self.ring = ring
        self.sampler = Sampler(seed=seed, sigma=ring.params.sigma)
        full_base = ring.base_qp(ring.max_level)
        secret_coeffs = self.sampler.ternary_secret(ring.n,
                                                    h=ring.params.h)
        self._secret_coeffs = secret_coeffs
        self.secret = SecretKey(
            RnsPolynomial.from_signed_coeffs(secret_coeffs,
                                             full_base).to_ntt())
        # evk dedupe: every galois key is cached by its galois element
        # (and the relin key as a singleton), so bootstrap stages and
        # BSGS plans that share rotation amounts never regenerate an
        # identical evk — each one is ~dnum full-base ct pairs of work.
        # The lock serializes cache misses: the serving scheduler runs
        # jobs on a worker pool, and two programs racing on the same
        # missing element must not both generate (and sample!) an evk.
        self._galois_keys: dict[int, EvaluationKey] = {}
        self._relin_key: EvaluationKey | None = None
        self._galois_lock = threading.Lock()
        #: calls to :meth:`gen_switching_key` (cache misses only) — lets
        #: tests and the key registry assert that interleaved programs
        #: never regenerate an existing evk.
        self.switching_keys_generated = 0

    # ----- public / encryption ------------------------------------------------

    def gen_public_key(self) -> PublicKey:
        base = self.ring.base_q(self.ring.max_level)
        a = self.sampler.uniform_poly(base, self.ring.n, is_ntt=True)
        e = self.sampler.error_poly(base, self.ring.n)
        s = self.secret.restricted(base)
        b = a.mul(s).add(e)
        return PublicKey(b=b, a=a)

    # ----- evaluation keys ------------------------------------------------------

    def _gadget_scalars(self, block: tuple[int, int]) -> dict[int, int]:
        """[P * Q_tilde_j]_prime for every prime in the C_L + B base.

        Q_tilde_j is 1 mod the block's primes and 0 mod the other q primes;
        P vanishes on every special prime.  So the scalar is ``P mod q_i``
        inside the block and 0 everywhere else.
        """
        start, stop = block
        p_product = self.ring.p_product
        scalars: dict[int, int] = {}
        for i, prime in enumerate(self.ring.base_q(self.ring.max_level)):
            inside = start <= i < stop
            scalars[prime.value] = p_product % prime.value if inside else 0
        for prime in self.ring.base_p:
            scalars[prime.value] = 0
        return scalars

    def gen_switching_key(self, target: RnsPolynomial) -> EvaluationKey:
        """evk that re-linearizes a component decryptable under ``target``.

        ``target`` must be an NTT-domain polynomial over the full
        C_L + B base (e.g. s^2 or an automorphism image of s).
        """
        ring = self.ring
        full_base = ring.base_qp(ring.max_level)
        if target.base != full_base:
            raise ValueError("target key must live on the full C_L + B base")
        self.switching_keys_generated += 1
        s = self.secret.poly
        slices = []
        for block in ring.decomposition_blocks(ring.max_level):
            a_j = self.sampler.uniform_poly(full_base, ring.n, is_ntt=True)
            e_j = self.sampler.error_poly(full_base, ring.n)
            gadget = self._gadget_scalars(block)
            key_term = target.mul_scalar(gadget)
            # b_j = a_j * s + e_j + P*Q_tilde_j * target  (decrypts as b - a*s)
            b_j = a_j.mul(s).add(e_j).add(key_term)
            slices.append((b_j, a_j))
        return EvaluationKey(slices=tuple(slices))

    def gen_relinearization_key(self) -> EvaluationKey:
        """evk_mult: switches the s^2 component of a tensor product."""
        if self._relin_key is None:
            with self._galois_lock:
                if self._relin_key is None:
                    s = self.secret.poly
                    self._relin_key = self.gen_switching_key(s.mul(s))
        return self._relin_key

    def canonical_rotation(self, amount: int) -> int:
        """Reduce a rotation amount to its canonical range [0, N/2).

        See :func:`canonical_rotation` — this is the bound form for
        this keygen's ring degree.
        """
        return canonical_rotation(self.ring.n, amount)

    def gen_rotation_key(self, amount: int) -> EvaluationKey:
        """evk_rot^(r): switches s(X^(5^r)) back to s."""
        galois_elt = pow(5, self.canonical_rotation(amount),
                         2 * self.ring.n)
        return self.gen_galois_key(galois_elt)

    def gen_conjugation_key(self) -> EvaluationKey:
        """evk for complex conjugation (galois element 2N-1)."""
        return self.gen_galois_key(2 * self.ring.n - 1)

    def gen_galois_key(self, galois_elt: int) -> EvaluationKey:
        cached = self._galois_keys.get(galois_elt)
        if cached is None:
            with self._galois_lock:
                cached = self._galois_keys.get(galois_elt)
                if cached is not None:  # lost the race, winner generated
                    return cached
                # The secret lives in the NTT domain; the automorphism
                # image s(X^g) is the evaluation-point gather of its NTT
                # values (bit-identical to the old iNTT -> permute -> NTT
                # route), so evk generation never leaves the evaluation
                # domain.
                cached = self.gen_switching_key(
                    self.secret.poly.galois(galois_elt))
                self._galois_keys[galois_elt] = cached
        return cached

    def ensure_rotation_keys(self, evaluator,
                             amounts) -> dict[int, EvaluationKey]:
        """Populate an evaluator with the union of rotation amounts.

        Callers collect every amount a whole program will need —
        bootstrap stages, BSGS plans, runtime rotation batches — and
        make one call; a session serving several programs makes several
        calls against the same evaluator, and an evk that any earlier
        union (or another evaluator of the same keygen) already produced
        is never regenerated: amounts are canonicalized to [0, N/2)
        first (congruent amounts share an automorphism — see
        :func:`canonical_rotation` — so a raw ``-1`` keys the entry a
        fully-packed ciphertext's ``amount % n_slots`` lookup actually
        hits, instead of a dead ``-1`` entry), and the keygen's
        galois-element cache dedupes across calls and evaluators.
        Sparse-packing callers must pass amounts already reduced mod
        their slot count (the runtime IR always does).  Amount 0 is a
        no-op rotation and skipped.  Returns the evaluator's (now
        complete) rotation-key dict.
        """
        for amount in sorted({self.canonical_rotation(a) for a in amounts}):
            if amount and amount not in evaluator.rotation_keys:
                evaluator.rotation_keys[amount] = \
                    self.gen_rotation_key(amount)
        return evaluator.rotation_keys

    def rotation_keys_for(self, amounts) -> dict[int, EvaluationKey]:
        """The rotation-key bundle for a set of amounts (for the wire).

        Serving-layer clients use this to build the galois-key upload
        for a program union without holding an evaluator; the same
        canonicalization and caching as :meth:`ensure_rotation_keys`
        applies, so interleaved uploads re-serialize cached objects
        instead of regenerating them.
        """
        return {amount: self.gen_rotation_key(amount)
                for amount in sorted({self.canonical_rotation(a)
                                      for a in amounts}) if amount}

    # ----- direct (secret-key) encryption, used by tests -------------------------

    def encrypt_symmetric(self, plaintext_poly: RnsPolynomial, scale: float,
                          n_slots: int) -> Ciphertext:
        base = plaintext_poly.base
        a = self.sampler.uniform_poly(base, self.ring.n, is_ntt=True)
        e = self.sampler.error_poly(base, self.ring.n)
        s = self.secret.restricted(base)
        m = plaintext_poly if plaintext_poly.is_ntt else plaintext_poly.to_ntt()
        b = a.mul(s).add(e).add(m)
        return Ciphertext(b=b, a=a, scale=scale, n_slots=n_slots)
